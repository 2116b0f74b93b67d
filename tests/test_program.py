import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfsmr import program as program_mod
from wfsmr.bench import gen_cycle
from wfsmr.fixpoint import SolveOptions, solve, trace_records
from wfsmr.mapreduce import Engine
from wfsmr.planner import compile_program
from wfsmr.program import (
    ArityError,
    Atom,
    Fact,
    InvariantError,
    Literal,
    ParseError,
    Rule,
    SafetyError,
    Variable,
    check_safety,
    facts_to_text,
    parse_facts,
    parse_program,
)

from tests.helpers import random_program

SECTION3_RULE = "p(X,Y) <- a(X,Z), b(Z,Y), not c(X,Z), not d(Z,Y).\n"


class TestParseProgram:
    def test_join_rule_with_two_negations(self):
        program = parse_program(SECTION3_RULE)
        assert len(program.rules) == 1
        rule = program.rules[0]
        assert rule.head == Atom("p", (Variable("X"), Variable("Y")))
        assert len(rule.positive()) == 2
        assert len(rule.negative()) == 2
        assert [a.predicate for a in rule.positive()] == ["a", "b"]
        assert [a.predicate for a in rule.negative()] == ["c", "d"]

    def test_unsafe_rule_names_variable(self):
        with pytest.raises(SafetyError) as err:
            parse_program("p(X,Y) <- a(X,Y), not b(Y,Z).\n")
        assert err.value.variable_names() == ("Z",)
        assert "Z" in str(err.value)

    def test_empty_input(self):
        program = parse_program("")
        assert len(program.rules) == 0
        assert program.pretty() == ""

    def test_both_arrows_and_comments(self):
        text = "% game rule\nwin(X) :- move(X,Y), not win(Y).\nmove(1,2). % an edge\n"
        program = parse_program(text)
        assert len(program.rules) == 2
        assert program.rules[1].is_fact

    def test_facts_in_program_are_collected(self):
        program = parse_program("e(1,2).\ne(2,3).\np(X,Y) :- e(X,Y).\n")
        assert program.facts() == (Fact("e", (1, 2)), Fact("e", (2, 3)))
        assert len(program.proper_rules()) == 1

    def test_arity_mismatch(self):
        with pytest.raises(ArityError) as err:
            parse_program("p(X) :- a(X).\nq(X) :- a(X,X).\n")
        assert err.value.predicate == "a"

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(X) :- a(X).\np(X :- a(X).\n")
        assert err.value.line == 2
        assert err.value.col > 1

    def test_not_is_reserved(self):
        with pytest.raises(ParseError):
            parse_program("not(X) :- a(X).\n")

    def test_fact_with_variable_rejected(self):
        with pytest.raises(SafetyError) as err:
            parse_program("p(X).\n")
        assert err.value.variable_names() == ("X",)

    def test_function_symbols_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p(X) :- a(f(X)).\n")

    def test_propositional_rules(self):
        program = parse_program("p :- q, not r.\nq.\n")
        assert program.signatures == {"p": 0, "q": 0, "r": 0}
        assert program.rules[0].head.arity == 0

    def test_numeric_constants_canonicalized(self):
        program = parse_program("e(1,02).\n")
        fact = program.facts()[0]
        assert fact.args == (1, "02")  # leading zero keeps the text form


class TestParseFacts:
    def test_positive_goal_input(self):
        facts = parse_facts("a(1,2).\na(1,3).\nb(2,4).\nb(3,5).")
        assert set(facts) == {
            Fact("a", (1, 2)),
            Fact("a", (1, 3)),
            Fact("b", (2, 4)),
            Fact("b", (3, 5)),
        }

    def test_duplicates_removed(self):
        assert parse_facts("a(1,2).\na(1,2).") == (Fact("a", (1, 2)),)

    def test_negative_side_input(self):
        assert set(parse_facts("c(1,2).\nd(2,3).")) == {
            Fact("c", (1, 2)),
            Fact("d", (2, 3)),
        }

    def test_rule_rejected(self):
        with pytest.raises(ParseError):
            parse_facts("p(1) :- q(1).")

    def test_non_ground_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_facts("p(X).")
        assert "not ground" in str(err.value)

    def test_arity_checked(self):
        with pytest.raises(ArityError):
            parse_facts("p(1).\np(1,2).")

    def test_round_trip_through_text(self):
        facts = parse_facts("move(1,2).\nmove(2,1).")
        assert parse_facts(facts_to_text(facts)) == facts


# Predicates with their arities, and constants covering ints, zero-padded
# digit strings (kept as text), names, and names that merely start with "not".
_PREDICATES = {"p": 2, "q": 0, "r0": 1, "nota": 3, "e_1": 2}
_CONSTANTS = ("0", "1", "7", "42", "007", "00", "010", "a", "b_C9", "notx", "x")
# Everything the tokenizer skips: str.isspace characters (ASCII and not) and
# comments, which may hold any character up to the end of their line.
_GAPS = st.lists(
    st.sampled_from(["", " ", "\n", "\t", "\r", "\x0b", "\x0c", "\u00a0", "\u2028",
                     "% c (x). :- X\n", "%\n", "%%é\n"]),
    max_size=3,
).map("".join)


@st.composite
def _facts_texts(draw) -> str:
    """A valid facts input with gaps between all tokens and repeated facts."""
    out = [draw(_GAPS)]
    for _ in range(draw(st.integers(0, 8))):
        predicate = draw(st.sampled_from(sorted(_PREDICATES)))
        arity = _PREDICATES[predicate]
        statement = predicate + draw(_GAPS)
        if arity or draw(st.booleans()):  # "q." and "q()." are the same atom
            args = [draw(_GAPS) + draw(st.sampled_from(_CONSTANTS)) + draw(_GAPS) for _ in range(arity)]
            statement += "(" + draw(_GAPS) + ",".join(args) + ")" + draw(_GAPS)
        statement += "." + draw(_GAPS)
        out.append(statement * draw(st.integers(1, 2)))
    out.append(draw(st.sampled_from(["", "% comment at the end without a newline"])))
    return "".join(out)


class TestParseFactsAgainstTokenParser:
    @settings(max_examples=200, deadline=None)
    @given(_facts_texts())
    def test_same_facts_as_parse_program(self, text):
        got = parse_facts(text)
        want = tuple(dict.fromkeys(parse_program(text).facts()))
        assert got == want
        assert [tuple(map(type, f.args)) for f in got] == [tuple(map(type, f.args)) for f in want]

    @pytest.mark.parametrize(
        "text, facts",
        [
            ("p(007, 0, 10, 00, x_1).\nq.\nq().", (Fact("p", ("007", 0, 10, "00", "x_1")), Fact("q"))),
            ("move(1, % x\n 2).", (Fact("move", (1, 2)),)),
            (" \n% nothing here\n\t% or here", ()),
        ],
    )
    def test_examples(self, text, facts):
        assert parse_facts(text) == facts

    # (input, error class, line, column, message), as the token parser has
    # always reported them
    BROKEN = [
        ("p(1).\nq(X) :- p(X).\n", ParseError, 2, 6, "rules are not allowed in a facts input"),
        ("q(1) <- p(1).", ParseError, 1, 6, "rules are not allowed in a facts input"),
        ("p(1):-.", ParseError, 1, 5, "rules are not allowed in a facts input"),
        ("p(1).\nmove(X, 2).", ParseError, 2, 1, "fact 'move(X,2)' is not ground (variables: X)"),
        ("P(1).", ParseError, 1, 1, "expected predicate name, found 'P'"),
        ("not(1).", ParseError, 1, 1, "'not' is reserved and cannot name a predicate"),
        ("p(1).\n  not.", ParseError, 2, 3, "'not' is reserved and cannot name a predicate"),
        ("p(not).", ParseError, 1, 3, "expected term, found 'not'"),
        ("p(1, not).", ParseError, 1, 6, "expected term, found 'not'"),
        ("p(1).\nmové(1).", ParseError, 2, 4, "unexpected character 'é'"),
        ("p(1,é).", ParseError, 1, 5, "unexpected character 'é'"),
        ("_x(1).", ParseError, 1, 1, "invalid name '_x'"),
        ("p(1)\nq(2).", ParseError, 2, 1, "expected '.', found 'q'"),
        ("p(1)", ParseError, 1, 5, "expected '.'"),
        ("p(1). % ok\n q(2) % no dot\n", ParseError, 3, 1, "expected '.'"),
        ("p (1). x", ParseError, 1, 9, "expected '.'"),
        ("p(1)..", ParseError, 1, 6, "expected predicate name, found '.'"),
        ("p(1,).", ParseError, 1, 5, "expected term, found ')'"),
        ("p(1 2).", ParseError, 1, 5, "expected ')', found '2'"),
        ("p(1", ParseError, 1, 4, "expected ')'"),
        ("p((1)).", ParseError, 1, 3, "expected term, found '('"),
        ("p(1).\nq(2).\np(1,2).", ArityError, None, None,
         "predicate 'p' used with arity 2 but previously with arity 1"),
        ("p().\np(1).", ArityError, None, None,
         "predicate 'p' used with arity 1 but previously with arity 0"),
        # the tokenizer reads the whole input before any arity is checked
        ("p(1).\np(1,2).\né", ParseError, 3, 1, "unexpected character 'é'"),
        # only a line feed starts a line; every other space, "\r" included,
        # takes one column
        ("p(1).\r\nq(é).", ParseError, 2, 3, "unexpected character 'é'"),
        ("p(1)\t\t.x", ParseError, 1, 9, "expected '.'"),
        ("p(1).\u2028é", ParseError, 1, 7, "unexpected character 'é'"),
        ("p(1).\x0b\x0cé", ParseError, 1, 8, "unexpected character 'é'"),
        ("\tp(1)\r.\r\n\t% c\r\n  q(2 3).", ParseError, 3, 7, "expected ')', found '3'"),
    ]

    @pytest.mark.parametrize("text, error, line, col, message", BROKEN)
    def test_broken_input_error(self, text, error, line, col, message):
        with pytest.raises(error) as err:
            parse_facts(text)
        assert type(err.value) is error
        assert (getattr(err.value, "line", None), getattr(err.value, "col", None)) == (line, col)
        assert str(err.value).endswith(message)

    @pytest.mark.parametrize("parse", [parse_facts, parse_program])
    @pytest.mark.parametrize(
        "text, line, col",
        [("p(1) % c", 1, 9), ("p(1)      ", 1, 11), ("q(2).\np(1) %c %d", 2, 11)],
    )
    def test_error_at_the_end_after_a_comment(self, parse, text, line, col):
        # a comment advances the column like any other characters
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_error_after_many_lines(self):
        text = facts_to_text(gen_cycle(20000)) + "move(1,,2).\n"
        with pytest.raises(ParseError) as err:
            parse_facts(text)
        assert (err.value.line, err.value.col) == (20001, 8)
        assert str(err.value).endswith("expected term, found ','")

    def test_token_parser_never_supplies_the_facts(self, monkeypatch):
        monkeypatch.setattr(program_mod, "_FACT_RE", re.compile(r"(?!)()()"))
        with pytest.raises(InvariantError):
            parse_facts("p(1).")


class TestCheckSafety:
    def test_game_rule_is_safe(self):
        rule = parse_program("win(X) :- move(X,Y), not win(Y).\n").rules[0]
        assert check_safety(rule) == ()

    def test_two_unbound_variables(self):
        rule = Rule(
            Atom("q", (Variable("X"), Variable("Y"))),
            (
                Literal(Atom("c", (Variable("X"), Variable("U")))),
                Literal(Atom("d", (Variable("W"), Variable("U"))), negated=True),
                Literal(Atom("e", (Variable("U"), Variable("Y"))), negated=True),
            ),
        )
        assert set(check_safety(rule)) == {"W", "Y"}

    def test_propositional_fact_is_safe(self):
        assert check_safety(Rule(Atom("p"))) == ()

    def test_ground_negative_only_rule_is_safe(self):
        rule = parse_program("p :- not q(1,2).\n").rules[0]
        assert check_safety(rule) == ()


def _definite_rules(program):
    """The rules of the definite fixpoint that starts a naive solve: those
    that its K0 step ran jobs of."""
    engine = Engine()
    result = solve(program, options=SolveOptions(mode="naive"), engine=engine)
    ran = {
        int(record["name"].split(":")[0][1:])
        for record in trace_records(result, engine)
        if record["record"] == "job" and record["step"] == "K0"
    }
    return [plan.rule for plan in compile_program(program) if plan.index in ran]


class TestDefiniteSubprogram:
    def test_game_program_has_no_definite_rules(self):
        program = parse_program("win(X) :- move(X,Y), not win(Y).\n")
        assert _definite_rules(program) == []

    def test_closure_program_keeps_only_positive_rules(self):
        text = (
            "tc(X,Y) :- par(X,Y).\n"
            "tc(X,Y) :- par(X,Z), tc(Z,Y).\n"
            "par(X,Y) :- b(X,Y), not q(X,Y).\n"
            "par(X,Y) :- b(X,Y), b(Y,Z), not q(Y,Z).\n"
            "q(X,Y) :- b(Z,X), b(X,Y), not q(Z,X).\n"
        )
        program = parse_program(text)
        assert _definite_rules(program) == list(program.proper_rules()[:2])

    def test_horn_program_is_identity(self):
        program = parse_program("p(X) :- e(X).\nq(X) :- p(X), e(X).\ne(1).\n")
        assert _definite_rules(program) == list(program.proper_rules())


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            SECTION3_RULE,
            "win(X) :- move(X,Y), not win(Y).\nmove(1,2).\nmove(2,1).\n",
            "q(X,Y) :- b(Z,X), b(X,Y), not q(Z,X).\n",
            "p :- q, not r.\nq.\n",
        ],
    )
    def test_pretty_print_round_trips(self, text):
        program = parse_program(text)
        assert parse_program(program.pretty()) == program

    def test_random_programs_round_trip(self):
        rng = random.Random(20240817)
        for _ in range(50):
            program = random_program(rng)
            assert parse_program(program.pretty()) == program
