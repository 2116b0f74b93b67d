import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfsmr import program as program_mod
from wfsmr.bench import gen_chain, gen_cycle, gen_tree
from wfsmr.fixpoint import SolveOptions, solve, trace_records
from wfsmr.mapreduce import Engine
from wfsmr.planner import compile_program
from wfsmr.program import (
    ArityError,
    Atom,
    Fact,
    FactRows,
    InvariantError,
    Literal,
    ParseError,
    ProgramError,
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
        [fact] = program.facts()
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


class TestFactRows:
    TEXT = "e(1,2).\ne(3,4).\ne(1,2).\ne(5,6).\n"
    FACTS = (Fact("e", (1, 2)), Fact("e", (3, 4)), Fact("e", (5, 6)))

    # a text of each kind parse_facts accepts, and its facts: deduplicated and
    # grouped by predicate in the order of its first fact
    ACCEPTED = {
        "fast-path": (TEXT, FACTS),
        "comment": ("% c\n" + TEXT, FACTS),
        "spacing": ("e( 1,2 ).\r\n e(3,\t4).e(1,2) .\n\ne(5,6).\n", FACTS),
        "predicates": (
            "e(1,2).\nf(1).\ne(3,4).\ng.\nf(1).\ne(5,6).\n",
            FACTS + (Fact("f", (1,)), Fact("g")),
        ),
        "text-constants": ("e(007,x).\ne(1,2).\ne(007,x).\n", (Fact("e", ("007", "x")), Fact("e", (1, 2)))),
        "no-final-newline": (TEXT[:-1], FACTS),
        "empty": ("", ()),
    }

    @pytest.mark.parametrize("text, facts", ACCEPTED.values(), ids=ACCEPTED)
    def test_every_accepted_text_gives_rows(self, text, facts):
        for value in (parse_facts(text), parse_program(text).facts()):
            assert isinstance(value, FactRows)
            assert value == facts and facts == value
            assert list(value) == list(value) == list(facts)
            assert len(value) == len(facts)
            assert list(value.relations) == list(dict.fromkeys(fact.predicate for fact in facts))
            assert all(value.relations.values())

    def test_equals_its_tuple_and_another_parse(self):
        rows = parse_facts(self.TEXT)
        assert rows == self.FACTS and self.FACTS == rows
        assert not rows != self.FACTS and not self.FACTS != rows
        assert rows == parse_facts(self.TEXT) == parse_facts("% c\n" + self.TEXT)
        assert parse_facts(self.TEXT) is not rows

    @pytest.mark.parametrize(
        "other",
        [
            FACTS[::-1],
            FACTS[:2],
            FACTS + (Fact("e", (7, 8)),),
            (Fact("f", (1, 2)), Fact("f", (3, 4)), Fact("f", (5, 6))),
            (Fact("e", (1, 2)), Fact("e", (3, 4)), Fact("e", (5, 7))),
        ],
        ids=["order", "fewer", "more", "predicate", "row"],
    )
    def test_unequal_to_other_order_or_content(self, other):
        rows = parse_facts(self.TEXT)
        assert rows != other and other != rows
        assert not rows == other and not other == rows
        parsed = parse_facts(facts_to_text(other))
        assert isinstance(parsed, FactRows)
        assert rows != parsed and parsed != rows

    def test_iterates_again_in_the_same_order(self):
        rows = parse_facts(self.TEXT)
        assert list(rows) == list(rows) == list(self.FACTS)
        assert len(rows) == 3
        assert {id(fact.predicate) for fact in rows} == {id(predicate) for predicate in rows.relations}

    @pytest.mark.parametrize("other", [None, 0, 2.5, object(), Fact("e", (1, 2))])
    def test_non_iterables_compare_unequal(self, other):
        rows = parse_facts(self.TEXT)
        assert rows != other and other != rows
        assert not rows == other and not other == rows

    def test_indexing_hashing_and_concatenation_take_its_tuple(self):
        rows = parse_facts(self.TEXT)
        for use in (lambda v: v[0], lambda v: v[1:], hash, lambda v: v + v, lambda v: v + self.FACTS):
            with pytest.raises(TypeError):
                use(rows)
            assert use(tuple(rows)) == use(self.FACTS)


class TestParseFactsAgainstTokenParser:
    @settings(max_examples=200, deadline=None)
    @given(_facts_texts())
    def test_same_facts_as_parse_program(self, text):
        got = parse_facts(text)
        want = parse_program(text).facts()
        assert isinstance(got, FactRows) and got == want
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
        # the same with the final newline of a one-predicate integer file
        ("not(1).\n", ParseError, 1, 1, "'not' is reserved and cannot name a predicate"),
        ("not(1,2).\n", ParseError, 1, 1, "'not' is reserved and cannot name a predicate"),
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

    def test_error_tokenizes_from_the_rejected_statement(self, monkeypatch):
        # the 20,000 statements before the bad one hold no error, so the
        # token parser starts at the statement the fast path rejected
        built = []
        token = program_mod._Token

        def counted(*args):
            built.append(args)
            return token(*args)

        monkeypatch.setattr(program_mod, "_Token", counted)
        text = facts_to_text(gen_cycle(20000)) + "move(1,,2).\n"
        with pytest.raises(ParseError, match=r"^20001:8: expected term, found ','$"):
            parse_facts(text)
        assert 0 < len(built) < 20

    def test_token_parser_never_supplies_the_facts(self, monkeypatch):
        monkeypatch.setattr(program_mod, "_FACT_RE", re.compile(r"(?!)()()"))
        with pytest.raises(InvariantError):
            parse_facts("p(1).")


# Texts in the shape of the one-predicate integer fast path: one predicate,
# canonical integers, each statement on its own "\n"-terminated line. Small
# values repeat rows; the predicates include one that is a prefix of another.
_FAST_PREDICATES = ("p", "mov", "move", "e_1", "notx", "b9")


@st.composite
def _fast_shaped_lines(draw) -> tuple[str, int, list[str]]:
    predicate = draw(st.sampled_from(_FAST_PREDICATES))
    arity = draw(st.integers(1, 3))
    ints = st.integers(0, 12) | st.integers(0, 10**30)
    rows = draw(st.lists(st.tuples(*[ints] * arity), min_size=1, max_size=12))
    return predicate, arity, [f"{predicate}({','.join(map(str, row))}).\n" for row in rows]


def _swap_integer(line: str, new: str) -> str:
    return re.sub(r"(?<=[(,])[0-9]+", new, line, count=1)


# Each near miss changes one thing, so the general path and the token parser
# meet the same first fault.
_NEAR_MISSES = {
    "no final newline": lambda p, n, lines, i: lines[:-1] + [lines[-1][:-1]],
    "crlf": lambda p, n, lines, i: [line.replace("\n", "\r\n") for line in lines],
    "second predicate": lambda p, n, lines, i: lines[:i] + ["q(1).\n"] + lines[i:],
    "prefix predicate": lambda p, n, lines, i: lines[:i] + [
        lines[i].replace(p, "move" if p == "mov" else "mov", 1)] + lines[i:],
    "leading zero": lambda p, n, lines, i: lines[:i] + [_swap_integer(lines[i], "007")] + lines[i + 1:],
    "underscore": lambda p, n, lines, i: lines[:i] + [_swap_integer(lines[i], "1_0")] + lines[i + 1:],
    "arabic-indic digit": lambda p, n, lines, i: lines[:i] + [_swap_integer(lines[i], "1\u0661")] + lines[i + 1:],
    "empty arguments": lambda p, n, lines, i: lines[:i] + ["r().\n"] + lines[i:],
    "arity clash": lambda p, n, lines, i: lines[:i] + [f"{p}({','.join(['1'] * (n + 1))}).\n"] + lines[i:],
    "comment": lambda p, n, lines, i: lines[:i] + ["% c\n"] + lines[i:],
    "space": lambda p, n, lines, i: lines[:i] + [lines[i].replace("(", "( ", 1)] + lines[i + 1:],
    "empty text": lambda p, n, lines, i: [],
}


@st.composite
def _fast_texts_and_near_misses(draw) -> str:
    predicate, arity, lines = draw(_fast_shaped_lines())
    miss = draw(st.sampled_from([None, *sorted(_NEAR_MISSES)]))
    if miss is not None:
        i = draw(st.integers(0, len(lines) - 1))
        lines = _NEAR_MISSES[miss](predicate, arity, lines, i)
    return "".join(lines)


def _assert_as_token_parser(text: str) -> None:
    """``parse_facts`` gives the token parser's facts, with the same argument
    types, or its error."""
    try:
        want = parse_program(text).facts()
    except ProgramError as exc:
        with pytest.raises(type(exc)) as err:
            parse_facts(text)
        assert str(err.value) == str(exc)
        return
    got = parse_facts(text)
    assert isinstance(got, FactRows) and got == want
    assert [tuple(map(type, f.args)) for f in got] == [tuple(map(type, f.args)) for f in want]


def _big_integer() -> str:
    return "1" * (sys.get_int_max_str_digits() + 1)


_INT_LIMITED = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this interpreter converts integers of any length",
)


class TestOnePredicateIntegerFastPath:
    @settings(max_examples=300, deadline=None)
    @given(_fast_texts_and_near_misses())
    def test_same_facts_or_error_as_parse_program(self, text):
        _assert_as_token_parser(text)

    @pytest.mark.parametrize(
        "facts", [gen_cycle(300), gen_tree(100), gen_chain(60, 7)], ids=["cycle", "tree", "chain"]
    )
    def test_generated_files_take_the_fast_path(self, facts, monkeypatch):
        want = parse_facts(facts_to_text(facts))
        monkeypatch.setattr(program_mod, "_FACT_RE", re.compile(r"(?!)()()"))
        got = parse_facts(facts_to_text(facts))
        assert got == want == tuple(facts)
        assert len({id(fact.predicate) for fact in got}) == 1

    @pytest.mark.parametrize("prefix", ["", "% c\n"], ids=["two-predicates", "comment"])
    def test_one_predicate_string_for_all_facts(self, prefix):
        facts = parse_facts(prefix + "edge(1,2).\nnode(1).\nedge(2,3).\nnode(2).\nedge(3,1).\n")
        assert len(facts) == 5
        assert len({id(fact.predicate) for fact in facts}) == 2

    def test_tracemalloc_peak(self):
        # a backtracking check of the whole text, such as a fullmatch of
        # (?:statement)*, holds hundreds of bytes per statement
        text = facts_to_text(gen_cycle(20000))
        tracemalloc.start()
        try:
            facts = parse_facts(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(facts) == 20000
        assert peak <= 6.0e6

    @_INT_LIMITED
    @pytest.mark.parametrize(
        "parse, text, line, col",
        [
            (parse, text, line, col)
            for parse in (parse_facts, parse_program)
            for text, line, col in [
                ("p({big}).\n", 1, 3),  # the shape of the fast path
                ("p(1).\np(2,{big}).", 2, 5),
                ("% c\np(1).\np({big}).\n", 3, 3),
            ]
        ] + [(parse_program, "q(X) :- p(X, {big}).\n", 1, 14)],
    )
    def test_integer_over_the_digit_limit(self, parse, text, line, col):
        with pytest.raises(ParseError) as err:
            parse(text.format(big=_big_integer()))
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value).endswith(
            f"integer constant longer than {sys.get_int_max_str_digits()} digits"
        )


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


def _definite_rules(program, facts=()):
    """The rules of the definite fixpoint that starts a naive solve: those
    that its K0 step ran jobs of. A round skips a rule with a positive
    subgoal over an empty relation, so ``facts`` must give every rule, with
    negation or not, a round in which its positive subgoals hold facts:
    then only a rule's negation keeps it out of K0."""
    engine = Engine()
    result = solve(program, facts, options=SolveOptions(mode="naive"), engine=engine)
    ran = {
        int(record["name"].split(":")[0][1:])
        for record in trace_records(result, engine)
        if record["record"] == "job" and record["step"] == "K0"
    }
    return [plan.rule for plan in compile_program(program) if plan.index in ran]


class TestDefiniteSubprogram:
    def test_game_program_has_no_definite_rules(self):
        program = parse_program("win(X) :- move(X,Y), not win(Y).\n")
        facts = [Fact("move", (1, 2)), Fact("move", (2, 3))]
        assert _definite_rules(program, facts) == []

    def test_closure_program_keeps_only_positive_rules(self):
        text = (
            "tc(X,Y) :- par(X,Y).\n"
            "tc(X,Y) :- par(X,Z), tc(Z,Y).\n"
            "par(X,Y) :- b(X,Y), not q(X,Y).\n"
            "par(X,Y) :- b(X,Y), b(Y,Z), not q(Y,Z).\n"
            "q(X,Y) :- b(Z,X), b(X,Y), not q(Z,X).\n"
        )
        program = parse_program(text)
        facts = [Fact("par", (1, 2)), Fact("par", (2, 3)), Fact("b", (1, 2)), Fact("b", (2, 3))]
        assert _definite_rules(program, facts) == list(program.proper_rules()[:2])

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
