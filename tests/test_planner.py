import random

import pytest

from wfsmr import fixpoint, planner
from wfsmr.mapreduce import Engine
from wfsmr.operators import eval_rule
from wfsmr.planner import PlanWarning, compile_program, compile_rule
from wfsmr.program import (
    Atom,
    Fact,
    InvariantError,
    Literal,
    Rule,
    SafetyError,
    Variable,
    parse_program,
)
from wfsmr.store import Database, SymbolTable

from tests.helpers import (
    db_atoms,
    decoded,
    eval_rule_bruteforce,
    random_program,
)


def plan_for(text: str):
    return compile_rule(parse_program(text).rules[0])


class TestCompileRule:
    def test_join_rule_schema_and_keys(self):
        plan = plan_for("p(X,Y) <- a(X,Z), b(Z,Y), not c(X,Z), not d(Z,Y).")
        assert plan.goal_schema == ("X", "Z", "Y")
        assert len(plan.joins) == 1
        assert plan.joins[0].join_vars == ("Z",)
        assert [s.key_vars for s in plan.anti_joins] == [("X", "Z"), ("Z", "Y")]
        assert plan.head_cols == (("v", 0), ("v", 2))

    def test_three_way_join_drops_unused_column(self):
        plan = plan_for("q(X,Y) <- a(X,Z), b(Z,W), c(W,Y), not d(X,W).")
        assert len(plan.joins) == 2
        assert plan.joins[0].join_vars == ("Z",)
        assert plan.joins[0].output == ("X", "W")  # Z is dead after the first join
        assert plan.joins[1].join_vars == ("W",)
        assert plan.goal_schema == ("X", "W", "Y")
        assert plan.anti_joins[0].key_vars == ("X", "W")

    def test_single_subgoal_rule(self):
        plan = plan_for("win(X) <- move(X,Y), not win(Y).")
        assert plan.joins == ()
        assert plan.goal_schema == ("X", "Y")
        assert plan.anti_joins[0].key_vars == ("Y",)
        assert plan.anti_joins[0].pos_key == (1,)

    def test_unsafe_rule_rejected(self):
        from wfsmr.program import Atom, Literal, Rule, Variable

        rule = Rule(
            Atom("p", (Variable("X"),)),
            (Literal(Atom("q", (Variable("Y"),)), negated=True),),
        )
        with pytest.raises(SafetyError):
            compile_rule(rule)

    def test_repeated_variable_compiles_to_filter(self):
        plan = plan_for("p(X) <- a(X,X).")
        assert plan.base is not None
        assert plan.base.eq_cols == ((0, 1),)
        assert plan.base.vars == ("X",)

    def test_constant_compiles_to_filter(self):
        plan = plan_for("p(X) <- a(X,5), not b(X,7).")
        assert plan.base.const_cols == ((1, 5),)
        assert plan.anti_joins[0].access.const_cols == ((1, 7),)
        assert plan.anti_joins[0].key_vars == ("X",)

    def test_ground_negative_subgoal_gets_empty_key(self):
        plan = plan_for("p(X) <- a(X), not b(1,2).")
        assert plan.anti_joins[0].key_vars == ()
        assert plan.anti_joins[0].pos_key == ()

    def test_no_positive_subgoals(self):
        plan = plan_for("p <- not q(1).")
        assert plan.base is None
        assert plan.goal_schema == ()
        assert plan.head_cols == ()

    def test_head_constant_emission(self):
        plan = plan_for("p(X,9) <- a(X).")
        assert plan.head_cols == (("v", 0), ("c", 9))

    def test_cartesian_product_warns(self):
        with pytest.warns(PlanWarning):
            plan_for("p(X,Y) <- a(X), b(Y).")


class TestBrokenInvariants:
    """With the safety check bypassed, an unsafe rule reaches the checks that
    cannot fail for safe rules; they raise the drivers' named error."""

    @pytest.mark.parametrize(
        "rule, message",
        [
            (Rule(Atom("p", (Variable("X"),)), (Literal(Atom("q", (Variable("Y"),))),)),
             "schema lost variables"),
            (Rule(Atom("p", (Variable("X"),))), "has variables but no positive subgoal"),
        ],
    )
    def test_named_error(self, monkeypatch, rule, message):
        monkeypatch.setattr(planner, "check_safety", lambda rule: ())
        with pytest.raises(InvariantError, match=message):
            compile_rule(rule)

    def test_one_error_class_for_planner_and_drivers(self):
        assert planner.InvariantError is fixpoint.InvariantError


class TestCompileProgram:
    def test_single_rule_program(self):
        program = parse_program("win(X) :- move(X,Y), not win(Y).\n")
        assert len(compile_program(program)) == 1

    def test_five_rule_program(self):
        from wfsmr.bench import TC_NEG

        assert len(compile_program(parse_program(TC_NEG))) == 5

    def test_facts_only_program(self):
        program = parse_program("e(1,2).\ne(2,3).\n")
        assert compile_program(program) == []


class TestExplain:
    def test_plan_dump_lines(self):
        plan = plan_for("p(X,Y) <- a(X,Z), b(Z,Y), not c(X,Z), not d(Z,Y).")
        text = plan.explain()
        assert "positive goal (X,Z,Y)" in text
        assert "anti-join not c(X,Z) on (X,Z)" in text
        assert "anti-join not d(Z,Y) on (Z,Y)" in text
        assert text.splitlines()[0].startswith("rule:")


@pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
class TestProjectionMinimality:
    def _random_io(self, rng, program):
        sym = SymbolTable()
        pos = Database(sym)
        neg = Database(sym)
        for pred, arity in program.signatures.items():
            for _ in range(rng.randrange(6)):
                pos.insert_many([Fact(pred, tuple(rng.randrange(1, 5) for _ in range(arity)))])
            for _ in range(rng.randrange(4)):
                neg.insert_many([Fact(pred, tuple(rng.randrange(1, 5) for _ in range(arity)))])
        return pos, neg

    def test_plan_matches_ground_semantics(self):
        rng = random.Random(77)
        with Engine() as engine:
            for _ in range(40):
                program = random_program(rng, with_facts=False)
                pos, neg = self._random_io(rng, program)
                for rule in program.proper_rules():
                    plan = compile_rule(rule)
                    got = decoded(pos.symbols, eval_rule(engine, plan, pos, neg))
                    want = {
                        args
                        for pred, args in eval_rule_bruteforce(
                            rule, db_atoms(pos), db_atoms(neg)
                        )
                    }
                    assert got == want, str(rule)
