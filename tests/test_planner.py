import random
import warnings

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
from wfsmr.store import Database

from tests.helpers import (
    db_atoms,
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


class TestVariants:
    def test_one_variant_per_subgoal_reading_the_delta_first(self):
        plan = plan_for("p(X,Y) <- a(X,Z), b(Z,Y), not c(X,Z), not d(Z,Y).")
        assert [v.delta.atom.predicate for v in plan.deltas] == ["a", "b"]
        assert [v.delta.atom.predicate for v in plan.seeds] == ["c", "d"]
        for variant in plan.deltas:
            assert variant.base is variant.delta
            assert not any(step.right.delta for step in variant.joins)
        for variant in plan.seeds:
            # the written joins, then the seed before the other anti-join
            assert variant.joins == plan.joins
            assert variant.anti_joins[0].access is variant.delta
            assert not variant.anti_joins[1].access.delta
        assert plan.delta is None and plan.deltas[0].deltas == ()

    @pytest.mark.parametrize("text", [
        "h(X,W) <- a(X,Y), b(Y,Z), c(Z,W).",
        # the written order has a Cartesian product, the body none
        "h(X,W) <- a(X,Y), c(Z,W), b(Y,Z).",
        "h(X) <- a(X,Y), b(V,W), c(Y,V), d(W,X), not e(X,W).",
        "h(X) <- a(X), b(X,Y), c(X,Z), d(Y,Z).",
    ])
    def test_a_connected_body_gets_no_cartesian_variant(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PlanWarning)
            plan = plan_for(text)
        for variant in plan.deltas:
            assert all(step.join_vars for step in variant.joins), variant.explain()

    @pytest.mark.parametrize("text", [
        "p(X,Y) <- a(X), b(Y).",
        "p(X,Y) <- a(X), b(Y), c(Y), not d(X,Y).",
        "h(X,W) <- a(X,Y), c(Z,W), b(Y,Z).",
    ])
    def test_a_rule_warns_once_whatever_its_variants(self, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan_for(text)
        assert [w.category for w in caught] == [PlanWarning]


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


def _reaches(plans) -> dict[str, set[str]]:
    """Head predicate -> the head predicates its rules read, transitively."""
    heads = {plan.head_predicate for plan in plans}
    reach = {head: set() for head in heads}
    for plan in plans:
        reach[plan.head_predicate].update(
            lit.atom.predicate for lit in plan.rule.body if lit.atom.predicate in heads
        )
    changed = True
    while changed:
        changed = False
        for head, reached in reach.items():
            more = set().union(*(reach[p] for p in reached)) - reached
            if more:
                reached.update(more)
                changed = True
    return reach


class TestComponents:
    def test_closure_program_components_bottom_up(self):
        from wfsmr.bench import TC_NEG

        plans = compile_program(parse_program(TC_NEG))
        assert [(plan.head_predicate, plan.component) for plan in plans] == [
            ("tc", 2), ("tc", 2), ("par", 1), ("par", 1), ("q", 0),
        ]

    def test_mutual_recursion_is_one_component(self):
        plans = compile_program(parse_program(
            "x :- y.\ny :- z, not w.\nz :- x.\nw :- not w.\nv :- not x.\n"
        ))
        assert {plan.head_predicate: plan.component for plan in plans} == {
            "w": 0, "x": 1, "y": 1, "z": 1, "v": 2,
        }
        assert "component 1" in plans[0].explain()

    @pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
    def test_random_programs_are_numbered_bottom_up(self):
        rng = random.Random(4711)
        for _ in range(60):
            plans = compile_program(random_program(rng, with_facts=False))
            component = {plan.head_predicate: plan.component for plan in plans}
            reach = _reaches(plans)
            assert sorted(set(component.values())) == list(range(len(set(component.values()))))
            for head, reached in reach.items():
                for other in reached:
                    # a rule reads only its own component or lower ones, and
                    # two heads share one exactly when each reaches the other
                    assert component[other] <= component[head]
                    same = head in reach[other] or head == other
                    assert (component[other] == component[head]) == same


class TestExplain:
    def test_plan_dump_lines(self):
        plan = plan_for("p(X,Y) <- a(X,Z), b(Z,Y), not c(X,Z), not d(Z,Y).")
        text = plan.explain()
        assert "positive goal (X,Z,Y)" in text
        assert "anti-join not c(X,Z) on (X,Z)" in text
        assert "anti-join not d(Z,Y) on (Z,Y)" in text
        assert text.splitlines()[0].startswith("rule:")

    def test_each_variant_lists_its_join_order(self):
        text = plan_for("tc(X,Y) <- par(X,Z), tc(Z,Y), not q(X,Y).").explain()
        assert "  delta par(X,Z): par(X,Z) * tc(Z,Y)" in text.splitlines()
        assert "  delta tc(Z,Y): tc(Z,Y) * par(X,Z)" in text.splitlines()
        # a seed joins the positive goal of the written order
        assert "  seed not q(X,Y): par(X,Z) * tc(Z,Y) * q(X,Y)" in text.splitlines()


@pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
class TestProjectionMinimality:
    def _random_io(self, rng, program):
        pos = Database()
        neg = Database()
        for pred, arity in program.signatures.items():
            for _ in range(rng.randrange(6)):
                pos.insert_many([Fact(pred, tuple(rng.randrange(1, 5) for _ in range(arity)))])
            for _ in range(rng.randrange(4)):
                neg.insert_many([Fact(pred, tuple(rng.randrange(1, 5) for _ in range(arity)))])
        return pos, neg

    def test_plan_matches_ground_semantics(self):
        rng = random.Random(77)
        engine = Engine()
        for _ in range(40):
            program = random_program(rng, with_facts=False)
            pos, neg = self._random_io(rng, program)
            for rule in program.proper_rules():
                plan = compile_rule(rule)
                got = eval_rule(engine, plan, pos, neg)
                want = {
                    args
                    for pred, args in eval_rule_bruteforce(
                        rule, db_atoms(pos), db_atoms(neg)
                    )
                }
                assert got.keys() == want, str(rule)
