"""Property-based differential tests of both drivers against ``ground_afp``.

Programs are drawn to reach the cases the per-solve input cache has to get
right: predicates that are both base and derived, rules whose positive body
reads only base predicates (so every job of the rule is cached), base
predicates that occur only under ``not``, ground negative subgoals,
subgoals sharing no variable (empty-key joins), constants, repeated
variables, and int and text constants together.

A second strategy, ``wide_programs``, draws a negative cycle over a graph
that holds a path, plus random rules of the shapes the seeded K steps must
handle, so that solves reach K2 and later, and where a component reads
none of its own predicates positively, U steps that decrement counts.

Every optimized solve in this module also checks the obligations the
optimized driver's shortcuts rest on, which the driver itself takes on
trust: each delta least fixpoint starts inside the least fixpoint it
extends, which reads the same fixed parts and assumed facts, and returns
exactly what that fixpoint adds to its start; each counted U step leaves
the possible delta that fixpoint yields under the same true set, with the
counts that counting its instances from scratch gives; and at termination
the possible delta of the whole program is the one the final true set
yields.
"""
from __future__ import annotations

import copy
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfsmr import EngineConfig, Fact, SolveOptions, fixpoint, parse_facts, parse_program, solve
from wfsmr.bench import builtin_program, gen_chain, gen_cycle, gen_tree
from wfsmr.fixpoint import SolveStats, TruthValue, classify, partitions_agree
from wfsmr.mapreduce import Engine
from wfsmr.oracle import ground_afp
from wfsmr.planner import compile_program
from wfsmr.program import Atom, Constant, Literal, Program, Rule, Variable
from wfsmr.store import DatabaseView

from tests.helpers import result_atoms, rule_constants

BASE = ("e", "f", "g")  # facts only; "g" occurs only under "not"
BOTH = ("m",)  # facts and rules
DERIVED = ("p", "q")
SYMBOLS = (1, 2, 3, "a", "b")
VARIABLES = ("X", "Y", "Z")


@st.composite
def programs(draw) -> tuple[Program, tuple[Fact, ...]]:
    arity = {pred: draw(st.integers(0, 2)) for pred in BASE + BOTH + DERIVED}
    symbol = st.sampled_from(SYMBOLS)

    def atom(pred: str, term) -> Atom:
        return Atom(pred, tuple(draw(term) for _ in range(arity[pred])))

    free_term = st.one_of(st.sampled_from(VARIABLES).map(Variable), symbol.map(Constant))
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        all_base = draw(st.booleans())
        body_preds = BASE[:2] if all_base else BASE[:2] + BOTH + DERIVED
        positives = [atom(draw(st.sampled_from(body_preds)), free_term)
                     for _ in range(draw(st.integers(0, 3)))]
        bound = sorted({v for a in positives for v in a.variables()})
        bound_term = (
            st.one_of(st.sampled_from(bound).map(Variable), symbol.map(Constant))
            if bound else symbol.map(Constant)
        )
        negatives = [atom(draw(st.sampled_from(BASE + BOTH + DERIVED)), bound_term)
                     for _ in range(draw(st.integers(0, 2)))]
        if not positives and not negatives:
            negatives.append(atom(draw(st.sampled_from(BASE + DERIVED)), bound_term))
        head = atom(draw(st.sampled_from(BOTH + DERIVED)), bound_term)
        body = [Literal(a) for a in positives] + [Literal(a, negated=True) for a in negatives]
        rules.append(Rule(head, tuple(body)))
    facts = draw(st.lists(
        st.sampled_from(BASE + BOTH).flatmap(
            lambda pred: st.tuples(*[symbol] * arity[pred]).map(lambda args: Fact(pred, args))
        ),
        max_size=12,
    ))
    return Program(rules), tuple(dict.fromkeys(facts))


WIDE_DERIVED = ("p", "q", "r")
NODES = (1, 2, 3, 4, 5, 6)


@st.composite
def wide_programs(draw) -> tuple[Program, tuple[Fact, ...]]:
    """A negative cycle through ``p`` and ``q`` over a move-like graph ``e``
    that holds a path, so that the alternating fixpoint runs for several
    steps, maybe a second one through ``r`` above it, plus random rules over
    ``p``, ``q`` and ``r``, each with a negative subgoal: their bodies read
    the cycle positively or negatively, recursively or not, with constants
    and repeated variables, and with or without positive subgoals, and
    their heads may hold constants."""
    arity = {"e": 2, "p": 1, "q": 1, "r": draw(st.integers(0, 2))}
    symbol = st.sampled_from(NODES)

    def atom(pred: str, term) -> Atom:
        return Atom(pred, tuple(draw(term) for _ in range(arity[pred])))

    x, y = Variable("X"), Variable("Y")
    rules = [
        Rule(Atom(head, (x,)), (
            Literal(Atom("e", (x, y))), Literal(Atom(other, (y,)), negated=True),
        ))
        for head, other in (("p", "q"), ("q", "p"))
    ]
    if arity["r"] == 1 and draw(st.booleans()):
        # a negative cycle above that reads the one below under not: where
        # a cycle in e leaves p or q undefined, its K steps read that
        # undefined atom negatively
        below = Atom(draw(st.sampled_from(("p", "q"))), (draw(st.sampled_from((x, y))),))
        rules.append(Rule(Atom("r", (x,)), (
            Literal(Atom("e", (x, y))), Literal(Atom("r", (y,)), negated=True),
            Literal(below, negated=True),
        )))
    free_term = st.one_of(st.sampled_from(("X", "Y", "Z")).map(Variable), symbol.map(Constant))
    for _ in range(draw(st.integers(1, 4))):
        positives = [atom(draw(st.sampled_from(("e",) + WIDE_DERIVED)), free_term)
                     for _ in range(draw(st.integers(0, 2)))]
        bound = sorted({v for a in positives for v in a.variables()})
        bound_term = (
            st.one_of(st.sampled_from(bound).map(Variable), symbol.map(Constant))
            if bound else symbol.map(Constant)
        )
        negatives = [atom(draw(st.sampled_from(WIDE_DERIVED + ("e",))), bound_term)
                     for _ in range(draw(st.integers(1, 2)))]
        head = atom(draw(st.sampled_from(WIDE_DERIVED)), bound_term)
        body = [Literal(a) for a in positives] + [Literal(a, negated=True) for a in negatives]
        rules.append(Rule(head, tuple(body)))
    length = draw(st.integers(3, len(NODES)))
    path = [Fact("e", (i, i + 1)) for i in range(1, length)]
    extra = draw(st.lists(st.tuples(symbol, symbol).map(lambda xy: Fact("e", xy)), max_size=3))
    return Program(rules), tuple(dict.fromkeys(path + extra))


def seeded_steps(stats: SolveStats) -> int:
    """The K steps from K2 on, which the optimized driver seeds from the
    atoms that left the negative set."""
    return sum(step.label[0] == "K" and int(step.label[1:]) >= 2 for step in stats.steps)


def _probe(session: fixpoint.Session) -> fixpoint.Session:
    """The session with a throwaway stats sink, so a check's own least
    fixpoints leave the solve's statistics alone."""
    probe = copy.copy(session)
    probe.stats = SolveStats()
    return probe


@pytest.fixture(autouse=True, scope="module")
def checked():
    """Patch the optimized driver so every solve of this module checks its
    seeds, its counted U steps and its final possible delta; yields the
    count of each check."""
    least_fixpoint_delta = fixpoint.least_fixpoint_delta
    count_instances = fixpoint.count_instances
    solve_optimized = fixpoint.solve_optimized
    counts = Counter()

    def seed_checked(session, plans, start, neg, label, live_as, assumed=(), dropped=None):
        # the from-scratch fixpoint reads the fixed part and the assumed
        # facts too; each part of the seed lies in it with the fixed part,
        # and the delta is exactly what it adds to the seed
        full = fixpoint.least_fixpoint(
            _probe(session), plans, neg, f"{label}:seed", "seed", assumed
        )
        within = DatabaseView(session.fixed, full)
        for part in start:
            assert part.issubset(within), f"{label}: seed outside the least fixpoint"
        counts["seed"] += 1
        if dropped is not None:
            counts["seeded"] += 1
        result = least_fixpoint_delta(session, plans, start, neg, label, live_as, assumed, dropped)
        want = full.difference(DatabaseView(*start)) if start else full
        assert result.same_content(want), f"{label}: delta is not the least fixpoint minus its seed"
        return result

    def count_checked(session, plans, known, grown, derivations, label):
        # a counted U step yields the possible delta that the from-scratch
        # fixpoint under the same true set yields, D is what left it, and
        # each count equals the one a first count of the instances makes
        before = derivations.possible.copy()
        recount = fixpoint.DerivationCounts(before.copy())
        decrement = derivations.extra is not None
        dropped = count_instances(session, plans, known, grown, derivations, label)
        true = DatabaseView(known, grown)
        full = fixpoint.least_fixpoint(
            _probe(session), plans, true, f"{label}:seed", "seed", (session.undefined,)
        )
        assert derivations.possible.same_content(full.difference(true)), f"{label}: possible delta"
        assert dropped.same_content(before.difference(DatabaseView(grown, derivations.possible)))
        count_instances(_probe(session), plans, known, grown, recount, label)
        assert recount.possible.same_content(derivations.possible)
        assert {p: n for p, n in recount.extra.items() if n} == {
            p: n for p, n in derivations.extra.items() if n}, f"{label}: counts"
        counts["seed"] += 1
        counts["decremented"] += decrement
        return dropped

    def stability_checked(session):
        result = solve_optimized(session)
        # the true set stood still, so the possible set it yields, computed
        # from scratch over the whole program, is that true set plus the
        # undefined set; the recheck reads the base alone as its fixed part,
        # and without the cache, whose invariant inputs stream from the
        # fixed part that now holds the true facts of every component
        known = result.true_facts
        probe = _probe(session)
        probe.fixed, probe.cache = DatabaseView(session.base), None
        possible = fixpoint.least_fixpoint(
            probe, session.plans, DatabaseView(known), "U:recheck", "recheck"
        )
        undefined = possible.difference(known)
        assert undefined.same_content(result.undefined_facts), "possible delta is not stable"
        counts["stable"] += 1
        return result

    fixpoint.least_fixpoint_delta = seed_checked
    fixpoint.count_instances = count_checked
    fixpoint.solve_optimized = stability_checked
    try:
        yield counts
    finally:
        fixpoint.least_fixpoint_delta = least_fixpoint_delta
        fixpoint.count_instances = count_instances
        fixpoint.solve_optimized = solve_optimized


@pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
class TestDriversAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(programs())
    def test_both_drivers_equal_ground_afp(self, case):
        program, facts = case
        want = ground_afp(program, facts)
        for workers, partitions in ((1, 1), (4, 7)):
            config = EngineConfig(workers=workers, partitions=partitions)
            results = [
                solve(program, facts, options=SolveOptions(mode=mode), engine=Engine(config))
                for mode in ("naive", "optimized")
            ]
            for result in results:
                assert result_atoms(result) == want, (workers, partitions, program.pretty())
            assert partitions_agree(*results)
            assert results[1].stats.peak_live_sets <= 3


SHAPES = (
    "negative cycle of two or more predicates",
    "two negative subgoals over the component",
    "positive recursion",
    "seeded subgoal with a constant or a repeated variable",
    "no positive subgoal",
    "head constant",
)


def seeded_shapes(plan, own: set[str]) -> set[str]:
    """The ``SHAPES`` of a seed variant's evaluation; ``own`` holds the
    predicates of the rule's component."""
    seeded = plan.delta
    drawn = (
        len(own) >= 2,
        sum(step.access.atom.predicate in own for step in plan.anti_joins) >= 2,
        any(atom.predicate in own for atom in plan.rule.positive()),
        bool(seeded.const_cols or seeded.eq_cols),
        plan.base is None,
        any(kind == "c" for kind, _ in plan.head_cols),
    )
    return {shape for shape, hit in zip(SHAPES, drawn) if hit}


@pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
class TestSeededSteps:
    def test_wide_programs_seed_k_steps_of_every_shape(self, checked, monkeypatch):
        reached: Counter = Counter()
        components: dict[str, int] = {}
        eval_rule = fixpoint.eval_rule

        def spied(engine, plan, pos, neg, delta=None, cache=None):
            if any(step.access.delta for step in plan.anti_joins):  # a seed variant
                own = {head for head, at in components.items() if at == plan.component}
                reached.update(seeded_shapes(plan, own))
            return eval_rule(engine, plan, pos, neg, delta, cache)

        monkeypatch.setattr(fixpoint, "eval_rule", spied)
        before, decremented = checked["seeded"], checked["decremented"]

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(wide_programs())
        def agree(case):
            program, facts = case
            components.clear()
            components.update((p.head_predicate, p.component) for p in compile_program(program))
            want = ground_afp(program, facts)
            for partitions in (1, 7):
                engine = Engine(EngineConfig(partitions=partitions))
                optimized = solve(program, facts, engine=engine)
                naive = solve(program, facts, options=SolveOptions(mode="naive"))
                assert result_atoms(optimized) == want, (partitions, program.pretty())
                assert partitions_agree(optimized, naive)
                assert optimized.stats.peak_live_sets <= 3

        agree()
        assert checked["seeded"] > before
        assert checked["decremented"] > decremented
        assert set(reached) == set(SHAPES), reached


class TestReusedEngine:
    def test_each_solve_gets_its_own_cache(self):
        # the same rules and engine over two different base fact sets: the
        # second solve must not see the grouped base facts of the first
        program = Program([
            Rule(Atom("p", (Variable("X"),)), (
                Literal(Atom("e", (Variable("X"), Variable("Y")))),
                Literal(Atom("e", (Variable("Y"), Variable("Z")))),
                Literal(Atom("p", (Variable("Z"),)), negated=True),
            )),
        ])
        first = [Fact("e", (1, 2)), Fact("e", (2, 3))]
        second = [Fact("e", (5, 6)), Fact("e", (6, 5)), Fact("e", (6, 7))]
        engine = Engine()
        for facts in (first, second, first):
            result = solve(program, facts, engine=engine)
            assert result_atoms(result) == ground_afp(program, facts)
            assert result.stats.peak_cache_records > 0


UNDEFINED_INTO_DEFINITE = "a :- not b.\nb :- not a.\nc :- a.\nd :- c, e.\n"
STACKED_NEGATIVE = "p :- not q.\nq :- not p.\nr :- p, not s.\ns :- not r.\n"
# p has base facts and heads a rule of the lowest component; the components
# above read it positively and negatively
BASE_AND_LOWER_HEAD = (
    "p(X) :- e(X), not f(X).\n"
    "p(3).\n"
    "r(X) :- p(X), not s(X).\n"
    "s(X) :- e(X), not r(X), not p(X).\n"
    "t(X) :- r(X), p(X).\n"
)
# b is invariant and two variants of h's rule group it by different
# columns; the solve runs to K3 with undefined atoms
HELD_BY_TWO_KEYS = (
    "h(X,W) :- a(X,Y), b(Y,Z), c(Z,W).\n"
    "a(X,Y) :- s(X,Y), not c(Y,X).\n"
    "c(Z,W) :- t(Z,W), not a(W,Z).\n"
    "c(X,W) :- h(X,W).\n"
    "a(X,W) :- h(X,W).\n"
)
# p is invariant, read on an empty join key by one rule and negatively by
# the others
POSITIVE_AND_NEGATIVE_ON_EMPTY_KEY = (
    "q :- p(5), p(Z).\n"
    "r(Z) :- e(Z), not p(Z), not s(Z).\n"
    "s(Z) :- e(Z), p(Z), not r(Z).\n"
)
# a chain game of ten positions, two of them, and a rule whose instances
# have two negative atoms over the game's predicate
WIN = "w(X) :- m(X,Y), not w(Y).\n"
CHAIN = " ".join(f"m({i},{i + 1})." for i in range(1, 10))
CHAINS = CHAIN + " " + " ".join(f"m({i},{i + 1})." for i in range(11, 20))
TWO_NEGATIVES = "w(X) :- t(X,Y,Z), not w(Y), not w(Z).\n"
# 7 is an int and 007 is text: twins in the facts, in body selections, in a
# ground negative subgoal and in heads; no fact holds 008, the text twin of 8.
# w(7) is true, as 007 has no move; were the twins one constant, 7 would
# move to itself and w(7) would be undefined
TWINS = (
    "w(X) :- m(X,Y), not w(Y).\n"
    "a(X) :- m(X,007), w(X).\n"
    "b(X) :- m(X,7), not w(X).\n"
    "c(X) :- m(X,008).\n"
    "d(X) :- m(X,7), not w(007).\n"
    "h(7,X) :- a(X).\n"
    "h(007,X) :- b(X), not c(X).\n"
)
TWIN_FACTS = "m(7,007). m(1,2). m(2,1). m(2,7). m(8,7)."


class TestCheckedSolves:
    @pytest.mark.parametrize(
        "program, facts, decrements",
        [
            (builtin_program("tc-neg"), gen_chain(6, 2), 0),
            (builtin_program("win-not-win"), gen_cycle(50), 0),
            (builtin_program("win-not-win"), gen_tree(15), 1),  # 31 nodes
            # c's component reads the undefined a of the component below
            (parse_program("a :- not b.\nb :- not a.\nc :- a.\n"), (), 0),
            # an undefined atom flows through a definite component into one
            # whose rule reads e, which has no facts
            (parse_program(UNDEFINED_INTO_DEFINITE), (), 0),
            (parse_program("a :- not b.\nb :- not a.\nc :- not a.\n"), (), 0),
            (parse_program(STACKED_NEGATIVE), (), 0),
            (parse_program(BASE_AND_LOWER_HEAD), parse_facts("e(1).\ne(2).\ne(3).\nf(2)."), 0),
            (parse_program(HELD_BY_TWO_KEYS), parse_facts(
                "s(2,2). s(1,4). s(4,3). s(4,4). b(1,4). b(3,3). b(4,2). b(2,3). b(2,1). "
                "t(3,1). t(1,4). t(1,2). t(4,2)."
            ), 0),
            pytest.param(
                parse_program(POSITIVE_AND_NEGATIVE_ON_EMPTY_KEY),
                parse_facts("p(5).\np(1).\ne(1).\ne(2).\ne(3)."),
                0,
                marks=pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning"),
            ),
            # no rules: one K0 step, no component
            (parse_program("e(1).\n"), (), 0),
            # both negative atoms of the instance t(30,7,17) enter K2, so U2
            # kills it through two seeds; those of t(30,7,3) and t(31,7,5)
            # enter K in different steps
            (parse_program(WIN + TWO_NEGATIVES),
             parse_facts(CHAINS + " t(30,7,17). t(30,7,3). t(31,7,5)."), 4),
            # w(4) is a base fact, whose instance dies at U3
            (parse_program(WIN), parse_facts(CHAIN + " w(4)."), 2),
            # w(0) loses one instance at U2 and enters K3 with the other
            (parse_program(WIN + "w(0) :- not w(7).\nw(0) :- not w(6).\n"),
             parse_facts(CHAIN), 4),
            # w(0) loses its only instance at U2
            (parse_program(WIN + "w(0) :- m(X,5), not w(X), not w(7).\n"), parse_facts(CHAIN), 4),
            # the first rule reads only base facts, so it runs again in every
            # U and K step; p(9) is a base fact of the head
            (parse_program("p(X) :- s(X).\np(X) :- b(X,Y), not p(Y).\n"),
             parse_facts(" ".join(f"b({i},{i + 1})." for i in range(1, 20)) + " s(4). s(7). p(9)."),
             4),
            (parse_program(TWINS), parse_facts(TWIN_FACTS), 0),
        ],
        ids=["tc-neg-chain", "win-cycle", "win-tree", "undefined-tail",
             "undefined-into-definite", "undefined-read-negatively", "stacked-negative",
             "base-and-lower-head", "held-by-two-keys", "positive-and-negative-on-empty-key",
             "no-rules", "two-negatives-enter-together-and-apart", "counted-base-head",
             "counted-without-positive-subgoal", "counted-head-constant",
             "base-only-rule-beside-a-negative-cycle", "int-and-text-twins"],
    )
    def test_optimized_driver_agrees_with_naive(self, checked, program, facts, decrements):
        before = Counter(checked)
        optimized = solve(program, facts)
        naive = solve(program, facts, options=SolveOptions(mode="naive"))
        assert partitions_agree(optimized, naive)
        want = ground_afp(program, facts)
        assert result_atoms(optimized) == want
        assert optimized.stats.peak_live_sets <= 3
        # classify agrees with the oracle on every ground atom over the
        # input's constants, the false ones and each int and text twin included
        domain = {c for rule in program.rules for c in rule_constants(rule)}
        domain.update(c for fact in facts for c in fact.args)
        for predicate, arity in optimized.signatures.items():
            for args in itertools.product(domain, repeat=arity):
                atom = (predicate, args)
                value = (TruthValue.TRUE if atom in want[0] else
                         TruthValue.UNDEFINED if atom in want[1] else TruthValue.FALSE)
                assert classify(Fact(predicate, args), optimized) is value, atom
        # one seed check per delta least fixpoint or counted U step, one
        # stability check per solve, and every K step from K2 on seeded
        ran = checked - before
        assert (ran["seed"], ran["stable"], ran["seeded"]) == (
            optimized.stats.lfp_calls, 1, seeded_steps(optimized.stats)
        )
        # and each U step of a counted component from U2 on decremented
        assert ran["decremented"] == decrements
