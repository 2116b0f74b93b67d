"""Property-based differential tests of both drivers against ``ground_afp``.

Programs are drawn to reach the cases the per-solve input cache has to get
right: predicates that are both base and derived, rules whose positive body
reads only base predicates (so every job of the rule is cached), base
predicates that occur only under ``not``, ground negative subgoals,
subgoals sharing no variable (empty-key joins), constants, repeated
variables, and int and text constants together.

Every optimized solve in this module also checks the two obligations the
optimized driver's shortcut rests on, which the driver itself takes on
trust: each delta least fixpoint starts inside the least fixpoint it
extends, and at termination the possible delta is the one the final true
set yields.
"""
from __future__ import annotations

import copy
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfsmr import EngineConfig, Fact, SolveOptions, fixpoint, parse_program, solve
from wfsmr.bench import builtin_program, gen_chain, gen_cycle, gen_tree
from wfsmr.fixpoint import SolveStats, partitions_agree
from wfsmr.mapreduce import Engine
from wfsmr.oracle import ground_afp
from wfsmr.program import Atom, Constant, Literal, Program, Rule, Variable
from wfsmr.store import DatabaseView

from tests.helpers import result_atoms

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


def _probe(session: fixpoint.Session) -> fixpoint.Session:
    """The session with a throwaway stats sink, so a check's own least
    fixpoints leave the solve's statistics alone."""
    probe = copy.copy(session)
    probe.stats = SolveStats()
    return probe


@pytest.fixture(autouse=True, scope="module")
def checked():
    """Patch the optimized driver so every solve of this module checks its
    seeds and its final possible delta; yields the count of each check."""
    least_fixpoint_delta = fixpoint.least_fixpoint_delta
    solve_optimized = fixpoint.solve_optimized
    counts = Counter()

    def seed_checked(session, plans, start, neg, label, live_as):
        # each part of the seed lies in base + the from-scratch fixpoint
        full = fixpoint.least_fixpoint(_probe(session), plans, neg, f"{label}:seed", "seed")
        within = DatabaseView(session.base, full)
        for part in start:
            assert part.issubset(within), f"{label}: seed outside the least fixpoint"
        counts["seed"] += 1
        return least_fixpoint_delta(session, plans, start, neg, label, live_as)

    def stability_checked(session):
        result = solve_optimized(session)
        # the true set stood still, so the possible set it yields, computed
        # from scratch, is that true set plus the undefined set
        known = result.true_facts
        possible = fixpoint.least_fixpoint(
            _probe(session), session.plans, DatabaseView(known), "U:recheck", "recheck"
        )
        undefined = possible.difference(known)
        assert undefined.same_content(result.undefined_facts), "possible delta is not stable"
        counts["stable"] += 1
        return result

    fixpoint.least_fixpoint_delta = seed_checked
    fixpoint.solve_optimized = stability_checked
    try:
        yield counts
    finally:
        fixpoint.least_fixpoint_delta = least_fixpoint_delta
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


class TestCheckedSolves:
    @pytest.mark.parametrize(
        "program, facts",
        [
            (builtin_program("tc-neg"), gen_chain(6, 2)),
            (builtin_program("win-not-win"), gen_cycle(50)),
            (builtin_program("win-not-win"), gen_tree(15)),  # 31 nodes
            # U0's last round derives c, which no subgoal of a K step reads,
            # so only the stability check sees a U0 that lacks it
            (parse_program("a :- not b.\nb :- not a.\nc :- a.\n"), ()),
        ],
        ids=["tc-neg-chain", "win-cycle", "win-tree", "undefined-tail"],
    )
    def test_optimized_driver_agrees_with_naive(self, checked, program, facts):
        before = Counter(checked)
        optimized = solve(program, facts)
        naive = solve(program, facts, options=SolveOptions(mode="naive"))
        assert partitions_agree(optimized, naive)
        # one seed check per delta least fixpoint, one stability check per solve
        assert checked - before == Counter(seed=optimized.stats.lfp_calls, stable=1)
