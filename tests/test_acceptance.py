"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""
import contextlib
import random
import time

import pytest

from wfsmr.bench import builtin_program, chain_levels, gen_chain, gen_cycle, gen_tree
from wfsmr.cli import EXIT_OK, main
from wfsmr.fixpoint import SolveOptions, classify, partitions_agree, solve
from wfsmr.mapreduce import Engine
from wfsmr.operators import anti_join, eval_rule, single_join
from wfsmr.oracle import game_partition, ground_afp
from wfsmr.planner import compile_rule
from wfsmr.fixpoint import TruthValue
from wfsmr.program import Fact, parse_facts, parse_program

from tests.helpers import make_db, random_program, result_atoms

PARTITIONS = [1, 4, 7]


@contextlib.contextmanager
def report(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_worked_example_goldens():
    with report("1 worked-example goldens"):
        started = time.perf_counter()
        pos = make_db(parse_facts("a(1,2).\na(1,3).\nb(2,4).\nb(3,5)."))
        neg = make_db(parse_facts("c(1,2).\nd(2,3)."))
        engine = Engine()
        ab = single_join(
            engine,
            pos.tuples("a"),
            pos.tuples("b"),
            [1],
            [0],
            [("l", 0), ("l", 1), ("r", 1)],
        )
        assert ab.keys() == {(1, 2, 4), (1, 3, 5)}
        abc = anti_join(engine, ab, neg.tuples("c"), [0, 1])
        assert abc.keys() == {(1, 3, 5)}
        after_d = anti_join(engine, abc, neg.tuples("d"), [1, 2])
        assert after_d.keys() == {(1, 3, 5)}
        rule = parse_program(
            "p(X,Y) <- a(X,Z), b(Z,Y), not c(X,Z), not d(Z,Y).\n"
        ).rules[0]
        final = eval_rule(engine, compile_rule(rule), pos, neg)
        assert final.keys() == {(1, 5)}
        assert time.perf_counter() - started < 1.0


@pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
def test_criterion_2_random_program_oracle_equivalence():
    with report("2 oracle equivalence on 200 random programs"):
        started = time.perf_counter()
        rng = random.Random(20250810)
        for index in range(200):
            program = random_program(rng, max_rules=8, max_facts=20)
            optimized = solve(program)
            naive = solve(program, options=SolveOptions(mode="naive"))
            assert partitions_agree(optimized, naive), f"#{index}\n{program.pretty()}"
            oracle = ground_afp(program)
            assert result_atoms(optimized) == oracle, f"#{index}\n{program.pretty()}"
        assert time.perf_counter() - started < 60.0


def test_criterion_3_win_not_win_cycles():
    with report("3 win-not-win cycles"):
        program = builtin_program("win-not-win")
        for n in range(1, 13):
            result = solve(program, gen_cycle(n))
            assert result_atoms(result) == ground_afp(program, gen_cycle(n)), n
        for n in (10**3, 10**4, 10**5):
            result = solve(program, gen_cycle(n))
            true_atoms, undef_atoms = result_atoms(result)
            # established at small n by the oracle: every position is drawn
            assert undef_atoms == {("win", (i,)) for i in range(1, n + 1)}
            assert true_atoms == {("move", (i, i % n + 1)) for i in range(1, n + 1)}
            assert result.true_facts.count() == n
            assert result.undefined_facts.count() == n
            assert classify(Fact("win", (1,)), result) is TruthValue.UNDEFINED


def test_criterion_4_win_not_win_trees():
    with report("4 win-not-win trees"):
        program = builtin_program("win-not-win")
        for n in (1, 3, 7, 15, 31, 63, 127, 255, 511):
            facts = gen_tree(n)
            result = solve(program, facts)
            true_atoms, undef_atoms = result_atoms(result)
            assert undef_atoms == set(), n
            won, lost, drawn = game_partition((f.args[0], f.args[1]) for f in facts)
            assert drawn == set(), n
            assert {a for p, a in true_atoms if p == "win"} == {(x,) for x in won}, n
            assert {a for p, a in true_atoms if p == "move"} == {
                (f.args[0], f.args[1]) for f in facts
            }


def test_criterion_5_transitive_closure_with_negation():
    with report("5 transitive closure with negation"):
        program = builtin_program("tc-neg")
        for n, k in ((300, 100), (500, 100), (900, 100)):
            joins = chain_levels(n, k) - 1
            assert joins in (2, 4, 8)
            facts = gen_chain(n, k)
            optimized = solve(program, facts)
            naive = solve(program, facts, options=SolveOptions(mode="naive"))
            assert partitions_agree(optimized, naive), (n, k)
            assert (
                optimized.stats.derived_facts < naive.stats.derived_facts
            ), (n, k, optimized.stats.derived_facts, naive.stats.derived_facts)


def _solve_outputs(tmp_path, tag, program_text, facts_text, partitions):
    program = tmp_path / f"{tag}.lp"
    program.write_text(program_text, encoding="utf-8")
    args = ["solve", "--program", str(program), "--out", str(tmp_path / tag),
            "--partitions", str(partitions)]
    if facts_text is not None:
        facts = tmp_path / f"{tag}.facts"
        facts.write_text(facts_text, encoding="utf-8")
        args += ["--facts", str(facts)]
    assert main(args) == EXIT_OK
    return (
        (tmp_path / f"{tag}.true").read_bytes(),
        (tmp_path / f"{tag}.undef").read_bytes(),
    )


@pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
def test_criterion_6_determinism_and_partition_independence(tmp_path):
    with report("6 determinism and partition independence"):
        from wfsmr.program import facts_to_text

        cases = [
            (
                "goal",
                "p(X,Y) <- a(X,Z), b(Z,Y), not c(X,Z), not d(Z,Y).\n",
                "a(1,2).\na(1,3).\nb(2,4).\nb(3,5).\nc(1,2).\nd(2,3).\n",
            ),
            ("cycle12", builtin_program("win-not-win").pretty(), facts_to_text(gen_cycle(12))),
            ("cycle1e4", builtin_program("win-not-win").pretty(), facts_to_text(gen_cycle(10**4))),
            ("tree511", builtin_program("win-not-win").pretty(), facts_to_text(gen_tree(511))),
            ("chain", builtin_program("tc-neg").pretty(), facts_to_text(gen_chain(500, 100))),
        ]
        rng = random.Random(606)
        for i in range(24):
            cases.append((f"rand{i}", random_program(rng).pretty(), None))
        for tag, program_text, facts_text in cases:
            outputs = [
                _solve_outputs(tmp_path, f"{tag}-{p}", program_text, facts_text, p)
                for p in PARTITIONS
            ]
            assert outputs[0] == outputs[1] == outputs[2], tag


@pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
def test_criterion_7_monotonicity_and_storage_ledger():
    with report("7 monotonicity suite and three-set storage bound"):
        # per-step subset assertions run inside the drivers (debug checks are
        # on by default and raise on any violation); here every run is also
        # checked for monotone step sizes and the optimized storage bound
        runs = [
            (builtin_program("win-not-win"), gen_cycle(2)),
            (builtin_program("win-not-win"), gen_cycle(50)),
            (builtin_program("win-not-win"), gen_tree(63)),
            (builtin_program("tc-neg"), gen_chain(300, 100)),
        ]
        rng = random.Random(707)
        runs += [(random_program(rng), ()) for _ in range(10)]
        for program, facts in runs:
            for mode in ("optimized", "naive"):
                result = solve(program, facts, options=SolveOptions(mode=mode))
                # K sizes grow across the whole solve, U sizes shrink within
                # each component (the naive driver's one: the whole program)
                steps = result.stats.steps
                k_sizes = [s.k_size for s in steps]
                assert k_sizes == sorted(k_sizes), mode
                for component in {s.component for s in steps}:
                    u_sizes = [s.u_extra for s in steps
                               if s.component == component and s.label.startswith("U")]
                    assert u_sizes == sorted(u_sizes, reverse=True), (mode, component)
                if mode == "optimized":
                    assert result.stats.peak_live_sets <= 3
                else:
                    assert result.stats.peak_live_sets <= 4


def test_criterion_8_scaling_shape():
    with report("8 scaling shape on cycles"):
        started = time.perf_counter()
        program = builtin_program("win-not-win")
        sizes = (10**3, 10**4, 10**5)
        # input generation is not loading/inference
        facts = {n: gen_cycle(n) for n in sizes}
        step_jobs = {}
        times = {n: [] for n in sizes}
        solve(program, facts[10**3])  # warm-up
        for _ in range(3):
            # the sizes take turns, so a drift in CPU speed slows them alike
            for n in sizes:
                t0 = time.perf_counter()
                result = solve(program, facts[n])
                times[n].append(time.perf_counter() - t0)
                step_jobs[n] = [(s.label, s.jobs) for s in result.stats.steps]
        wall = {n: sorted(t)[1] for n, t in times.items()}  # median of 3
        # job count per inference step is independent of n
        assert step_jobs[10**3] == step_jobs[10**4] == step_jobs[10**5]
        # at most linear growth on the largest step, within a factor of 2
        assert wall[10**5] <= 2 * 10 * max(wall[10**4], 1e-3), wall
        assert time.perf_counter() - started < 600.0
