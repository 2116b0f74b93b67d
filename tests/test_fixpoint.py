import gc
import inspect
import random
import re
import threading
import tracemalloc

import pytest

from wfsmr import fixpoint
from wfsmr.bench import builtin_program, gen_chain, gen_cycle, gen_tree
from wfsmr.fixpoint import (
    Session,
    SolveOptions,
    TruthValue,
    classify,
    immediate_consequences,
    least_fixpoint,
    least_fixpoint_delta,
    partitions_agree,
    solve,
    trace_records,
)
from wfsmr.mapreduce import Engine, EngineConfig
from wfsmr.oracle import ground_afp
from wfsmr.planner import compile_program
from wfsmr.program import (
    ArityError,
    Fact,
    FactRows,
    InvariantError,
    UnknownPredicateError,
    facts_to_text,
    parse_facts,
    parse_program,
)
from wfsmr.store import Database, DatabaseView

from tests.helpers import (
    db_atoms,
    definite_least_model,
    make_db,
    random_program,
    result_atoms,
)

WIN = "win(X) :- move(X,Y), not win(Y).\n"


def new_session(program_text, facts=()):
    return Session(parse_program(program_text), facts, Engine())


def assert_monotone_steps(steps):
    k_sizes = [s.k_size for s in steps]
    assert k_sizes == sorted(k_sizes)
    for component in {s.component for s in steps}:
        u_sizes = [s.u_extra for s in steps if s.component == component and s.label[0] == "U"]
        assert u_sizes == sorted(u_sizes, reverse=True), component


def definite(session):
    """The plans of the whole program's definite fixpoint: those without a
    negative subgoal."""
    return [plan for plan in session.plans if not plan.anti_joins]


class TestImmediateConsequences:
    def test_facts_only_program_fires_unconditionally(self):
        # the facts are the base, which the operator reads but never returns;
        # a rule without positive subgoals fires on the empty source
        session = new_session("e(1,2).\nf(3).\ng(1) :- not h(1).\n")
        out = immediate_consequences(
            session.engine, session.plans, session.empty, session.empty_view()
        )
        assert db_atoms(session.base) == {("e", (1, 2)), ("f", (3,))}
        assert db_atoms(out) == {("g", (1,))}

    def test_worked_example_adds_final_goal(self):
        session = new_session(
            "p(X,Y) <- a(X,Z), b(Z,Y), not c(X,Z), not d(Z,Y).\n",
            parse_facts("a(1,2).\na(1,3).\nb(2,4).\nb(3,5)."),
        )
        neg = make_db(parse_facts("c(1,2).\nd(2,3)."))
        out = immediate_consequences(session.engine, session.plans, session.base, neg)
        assert db_atoms(out) == {("p", (1, 5))}

    def test_game_rule_with_one_blocked_instance(self):
        session = new_session(WIN, [Fact("move", (1, 2)), Fact("move", (2, 1))])
        blocked = make_db([Fact("win", (1,))])
        out = immediate_consequences(session.engine, session.plans, session.base, blocked)
        # win(1) derivable because win(2) is not in the blocking set;
        # win(2) blocked because win(1) is
        assert db_atoms(out) == {("win", (1,))}


class TestLeastFixpoint:
    def test_definite_subprogram_of_game_yields_facts(self):
        session = new_session(WIN, gen_cycle(2))
        out = least_fixpoint(
            session, definite(session), session.empty_view(), "K0", "work"
        )
        # the game has no definite rule: the definite fixpoint is the base alone
        assert db_atoms(session.base) == {("move", (1, 2)), ("move", (2, 1))}
        assert out.count() == 0

    def test_possible_set_on_two_cycle(self):
        session = new_session(WIN, gen_cycle(2))
        known = least_fixpoint(
            session, definite(session), session.empty_view(), "K0", "work"
        )
        possible = least_fixpoint(session, session.plans, DatabaseView(known), "U0", "work")
        assert known.count() == 0
        assert db_atoms(possible) == {("win", (1,)), ("win", (2,))}

    def test_empty_program(self):
        session = new_session("")
        out = least_fixpoint(session, session.plans, session.empty_view(), "K0", "work")
        assert out.count() == 0


class TestLeastFixpointDelta:
    def test_starting_at_the_fixpoint_returns_nothing(self):
        session = new_session(WIN, gen_cycle(2))
        full = least_fixpoint(session, session.plans, session.empty_view(), "lfp", "work")
        delta = least_fixpoint_delta(
            session, session.plans, (full,), session.empty_view(), "again", "delta"
        )
        assert delta.count() == 0

    def test_from_empty_equals_definite_fixpoint(self):
        session = new_session(WIN + "reach(X) :- move(X,Y).\n", gen_cycle(3))
        via_naive = least_fixpoint(
            session, definite(session), session.empty_view(), "a", "work"
        )
        via_delta = least_fixpoint_delta(
            session, definite(session), (), session.empty_view(), "b", "delta"
        )
        assert via_delta.same_content(via_naive)

    def test_game_delta_on_two_cycle(self):
        session = new_session(WIN, gen_cycle(2))
        known = least_fixpoint_delta(
            session, definite(session), (), session.empty_view(), "K0", "K"
        )
        delta = least_fixpoint_delta(
            session, session.plans, (known,), DatabaseView(known), "U0", "delta"
        )
        assert db_atoms(delta) == {("win", (1,)), ("win", (2,))}

    @pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
    def test_delta_soundness_on_random_programs(self):
        # starting from any subset of the fixpoint (here: the base facts or
        # the fixpoint itself), base + start + delta equals base + the
        # from-scratch fixpoint
        rng = random.Random(90210)
        for _ in range(10):
            program = random_program(rng)
            session = Session(program, (), Engine())
            neg = make_db([
                Fact(p, tuple(rng.randrange(1, 7) for _ in range(a)))
                for p, a in program.signatures.items()
                for _ in range(rng.randrange(3))
            ])
            full = least_fixpoint(session, session.plans, DatabaseView(neg), "full", "w")
            for start in ((), (session.base.copy(),), (full,)):
                delta = least_fixpoint_delta(
                    session, session.plans, start, DatabaseView(neg), "d", "d"
                )
                combined = session.base.copy()
                for part in start:
                    combined.update(part)
                combined.update(delta)
                full.update(session.base)
                assert combined.same_content(full)
            session.engine.close()


class TestSolveNaive:
    def test_two_cycle(self):
        result = solve(parse_program(WIN), gen_cycle(2), options=SolveOptions(mode="naive"))
        true_atoms, undef_atoms = result_atoms(result)
        assert true_atoms == {("move", (1, 2)), ("move", (2, 1))}
        assert undef_atoms == {("win", (1,)), ("win", (2,))}

    def test_smallest_tree_is_fully_determined(self):
        result = solve(parse_program(WIN), gen_tree(1), options=SolveOptions(mode="naive"))
        true_atoms, undef_atoms = result_atoms(result)
        assert undef_atoms == set()
        assert true_atoms == {("move", (1, 2)), ("move", (1, 3)), ("win", (1,))}

    def test_definite_program_gives_least_model(self):
        text = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\ne(1,2).\ne(2,3).\n"
        program = parse_program(text)
        result = solve(program, options=SolveOptions(mode="naive"))
        true_atoms, undef_atoms = result_atoms(result)
        assert undef_atoms == set()
        assert true_atoms == definite_least_model(program)


class TestSolveOptimized:
    def test_two_cycle_matches_naive(self):
        program = parse_program(WIN)
        optimized = solve(program, gen_cycle(2))
        naive = solve(program, gen_cycle(2), options=SolveOptions(mode="naive"))
        assert partitions_agree(optimized, naive)

    def test_chain_matches_naive(self):
        program = builtin_program("tc-neg")
        facts = gen_chain(8, 2)
        optimized = solve(program, facts)
        naive = solve(program, facts, options=SolveOptions(mode="naive"))
        assert partitions_agree(optimized, naive)

    def test_facts_only_terminates_in_one_step(self):
        result = solve(parse_program("e(1).\ne(2).\nf(1,2).\n"))
        true_atoms, undef_atoms = result_atoms(result)
        assert true_atoms == {("e", (1,)), ("e", (2,)), ("f", (1, 2))}
        assert undef_atoms == set()
        assert result.stats.inference_steps == 1

    def test_horn_program_degenerates_to_datalog(self):
        text = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\ne(1,2).\ne(2,3).\ne(3,4).\n"
        program = parse_program(text)
        result = solve(program)
        true_atoms, undef_atoms = result_atoms(result)
        assert undef_atoms == set()
        assert true_atoms == definite_least_model(program)
        assert result.stats.inference_steps == 1

    def test_matches_ground_oracle_on_builtin_tests(self):
        for program, facts in [
            (builtin_program("win-not-win"), gen_cycle(5)),
            (builtin_program("win-not-win"), gen_tree(7)),
            (builtin_program("tc-neg"), gen_chain(6, 2)),
        ]:
            result = solve(program, facts)
            assert result_atoms(result) == ground_afp(program, facts)

    def test_peak_live_sets_bounded_by_three(self):
        program = builtin_program("tc-neg")
        result = solve(program, gen_chain(9, 3))
        assert result.stats.peak_live_sets <= 3

    def test_delta_mode_agrees(self):
        # semi-naive rounds give the naive partition from fewer derivations
        program = builtin_program("tc-neg")
        facts = gen_chain(10, 2)
        delta = solve(program, facts)
        naive = solve(program, facts, options=SolveOptions(mode="naive"))
        assert partitions_agree(delta, naive)
        assert delta.stats.derived_facts < naive.stats.derived_facts

    def test_a_join_round_reduces_only_the_keys_of_its_delta(self):
        # e is held grouped by the input cache; each semi-naive round of K0
        # reduces the one key of its delta, not every held e group, and
        # reach's definite component stops after K0
        n = 300
        program = parse_program("reach(1).\nreach(Y) :- reach(X), e(X,Y).\n")
        engine = Engine()
        result = solve(program, [Fact("e", (i, i + 1)) for i in range(1, n + 1)], engine=engine)
        true_atoms, undef_atoms = result_atoms(result)
        assert true_atoms == {("reach", (i,)) for i in range(1, n + 2)} | {
            ("e", (i, i + 1)) for i in range(1, n + 1)
        }
        assert undef_atoms == set()
        # n + 1 one-key rounds in K0, and no U0 or K1 over all n + 1 reach keys
        assert [step.label for step in result.stats.steps] == ["K0"]
        assert sum(job.reduce_groups for job in engine.stats_log) == n + 1

    def test_a_delta_written_second_still_leads_its_join(self):
        # the delta variant joins reach first whatever the body order: the
        # full first round reduces the n e groups, then each round one key
        n = 300
        program = parse_program("reach(1).\nreach(Y) :- e(X,Y), reach(X).\n")
        facts = [Fact("e", (i, i + 1)) for i in range(1, n + 1)]
        engine = Engine()
        result = solve(program, facts, engine=engine)
        assert result_atoms(result) == result_atoms(
            solve(program, facts, options=SolveOptions(mode="naive"))
        )
        assert ("reach", (n + 1,)) in result_atoms(result)[0]
        assert sum(job.reduce_groups for job in engine.stats_log) == 2 * n

    @pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
    def test_random_programs_match_naive_and_oracle(self):
        rng = random.Random(777)
        for _ in range(15):
            program = random_program(rng)
            optimized = solve(program)
            naive = solve(program, options=SolveOptions(mode="naive"))
            assert partitions_agree(optimized, naive), program.pretty()
            assert result_atoms(optimized) == ground_afp(program), program.pretty()


class TestComponents:
    @pytest.mark.parametrize("mode", ["optimized", "naive"])
    @pytest.mark.parametrize(
        "text, facts, true_atoms, undef_atoms",
        [
            # an undefined atom flows into a definite component; e has no
            # facts, so d stays false
            (
                "a :- not b.\nb :- not a.\nc :- a.\nd :- c, e.\n",
                "",
                set(),
                {("a", ()), ("b", ()), ("c", ())},
            ),
            # the K steps of c's component must read the undefined a
            # negatively, or c comes out true
            (
                "a :- not b.\nb :- not a.\nc :- not a.\n",
                "",
                set(),
                {("a", ()), ("b", ()), ("c", ())},
            ),
            # two stacked negative components, the upper one reading the
            # undefined atoms of the lower one
            (
                "p :- not q.\nq :- not p.\nr :- p, not s.\ns :- not r.\n",
                "",
                set(),
                {("p", ()), ("q", ()), ("r", ()), ("s", ())},
            ),
            # p has a base fact and heads the lowest component's rule; the
            # negative cycle above reads it both ways
            (
                "p(X) :- e(X), not f(X).\np(3).\n"
                "r(X) :- p(X), not s(X).\ns(X) :- e(X), not r(X), not p(X).\n",
                "e(1).\ne(2).\ne(3).\nf(2).",
                {("e", (1,)), ("e", (2,)), ("e", (3,)), ("f", (2,)), ("p", (1,)),
                 ("p", (3,)), ("r", (1,)), ("r", (3,)), ("s", (2,))},
                set(),
            ),
            # no rules at all
            ("e(1).\n", "", {("e", (1,))}, set()),
        ],
        ids=["undefined-into-definite", "undefined-read-negatively", "stacked-negative",
             "base-and-lower-head", "no-rules"],
    )
    def test_partitions_by_hand(self, mode, text, facts, true_atoms, undef_atoms):
        program, base = parse_program(text), parse_facts(facts)
        result = solve(program, base, options=SolveOptions(mode=mode))
        assert result_atoms(result) == (true_atoms, undef_atoms)
        assert ground_afp(program, base) == (true_atoms, undef_atoms)

    def test_steps_carry_their_component(self):
        engine = Engine()
        result = solve(builtin_program("tc-neg"), gen_chain(9, 3), engine=engine)
        steps = [(s.component, s.label) for s in result.stats.steps]
        # q's negative cycle alternates; par and tc read no undefined atom
        # and have no negative cycle, so K0 solves each of them
        assert steps == [(0, "K0"), (0, "U0"), (0, "K1"), (0, "U1"), (0, "K2"),
                         (1, "K0"), (2, "K0")]
        assert result.stats.inference_steps == 2 + 1 + 1
        records = list(trace_records(result, engine))
        assert [(r["component"], r["label"]) for r in records if r["record"] == "step"] == steps
        assert {r["component"] for r in records if r["record"] == "job"} == {0, 1, 2}
        naive = solve(builtin_program("tc-neg"), gen_chain(9, 3), SolveOptions(mode="naive"))
        assert {s.component for s in naive.stats.steps} == {None}

    def test_no_rules_records_one_k0_step(self):
        result = solve(parse_program("e(1).\n"), [Fact("f", (2,))])
        assert [(s.component, s.label, s.k_size, s.jobs) for s in result.stats.steps] == [
            (0, "K0", 2, 0)
        ]

    def test_undefined_below_makes_a_definite_component_alternate(self):
        program = parse_program("a :- not b.\nb :- not a.\nc :- a.\n")
        engine = Engine()
        result = solve(program, engine=engine)
        # c's component reads the undefined a: its U0 derives c, and it
        # stops there, since a K1 would read the negative facts K0 read
        assert [(s.component, s.label, s.u_extra) for s in result.stats.steps] == [
            (0, "K0", 0), (0, "U0", 2), (0, "K1", 2),
            (1, "K0", 2), (1, "U0", 3),
        ]
        assert result.stats.inference_steps == 2
        # U0 runs c's rule; K0 skips it, since a holds no true fact, and no
        # K1 runs
        assert [(s.label, s.jobs) for s in result.stats.steps if s.component == 1] == [
            ("K0", 0), ("U0", 1)]
        assert [job.name for job in engine.stats_log].count("r2:c:head") == 1
        assert result_atoms(result) == (set(), {("a", ()), ("b", ()), ("c", ())})
        assert result_atoms(result) == ground_afp(program, ())

    def test_finished_component_is_an_invariant_input(self):
        engine = Engine()
        solve(builtin_program("tc-neg"), gen_chain(9, 3), engine=engine)
        jobs = [job for job in engine.stats_log if job.name == "r1:tc:join1"]
        # par is finished before tc's component starts: the first round
        # groups it, every later one maps only the tc delta
        assert len(jobs) > 2
        assert jobs[0].cached_groups == 0
        assert all(job.cached_groups > 0 for job in jobs[1:])
        # par's rules read b and the finished q only, so each runs one job
        names = [job.name for job in engine.stats_log]
        assert names.count("r2:par:antijoin1") == 1
        assert names.count("r3:par:antijoin1") == 1


class TestStats:
    def test_trace_lines_cover_every_set_computation(self):
        engine = Engine()
        result = solve(parse_program(WIN), gen_cycle(3), engine=engine)
        steps = [r for r in trace_records(result, engine) if r["record"] == "step"]
        assert [r["label"] for r in steps] == [s.label for s in result.stats.steps]
        assert steps[0]["label"] == "K0"
        assert any(r["label"] == "U0" for r in steps[1:])
        assert all(isinstance(r["jobs"], int) for r in steps)

    def test_trace_of_a_reused_engine_holds_only_its_solve(self):
        engine = Engine()
        solve(parse_program(WIN), gen_cycle(5), engine=engine)
        earlier = len(engine.stats_log)
        for program, jobs_total in ((WIN, 2), ("e(1,2).\n", 0)):
            result = solve(parse_program(program), gen_cycle(2), engine=engine)
            assert result.stats.jobs_total == jobs_total
            records = list(trace_records(result, engine))
            jobs = [r for r in records if r["record"] == "job"]
            assert len(jobs) == jobs_total
            assert len(engine.stats_log) == earlier + jobs_total
            assert [r["map_in"] for r in jobs] == [
                job.map_in for job in engine.stats_log[earlier:]]
            assert records[-1]["record"] == "solve"
            earlier = len(engine.stats_log)

    def test_trace_of_an_earlier_solve_on_a_reused_engine_holds_its_own_jobs(self):
        engine = Engine()
        first = solve(builtin_program("win-not-win"), gen_cycle(5), engine=engine)
        first_log = list(engine.stats_log)
        second = solve(builtin_program("tc-neg"), gen_chain(20, 4), engine=engine)
        for result, log in ((first, first_log), (second, engine.stats_log[len(first_log):])):
            jobs = [r for r in trace_records(result, engine) if r["record"] == "job"]
            assert [r["name"] for r in jobs] == [job.name for job in log]
            assert [r["map_in"] for r in jobs] == [job.map_in for job in log]
        assert {job.name.split(":")[1] for job in first_log} == {"win"}
        assert (first.stats.first_job, second.stats.first_job) == (0, len(first_log))

    def test_monotone_step_sizes(self):
        # K sizes grow across the whole solve; U sizes shrink within each
        # component, which runs its own alternating fixpoint (the naive
        # driver's steps all have component None: the whole program)
        for mode in ("optimized", "naive"):
            result = solve(builtin_program("tc-neg"), gen_chain(9, 3), SolveOptions(mode=mode))
            assert_monotone_steps(result.stats.steps)

    def test_optimized_loop_ends_without_a_cap(self, monkeypatch):
        # with a difference that removes nothing, K0's second round takes in
        # a fact it already holds; the delta stops growing and the loop
        # stops. reach's component has no negative cycle, so its K0 runs
        # both rules, the recursive one included
        program = parse_program("reach(Y) :- reach(X), e(X,Y).\nreach(X) :- s(X), not b(X).\n")
        rounds = []
        consequences = fixpoint.immediate_consequences

        def counted(*args, **kwargs):
            rounds.append(1)
            return consequences(*args, **kwargs)

        monkeypatch.setattr(fixpoint, "immediate_consequences", counted)
        monkeypatch.setattr(Database, "difference_update", lambda self, other: None)
        with pytest.raises(InvariantError, match="K0: delta set received duplicate facts"):
            solve(program, [Fact("s", (1,)), Fact("e", (1, 1))])
        assert len(rounds) == 2  # K0's two rounds

    def test_naive_loop_ends_without_a_cap(self, monkeypatch):
        # a round that drops a fact of the round before it is caught at once
        program = parse_program("reach(1).\nreach(Y) :- reach(X), e(X,Y).\n")
        facts = [Fact("e", (1, 2)), Fact("e", (2, 3)), Fact("e", (2, 4))]
        consequences = fixpoint.immediate_consequences
        rounds = []

        def dropping(engine, plans, pos, *args, **kwargs):
            out = consequences(engine, plans, pos, *args, **kwargs)
            rounds.append(1)
            if len(rounds) == 2:  # K0's second round loses reach(2)
                out = out.difference(make_db([Fact("reach", (2,))]))
            return out

        monkeypatch.setattr(fixpoint, "immediate_consequences", dropping)
        with pytest.raises(InvariantError, match="K0: consequence chain is not increasing"):
            solve(program, facts, options=SolveOptions(mode="naive"))

    def test_derived_volume_counted(self):
        result = solve(parse_program(WIN), gen_cycle(4))
        assert result.stats.derived_facts > 0
        assert result.stats.jobs_total > 0

    @pytest.mark.parametrize("mode", ["optimized", "naive"])
    @pytest.mark.parametrize(
        "name, facts", [("win-not-win", gen_cycle(12)), ("tc-neg", gen_chain(9, 3))]
    )
    def test_new_facts_are_rule_output(self, mode, name, facts):
        stats = solve(builtin_program(name), facts, options=SolveOptions(mode=mode)).stats
        assert sum(s.new_facts for s in stats.steps) <= stats.derived_facts
        if name == "win-not-win":
            assert stats.steps[0].new_facts == 0  # K0: no rule without negation

    @pytest.mark.parametrize("mode", ["optimized", "naive"])
    @pytest.mark.parametrize(
        "name, facts",
        [("win-not-win", gen_tree(15)), ("win-not-win", gen_cycle(6)), ("tc-neg", gen_chain(9, 3))],
    )
    def test_job_names_keep_the_benchmark_kinds(self, mode, name, facts):
        # the benchmark's per-layer metrics are per job kind: join, antijoin, head
        program = builtin_program(name)
        heads = [plan.head_predicate for plan in compile_program(program)]
        engine = Engine()
        solve(program, facts, options=SolveOptions(mode=mode), engine=engine)
        assert engine.stats_log
        for job in engine.stats_log:
            match = re.fullmatch(r"r(\d+):(\w+):(join\d+|antijoin\d+|head)", job.name)
            assert match and heads[int(match[1])] == match[2], job.name

    def test_input_cache_is_reported(self):
        engine = Engine()
        stats = solve(builtin_program("tc-neg"), gen_chain(9, 3), engine=engine).stats
        # b(X,Y) is the only base predicate; the b x b joins of rules 3 and 4
        # run once, and later jobs read b from the cache
        assert stats.peak_cache_records > 0
        assert [job.name for job in engine.stats_log].count("r3:par:join1") == 1
        assert any(job.cached_groups for job in engine.stats_log)

    def test_only_grouped_inputs_are_held(self):
        # the cache holds b grouped for each join and anti-join that reads
        # it, and the output of rule 3's b x b join grouped for its
        # anti-join; no rule result is kept beside them
        result = solve(builtin_program("tc-neg"), gen_chain(400, 40))
        assert result.stats.peak_cache_records == 720
        assert result.stats.jobs_total == 25

    def test_previous_possible_set_is_in_the_ledger(self, monkeypatch):
        registered = []
        seeds = []
        original = fixpoint.SolveStats.register_live

        def spy(stats, name, db):
            registered.append(name)
            if name == "D":
                seeds.append(db)
            original(stats, name, db)

        monkeypatch.setattr(fixpoint.SolveStats, "register_live", spy)
        # win reads itself positively through jump, so its U steps are full
        # rounds; q, the lowest component of tc-neg, reads itself only
        # under not, so from U1 on its U steps count instances, find D
        # themselves and keep no previous possible delta
        cases = (
            (parse_program(WIN + "win(X) :- jump(X,Y), win(Y).\n"),
             gen_tree(15) + [Fact("jump", (40, 2))], True),
            (builtin_program("tc-neg"), gen_chain(16, 2), False),
        )
        for program, facts, full in cases:
            registered.clear()
            seeds.clear()
            result = solve(program, facts)
            # the lowest component takes more than 2 inference steps
            labels = [s.label for s in result.stats.steps if s.component == 0]
            assert sum(label.startswith("U") for label in labels) > 2
            assert ("U_prev" in registered) is full
            # from K2 on, D takes the place of U_prev or of the atoms it
            # held in the count map until the K step's first round ends,
            # which empties it
            assert seeds and not any(db.count() for db in seeds)
            assert result.stats.peak_live_sets <= 3

    def test_k0_result_is_the_true_set(self, monkeypatch):
        # K0's least fixpoint becomes the component's true set itself, with
        # no copy held beside it under another ledger name
        k0_relations = []
        registered = []
        original_lfp = fixpoint.least_fixpoint_delta
        original_register = fixpoint.SolveStats.register_live

        def lfp(session, plans, start, neg, label, live_as, **kwargs):
            result = original_lfp(session, plans, start, neg, label, live_as, **kwargs)
            if label == "K0":
                k0_relations.extend(map(result.relation, result.predicates()))
            return result

        def spy(stats, name, db):
            registered.append(name)
            original_register(stats, name, db)

        monkeypatch.setattr(fixpoint, "least_fixpoint_delta", lfp)
        monkeypatch.setattr(fixpoint.SolveStats, "register_live", spy)
        result = solve(builtin_program("tc-neg"), gen_chain(400, 40))
        tc = result.true_facts.relation("tc")
        assert len(tc) > 0
        assert any(relation is tc for relation in k0_relations)
        assert "delta" not in registered
        assert result.stats.peak_live_sets == 3

    def test_k_steps_from_k2_join_only_the_atoms_that_left(self):
        engine = Engine()
        result = solve(builtin_program("win-not-win"), gen_tree(15), engine=engine)
        steps = {s.label: s for s in result.stats.steps}
        assert list(steps)[-1] == "K3"
        jobs: dict[str, list] = {}
        for record in trace_records(result, engine):
            if record["record"] == "job":
                jobs.setdefault(record["step"], []).append(record)
        for i in (2, 3):
            # the possible delta of U_{i-2}, less what K_{i-1} made true and
            # what U_{i-1} still finds possible: the atoms K_i no longer
            # reads negatively
            left = (
                steps[f"U{i - 2}"].u_extra
                - (steps[f"K{i - 1}"].k_size - steps[f"K{i - 2}"].k_size)
                - steps[f"U{i - 1}"].u_extra
            )
            [job] = jobs[f"K{i}"]
            assert re.fullmatch(r"r0:win:join\d+", job["name"])
            assert job["map_in"] == job["reduce_groups"] == left > 0
            # the move groups the anti-join holds serve as the index
            assert job["cached_groups"] == 30
        assert result_atoms(result) == ground_afp(builtin_program("win-not-win"), gen_tree(15))


    def test_u_steps_from_u2_reduce_only_the_atoms_that_entered_k(self):
        engine = Engine()
        result = solve(builtin_program("win-not-win"), gen_tree(15), engine=engine)
        steps = {s.label: s for s in result.stats.steps}
        jobs: dict[str, list] = {}
        for record in trace_records(result, engine):
            if record["record"] == "job":
                jobs.setdefault(record["step"], []).append(record)
        # U1 seeds the atoms still possible after K1 became true, and each
        # later U step the atoms the K step before it added; the move groups
        # held by the anti-join of U0 and K1 serve as the index
        seeded = {
            "U1": steps["U0"].u_extra - (steps["K1"].k_size - steps["K0"].k_size),
            "U2": steps["K2"].k_size - steps["K1"].k_size,
        }
        for label, atoms in seeded.items():
            [job] = jobs[label]
            assert job["kind"] == "join"
            assert job["map_in"] == job["reduce_groups"] == atoms > 0
            assert job["cached_groups"] == 30
        # win-cycle stops after K1, so no U step is counted: U0's anti-join
        # maps the moves and K1's reads them from the cache, as before
        engine = Engine()
        solve(builtin_program("win-not-win"), gen_cycle(20), engine=engine)
        assert [(job.name, job.map_in, job.reduce_groups, job.reduce_out, job.cached_groups)
                for job in engine.stats_log] == [
            ("r0:win:antijoin1", 20, 20, 20, 0), ("r0:win:antijoin1", 20, 20, 0, 20)]


class TestDriverChecks:
    """Each check between a driver's steps fires on a set that a faulty
    step changed after its least fixpoint returned. On the chain
    1 -> 2 -> 3 -> 4 the true set is empty after K0, {win(3)} after K1 and
    {win(1), win(3)} from K2 on; the possible set is {win(1), win(3)} from
    U1 on."""

    # win reads itself through jump, which holds no fact, so the optimized
    # driver runs full U steps, each checked against the one before
    PROGRAM = WIN + "win(X) :- jump(X,Y), win(Y).\n"
    MOVES = [Fact("move", (i, i + 1)) for i in (1, 2, 3)]
    STRAY = [Fact("win", (99,))]  # an atom no step derives

    @staticmethod
    def faulty(monkeypatch, name, at, fault):
        """Replace ``fixpoint.<name>`` by the same step, after which the
        step labelled ``at`` applies ``fault(out, start)`` to its output and
        the true set it started from (None in the naive driver)."""
        original = getattr(fixpoint, name)
        signature = inspect.signature(original)

        def step(*args, **kwargs):
            out = original(*args, **kwargs)
            call = signature.bind(*args, **kwargs).arguments
            if call["label"] == at:
                fault(out, call.get("start"))
            return out

        monkeypatch.setattr(fixpoint, name, step)

    @pytest.mark.parametrize("at, fault, message", [
        # the true set takes in U0's output as well
        ("U0", lambda out, start: start[0].update(out), "possible delta overlaps the true set"),
        ("U1", lambda out, start: out.insert_many(TestDriverChecks.STRAY),
         "possible set grew between inference steps"),
        ("K1", lambda out, start: out.insert_many(TestDriverChecks.STRAY),
         "true set escaped the possible set"),
        # the true set takes in K1's output before the driver adds it
        ("K1", lambda out, start: start[0].update(out), "true delta overlaps the true set"),
    ])
    def test_optimized(self, monkeypatch, at, fault, message):
        self.faulty(monkeypatch, "least_fixpoint_delta", at, fault)
        with pytest.raises(InvariantError, match=f"^{message}$"):
            solve(parse_program(self.PROGRAM), self.MOVES)

    @pytest.mark.parametrize("at, fault, message", [
        ("K2", lambda out, start: out.difference_update(make_db([Fact("win", (3,))])),
         "true set shrank between rounds"),
        ("U1", lambda out, start: out.insert_many(TestDriverChecks.STRAY),
         "possible set grew between rounds"),
        ("K1", lambda out, start: out.insert_many(TestDriverChecks.STRAY),
         "true set escaped the possible set"),
        # K2 miscounts itself as K1's one fact, so the sizes stand still
        # while the true set grew
        ("K2", lambda out, start: setattr(out, "count", lambda: 1),
         "size-based stationarity test disagrees with set equality"),
    ])
    def test_naive(self, monkeypatch, at, fault, message):
        self.faulty(monkeypatch, "least_fixpoint", at, fault)
        with pytest.raises(InvariantError, match=f"^{message}$"):
            solve(parse_program(self.PROGRAM), self.MOVES, options=SolveOptions(mode="naive"))


class TestCountedUSteps:
    """``count_instances`` on the chain 1 -> 2 -> 3 -> 4, where win(3) and
    win(1) are true and win(2) is false."""

    def count(self, possible, known, grown, extra=None):
        session = new_session(WIN, [Fact("move", (i, i + 1)) for i in (1, 2, 3)])

        def wins(*nodes):
            return make_db([Fact("win", (n,)) for n in nodes])

        counts = fixpoint.DerivationCounts(wins(*possible))
        counts.extra = extra
        dropped = fixpoint.count_instances(
            session, session.plans, wins(*known), wins(*grown), counts, "U1")
        return db_atoms(counts.possible), db_atoms(dropped), counts.extra

    def test_a_first_count_finds_d_and_drops_the_new_true_atoms(self):
        possible, dropped, extra = self.count((1, 2, 3), (), (3,))
        assert possible == {("win", (1,))}
        assert dropped == {("win", (2,))}
        assert extra == {"win": {}}  # one live instance each

    def test_a_true_atom_leaving_the_possible_set_raises(self):
        # win(2) is claimed true with win(3), which kills its only instance
        with pytest.raises(InvariantError, match="U1: a true atom left the possible set"):
            self.count((1, 2, 3), (), (2, 3), extra={})

    def test_a_possible_set_that_grew_raises(self):
        # win(2) is possible, so its seed finds win(1)'s instance, but win(1)
        # is neither possible nor true
        with pytest.raises(InvariantError, match="U1: possible set grew"):
            self.count((2,), (), ())

    def test_a_count_below_zero_raises(self):
        # win(2) entering K kills win(1)'s only instance, but win(1) has no
        # count left
        with pytest.raises(InvariantError, match="U1: derivation count below zero"):
            self.count((2,), (), (2,), extra={})

    def test_a_decrement_drops_the_atoms_whose_count_reaches_zero(self):
        possible, dropped, extra = self.count((1, 2), (), (2,), extra={})
        assert (possible, dropped) == (set(), {("win", (1,))})

    def test_a_count_above_two_falls_by_one(self, monkeypatch):
        # win(a) has three live instances, through b, c and d; win(b)
        # entering K at K2 kills one. win(c) and win(d) stay undefined on
        # their two-cycle, so win(a) does too
        moves = ["ab", "ac", "ad", "cd", "dc", "be", "ef", "fg"]
        facts = [Fact("move", tuple(move)) for move in moves]
        counted = {}
        original = fixpoint.count_instances

        def spy(session, plans, known, grown, counts, label):
            dropped = original(session, plans, known, grown, counts, label)
            a = ("a",)
            counted[label] = counts.extra["win"].get(a, 1 if counts.possible.contains("win", a) else 0)
            return dropped

        monkeypatch.setattr(fixpoint, "count_instances", spy)
        program = parse_program(WIN)
        result = solve(program, facts)
        assert counted["U1"] == 3
        assert counted["U2"] == 2
        true_atoms, undef_atoms = result_atoms(result)
        assert {atom for atom in true_atoms if atom[0] == "win"} == {("win", ("b",)), ("win", ("f",))}
        assert undef_atoms == {("win", (x,)) for x in "acd"}
        assert (true_atoms, undef_atoms) == ground_afp(program, facts)


class TestCollectorPause:
    def test_paused_until_the_last_overlapping_solve_exits(self, monkeypatch):
        entered = {name: threading.Event() for name in "ab"}
        may_leave = {name: threading.Event() for name in "ab"}
        errors = []
        real = fixpoint.solve_optimized

        def held(session):
            name = threading.current_thread().name
            entered[name].set()
            assert may_leave[name].wait(30)
            return real(session)

        def run():
            try:
                solve(parse_program(WIN), gen_cycle(5))
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        monkeypatch.setattr(fixpoint, "solve_optimized", held)
        gc.enable()
        threads = {name: threading.Thread(target=run, name=name) for name in "ab"}
        try:
            for name in "ab":
                threads[name].start()
                assert entered[name].wait(30)
            assert not gc.isenabled()
            may_leave["a"].set()
            threads["a"].join(30)
            assert not threads["a"].is_alive()
            assert not gc.isenabled()  # "b" is still solving
            may_leave["b"].set()
            threads["b"].join(30)
            assert gc.isenabled()
        finally:
            for name in "ab":
                may_leave[name].set()
                threads[name].join(30)
            gc.enable()
        assert not errors

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            solve(parse_program(WIN), gen_cycle(3))
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestClassify:
    @pytest.fixture()
    def two_cycle_result(self):
        return solve(parse_program(WIN), gen_cycle(2))

    def test_undefined_atom(self, two_cycle_result):
        assert classify(Fact("win", (1,)), two_cycle_result) is TruthValue.UNDEFINED

    def test_true_atom(self, two_cycle_result):
        assert classify(Fact("move", (1, 2)), two_cycle_result) is TruthValue.TRUE

    def test_false_atom_outside_possible_set(self, two_cycle_result):
        assert classify(Fact("win", (99,)), two_cycle_result) is TruthValue.FALSE
        assert classify(Fact("move", (2, 2)), two_cycle_result) is TruthValue.FALSE

    def test_unknown_predicate_rejected(self, two_cycle_result):
        with pytest.raises(UnknownPredicateError):
            classify(Fact("draw", (1,)), two_cycle_result)

    def test_wrong_arity_rejected(self, two_cycle_result):
        with pytest.raises(ArityError):
            classify(Fact("win", (1, 2)), two_cycle_result)


class TestSolveOptions:
    def test_a_mode_other_than_optimized_or_naive_is_refused(self):
        # "both" is the command line's: it runs each driver in turn
        engine = Engine()
        with pytest.raises(ValueError, match="unknown mode 'both'"):
            solve(parse_program(WIN), gen_cycle(2), options=SolveOptions(mode="both"), engine=engine)
        assert engine.stats_log == []


class TestFactsHandling:
    def test_external_facts_checked_against_program_signatures(self):
        with pytest.raises(ArityError):
            solve(parse_program(WIN), [Fact("move", (1, 2, 3))])

    def test_external_fact_checked_against_derived_predicate(self):
        with pytest.raises(ArityError) as err:
            solve(parse_program(WIN), [Fact("move", (1, 2)), Fact("win", (1, 2))])
        assert (err.value.predicate, err.value.seen, err.value.expected) == ("win", 2, 1)

    def test_external_facts_of_one_predicate_share_an_arity(self):
        with pytest.raises(ArityError) as err:
            solve(parse_program(WIN), [Fact("e", (1,)), Fact("move", (1, 2)), Fact("e", (1, 2))])
        assert (err.value.predicate, err.value.seen, err.value.expected) == ("e", 2, 1)

    @pytest.mark.parametrize("mode", ["optimized", "naive"])
    @pytest.mark.parametrize(
        "text, facts, true_atoms, undef_atoms",
        [
            # the base fact p(1) blocks its own derivation; p(2) has no other
            (
                "p(X) :- e(X), not p(X).\n",
                "p(1).\ne(1).\ne(2).",
                {("p", (1,)), ("e", (1,)), ("e", (2,))},
                {("p", (2,))},
            ),
            # p(1) is derived again only while r(1) is possibly true, so only
            # the possible set holds its copy; the base keeps it true
            (
                "p(X) :- e(X), not r(X).\nr(X) :- e(X), not r(X).\n",
                "p(1).\ne(1).",
                {("p", (1,)), ("e", (1,))},
                {("r", (1,))},
            ),
            # f has base facts only, and they block the negative subgoal
            (
                "r(X) :- e(X), not f(X).\n",
                "e(1).\ne(2).\nf(1).",
                {("e", (1,)), ("e", (2,)), ("f", (1,)), ("r", (2,))},
                set(),
            ),
        ],
    )
    def test_base_and_derived_facts(self, mode, text, facts, true_atoms, undef_atoms):
        program = parse_program(text)
        base = parse_facts(facts)
        result = solve(program, base, options=SolveOptions(mode=mode))
        assert result_atoms(result) == (true_atoms, undef_atoms)
        assert result_atoms(result) == ground_afp(program, base)

    def test_predicate_may_be_both_base_and_derived(self):
        text = "p(X) :- e(X), not q(X).\np(9).\n"
        result = solve(parse_program(text), [Fact("e", (1,)), Fact("q", (1,))])
        true_atoms, undef_atoms = result_atoms(result)
        assert ("p", (9,)) in true_atoms
        assert ("p", (1,)) not in true_atoms and ("p", (1,)) not in undef_atoms


class TestParsedRowsHandoff:
    """A :class:`FactRows`' rows become base relations uncopied, so
    nothing in a solve may change the base."""

    TEXT = facts_to_text(gen_tree(20))
    # the general path: a comment, and two predicates whose facts alternate
    GENERAL = "% moves and nodes\n" + "".join(f"{fact}.\nnode({fact.args[0]}).\n" for fact in gen_tree(20))
    TEXTS = pytest.mark.parametrize("facts_text", [TEXT, GENERAL], ids=["fast-path", "general"])
    READ = WIN + "lost(X) :- node(X), not win(X).\n"

    @TEXTS
    @pytest.mark.parametrize("mode", ["optimized", "naive"])
    @pytest.mark.parametrize("partitions", [1, 3])
    @pytest.mark.parametrize(
        "text", [READ, READ + "move(Y,X) :- move(X,Y), not win(Y).\n"], ids=["read", "also-derived"])
    def test_solve_leaves_the_parsed_value_as_parsed(self, facts_text, mode, partitions, text):
        program, facts = parse_program(text), parse_facts(facts_text)
        engine = Engine(EngineConfig(partitions=partitions))
        result = solve(program, facts, options=SolveOptions(mode=mode), engine=engine)
        assert facts == parse_facts(facts_text)
        for predicate, rows in facts.relations.items():
            assert result.true_facts.relation(predicate) is not rows
        assert result_atoms(result) == ground_afp(program, facts)

    @TEXTS
    def test_the_base_relation_is_the_parsed_rows(self, facts_text):
        facts = parse_facts(facts_text)
        session = new_session(self.READ, facts)
        for predicate, rows in facts.relations.items():
            assert session.base.relation(predicate) is rows
        # the program's own facts of a predicate: the rows are added to them
        session = new_session(self.READ + "move(99,100).\n", facts)
        assert session.base.relation("move") is not facts.relations["move"]
        assert list(session.base.tuples("move")) == [(99, 100), *facts.relations["move"]]
        if "node" in facts.relations:
            assert session.base.relation("node") is facts.relations["node"]
        assert session.base.count() == len(facts) + 1
        assert facts == parse_facts(facts_text)

    @TEXTS
    @pytest.mark.parametrize("text", [READ, READ + "move(99,100).\n"], ids=["rows", "program-facts"])
    def test_solve_builds_no_fact_from_the_rows(self, monkeypatch, facts_text, text):
        program, facts = parse_program(text), parse_facts(facts_text)
        want = result_atoms(solve(program, list(facts)))
        monkeypatch.setattr(FactRows, "__iter__", lambda rows: pytest.fail("iterated"))
        assert result_atoms(solve(program, facts)) == want

    @pytest.mark.parametrize("relations", [{}, {"move": {}}], ids=["no-predicate", "no-rows"])
    def test_empty_rows_solve_as_no_facts(self, relations):
        program = parse_program(WIN + "move(1,2).\n")
        assert result_atoms(solve(program, FactRows(relations))) == result_atoms(solve(program, ()))

    def test_insert_many_copies_the_parsed_rows(self):
        facts = parse_facts(self.TEXT)
        db = make_db(facts)
        db.insert_many([Fact("move", (99, 100))])
        assert db.count() == len(facts) + 1
        assert facts == parse_facts(self.TEXT)

    def test_tracemalloc_peak_of_parse_and_solve(self):
        # a Fact per parsed row, or a copy of the rows into the base, holds
        # about 1.1 MB more at this size: 7.72-7.88 MB against 6.60-6.76 MB
        # on Python 3.10 and 3.11, three runs each
        text, program = facts_to_text(gen_cycle(20000)), parse_program(WIN)
        tracemalloc.start()
        try:
            result = solve(program, parse_facts(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.undefined_facts.count() == 20000
        assert peak <= 7.24e6
