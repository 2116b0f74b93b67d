import gc
import random
import re
import threading

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
)
from wfsmr.mapreduce import Engine
from wfsmr.oracle import ground_afp
from wfsmr.planner import compile_program
from wfsmr.program import (
    ArityError,
    Fact,
    InvariantError,
    UnknownPredicateError,
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
        neg = make_db(parse_facts("c(1,2).\nd(2,3)."), session.symbols)
        out = immediate_consequences(session.engine, session.plans, session.base, neg)
        assert db_atoms(out) == {("p", (1, 5))}

    def test_game_rule_with_one_blocked_instance(self):
        session = new_session(WIN, [Fact("move", (1, 2)), Fact("move", (2, 1))])
        blocked = make_db([Fact("win", (1,))], session.symbols)
        out = immediate_consequences(session.engine, session.plans, session.base, blocked)
        # win(1) derivable because win(2) is not in the blocking set;
        # win(2) blocked because win(1) is
        assert db_atoms(out) == {("win", (1,))}


class TestLeastFixpoint:
    def test_definite_subprogram_of_game_yields_facts(self):
        session = new_session(WIN, gen_cycle(2))
        out = least_fixpoint(
            session, session.definite_plans, session.empty_view(), "K0", "work"
        )
        # the game has no definite rule: the definite fixpoint is the base alone
        assert db_atoms(session.base) == {("move", (1, 2)), ("move", (2, 1))}
        assert out.count() == 0

    def test_possible_set_on_two_cycle(self):
        session = new_session(WIN, gen_cycle(2))
        known = least_fixpoint(
            session, session.definite_plans, session.empty_view(), "K0", "work"
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
            session, session.definite_plans, session.empty_view(), "a", "work"
        )
        via_delta = least_fixpoint_delta(
            session, session.definite_plans, (), session.empty_view(), "b", "delta"
        )
        assert via_delta.same_content(via_naive)

    def test_game_delta_on_two_cycle(self):
        session = new_session(WIN, gen_cycle(2))
        known = least_fixpoint_delta(
            session, session.definite_plans, (), session.empty_view(), "K0", "K"
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
            neg = make_db(
                [
                    Fact(p, tuple(rng.randrange(1, 7) for _ in range(a)))
                    for p, a in program.signatures.items()
                    for _ in range(rng.randrange(3))
                ],
                session.symbols,
            )
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
        # reduces the one key of its delta, not every held e group
        n = 300
        program = parse_program("reach(1).\nreach(Y) :- reach(X), e(X,Y).\n")
        engine = Engine()
        result = solve(program, [Fact("e", (i, i + 1)) for i in range(1, n + 1)], engine=engine)
        true_atoms, undef_atoms = result_atoms(result)
        assert true_atoms == {("reach", (i,)) for i in range(1, n + 2)} | {
            ("e", (i, i + 1)) for i in range(1, n + 1)
        }
        assert undef_atoms == set()
        # n + 1 one-key rounds in K0, then two jobs over all n + 1 reach keys
        assert sum(job.reduce_groups for job in engine.stats_log) == 3 * (n + 1)

    @pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
    def test_random_programs_match_naive_and_oracle(self):
        rng = random.Random(777)
        for _ in range(15):
            program = random_program(rng)
            optimized = solve(program)
            naive = solve(program, options=SolveOptions(mode="naive"))
            assert partitions_agree(optimized, naive), program.pretty()
            assert result_atoms(optimized) == ground_afp(program), program.pretty()


class TestStats:
    def test_trace_lines_cover_every_set_computation(self):
        result = solve(parse_program(WIN), gen_cycle(3))
        lines = result.stats.trace_lines()
        assert lines[0].startswith("step=K0 ")
        assert any(line.startswith("step=U0 ") for line in lines)
        assert all("jobs=" in line for line in lines)

    def test_monotone_step_sizes(self):
        result = solve(builtin_program("tc-neg"), gen_chain(9, 3))
        k_sizes = [s.k_size for s in result.stats.steps]
        assert k_sizes == sorted(k_sizes)
        u_sizes = [s.u_extra for s in result.stats.steps if s.label.startswith("U")]
        assert u_sizes == sorted(u_sizes, reverse=True)

    def test_optimized_loop_ends_without_a_cap(self, monkeypatch):
        # with a difference that removes nothing, U0's second round takes in
        # a fact it already holds; the delta stops growing and the loop stops
        program = parse_program("reach(Y) :- reach(X), e(X,Y).\nreach(X) :- s(X), not b(X).\n")
        rounds = []
        consequences = fixpoint.immediate_consequences

        def counted(*args, **kwargs):
            rounds.append(1)
            return consequences(*args, **kwargs)

        monkeypatch.setattr(fixpoint, "immediate_consequences", counted)
        monkeypatch.setattr(Database, "difference", lambda self, other: self)
        with pytest.raises(InvariantError, match="U0: delta set received duplicate facts"):
            solve(program, [Fact("s", (1,)), Fact("e", (1, 1))])
        assert len(rounds) == 3  # K0's one round, then U0's two

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
                out = out.difference(make_db([Fact("reach", (2,))], pos.symbols))
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

    def test_previous_possible_set_is_in_the_ledger(self, monkeypatch):
        registered = []
        original = fixpoint.SolveStats.register_live

        def spy(stats, name, db):
            registered.append(name)
            original(stats, name, db)

        monkeypatch.setattr(fixpoint.SolveStats, "register_live", spy)
        result = solve(builtin_program("tc-neg"), gen_chain(9, 3))
        assert result.stats.inference_steps > 2
        assert "U_prev" in registered
        assert result.stats.peak_live_sets <= 3


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
