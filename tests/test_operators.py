import itertools
import random
from dataclasses import replace

import pytest

from wfsmr.mapreduce import Engine, EngineConfig, JobError, per_key
from wfsmr.operators import (
    InputCache, _antijoin_spec, _join_spec, _project_spec, anti_join, eval_rule, rule_pipeline,
    single_join,
)
from wfsmr.fixpoint import immediate_consequences
from wfsmr.planner import compile_program, compile_rule
from wfsmr.bench import builtin_program
from wfsmr.program import Atom, Fact, Literal, Rule, parse_facts, parse_program
from wfsmr.store import Database, DatabaseView

from tests.helpers import (
    brute_anti_join,
    db_atoms,
    eval_rule_bruteforce,
    make_db,
    nested_loop_join,
    random_program,
    random_relation,
)


@pytest.fixture()
def engine():
    return Engine()


def section3_databases():
    pos = make_db(parse_facts("a(1,2).\na(1,3).\nb(2,4).\nb(3,5)."))
    neg = make_db(parse_facts("c(1,2).\nd(2,3)."))
    return pos, neg


OUT_XZY = [("l", 0), ("l", 1), ("r", 1)]


class TestSingleJoin:
    def test_worked_example(self, engine):
        pos, _ = section3_databases()
        got = single_join(
            engine, pos.tuples("a"), pos.tuples("b"), [1], [0], OUT_XZY
        )
        assert got.keys() == {(1, 2, 4), (1, 3, 5)}

    def test_empty_right_side(self, engine):
        assert single_join(engine, [(1, 2)], [], [1], [0], OUT_XZY).keys() == set()

    def test_chain_continuation(self, engine):
        # frozen from the nested-loop oracle
        left, right = [(1, 2)], [(2, 9)]
        expected = nested_loop_join(left, right, [1], [0], OUT_XZY)
        assert expected == {(1, 2, 9)}
        assert single_join(engine, left, right, [1], [0], OUT_XZY).keys() == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_nested_loop_oracle(self, engine, seed):
        rng = random.Random(seed)
        for _ in range(6):
            arity_l = rng.randrange(1, 4)
            arity_r = rng.randrange(1, 4)
            nkeys = rng.randrange(1, min(arity_l, arity_r) + 1)
            lkey = rng.sample(range(arity_l), nkeys)
            rkey = rng.sample(range(arity_r), nkeys)
            left = random_relation(rng, arity_l, max_rows=16, domain=4)
            right = random_relation(rng, arity_r, max_rows=16, domain=4)
            out_cols = [("l", i) for i in range(arity_l)] + [("r", i) for i in range(arity_r)]
            want = nested_loop_join(left, right, lkey, rkey, out_cols)
            got = single_join(engine, left, right, lkey, rkey, out_cols)
            assert got.keys() == want

    def test_empty_key_is_cartesian(self, engine):
        got = single_join(engine, [(1,), (2,)], [(8,), (9,)], [], [], [("l", 0), ("r", 0)])
        assert got.keys() == {(1, 8), (1, 9), (2, 8), (2, 9)}
        assert engine.stats_log[-1].warnings  # skew note in stats


def positive_goal(engine, text, pos):
    """The rule's positive goal: its head lists the goal schema and nothing
    is negated away."""
    plan = compile_rule(parse_program(text + "\n").rules[0])
    assert [("v", g) for g in range(len(plan.goal_schema))] == list(plan.head_cols)
    return eval_rule(engine, plan, pos, Database())


class TestMultiJoin:
    def test_three_relation_chain(self, engine):
        pos = make_db(parse_facts("a(1,2).\nb(2,3).\nb(2,4).\nc(3,7).\nc(4,9)."))
        got = positive_goal(engine, "q(X,W,Y) <- a(X,Z), b(Z,W), c(W,Y), not d(X,W).", pos)
        # positive goal abc over schema (X, W, Y)
        assert got.keys() == {(1, 3, 7), (1, 4, 9)}

    def test_single_subgoal_is_projection(self, engine):
        pos = make_db(parse_facts("a(1,5).\na(2,5).\na(2,6)."))
        assert positive_goal(engine, "p(Y) <- a(X,Y), not b(Y).", pos).keys() == {(5,), (6,)}

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_triple_loop(self, engine, seed):
        rng = random.Random(100 + seed)
        # W stays in the goal schema because the negative subgoal shares it
        pos = Database()
        rels = {}
        for pred in ("a", "b", "c"):
            rels[pred] = random_relation(rng, 2, max_rows=5, domain=3)
            pos.insert_many(Fact(pred, row) for row in rels[pred])
        want = {
            (x, w, y)
            for (x, z) in rels["a"]
            for (z2, w) in rels["b"]
            for (w2, y) in rels["c"]
            if z == z2 and w == w2
        }
        got = positive_goal(engine, "h(X,W,Y) <- a(X,Z), b(Z,W), c(W,Y), not d(X,W).", pos)
        assert got.keys() == want


def project(engine, rows, text="p(X) <- q(X,Y).") -> set:
    """Rows of ``q`` through the one projection job of a rule without joins
    or anti-joins, which keys each projected row by itself."""
    plan = compile_rule(parse_program(text + "\n").rules[0])
    pos = make_db(Fact("q", row) for row in rows)
    jobs_before = len(engine.stats_log)
    out = eval_rule(engine, plan, pos, pos)
    assert [job.name for job in engine.stats_log[jobs_before:]] == ["r0:p:head"]
    return out


class TestDedup:
    def test_collapses_duplicates(self, engine):
        assert project(engine, [(1, 7), (1, 8), (2, 7)]).keys() == {(1,), (2,)}
        assert engine.stats_log[-1].reduce_groups == 2

    def test_identity_on_unique_input(self, engine):
        rows = {(1, 2), (3, 4)}
        assert project(engine, rows, "p(X,Y) <- q(X,Y).").keys() == rows

    def test_idempotent(self, engine):
        rows = [(1, 5), (1, 6), (2, 5), (2, 6), (2, 7)]
        once = project(engine, rows)
        assert project(engine, [(x, 0) for (x,) in once]) == once
        assert len(once) <= len(rows)

    def test_duplicate_derivations_collapse(self, engine):
        # two rules deriving the same tuple contribute it once
        program = parse_program(
            "ab(X,Z,Y) :- a1(X,Z), b(Z,Y).\nab(X,Z,Y) :- a2(X,Z), b(Z,Y).\n"
        )
        pos = make_db(parse_facts("a1(1,2).\na2(1,2).\nb(2,4)."))
        out = immediate_consequences(engine, compile_program(program), pos, pos)
        assert db_atoms(out) == {("ab", (1, 2, 4))}


class TestEmptyPositiveRelation:
    def test_a_round_runs_no_job_over_an_empty_positive_relation(self, engine):
        # tc holds no fact yet, so only the base rule runs
        plans = compile_program(parse_program(
            "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\n"))
        pos = make_db(parse_facts("e(1,2).\ne(2,3)."))
        out = immediate_consequences(engine, plans, pos, pos)
        assert [job.name for job in engine.stats_log] == ["r0:tc:head"]
        assert db_atoms(out) == {("tc", (1, 2)), ("tc", (2, 3))}

    def test_a_seed_over_an_empty_positive_goal_runs_no_job(self, engine):
        [plan] = compile_program(parse_program("p(X) :- e(X), f(X), not q(X).\n"))
        dropped = make_db(parse_facts("q(1)."))
        for facts, jobs in (("e(1).", 0), ("e(1).\nf(1).", 2)):
            engine.stats_log.clear()
            pos = make_db(parse_facts(facts))
            out = immediate_consequences(engine, plan.seeds, pos, Database(), delta=dropped)
            assert len(engine.stats_log) == jobs, facts
            assert db_atoms(out) == ({("p", (1,))} if jobs else set())


class TestAntiJoin:
    def test_first_negative_subgoal(self, engine):
        pos, neg = section3_databases()
        ab = {(1, 2, 4), (1, 3, 5)}
        got = anti_join(engine, ab, neg.tuples("c"), [0, 1])
        assert got.keys() == {(1, 3, 5)}

    def test_second_negative_subgoal(self, engine):
        pos, neg = section3_databases()
        abc = {(1, 3, 5)}
        got = anti_join(engine, abc, neg.tuples("d"), [1, 2])
        assert got.keys() == {(1, 3, 5)}

    def test_empty_negative_side(self, engine):
        rows = {(1, 2), (3, 4)}
        assert anti_join(engine, rows, [], [0]).keys() == rows

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_membership_filter(self, engine, seed):
        rng = random.Random(200 + seed)
        for _ in range(6):
            arity = rng.randrange(1, 4)
            nkeys = rng.randrange(1, arity + 1)
            key = rng.sample(range(arity), nkeys)
            positive = random_relation(rng, arity, max_rows=20, domain=4)
            negative = random_relation(rng, nkeys, max_rows=10, domain=4)
            want = brute_anti_join(positive, negative, key)
            assert anti_join(engine, positive, negative, key).keys() == want

    def test_equals_difference_with_semijoin(self, engine):
        rng = random.Random(314)
        positive = random_relation(rng, 2, max_rows=24, domain=5)
        negative = random_relation(rng, 1, max_rows=5, domain=5)
        key = [1]
        semijoin = {row for row in positive if (row[1],) in negative}
        assert anti_join(engine, positive, negative, key).keys() == positive - semijoin


def _run_on_partitions(spec, partitions, reducer=lambda key, groups: ()):
    """Output and stats of ``spec`` run on ``partitions`` reduce tasks, and
    the stats of the per-key co-group of the same inputs with ``reducer``."""
    spec = replace(spec, inputs=[(key_of, list(records)) for key_of, records in spec.inputs])
    output, stats = Engine(EngineConfig(partitions=partitions)).run_job(spec)
    cogroup = replace(spec, reduce_task=per_key(reducer))
    _, reference = Engine(EngineConfig(partitions=partitions)).run_job(cogroup)
    return output, stats, reference


class TestTaskLevelAntiJoin:
    """The anti-join reduces each reduce task's keys in one pass; its output
    and counts are the brute-force answer's on every partition count."""

    CASES = {
        "empty negative side": ({(1, 2), (3, 4), (3, 5)}, set(), [0]),
        "empty positive side": (set(), {(1,), (2,)}, [1]),
        "negative keys the positive side lacks": (
            {(1, 2), (2, 2), (3, 1), (4, 4)}, {(2,), (7,), (8,)}, [1]),
        "whole-row key": ({(1, 2), (2, 3)}, {(2, 3), (5, 5)}, [0, 1]),
        "empty key": ({(1,), (2,)}, {()}, []),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_brute_force_on_partitions_1_to_4(self, case):
        positive, negative, key = self.CASES[case]
        want = brute_anti_join(positive, negative, key)
        keys = {tuple(row[i] for i in key) for row in positive}
        for partitions in (1, 2, 3, 4):
            spec = _antijoin_spec("aj", key, positive, negative, width=2)
            output, stats, reference = _run_on_partitions(spec, partitions)
            assert output.keys() == want, partitions
            assert (stats.reduce_groups, stats.reduce_out) == (len(keys), len(want)), partitions
            assert stats.max_group == reference.max_group, partitions

    def test_pick_with_head_constants_matches_brute_force(self):
        # one job: the anti-join projects onto the head, its constant included
        plan = compile_rule(parse_program("p(X,7) :- b(X,Y), not q(Y).\n").rules[0])
        b = {(x, y) for x in range(1, 6) for y in range(1, 6) if (x + y) % 3}
        q = {(2,), (4,), (9,)}
        pos = make_db([Fact("b", row) for row in b])
        neg = make_db([Fact("q", row) for row in q])
        survivors = brute_anti_join(b, q, [1])
        want = {(x, 7) for x, _ in survivors}
        assert len(want) < len(survivors)  # the projection merges rows
        seen = set()
        for partitions in (1, 2, 3, 4):
            [(spec, _)] = rule_pipeline(plan, pos, neg)
            output, stats, reference = _run_on_partitions(spec, partitions)
            assert output.keys() == want, partitions
            assert stats.reduce_groups == len({y for _, y in b}), partitions
            assert stats.reduce_out == len(survivors), partitions
            assert stats.max_group == reference.max_group, partitions
            seen.add(frozenset(output))
        assert len(seen) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_max_group_equals_the_cogroups_with_duplicate_negatives(self, seed):
        rng = random.Random(700 + seed)
        for _ in range(8):
            positive = random_relation(rng, 2, max_rows=20, domain=4)
            negative = random_relation(rng, 1, max_rows=4, domain=5)
            twice = rng.sample(sorted(negative), len(negative) // 2)
            for partitions in (1, 2, 3, 4):
                spec = _antijoin_spec("aj", [0], positive, [*negative, *twice])
                output, stats, reference = _run_on_partitions(spec, partitions)
                assert output.keys() == brute_anti_join(positive, negative, [0])
                assert stats.max_group == reference.max_group

    @pytest.mark.parametrize("partitions", [1, 2, 3, 4])
    def test_max_group_counts_the_negative_rows_of_a_hit_key(self, partitions):
        engine = Engine(EngineConfig(partitions=partitions))
        # one positive row under the key, and one negative row
        anti_join(engine, {(1, 5)}, {(1,)}, [0])
        assert engine.stats_log[-1].max_group == 2
        # three positive rows under the key, and one negative row
        anti_join(engine, {(1, 5), (1, 6), (1, 7), (2, 5)}, {(1,)}, [0])
        assert engine.stats_log[-1].max_group == 4
        # the negative row comes twice, through overlapping view parts
        plan = compile_rule(parse_program("p(X) :- b(X,Y), not q(X).\n").rules[0])
        q = make_db(parse_facts("q(1).\nq(2)."))
        for facts, largest in (("b(1,5).\nb(3,5).", 3),  # b(1,5) once, q(1) twice
                               ("b(1,5).\nb(2,5).\nb(2,6).\nb(2,7).", 5)):  # b(2,_) 3 times
            b = make_db(parse_facts(facts))
            [(spec, _)] = rule_pipeline(plan, b, DatabaseView(q, q))
            output, stats = engine.run_job(spec)
            assert output.keys() == ({(3,)} if largest == 3 else set())
            assert stats.max_group == largest

    @pytest.mark.parametrize("partitions", [1, 3])
    def test_a_failing_pick_names_the_job_phase_and_reduce_task(self, partitions):
        def pick(row):
            raise ValueError("bad pick")

        spec = _antijoin_spec("r0:p:antijoin1", [0], {(1, 2), (3, 4)}, [(3,)], pick)
        with pytest.raises(JobError) as err:
            Engine(EngineConfig(partitions=partitions)).run_job(spec)
        assert (err.value.job, err.value.phase) == ("r0:p:antijoin1", "reduce")
        assert err.value.item in range(partitions)  # the index of the reduce task
        assert isinstance(err.value.cause, ValueError)
        assert "reduce phase" in str(err.value)


def _pick_of(flat):
    return lambda row: tuple(row[i] for i in flat)


def _counts(stats):
    return stats.reduce_groups, stats.reduce_out, stats.max_group


def _join_reducer(pick):
    """The per-key join: each key's distinct picks of its left rows crossed
    with its right rows."""
    def reducer(key, groups):
        lefts, rights = groups
        return {pick(lrow + rrow) for lrow in lefts for rrow in rights}
    return reducer


class TestTaskLevelJoin:
    """The join reduces each reduce task's keys in one pass; its output is
    the nested-loop join's and its counts are the per-key co-group's on
    every partition count."""

    OUT = [("l", 0), ("r", 1)]
    CASES = {
        "one row per key on both sides": ({(1, 2), (2, 3), (3, 4)}, {(2, 5), (3, 6), (9, 9)}),
        "one left row, several right rows": ({(1, 2), (5, 3)}, {(2, 5), (2, 6), (2, 7), (3, 3)}),
        "several left rows, one right row": ({(1, 2), (4, 2), (5, 2)}, {(2, 5), (7, 1)}),
        "several rows on both sides": ({(1, 2), (4, 2), (3, 3)}, {(2, 5), (2, 6), (3, 1), (3, 2)}),
        "empty left side": (set(), {(2, 5)}),
        "empty right side": ({(1, 2), (1, 3)}, set()),
        "left keys the right side lacks": ({(1, 2), (1, 7), (3, 8), (4, 7), (5, 7)}, {(2, 5), (6, 6)}),
    }

    def check(self, left, right, left_key, right_key, out_cols):
        want = nested_loop_join(left, right, left_key, right_key, out_cols)
        width = len(next(iter(left), ()))
        pick = _pick_of([i if side == "l" else width + i for side, i in out_cols])
        for partitions in (1, 2, 3, 4):
            spec = _join_spec("j", left_key, right_key, pick, left, right)
            output, stats, reference = _run_on_partitions(spec, partitions, _join_reducer(pick))
            assert output.keys() == want, partitions
            assert _counts(stats) == _counts(reference), partitions

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_nested_loops_and_the_cogroups_counts(self, case):
        left, right = self.CASES[case]
        self.check(left, right, [1], [0], self.OUT)

    def test_a_key_emits_each_pick_once(self):
        # key 2 has two rows a side, key 3 one left row and two right rows
        left, right = {(1, 2), (1, 3), (2, 2)}, {(2, 5), (2, 6), (3, 5), (3, 6)}
        self.check(left, right, [1], [0], [("l", 0)])

    def test_empty_key(self):
        self.check({(1,), (2,)}, {(3,), (4,)}, [], [], [("l", 0), ("r", 0)])
        self.check({(1,)}, {(3,), (4,)}, [], [], [("r", 0)])

    @pytest.mark.parametrize("seed", range(4))
    def test_random_relations_with_many_rows_per_key(self, seed):
        rng = random.Random(800 + seed)
        for _ in range(8):
            left = random_relation(rng, 2, max_rows=20, domain=4)
            right = random_relation(rng, 2, max_rows=20, domain=4)
            self.check(left, right, [1], [0], self.OUT)

    def test_pick_with_a_head_constant(self):
        # one job: the join projects onto the head, its constant included
        plan = compile_rule(parse_program("p(X,7) :- b(X,Y), c(Y,Z).\n").rules[0])
        b = {(1, 2), (3, 2), (4, 5), (6, 9)}
        c = {(2, 1), (2, 8), (5, 5), (7, 7)}
        want = {(x, 7) for x, _ in nested_loop_join(b, c, [1], [0], [("l", 0), ("r", 1)])}
        pos = make_db([Fact("b", row) for row in b] + [Fact("c", row) for row in c])
        for partitions in (1, 2, 3, 4):
            [(spec, _)] = rule_pipeline(plan, pos, pos)
            pick = spec.reduce_task.args[0]
            output, stats, reference = _run_on_partitions(spec, partitions, _join_reducer(pick))
            assert output.keys() == want, partitions
            assert _counts(stats) == _counts(reference), partitions

    @pytest.mark.parametrize("partitions", [1, 3])
    def test_a_failing_pick_names_the_job_phase_and_reduce_task(self, partitions):
        def pick(row):
            raise ValueError("bad pick")

        for right in ({(2, 5)}, {(2, 5), (2, 6)}):  # the streamed and the other keys
            spec = _join_spec("r0:p:join1", [1], [0], pick, {(1, 2), (3, 4)}, right)
            with pytest.raises(JobError) as err:
                Engine(EngineConfig(partitions=partitions)).run_job(spec)
            assert (err.value.job, err.value.phase) == ("r0:p:join1", "reduce")
            assert err.value.item in range(partitions)  # the index of the reduce task
            assert isinstance(err.value.cause, ValueError)


class TestTaskLevelProjection:
    """A projection emits each key of a task once, with the per-key
    co-group's counts."""

    @pytest.mark.parametrize("rows", [
        set(), {(1, 2)}, {(1, 2), (2, 2)}, {(1, 2), (1, 3), (1, 4), (2, 2), (5, 5), (5, 6)},
    ], ids=["empty", "one row", "distinct keys", "duplicate keys"])
    def test_matches_the_cogroup(self, rows):
        want = {(x,) for x, _ in rows}
        for partitions in (1, 2, 3, 4):
            spec = _project_spec("r0:p:head", _pick_of([0]), rows)
            output, stats, reference = _run_on_partitions(
                spec, partitions, lambda key, groups: [key])
            assert output.keys() == want, partitions
            assert _counts(stats) == _counts(reference), partitions


class TestEvalRule:
    def test_worked_example_final_goal(self, engine):
        pos, neg = section3_databases()
        rule = parse_program(
            "p(X,Y) <- a(X,Z), b(Z,Y), not c(X,Z), not d(Z,Y).\n"
        ).rules[0]
        got = eval_rule(engine, compile_rule(rule), pos, neg)
        assert got.keys() == {(1, 5)}

    def test_empty_positive_side(self, engine):
        rule = parse_program("win(X) <- move(X,Y), not win(Y).\n").rules[0]
        pos = Database()
        neg = Database()
        assert eval_rule(engine, compile_rule(rule), pos, neg).keys() == set()

    def test_game_rule_with_empty_negative_side(self, engine):
        # frozen from the single-rule ground-instantiation oracle
        rule = parse_program("win(X) <- move(X,Y), not win(Y).\n").rules[0]
        pos = make_db([Fact("move", (1, 2)), Fact("move", (2, 1))])
        neg = Database()
        want = eval_rule_bruteforce(rule, db_atoms(pos), set())
        assert want == {("win", (1,)), ("win", (2,))}
        got = eval_rule(engine, compile_rule(rule), pos, neg)
        assert got.keys() == {args for _, args in want}

    def test_ground_negative_subgoal_blocks_everything(self, engine):
        rule = parse_program("p(X) <- e(X), not stop.\n").rules[0]
        pos = make_db([Fact("e", (1,)), Fact("e", (2,))])
        blocked = make_db([Fact("stop", ())])
        clear = Database()
        plan = compile_rule(rule)
        assert eval_rule(engine, plan, pos, blocked).keys() == set()
        assert eval_rule(engine, plan, pos, clear).keys() == {(1,), (2,)}

    def test_rule_without_positive_subgoals(self, engine):
        rule = parse_program("p <- not q(1).\n").rules[0]
        pos = Database()
        plan = compile_rule(rule)
        assert eval_rule(engine, plan, pos, make_db([Fact("q", (1,))])).keys() == set()
        assert eval_rule(engine, plan, pos, Database()).keys() == {()}

    @pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_ground_instantiation(self, engine, seed):
        rng = random.Random(400 + seed)
        for _ in range(8):
            program = random_program(rng, with_facts=False)
            pos = Database()
            neg = Database()
            for pred, arity in program.signatures.items():
                pos.insert_many(Fact(pred, row) for row in random_relation(rng, arity, max_rows=6, domain=4))
                neg.insert_many(Fact(pred, row) for row in random_relation(rng, arity, max_rows=4, domain=4))
            for rule in program.proper_rules():
                plan = compile_rule(rule)
                got = eval_rule(engine, plan, pos, neg)
                want = {
                    args
                    for _, args in eval_rule_bruteforce(rule, db_atoms(pos), db_atoms(neg))
                }
                assert got.keys() == want, str(rule)


def _variants(plan):
    """Each variant of ``plan`` with its rule as brute force reads it: the
    body literal the variant reads in the delta becomes a positive subgoal
    over predicate ``delta``."""
    body = plan.rule.body
    at = [i for i, lit in enumerate(body) if not lit.negated]
    at += [i for i, lit in enumerate(body) if lit.negated]
    assert len(at) == len(plan.deltas) + len(plan.seeds)
    for variant, i in zip(plan.deltas + plan.seeds, at):
        assert variant.delta.atom == body[i].atom
        renamed = body[:i] + (Literal(Atom("delta", body[i].atom.args)),) + body[i + 1:]
        yield variant, Rule(plan.rule.head, renamed)


def _as_delta(variant, delta):
    return {("delta", args) for p, args in db_atoms(delta) if p == variant.delta.atom.predicate}


def _shape_cases():
    """(name, plan) pairs covering every pipeline shape the planner emits."""
    cases = []
    for name in ("tc-neg", "win-not-win"):
        for i, rule in enumerate(builtin_program(name).proper_rules()):
            cases.append((f"{name}#{i}", compile_rule(rule)))
    for text in (
        "p(X,Y) <- a(X,Z), b(Z,Y), not c(X,Z), not d(Z,Y).",
        "h(X,9) <- a(X,Z), b(Z,Y), not c(Y,X).",
        "p <- not q(1).",
        # the joins or the scan drop columns the goal does not need
        "h(X,Y) <- a(X,Z), b(Z,W), c(W,Y), not d(X,W).",
        "h(Y) <- a(X,Y), not b(Y).",
    ):
        cases.append((text, compile_rule(parse_program(text + "\n").rules[0])))
    return cases


class TestRulePipelineShape:
    @pytest.mark.parametrize("name,plan", _shape_cases(), ids=[n for n, _ in _shape_cases()])
    def test_one_job_per_join_or_antijoin(self, name, plan):
        rng = random.Random(name)
        rule = plan.rule
        preds = {a.predicate: a.arity for a in (rule.head, *(lit.atom for lit in rule.body))}
        pos, neg, delta = Database(), Database(), Database()
        for pred, arity in sorted(preds.items()):
            for row in itertools.product(range(1, 4), repeat=arity):
                if rng.random() < 0.6:
                    pos.insert_many([Fact(pred, row)])
                    if rng.random() < 0.5:
                        delta.insert_many([Fact(pred, row)])
                if rng.random() < 0.25:
                    neg.insert_many([Fact(pred, row)])
        want_jobs = max(1, len(plan.joins) + len(plan.anti_joins))
        engine = Engine()
        got = eval_rule(engine, plan, pos, neg)
        assert len(engine.stats_log) == want_jobs
        want = eval_rule_bruteforce(rule, db_atoms(pos), db_atoms(neg))
        assert got.keys() == {args for _, args in want}
        for variant, renamed in _variants(plan):
            engine.stats_log.clear()
            got = eval_rule(engine, variant, pos, neg, delta=delta)
            assert len(engine.stats_log) == want_jobs
            atoms = db_atoms(pos) | _as_delta(variant, delta)
            want = eval_rule_bruteforce(renamed, atoms, db_atoms(neg))
            assert got.keys() == {args for _, args in want}, str(renamed)

    @pytest.mark.parametrize("name,plan", _shape_cases(), ids=[n for n, _ in _shape_cases()])
    def test_warm_cache_runs_no_more_jobs(self, name, plan):
        # every body predicate but the head's is a base predicate here, so
        # the cache treats it as invariant and streams it from the base
        rng = random.Random(name)
        rule = plan.rule
        preds = {a.predicate: a.arity for a in (rule.head, *(lit.atom for lit in rule.body))}
        base, derived, negated, delta = (Database() for _ in range(4))
        for pred, arity in sorted(preds.items()):
            for row in itertools.product(range(1, 4), repeat=arity):
                if pred != plan.head_predicate:
                    if rng.random() < 0.6:
                        base.insert_many([Fact(pred, row)])
                    continue
                if rng.random() < 0.6:
                    derived.insert_many([Fact(pred, row)])
                    if rng.random() < 0.5:
                        delta.insert_many([Fact(pred, row)])
                if rng.random() < 0.25:
                    negated.insert_many([Fact(pred, row)])
        pos, neg = DatabaseView(base, derived), DatabaseView(base, negated)
        pos_atoms = db_atoms(base) | db_atoms(derived)
        neg_atoms = db_atoms(base) | db_atoms(negated)
        cache = InputCache(base, [plan.head_predicate])
        want_jobs = max(1, len(plan.joins) + len(plan.anti_joins))
        cases = [(plan, None, rule, pos_atoms)]
        for variant, renamed in _variants(plan):
            source = base if variant.delta.atom.predicate != plan.head_predicate else delta
            cases.append((variant, source, renamed, pos_atoms | _as_delta(variant, source)))
        engine = Engine()
        for variant, source, renamed, atoms in cases:
            mapped = []
            for _ in ("cold", "warm"):
                engine.stats_log.clear()
                got = eval_rule(engine, variant, pos, neg, delta=source, cache=cache)
                assert len(engine.stats_log) <= want_jobs
                want = eval_rule_bruteforce(renamed, atoms, neg_atoms)
                assert got.keys() == {args for _, args in want}, str(renamed)
                mapped.append(sum(s.map_in for s in engine.stats_log))
            assert mapped[1] <= mapped[0], str(renamed)

    def test_invariant_subgoal_streams_from_the_base(self):
        # e has base facts and heads no rule: its subgoals read the base,
        # whatever the source holds
        plan = compile_rule(parse_program("p(X) :- e(X), not q(X).\n").rules[0])
        base = make_db([Fact("e", (1,)), Fact("e", (2,))])
        cache = InputCache(base, ["p"])
        engine = Engine()
        for pos in (base, Database(), DatabaseView(base, base)):
            assert eval_rule(engine, plan, pos, Database(), cache=cache).keys() == {(1,), (2,)}

    def test_job_names_carry_rule_index_and_kind(self):
        from wfsmr.planner import compile_program

        plans = compile_program(builtin_program("tc-neg"))
        pos = make_db(parse_facts("b(1,2).\nb(2,3)."))
        engine = Engine()
        for plan in plans:
            eval_rule(engine, plan, pos, Database())
        names = [s.name for s in engine.stats_log]
        assert names == [
            "r0:tc:head",
            "r1:tc:join1",
            "r2:par:antijoin1",
            "r3:par:join1",
            "r3:par:antijoin1",
            "r4:q:join1",
            "r4:q:antijoin1",
        ]


    def test_whole_row_antijoin_keys_each_row_by_itself(self):
        row = (1, 2)
        for text, key_is_row in (("p(X,Y) :- b(X,Y), not q(X,Y).", True),
                                 ("p(X,Y) :- b(X,Y), not q(Y).", False)):
            plan = compile_rule(parse_program(text + "\n").rules[0])
            [(spec, _)] = rule_pipeline(plan, Database(), Database())
            key = spec.inputs[0][0](row)  # the positive input's key function
            assert (key is row) == key_is_row, text
            assert key == (row if key_is_row else (2,))


class TestInputCache:
    def test_an_all_invariant_rule_returns_a_new_set_each_call(self):
        # b, e and f are base predicates, so every input of the rule is
        # invariant: a warm cache runs all of its jobs again
        plan = compile_rule(parse_program("p(X) :- b(X,Y), e(Y), not f(Y).\n").rules[0])
        base = make_db(parse_facts("b(1,2).\nb(2,3).\nb(3,4).\ne(2).\ne(3).\nf(3)."))
        cache = InputCache(base, ["p"])
        engine = Engine()
        first = eval_rule(engine, plan, base, base, cache=cache)
        second = eval_rule(engine, plan, base, base, cache=cache)
        assert len(engine.stats_log) == 4  # a join and an anti-join per call
        assert first.keys() == second.keys() == {(1,)}
        assert first is not second
        second.clear()  # the caller owns it
        assert eval_rule(Engine(), plan, base, base, cache=cache) == first

    def test_records_are_the_grouped_values(self):
        # r1 reads only base predicates; r2 reads e from the cache beside
        # the derived p
        plans = compile_program(parse_program(
            "p(X) :- e(X), not f(X).\nq(X) :- p(X), e(X), not f(X).\n"))
        base = make_db(parse_facts("e(1).\ne(2).\ne(3).\nf(3)."))
        derived = make_db([Fact("p", (1,)), Fact("p", (2,))])
        cache = InputCache(base, ["p", "q"])
        pos = DatabaseView(base, derived)
        engine = Engine()
        for _ in ("cold", "warm"):
            for plan in plans:
                eval_rule(engine, plan, pos, base, cache=cache)
        assert cache.grouped
        assert cache.records() == sum(held.values for held in cache.grouped.values())


class TestHeldGroupsOfVariants:
    def test_an_invariant_subgoal_held_under_each_key_it_is_joined_on(self):
        # b is a base predicate: the variant that reads the a delta first
        # joins b on Y, the one that reads the c delta first joins it on Z;
        # one cache serves them all, cold and warm
        plan = compile_rule(parse_program("h(X,W) :- a(X,Y), b(Y,Z), c(Z,W).\n").rules[0])
        rng = random.Random(6)
        base, derived, delta = Database(), Database(), Database()
        for pred, db in (("b", base), ("a", derived), ("c", derived), ("a", delta), ("c", delta)):
            db.insert_many(Fact(pred, row) for row in random_relation(rng, 2, max_rows=8, domain=4))
        pos = DatabaseView(base, derived)
        pos_atoms = db_atoms(base) | db_atoms(derived)
        cache = InputCache(base, ["h", "a", "c"])
        cases = [(plan, None, plan.rule, pos_atoms)]
        cases += [(variant, delta, renamed, pos_atoms | _as_delta(variant, delta))
                  for variant, renamed in _variants(plan)]
        engine = Engine()
        for _ in ("cold", "warm"):
            for variant, source, renamed, atoms in cases:
                got = eval_rule(engine, variant, pos, Database(), delta=source, cache=cache)
                want = eval_rule_bruteforce(renamed, atoms, set())
                assert got.keys() == {args for _, args in want}, str(renamed)
        # b grouped by Y (the written order and the a variant) and by Z
        assert len(cache.grouped) == 2
        assert {held.values for held in cache.grouped.values()} == {base.count()}


class TestPartitionIndependence:
    @pytest.mark.parametrize("workers,partitions", [(1, 1), (1, 7), (4, 4), (4, 7)])
    def test_operator_outputs_stable(self, workers, partitions):
        rng = random.Random(5150)
        left = random_relation(rng, 2, max_rows=30, domain=5)
        right = random_relation(rng, 2, max_rows=30, domain=5)
        negative = random_relation(rng, 1, max_rows=6, domain=5)
        out_cols = [("l", 0), ("l", 1), ("r", 1)]
        want_join = nested_loop_join(left, right, [1], [0], out_cols)
        want_anti = brute_anti_join(left, negative, [0])
        eng = Engine(EngineConfig(workers=workers, partitions=partitions))
        assert single_join(eng, left, right, [1], [0], out_cols).keys() == want_join
        assert anti_join(eng, left, negative, [0]).keys() == want_anti
