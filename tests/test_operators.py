import itertools
import random

import pytest

from wfsmr.mapreduce import Engine, EngineConfig
from wfsmr.operators import (
    InputCache, anti_join, eval_rule, rule_pipeline, single_join,
)
from wfsmr.fixpoint import immediate_consequences
from wfsmr.planner import compile_program, compile_rule
from wfsmr.bench import builtin_program
from wfsmr.program import Atom, Fact, Literal, Rule, parse_facts, parse_program
from wfsmr.store import Database, DatabaseView, SymbolTable

from tests.helpers import (
    brute_anti_join,
    db_atoms,
    decoded,
    encoded,
    eval_rule_bruteforce,
    make_db,
    nested_loop_join,
    random_program,
    random_relation,
)


@pytest.fixture()
def engine():
    with Engine() as eng:
        yield eng


def section3_databases():
    sym = SymbolTable()
    pos = make_db(parse_facts("a(1,2).\na(1,3).\nb(2,4).\nb(3,5)."), sym)
    neg = make_db(parse_facts("c(1,2).\nd(2,3)."), sym)
    return pos, neg


OUT_XZY = [("l", 0), ("l", 1), ("r", 1)]


class TestSingleJoin:
    def test_worked_example(self, engine):
        pos, _ = section3_databases()
        got = single_join(
            engine, pos.tuples("a"), pos.tuples("b"), [1], [0], OUT_XZY
        )
        assert decoded(pos.symbols, got) == {(1, 2, 4), (1, 3, 5)}

    def test_empty_right_side(self, engine):
        assert single_join(engine, [(1, 2)], [], [1], [0], OUT_XZY) == set()

    def test_chain_continuation(self, engine):
        # frozen from the nested-loop oracle
        left, right = [(1, 2)], [(2, 9)]
        expected = nested_loop_join(left, right, [1], [0], OUT_XZY)
        assert expected == {(1, 2, 9)}
        assert single_join(engine, left, right, [1], [0], OUT_XZY) == expected

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
            assert got == want

    def test_empty_key_is_cartesian(self, engine):
        got = single_join(engine, [(1,), (2,)], [(8,), (9,)], [], [], [("l", 0), ("r", 0)])
        assert got == {(1, 8), (1, 9), (2, 8), (2, 9)}
        assert engine.stats_log[-1].warnings  # skew note in stats


def positive_goal(engine, text, pos):
    """The rule's positive goal: its head lists the goal schema and nothing
    is negated away."""
    plan = compile_rule(parse_program(text + "\n").rules[0])
    assert [("v", g) for g in range(len(plan.goal_schema))] == list(plan.head_cols)
    return decoded(pos.symbols, eval_rule(engine, plan, pos, Database(pos.symbols)))


class TestMultiJoin:
    def test_three_relation_chain(self, engine):
        pos = make_db(parse_facts("a(1,2).\nb(2,3).\nb(2,4).\nc(3,7).\nc(4,9)."))
        got = positive_goal(engine, "q(X,W,Y) <- a(X,Z), b(Z,W), c(W,Y), not d(X,W).", pos)
        # positive goal abc over schema (X, W, Y)
        assert got == {(1, 3, 7), (1, 4, 9)}

    def test_single_subgoal_is_projection(self, engine):
        pos = make_db(parse_facts("a(1,5).\na(2,5).\na(2,6)."))
        assert positive_goal(engine, "p(Y) <- a(X,Y), not b(Y).", pos) == {(5,), (6,)}

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
        assert got == want


def project(engine, rows, text="p(X) <- q(X,Y).") -> set:
    """Rows of ``q`` through the one projection job of a rule without joins
    or anti-joins, which keys each projected row by itself."""
    plan = compile_rule(parse_program(text + "\n").rules[0])
    pos = make_db(Fact("q", row) for row in rows)
    jobs_before = len(engine.stats_log)
    out = decoded(pos.symbols, eval_rule(engine, plan, pos, pos))
    assert [job.name for job in engine.stats_log[jobs_before:]] == ["r0:p:head"]
    return out


class TestDedup:
    def test_collapses_duplicates(self, engine):
        assert project(engine, [(1, 7), (1, 8), (2, 7)]) == {(1,), (2,)}
        assert engine.stats_log[-1].reduce_groups == 2

    def test_identity_on_unique_input(self, engine):
        rows = {(1, 2), (3, 4)}
        assert project(engine, rows, "p(X,Y) <- q(X,Y).") == rows

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


class TestAntiJoin:
    def test_first_negative_subgoal(self, engine):
        pos, neg = section3_databases()
        ab = encoded(pos.symbols, {(1, 2, 4), (1, 3, 5)})
        got = anti_join(engine, ab, neg.tuples("c"), [0, 1])
        assert decoded(pos.symbols, got) == {(1, 3, 5)}

    def test_second_negative_subgoal(self, engine):
        pos, neg = section3_databases()
        abc = encoded(pos.symbols, {(1, 3, 5)})
        got = anti_join(engine, abc, neg.tuples("d"), [1, 2])
        assert decoded(pos.symbols, got) == {(1, 3, 5)}

    def test_empty_negative_side(self, engine):
        rows = {(1, 2), (3, 4)}
        assert anti_join(engine, rows, [], [0]) == rows

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
            assert anti_join(engine, positive, negative, key) == want

    def test_equals_difference_with_semijoin(self, engine):
        rng = random.Random(314)
        positive = random_relation(rng, 2, max_rows=24, domain=5)
        negative = random_relation(rng, 1, max_rows=5, domain=5)
        key = [1]
        semijoin = {row for row in positive if (row[1],) in negative}
        assert anti_join(engine, positive, negative, key) == positive - semijoin


class TestEvalRule:
    def test_worked_example_final_goal(self, engine):
        pos, neg = section3_databases()
        rule = parse_program(
            "p(X,Y) <- a(X,Z), b(Z,Y), not c(X,Z), not d(Z,Y).\n"
        ).rules[0]
        got = eval_rule(engine, compile_rule(rule), pos, neg)
        assert decoded(pos.symbols, got) == {(1, 5)}

    def test_empty_positive_side(self, engine):
        rule = parse_program("win(X) <- move(X,Y), not win(Y).\n").rules[0]
        pos = Database()
        neg = Database(pos.symbols)
        assert eval_rule(engine, compile_rule(rule), pos, neg) == set()

    def test_game_rule_with_empty_negative_side(self, engine):
        # frozen from the single-rule ground-instantiation oracle
        rule = parse_program("win(X) <- move(X,Y), not win(Y).\n").rules[0]
        pos = make_db([Fact("move", (1, 2)), Fact("move", (2, 1))])
        neg = Database(pos.symbols)
        want = eval_rule_bruteforce(rule, db_atoms(pos), set())
        assert want == {("win", (1,)), ("win", (2,))}
        got = eval_rule(engine, compile_rule(rule), pos, neg)
        assert decoded(pos.symbols, got) == {args for _, args in want}

    def test_ground_negative_subgoal_blocks_everything(self, engine):
        rule = parse_program("p(X) <- e(X), not stop.\n").rules[0]
        sym = SymbolTable()
        pos = make_db([Fact("e", (1,)), Fact("e", (2,))], sym)
        blocked = make_db([Fact("stop", ())], sym)
        clear = Database(sym)
        plan = compile_rule(rule)
        assert eval_rule(engine, plan, pos, blocked) == set()
        assert decoded(sym, eval_rule(engine, plan, pos, clear)) == {(1,), (2,)}

    def test_rule_without_positive_subgoals(self, engine):
        rule = parse_program("p <- not q(1).\n").rules[0]
        sym = SymbolTable()
        pos = Database(sym)
        plan = compile_rule(rule)
        assert eval_rule(engine, plan, pos, make_db([Fact("q", (1,))], sym)) == set()
        assert eval_rule(engine, plan, pos, Database(sym)) == {()}

    @pytest.mark.filterwarnings("ignore::wfsmr.planner.PlanWarning")
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_ground_instantiation(self, engine, seed):
        rng = random.Random(400 + seed)
        for _ in range(8):
            program = random_program(rng, with_facts=False)
            sym = SymbolTable()
            pos = Database(sym)
            neg = Database(sym)
            for pred, arity in program.signatures.items():
                pos.insert_many(Fact(pred, row) for row in random_relation(rng, arity, max_rows=6, domain=4))
                neg.insert_many(Fact(pred, row) for row in random_relation(rng, arity, max_rows=4, domain=4))
            for rule in program.proper_rules():
                plan = compile_rule(rule)
                got = decoded(sym, eval_rule(engine, plan, pos, neg))
                want = {
                    args
                    for _, args in eval_rule_bruteforce(rule, db_atoms(pos), db_atoms(neg))
                }
                assert got == want, str(rule)


def _delta_renamed(rule, at):
    """The rule with its ``at``-th positive subgoal reading predicate ``delta``."""
    body = []
    seen = 0
    for lit in rule.body:
        if not lit.negated:
            if seen == at:
                lit = Literal(Atom("delta", lit.atom.args))
            seen += 1
        body.append(lit)
    return Rule(rule.head, tuple(body))


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
        sym = SymbolTable()
        pos, neg, delta = Database(sym), Database(sym), Database(sym)
        for pred, arity in sorted(preds.items()):
            for row in itertools.product(range(1, 4), repeat=arity):
                if rng.random() < 0.6:
                    pos.insert_many([Fact(pred, row)])
                    if rng.random() < 0.5:
                        delta.insert_many([Fact(pred, row)])
                if rng.random() < 0.25:
                    neg.insert_many([Fact(pred, row)])
        want_jobs = max(1, len(plan.joins) + len(plan.anti_joins))
        with Engine() as engine:
            got = eval_rule(engine, plan, pos, neg)
            assert len(engine.stats_log) == want_jobs
            want = eval_rule_bruteforce(rule, db_atoms(pos), db_atoms(neg))
            assert decoded(sym, got) == {args for _, args in want}
            for at, atom in enumerate(rule.positive()):
                engine.stats_log.clear()
                got = eval_rule(engine, plan, pos, neg, delta=delta, delta_at=at)
                assert len(engine.stats_log) == want_jobs
                delta_atoms = {("delta", args) for p, args in db_atoms(delta) if p == atom.predicate}
                want = eval_rule_bruteforce(
                    _delta_renamed(rule, at), db_atoms(pos) | delta_atoms, db_atoms(neg)
                )
                assert decoded(sym, got) == {args for _, args in want}, at

    @pytest.mark.parametrize("name,plan", _shape_cases(), ids=[n for n, _ in _shape_cases()])
    def test_warm_cache_runs_no_more_jobs(self, name, plan):
        # every body predicate but the head's is a base predicate here, so
        # the cache treats it as invariant and streams it from the base
        rng = random.Random(name)
        rule = plan.rule
        preds = {a.predicate: a.arity for a in (rule.head, *(lit.atom for lit in rule.body))}
        sym = SymbolTable()
        base, derived, negated, delta = (Database(sym) for _ in range(4))
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
        cases = [(None, None, rule, pos_atoms)]
        for at, atom in enumerate(rule.positive()):
            source = base if atom.predicate != plan.head_predicate else delta
            delta_atoms = {("delta", args) for p, args in db_atoms(source) if p == atom.predicate}
            cases.append((source, at, _delta_renamed(rule, at), pos_atoms | delta_atoms))
        with Engine() as engine:
            for source, at, renamed, atoms in cases:
                mapped = []
                for _ in ("cold", "warm"):
                    engine.stats_log.clear()
                    got = eval_rule(engine, plan, pos, neg, delta=source, delta_at=at, cache=cache)
                    assert len(engine.stats_log) <= want_jobs
                    want = eval_rule_bruteforce(renamed, atoms, neg_atoms)
                    assert decoded(sym, got) == {args for _, args in want}, at
                    mapped.append(sum(s.map_in for s in engine.stats_log))
                assert mapped[1] <= mapped[0], at

    def test_invariant_subgoal_streams_from_the_base(self):
        # e has base facts and heads no rule: its subgoals read the base,
        # whatever the source holds
        plan = compile_rule(parse_program("p(X) :- e(X), not q(X).\n").rules[0])
        sym = SymbolTable()
        base = make_db([Fact("e", (1,)), Fact("e", (2,))], sym)
        cache = InputCache(base, ["p"])
        with Engine() as engine:
            for pos in (base, Database(sym), DatabaseView(base, base)):
                assert decoded(sym, eval_rule(engine, plan, pos, Database(sym), cache=cache)) == {
                    (1,), (2,)
                }

    def test_job_names_carry_rule_index_and_kind(self):
        from wfsmr.planner import compile_program

        plans = compile_program(builtin_program("tc-neg"))
        sym = SymbolTable()
        pos = make_db(parse_facts("b(1,2).\nb(2,3)."), sym)
        with Engine() as engine:
            for plan in plans:
                eval_rule(engine, plan, pos, Database(sym))
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
        sym = SymbolTable()
        row = (1, 2)
        for text, key_is_row in (("p(X,Y) :- b(X,Y), not q(X,Y).", True),
                                 ("p(X,Y) :- b(X,Y), not q(Y).", False)):
            plan = compile_rule(parse_program(text + "\n").rules[0])
            [(spec, _)] = rule_pipeline(plan, Database(sym), Database(sym))
            [(key, value)] = spec.inputs[0][0](row)  # the positive input's mapper
            assert value is row and (key is row) == key_is_row, text
            assert key == (row if key_is_row else (2,))


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
        with Engine(EngineConfig(workers=workers, partitions=partitions)) as eng:
            assert single_join(eng, left, right, [1], [0], out_cols) == want_join
            assert anti_join(eng, left, negative, [0]) == want_anti
