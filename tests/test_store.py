import random

import pytest

from wfsmr.oracle import ground_afp
from wfsmr.program import ArityError, Fact, parse_program
from wfsmr.store import Database, DatabaseView, SymbolTable

from tests.helpers import db_atoms, make_db


class TestSymbolTable:
    def test_ids_are_dense_and_stable(self):
        table = SymbolTable()
        ids = [table.intern(s) for s in ("a", 1, "b", "a", 1)]
        assert ids == [0, 1, 2, 0, 1]
        assert len(table) == 3

    def test_decode_is_lossless(self):
        table = SymbolTable()
        symbols = ["x", 7, "0", 0, "long_name_42"]
        for s in symbols:
            assert table.decode(table.intern(s)) == s

    def test_lookup_without_interning(self):
        table = SymbolTable()
        assert table.lookup("missing") is None
        table.intern("there")
        assert table.lookup("there") == 0
        assert len(table) == 1


class TestInsert:
    def test_insert_into_empty(self):
        db = Database()
        db.insert_many([Fact("a", (1, 2))])
        assert db.count() == 1

    def test_duplicate_insert(self):
        db = make_db([Fact("a", (1, 2))])
        db.insert_many([Fact("a", (1, 2))])
        assert db.count() == 1

    def test_insert_second_predicate(self):
        db = make_db([Fact("a", (1, 2))])
        db.insert_many([Fact("b", (2, 4))])
        assert db.count() == 2
        assert set(db.predicates()) == {"a", "b"}

    def test_insert_is_idempotent(self):
        db = Database()
        db.insert_many([Fact("p", ("x",))] * 3)
        assert db.count() == 1

    def test_arity_mismatch(self):
        db = make_db([Fact("a", (1, 2))])
        with pytest.raises(ArityError):
            db.insert_many([Fact("a", (1,))])
        with pytest.raises(ArityError):
            db.insert_many([Fact("b", ()), Fact("b", (1,))])


def _two_cycle_partition():
    """Frozen from the ground alternating-fixpoint oracle on the 2-cycle."""
    program = parse_program("win(X) :- move(X,Y), not win(Y).\n")
    moves = [Fact("move", (1, 2)), Fact("move", (2, 1))]
    true_atoms, undef_atoms = ground_afp(program, moves)
    assert true_atoms == {("move", (1, 2)), ("move", (2, 1))}
    assert undef_atoms == {("win", (1,)), ("win", (2,))}
    return moves, undef_atoms


def _union(a: Database, b: Database) -> Database:
    out = a.copy()
    out.update(b)
    return out


class TestUnion:
    """In-place union (``update``), the only union the driver uses."""

    def test_absorption(self):
        sym = SymbolTable()
        a = make_db([Fact("a", (1, 2))], sym)
        b = make_db([Fact("a", (1, 2)), Fact("a", (1, 3))], sym)
        a.update(b)
        assert db_atoms(a) == {("a", (1, 2)), ("a", (1, 3))}

    def test_true_set_plus_possible_delta(self):
        moves, undef_atoms = _two_cycle_partition()
        sym = SymbolTable()
        known = make_db(moves, sym)
        delta = make_db([Fact(p, args) for p, args in undef_atoms], sym)
        possible = _union(known, delta)
        assert possible.count() == 4
        assert db_atoms(possible) == db_atoms(known) | undef_atoms
        assert known.count() == 2 and delta.count() == 2  # the copy took the update

    def test_identity(self):
        sym = SymbolTable()
        empty = Database(sym)
        x = make_db([Fact("p", (5,))], sym)
        empty.update(x)
        assert empty.same_content(x)
        x.update(Database(sym))
        assert empty.same_content(x)

    def test_size_bound_and_commutativity(self):
        rng = random.Random(7)
        sym = SymbolTable()
        a = make_db([Fact("r", (rng.randrange(4), rng.randrange(4))) for _ in range(10)], sym)
        b = make_db([Fact("r", (rng.randrange(4), rng.randrange(4))) for _ in range(10)], sym)
        union = _union(a, b)
        assert union.count() <= a.count() + b.count()
        assert union.same_content(_union(b, a))

    def test_requires_shared_symbols(self):
        with pytest.raises(ValueError):
            Database().update(Database())


class TestDifference:
    def test_basic(self):
        sym = SymbolTable()
        a = make_db([Fact("a", (1, 2)), Fact("a", (1, 3))], sym)
        b = make_db([Fact("a", (1, 2))], sym)
        assert db_atoms(a.difference(b)) == {("a", (1, 3))}

    def test_self_difference_is_empty(self):
        db = make_db([Fact("a", (1, 2)), Fact("b", (3,))])
        assert db.difference(db).count() == 0

    def test_possible_minus_true_on_two_cycle(self):
        moves, undef_atoms = _two_cycle_partition()
        sym = SymbolTable()
        known = make_db(moves, sym)
        possible = make_db(moves + [Fact(p, args) for p, args in undef_atoms], sym)
        assert db_atoms(possible.difference(known)) == undef_atoms

    def test_difference_against_view(self):
        sym = SymbolTable()
        a = make_db([Fact("p", (1,)), Fact("p", (2,)), Fact("p", (3,))], sym)
        part1 = make_db([Fact("p", (1,))], sym)
        part2 = make_db([Fact("p", (3,))], sym)
        out = a.difference(DatabaseView(part1, part2))
        assert db_atoms(out) == {("p", (2,))}

    def test_union_difference_law(self):
        rng = random.Random(11)
        sym = SymbolTable()
        a = make_db([Fact("r", (rng.randrange(4),)) for _ in range(6)], sym)
        b = make_db([Fact("r", (rng.randrange(4),)) for _ in range(6)], sym)
        assert _union(a, b).difference(b).issubset(a)

    @pytest.mark.parametrize("other_holds_predicate", [True, False])
    def test_output_is_its_own_set(self, other_holds_predicate):
        sym = SymbolTable()
        a = make_db([Fact("p", (1,)), Fact("p", (2,))], sym)
        b = make_db([Fact("p" if other_holds_predicate else "q", (1,))], sym)
        before = db_atoms(a), db_atoms(b)
        out = a.difference(b)
        out.insert_many([Fact("p", (9,)), Fact("q", (9,))])
        out.relation("p").tuples.clear()
        assert (db_atoms(a), db_atoms(b)) == before


class TestCount:
    def test_empty(self):
        assert Database().count() == 0

    def test_worked_example_facts(self):
        db = make_db(
            [Fact("a", (1, 2)), Fact("a", (1, 3)), Fact("b", (2, 4)), Fact("b", (3, 5))]
        )
        assert db.count() == 4

    def test_generator_contract(self):
        from wfsmr.bench import gen_cycle

        for n in (1, 5, 100):
            assert make_db(gen_cycle(n)).count() == n

    def test_count_equality_matches_set_equality(self):
        # the size-based fixpoint test is justified by containment
        sym = SymbolTable()
        a = make_db([Fact("p", (i,)) for i in range(5)], sym)
        b = a.copy()
        assert a.count() == b.count() and a.same_content(b)
        b.insert_many([Fact("p", (99,))])
        assert a.count() != b.count() and not a.same_content(b)


class TestEncodingAndExport:
    def test_decode_encode_round_trip(self):
        facts = [Fact("m", ("alpha", 3)), Fact("m", (3, "alpha")), Fact("n", ())]
        db = make_db(facts)
        assert set(db.iter_facts()) == set(facts)

    def test_iter_facts_is_sorted_deterministically(self):
        # ordered by predicate then encoded tuple: stable for a given
        # construction order, independent of set-iteration internals
        facts = [Fact("b", (2,)), Fact("a", (9, 1)), Fact("a", (1, 9))]
        db1 = make_db(facts)
        db2 = make_db(facts)
        assert [str(f) for f in db1.iter_facts()] == [str(f) for f in db2.iter_facts()]
        reordered = make_db(list(reversed(facts)))
        assert set(db1.iter_facts()) == set(reordered.iter_facts())
        assert sorted(str(f) for f in db1.iter_facts()) == sorted(
            str(f) for f in reordered.iter_facts()
        )

    def test_copy_is_independent(self):
        db = make_db([Fact("p", (1,))])
        clone = db.copy()
        clone.insert_many([Fact("p", (2,))])
        assert db.count() == 1 and clone.count() == 2


class TestDatabaseView:
    def test_union_semantics(self):
        sym = SymbolTable()
        a = make_db([Fact("p", (1,))], sym)
        b = make_db([Fact("p", (2,)), Fact("q", (3, 4))], sym)
        view = DatabaseView(a, b)
        assert set(view.tuples("p")) == set(a.tuples("p")) | set(b.tuples("p"))
        assert set(view.tuples("q")) == set(b.tuples("q"))
        assert set(view.tuples("r")) == set()

    def test_nested_views_flatten(self):
        sym = SymbolTable()
        parts = [make_db([Fact("p", (i,))], sym) for i in range(3)]
        view = DatabaseView(DatabaseView(parts[0], parts[1]), parts[2])
        assert len(view.parts) == 3
        assert len(set(view.tuples("p"))) == 3
