import random

import pytest

from wfsmr.oracle import ground_afp
from wfsmr.program import ArityError, Fact, parse_program
from wfsmr.store import Database, DatabaseView

from tests.helpers import db_atoms, make_db


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


class TestAddRows:
    def test_keeps_the_handed_set_when_the_relation_has_no_facts(self):
        db = Database()
        rows = dict.fromkeys([(1, 2), (2, 3)])
        db.add_rows("a", 2, rows)
        assert db.relation("a").tuples is rows
        db.add_rows("b", 1, {})  # an empty relation has no facts either
        handed = {(4,): None}
        db.add_rows("b", 1, handed)
        assert db.relation("b").tuples is handed
        assert db.count() == 3

    def test_unions_into_a_relation_with_facts(self):
        db = make_db([Fact("a", (1, 2))])
        held = db.relation("a").tuples
        rows = dict.fromkeys([(7, 8), next(iter(held))])
        db.add_rows("a", 2, rows)
        assert db.relation("a").tuples is held
        assert db.count() == 2
        assert held.keys() == {(1, 2), (7, 8)}
        assert len(rows) == 2  # the handed rows are left alone

    def test_arity_clash(self):
        db = make_db([Fact("a", (1, 2))])
        with pytest.raises(ArityError):
            db.add_rows("a", 1, {(1,): None})
        db.add_rows("b", 1, {})
        with pytest.raises(ArityError):
            db.add_rows("b", 2, {(1, 2): None})


class TestIsDisjoint:
    def test_against_a_database(self):
        a = make_db([Fact("p", (1,)), Fact("q", (1, 2))])
        b = make_db([Fact("p", (2,)), Fact("r", (1,))])  # q only in a, r only in b
        assert a.isdisjoint(b) and b.isdisjoint(a)
        assert Database().isdisjoint(a) and a.isdisjoint(Database())
        b.insert_many([Fact("q", (1, 2))])
        assert not a.isdisjoint(b) and not b.isdisjoint(a)
        assert not a.isdisjoint(a)

    def test_against_a_view(self):
        a = make_db([Fact("p", (1,)), Fact("p", (2,)), Fact("q", (5,))])
        part1 = make_db([Fact("p", (3,)), Fact("r", (1,))])
        part2 = make_db([Fact("p", (4,))])
        assert a.isdisjoint(DatabaseView(part1, part2))
        part2.insert_many([Fact("p", (2,))])
        assert not a.isdisjoint(DatabaseView(part1, part2))


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
        a = make_db([Fact("a", (1, 2))])
        b = make_db([Fact("a", (1, 2)), Fact("a", (1, 3))])
        a.update(b)
        assert db_atoms(a) == {("a", (1, 2)), ("a", (1, 3))}

    def test_true_set_plus_possible_delta(self):
        moves, undef_atoms = _two_cycle_partition()
        known = make_db(moves)
        delta = make_db([Fact(p, args) for p, args in undef_atoms])
        possible = _union(known, delta)
        assert possible.count() == 4
        assert db_atoms(possible) == db_atoms(known) | undef_atoms
        assert known.count() == 2 and delta.count() == 2  # the copy took the update

    def test_identity(self):
        empty = Database()
        x = make_db([Fact("p", (5,))])
        empty.update(x)
        assert empty.same_content(x)
        x.update(Database())
        assert empty.same_content(x)

    def test_size_bound_and_commutativity(self):
        rng = random.Random(7)
        a = make_db([Fact("r", (rng.randrange(4), rng.randrange(4))) for _ in range(10)])
        b = make_db([Fact("r", (rng.randrange(4), rng.randrange(4))) for _ in range(10)])
        union = _union(a, b)
        assert union.count() <= a.count() + b.count()
        assert union.same_content(_union(b, a))


class TestDifference:
    def test_basic(self):
        a = make_db([Fact("a", (1, 2)), Fact("a", (1, 3))])
        b = make_db([Fact("a", (1, 2))])
        assert db_atoms(a.difference(b)) == {("a", (1, 3))}

    def test_self_difference_is_empty(self):
        db = make_db([Fact("a", (1, 2)), Fact("b", (3,))])
        assert db.difference(db).count() == 0

    def test_possible_minus_true_on_two_cycle(self):
        moves, undef_atoms = _two_cycle_partition()
        known = make_db(moves)
        possible = make_db(moves + [Fact(p, args) for p, args in undef_atoms])
        assert db_atoms(possible.difference(known)) == undef_atoms

    def test_difference_against_view(self):
        a = make_db([Fact("p", (1,)), Fact("p", (2,)), Fact("p", (3,))])
        part1 = make_db([Fact("p", (1,))])
        part2 = make_db([Fact("p", (3,))])
        out = a.difference(DatabaseView(part1, part2))
        assert db_atoms(out) == {("p", (2,))}

    def test_union_difference_law(self):
        rng = random.Random(11)
        a = make_db([Fact("r", (rng.randrange(4),)) for _ in range(6)])
        b = make_db([Fact("r", (rng.randrange(4),)) for _ in range(6)])
        assert _union(a, b).difference(b).issubset(a)

    @pytest.mark.parametrize("other_holds_predicate", [True, False])
    def test_output_is_its_own_set(self, other_holds_predicate):
        a = make_db([Fact("p", (1,)), Fact("p", (2,))])
        b = make_db([Fact("p" if other_holds_predicate else "q", (1,))])
        before = db_atoms(a), db_atoms(b)
        out = a.difference(b)
        out.insert_many([Fact("p", (9,)), Fact("q", (9,))])
        out.relation("p").tuples.clear()
        assert (db_atoms(a), db_atoms(b)) == before


class TestDifferenceUpdate:
    ROWS = [(5,), (2,), (8,), (1,), (9,), (3,), (7,), (4,), (6,), (0,)]

    def _db(self):
        return make_db([Fact("p", row) for row in self.ROWS] + [Fact("q", (1,))])

    def test_rows_leave_the_same_dict(self):
        db = self._db()
        rows = db.relation("p").tuples
        db.difference_update(make_db([Fact("p", (8,)), Fact("p", (11,)), Fact("q", (2,))]))
        assert db.relation("p").tuples is rows
        assert list(rows) == [row for row in self.ROWS if row != (8,)]
        assert db.count() == 10

    def test_most_rows_leave_the_rest_in_order(self):
        db = self._db()
        gone = self.ROWS[1:9]
        view = DatabaseView(make_db([Fact("p", row) for row in gone[:4]]),
                            make_db([Fact("p", row) for row in gone[4:]]))
        db.difference_update(view)
        assert list(db.tuples("p")) == [(5,), (0,)]
        assert list(db.tuples("q")) == [(1,)]

    def test_an_emptied_relation_is_dropped(self):
        db = self._db()
        db.difference_update(DatabaseView(self._db(), make_db([Fact("r", (1,))])))
        assert db.predicates() == ()
        assert db.count() == 0


class TestRowOrder:
    def test_a_relation_keeps_the_order_rows_were_added_in(self):
        rows = [(3, "b"), (1, "a"), (3, "b"), (2, 2), (1, "a"), (0, "c")]
        db = make_db([Fact("p", row) for row in rows])
        assert list(db.tuples("p")) == [(3, "b"), (1, "a"), (2, 2), (0, "c")]

    def test_difference_keeps_the_order_of_the_rows_left(self):
        rows = [(7,), (4,), (9,), (1,), (6,), (2,)]
        db = make_db([Fact("p", row) for row in rows])
        view = DatabaseView(make_db([Fact("p", (9,))]), make_db([Fact("p", (4,)), Fact("p", (2,))]))
        assert list(db.difference(view).tuples("p")) == [(7,), (1,), (6,)]

    def test_issubset_of_a_view_needs_each_row_in_some_part(self):
        a = make_db([Fact("p", (1,)), Fact("p", (2,)), Fact("q", (3,))])
        part1 = make_db([Fact("p", (2,)), Fact("q", (3,))])
        part2 = make_db([Fact("p", (1,))])
        assert a.issubset(DatabaseView(part1, part2))
        assert not a.issubset(part1)
        assert not a.issubset(DatabaseView(part2, make_db([Fact("q", (3,))])))


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
        a = make_db([Fact("p", (i,)) for i in range(5)])
        b = a.copy()
        assert a.count() == b.count() and a.same_content(b)
        b.insert_many([Fact("p", (99,))])
        assert a.count() != b.count() and not a.same_content(b)


class TestExport:
    def test_round_trip(self):
        facts = [Fact("m", ("alpha", 3)), Fact("m", (3, "alpha")), Fact("n", ())]
        db = make_db(facts)
        assert set(db.iter_facts()) == set(facts)

    def test_iter_facts_is_sorted_deterministically(self):
        # ordered by predicate, then by which columns hold text (ints
        # first), then by value, whatever order the facts went in; rows that
        # mix int and text constants sort too
        facts = [Fact("b", (2,)), Fact("a", (9, 1)), Fact("a", (1, 9)),
                 Fact("m", ("alpha", 3)), Fact("m", (3, "alpha")),
                 Fact("m", ("007", 7)), Fact("m", (7, "007"))]
        forward = list(make_db(facts).iter_facts())
        assert forward == list(make_db(reversed(facts)).iter_facts())
        assert forward == [
            Fact("a", (1, 9)), Fact("a", (9, 1)), Fact("b", (2,)),
            Fact("m", (3, "alpha")), Fact("m", (7, "007")),
            Fact("m", ("007", 7)), Fact("m", ("alpha", 3)),
        ]

    def test_copy_is_independent(self):
        db = make_db([Fact("p", (1,))])
        clone = db.copy()
        clone.insert_many([Fact("p", (2,))])
        assert db.count() == 1 and clone.count() == 2


class TestTake:
    def test_moves_the_relations_and_empties_the_other(self):
        db = make_db([Fact("p", (1,))])
        other = make_db([Fact("q", (2, 3))])
        rows = other.relation("q").tuples
        db.take(other)
        assert db_atoms(db) == {("p", (1,)), ("q", (2, 3))}
        assert db.relation("q").tuples is rows
        assert other.count() == 0

    def test_a_shared_predicate_is_refused_and_changes_nothing(self):
        db = make_db([Fact("p", (1,)), Fact("q", (5,))])
        other = make_db([Fact("p", (2,)), Fact("r", (3,))])
        with pytest.raises(ValueError, match=r"both databases hold predicates \['p'\]"):
            db.take(other)
        assert db_atoms(db) == {("p", (1,)), ("q", (5,))}
        assert db_atoms(other) == {("p", (2,)), ("r", (3,))}


class TestDatabaseView:
    def test_a_view_of_no_database_is_refused(self):
        with pytest.raises(ValueError, match="at least one database"):
            DatabaseView()

    def test_union_semantics(self):
        a = make_db([Fact("p", (1,))])
        b = make_db([Fact("p", (2,)), Fact("q", (3, 4))])
        view = DatabaseView(a, b)
        assert set(view.tuples("p")) == set(a.tuples("p")) | set(b.tuples("p"))
        assert set(view.tuples("q")) == set(b.tuples("q"))
        assert set(view.tuples("r")) == set()

    def test_nested_views_flatten(self):
        parts = [make_db([Fact("p", (i,))]) for i in range(3)]
        view = DatabaseView(DatabaseView(parts[0], parts[1]), parts[2])
        assert len(view.parts) == 3
        assert len(set(view.tuples("p"))) == 3

    def test_the_only_part_holding_a_predicate_gives_its_rows_in_order(self):
        rows = [(3, 1), (1, 2), (2, 2)]
        view = DatabaseView(make_db([Fact("q", (0,))]), make_db([Fact("p", r) for r in rows]),
                            Database())
        held = view.tuples("p")
        assert list(held) == rows
        assert list(held) == rows  # an iterable, not a spent iterator

    def test_several_parts_give_their_rows_in_part_order(self):
        a = make_db([Fact("p", (2,)), Fact("p", (1,))])
        b = make_db([Fact("p", (4,)), Fact("p", (3,))])
        assert list(DatabaseView(a, b).tuples("p")) == [(2,), (1,), (4,), (3,)]
        assert list(DatabaseView(b, a).tuples("p")) == [(4,), (3,), (2,), (1,)]

    def test_a_predicate_no_part_holds_gives_no_rows(self):
        view = DatabaseView(make_db([Fact("p", (1,))]), Database())
        assert list(view.tuples("r")) == []
        assert list(Database().tuples("p")) == []
        assert list(make_db([Fact("p", (1,))]).tuples("r")) == []
