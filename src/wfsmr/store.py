"""Fact storage with set semantics.

A row is the tuple of a fact's constants as parsed, ints and text alike,
and all relations and operator jobs work on fixed-width rows, held as
:data:`Rows`: each row once, in the order it was added.
A :class:`Database` groups rows by predicate. Databases are mutated only
by the fixpoint driver between jobs; operator jobs only read them.
:class:`DatabaseView` presents several databases as one logical fact set
without copying, which is how the driver feeds the union of its stored
deltas to the negative side of anti-joins.
"""
from __future__ import annotations

from itertools import chain, filterfalse
from typing import Iterable, Iterator, Optional, Union

from .program import ArityError, Fact, Symbol

__all__ = ["Row", "Rows", "Relation", "Database", "DatabaseView", "FactSource"]

Row = tuple[Symbol, ...]

# Rows without repeats, as the keys of a dict whose values are None. A dict
# walks its keys in the order they were added, which is about the order
# their tuples were allocated in, so a scan reads memory nearly in sequence;
# a set walks them in hash order, and from about 1e5 rows on most of those
# reads miss the CPU cache. Two are equal when they hold the same rows; to
# compare one with a set, take its ``keys()``.
Rows = dict[Row, None]

_is_text = str.__instancecheck__  # isinstance(value, str), as a function of value


def _without(rows: Rows, others: Iterable[Rows]) -> Rows:
    """The rows of ``rows`` that none of ``others`` holds, in their order."""
    kept: Iterable[Row] = rows
    for other in others:
        kept = filterfalse(other.__contains__, kept)
    return dict.fromkeys(kept)


def _row_order(row: Row) -> tuple:
    """Sort key of a row. Int and text constants do not compare, so rows
    sort first by which of their columns hold text, and only rows that agree
    on that compare by value."""
    return (*map(_is_text, row), *row)


class Relation:
    """All known rows of one predicate."""

    __slots__ = ("predicate", "arity", "tuples")

    def __init__(self, predicate: str, arity: int):
        self.predicate = predicate
        self.arity = arity
        self.tuples: Rows = {}

    def __len__(self) -> int:
        return len(self.tuples)


class Database:
    """Predicate-keyed set of facts, each stored as the row of its constants."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}

    # -- construction ------------------------------------------------------

    def _relation_for(self, predicate: str, arity: int) -> Relation:
        rel = self._relations.get(predicate)
        if rel is None:
            rel = Relation(predicate, arity)
            self._relations[predicate] = rel
        elif rel.arity != arity:
            raise ArityError(predicate, arity, rel.arity)
        return rel

    def insert_many(self, facts: Iterable[Fact]) -> None:
        """Bulk insert; one relation lookup per predicate run, not per fact."""
        rel: Optional[Relation] = None
        for fact in facts:
            if rel is None or rel.predicate != fact.predicate:
                rel = self._relation_for(fact.predicate, fact.arity)
            elif rel.arity != fact.arity:
                raise ArityError(fact.predicate, fact.arity, rel.arity)
            rel.tuples[fact.args] = None

    def add_rows(self, predicate: str, arity: int, rows: Rows) -> None:
        """Add ``rows`` to the relation of ``predicate``. With no fact of it
        here yet, ``rows`` itself becomes the relation: the caller hands it over."""
        rel = self._relation_for(predicate, arity)
        if rel.tuples:
            rel.tuples.update(rows)
        else:
            rel.tuples = rows

    def take(self, other: "Database") -> None:
        """Move the relations of ``other``, none of whose predicates this
        database holds, into it without copying; ``other`` is left empty."""
        shared = self._relations.keys() & other._relations.keys()
        if shared:
            raise ValueError(f"both databases hold predicates {sorted(shared)}")
        self._relations.update(other._relations)
        other._relations = {}

    def update(self, other: "Database") -> None:
        """In-place set union with another database."""
        for rel in other._relations.values():
            self._relation_for(rel.predicate, rel.arity).tuples.update(rel.tuples)

    # -- queries -----------------------------------------------------------

    def relation(self, predicate: str) -> Optional[Relation]:
        return self._relations.get(predicate)

    def predicates(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def arity_of(self, predicate: str) -> Optional[int]:
        rel = self._relations.get(predicate)
        return rel.arity if rel is not None else None

    def tuples(self, predicate: str) -> Iterable[Row]:
        """The rows of ``predicate``, as its relation's live keys view, or
        ``()``: an iterable, not an iterator, with a length."""
        rel = self._relations.get(predicate)
        return rel.tuples.keys() if rel is not None else ()

    def contains(self, predicate: str, row: Row) -> bool:
        rel = self._relations.get(predicate)
        return rel is not None and row in rel.tuples

    def count(self) -> int:
        """Total number of stored facts (the fixpoint termination measure)."""
        return sum(len(rel) for rel in self._relations.values())

    # -- algebra -----------------------------------------------------------

    @staticmethod
    def _parts(other: "FactSource") -> tuple["Database", ...]:
        return other.parts if isinstance(other, DatabaseView) else (other,)

    @staticmethod
    def _part_sets(parts: tuple["Database", ...], predicate: str) -> list[Rows]:
        return [part._relations[predicate].tuples for part in parts if predicate in part._relations]

    def difference(self, other: "FactSource") -> "Database":
        """Facts present here and absent from ``other`` (database or view).
        The result owns its sets: changing it leaves both inputs alone."""
        parts = self._parts(other)
        out = Database()
        for rel in self._relations.values():
            kept = _without(rel.tuples, self._part_sets(parts, rel.predicate))
            if kept:
                out._relation_for(rel.predicate, rel.arity).tuples = kept
        return out

    def difference_update(self, other: "FactSource") -> None:
        """In-place set difference: remove the facts ``other`` (database or
        view) holds; a relation left empty is dropped."""
        parts = self._parts(other)
        for predicate, rel in list(self._relations.items()):
            for held in self._part_sets(parts, predicate):
                for row in rel.tuples.keys() & held.keys():  # walks the smaller
                    del rel.tuples[row]
            if not rel.tuples:
                del self._relations[predicate]

    def clear(self) -> None:
        """Drop every fact."""
        self._relations = {}

    # ``copy`` has no caller in this package. It stays only because the
    # benchmark's tracing (perfbench/tracing.py) wraps it by name; removing
    # it waits for the next change to the benchmark.
    def copy(self) -> "Database":
        out = Database()
        for rel in self._relations.values():
            new = out._relation_for(rel.predicate, rel.arity)
            new.tuples = rel.tuples.copy()
        return out

    def same_content(self, other: "Database") -> bool:
        mine = {p: rel.tuples for p, rel in self._relations.items() if rel.tuples}
        theirs = {p: rel.tuples for p, rel in other._relations.items() if rel.tuples}
        return mine == theirs

    def isdisjoint(self, other: "FactSource") -> bool:
        """No fact lies both here and in ``other`` (database or view)."""
        parts = self._parts(other)
        return all(rel.tuples.keys().isdisjoint(held.keys()) for rel in self._relations.values()
                   for held in self._part_sets(parts, rel.predicate))

    def issubset(self, other: "FactSource") -> bool:
        parts = self._parts(other)
        for rel in self._relations.values():
            outside = rel.tuples.keys()
            for held in self._part_sets(parts, rel.predicate):
                outside = outside - held.keys()
            if outside:
                return False
        return True

    # -- export ------------------------------------------------------------

    def iter_facts(self) -> Iterator[Fact]:
        """All facts, ordered by predicate, then by which columns hold text
        (ints first), then by value; the order does not depend on insertion
        order."""
        for predicate in sorted(self._relations):
            for row in sorted(self._relations[predicate].tuples, key=_row_order):
                yield Fact(predicate, row)

    def __repr__(self) -> str:
        return f"Database({self.count()} facts, {len(self._relations)} predicates)"


class DatabaseView:
    """Read-only union of databases, used as a job input without copying.

    The driver composes views from pairwise-disjoint parts (for example the
    established true set and the delta currently being derived); reads do
    not require disjointness, but duplicate suppression is not performed.
    """

    __slots__ = ("parts",)

    def __init__(self, *parts: Union[Database, "DatabaseView"]):
        flat: list[Database] = []
        for part in parts:
            if isinstance(part, DatabaseView):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if not flat:
            raise ValueError("a view needs at least one database")
        self.parts: tuple[Database, ...] = tuple(flat)

    def predicates(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(p for db in self.parts for p in db.predicates()))

    def tuples(self, predicate: str) -> Iterable[Row]:
        """The rows of ``predicate`` in part order: those of the only part
        holding some, as :meth:`Database.tuples` gives them, else a one-pass
        ``chain`` over the parts that hold some."""
        held = [rows for db in self.parts if (rows := db.tuples(predicate))]
        return held[0] if len(held) == 1 else chain.from_iterable(held)


FactSource = Union[Database, DatabaseView]
