"""Dictionary-encoded fact storage with set semantics.

Constants are interned once per solver session into dense integer ids, and
all relations and operator jobs work on fixed-width tuples of those ids.
A :class:`Database` groups tuples by predicate. Databases are mutated only
by the fixpoint driver between jobs; operator jobs only read them.
:class:`DatabaseView` presents several databases as one logical fact set
without copying, which is how the driver feeds the union of its stored
deltas to the negative side of anti-joins.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from .program import ArityError, Fact, Symbol

__all__ = ["SymbolTable", "Relation", "Database", "DatabaseView", "FactSource"]


class SymbolTable:
    """Bidirectional map between constant symbols and dense integer ids."""

    def __init__(self) -> None:
        self._ids: dict[Symbol, int] = {}
        self._symbols: list[Symbol] = []

    def intern(self, symbol: Symbol) -> int:
        sid = self._ids.get(symbol)
        if sid is None:
            sid = len(self._symbols)
            self._ids[symbol] = sid
            self._symbols.append(symbol)
        return sid

    def lookup(self, symbol: Symbol) -> Optional[int]:
        return self._ids.get(symbol)

    def decode(self, sid: int) -> Symbol:
        return self._symbols[sid]

    def __len__(self) -> int:
        return len(self._symbols)


class Relation:
    """All known tuples of one predicate, as a set of encoded tuples."""

    __slots__ = ("predicate", "arity", "tuples")

    def __init__(self, predicate: str, arity: int):
        self.predicate = predicate
        self.arity = arity
        self.tuples: set[tuple[int, ...]] = set()

    def __len__(self) -> int:
        return len(self.tuples)


class Database:
    """Predicate-keyed set of encoded facts sharing one symbol table."""

    def __init__(self, symbols: Optional[SymbolTable] = None):
        self.symbols = symbols if symbols is not None else SymbolTable()
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
        intern = self.symbols.intern
        rel: Optional[Relation] = None
        for fact in facts:
            if rel is None or rel.predicate != fact.predicate:
                rel = self._relation_for(fact.predicate, fact.arity)
            elif rel.arity != fact.arity:
                raise ArityError(fact.predicate, fact.arity, rel.arity)
            rel.tuples.add(tuple(map(intern, fact.args)))

    def add_encoded(self, predicate: str, arity: int, rows: Iterable[tuple[int, ...]]) -> int:
        rel = self._relation_for(predicate, arity)
        before = len(rel.tuples)
        rel.tuples.update(rows)
        return len(rel.tuples) - before

    def update(self, other: "Database") -> None:
        """In-place set union with another database on the same symbol table."""
        self._require_shared_symbols(other)
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

    def tuples(self, predicate: str) -> Iterator[tuple[int, ...]]:
        rel = self._relations.get(predicate)
        if rel is not None:
            yield from rel.tuples

    def contains(self, predicate: str, row: tuple[int, ...]) -> bool:
        rel = self._relations.get(predicate)
        return rel is not None and row in rel.tuples

    def count(self) -> int:
        """Total number of stored facts (the fixpoint termination measure)."""
        return sum(len(rel) for rel in self._relations.values())

    # -- algebra -----------------------------------------------------------

    def _require_shared_symbols(self, other: "FactSource") -> None:
        if other.symbols is not self.symbols:
            raise ValueError("databases must share one symbol table")

    @staticmethod
    def _parts(other: "FactSource") -> tuple["Database", ...]:
        return other.parts if isinstance(other, DatabaseView) else (other,)

    @staticmethod
    def _part_sets(parts: tuple["Database", ...], predicate: str) -> list[set[tuple[int, ...]]]:
        return [part._relations[predicate].tuples for part in parts if predicate in part._relations]

    def difference(self, other: "FactSource") -> "Database":
        """Facts present here and absent from ``other`` (database or view).
        The result owns its sets: changing it leaves both inputs alone."""
        self._require_shared_symbols(other)
        parts = self._parts(other)
        out = Database(self.symbols)
        for rel in self._relations.values():
            kept = rel.tuples.difference(*self._part_sets(parts, rel.predicate))
            if kept:
                out._relation_for(rel.predicate, rel.arity).tuples = kept
        return out

    def copy(self) -> "Database":
        out = Database(self.symbols)
        for rel in self._relations.values():
            new = out._relation_for(rel.predicate, rel.arity)
            new.tuples = set(rel.tuples)
        return out

    def same_content(self, other: "Database") -> bool:
        self._require_shared_symbols(other)
        mine = {p: rel.tuples for p, rel in self._relations.items() if rel.tuples}
        theirs = {p: rel.tuples for p, rel in other._relations.items() if rel.tuples}
        return mine == theirs

    def issubset(self, other: "FactSource") -> bool:
        self._require_shared_symbols(other)
        parts = self._parts(other)
        return not any(
            rel.tuples.difference(*self._part_sets(parts, rel.predicate))
            for rel in self._relations.values()
        )

    # -- export ------------------------------------------------------------

    def iter_facts(self) -> Iterator[Fact]:
        """Decode all facts, ordered by predicate then encoded tuple."""
        for predicate in sorted(self._relations):
            rel = self._relations[predicate]
            for row in sorted(rel.tuples):
                yield Fact(predicate, tuple(self.symbols.decode(i) for i in row))

    def __repr__(self) -> str:
        return f"Database({self.count()} facts, {len(self._relations)} predicates)"


class DatabaseView:
    """Read-only union of databases, used as a job input without copying.

    The driver composes views from pairwise-disjoint parts (for example the
    established true set and the delta currently being derived); reads do
    not require disjointness, but duplicate suppression is not performed.
    """

    __slots__ = ("parts", "symbols")

    def __init__(self, *parts: Union[Database, "DatabaseView"]):
        flat: list[Database] = []
        for part in parts:
            if isinstance(part, DatabaseView):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if not flat:
            raise ValueError("a view needs at least one database")
        symbols = flat[0].symbols
        for db in flat[1:]:
            if db.symbols is not symbols:
                raise ValueError("view parts must share one symbol table")
        self.parts: tuple[Database, ...] = tuple(flat)
        self.symbols = symbols

    def tuples(self, predicate: str) -> Iterator[tuple[int, ...]]:
        for db in self.parts:
            yield from db.tuples(predicate)


FactSource = Union[Database, DatabaseView]
