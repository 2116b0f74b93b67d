"""Alternating fixpoint solvers for the well-founded model.

The solver classifies every ground atom as true, undefined, or false.
True and undefined atoms are materialized; false atoms are implicit (the
Herbrand base is never enumerated). Two drivers produce identical
partitions:

* the naive driver recomputes every least fixpoint from scratch and keeps
  the full true/possible sets of consecutive rounds (up to four stored
  sets);
* the optimized driver starts each least fixpoint from the facts already
  established and stores at most three sets at any instant: the established
  true set, the possible-but-not-true delta, and the delta currently being
  derived. The possible delta is deleted as soon as the round shows the
  fixpoint has not been reached. Its inner rounds are semi-naive: after
  the first round of a least fixpoint, a rule runs once per positive
  subgoal whose predicate gained facts in the previous round, with that
  subgoal reading only those facts.

Every least fixpoint round runs the rule set through the MapReduce operator
pipelines; base facts are injected directly into each round instead of
running trivial jobs for them. Job inputs that read only predicates no rule
heads are the same in every round and step, so each solve keeps them in
one :class:`~wfsmr.operators.InputCache`, grouped once and reused, and
releases it when it returns. A broken invariant raises
:class:`InvariantError`.
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .mapreduce import Engine, EngineConfig, gc_paused
from .operators import InputCache, eval_rule
from .planner import RulePlan, compile_program
from .program import ArityError, Fact, InvariantError, Program, UnknownPredicateError
from .store import Database, DatabaseView, FactSource, SymbolTable

__all__ = [
    "TruthValue",
    "SolveOptions",
    "StepStat",
    "SolveStats",
    "FixpointResult",
    "Session",
    "least_fixpoint",
    "least_fixpoint_delta",
    "IterationLimitError",
    "InvariantError",
    "immediate_consequences",
    "solve",
    "classify",
]


class IterationLimitError(RuntimeError):
    """The configured iteration cap was hit; termination theory says this is a bug."""


class TruthValue(enum.Enum):
    TRUE = "true"
    UNDEFINED = "undefined"
    FALSE = "false"

    def __str__(self) -> str:
        return self.value


@dataclass
class SolveOptions:
    mode: str = "optimized"  # "optimized" | "naive"
    max_steps: int = 10_000
    debug_checks: bool = True  # cheap per-step invariant assertions
    deep_checks: bool = False  # oracle-grade assertions (recompute fixpoints)


@dataclass
class StepStat:
    label: str  # K0, U0, K1, ...
    k_size: int = 0
    u_extra: int = 0
    new_facts: int = 0  # facts the step's rules inferred beyond the base facts
    inner_iterations: int = 0
    jobs: int = 0

    def line(self) -> str:
        return (
            f"step={self.label} K={self.k_size} UminusK={self.u_extra} "
            f"new={self.new_facts} inner={self.inner_iterations} jobs={self.jobs}"
        )


@dataclass
class SolveStats:
    mode: str = "optimized"
    inference_steps: int = 0
    lfp_calls: int = 0
    steps: list[StepStat] = field(default_factory=list)
    jobs_total: int = 0
    derived_facts: int = 0
    peak_facts: int = 0
    peak_live_sets: int = 0
    peak_cache_records: int = 0  # records the solve's InputCache held at the end, its peak
    wall_ms: float = 0.0

    def __post_init__(self) -> None:
        self._live: dict[str, Database] = {}

    # Live-set ledger: the named fact sets the driver keeps between jobs,
    # including those kept only for debug checks.
    def register_live(self, name: str, db: Database) -> None:
        self._live[name] = db
        self.snapshot_live()

    def drop_live(self, name: str) -> None:
        self._live.pop(name, None)

    def snapshot_live(self) -> None:
        if len(self._live) > self.peak_live_sets:
            self.peak_live_sets = len(self._live)
        total = sum(db.count() for db in self._live.values())
        if total > self.peak_facts:
            self.peak_facts = total

    def trace_lines(self) -> list[str]:
        return [step.line() for step in self.steps]


@dataclass
class FixpointResult:
    true_facts: Database
    undefined_facts: Database
    stats: SolveStats
    signatures: dict[str, int]


# ---------------------------------------------------------------------------
# Immediate consequences
# ---------------------------------------------------------------------------


def immediate_consequences(
    engine: Engine,
    plans: Sequence[RulePlan],
    pos: FactSource,
    neg: FactSource,
    base: Database,
    stats: Optional[SolveStats] = None,
    cache: Optional[InputCache] = None,
) -> Database:
    """Heads of rules whose positive body lies in ``pos`` and whose negative
    body misses ``neg``, together with all base facts."""
    out = base.copy()
    for plan in plans:
        rows = eval_rule(engine, plan, pos, neg, cache=cache)
        if stats is not None:
            stats.derived_facts += len(rows)
        out.add_encoded(plan.head_predicate, plan.head_arity, rows)
    return out


def _delta_consequences(
    engine: Engine,
    plans: Sequence[RulePlan],
    pos: FactSource,
    neg: FactSource,
    delta: Database,
    stats: Optional[SolveStats],
    symbols: SymbolTable,
    cache: Optional[InputCache],
) -> Database:
    """Semi-naive round: only rule instances that touch at least one fact of
    ``delta``. Sound because the accumulated set only grows and ``neg`` is
    fixed during a least-fixpoint computation."""
    out = Database(symbols)
    for plan in plans:
        if plan.base is None:
            continue  # no positive dependencies: fired in the full first round
        subgoals = [plan.base.atom.predicate] + [s.right.atom.predicate for s in plan.joins]
        for index, predicate in enumerate(subgoals):
            if next(delta.tuples(predicate), None) is None:
                continue
            rows = eval_rule(engine, plan, pos, neg, delta=delta, delta_at=index, cache=cache)
            if stats is not None:
                stats.derived_facts += len(rows)
            out.add_encoded(plan.head_predicate, plan.head_arity, rows)
    return out


# ---------------------------------------------------------------------------
# Session plumbing
# ---------------------------------------------------------------------------


class Session:
    def __init__(
        self,
        program: Program,
        facts: Iterable[Fact],
        engine: Engine,
        opts: SolveOptions,
    ):
        self.engine = engine
        self.opts = opts
        self.symbols = SymbolTable()
        self.base = Database(self.symbols)
        self.signatures = dict(program.signatures)
        self.base.insert_many(program.facts())
        self.base.insert_many(facts)
        # insert_many keeps one arity per predicate, so one check per
        # predicate covers every fact against the program's signatures
        for predicate in self.base.predicates():
            arity = self.base.arity_of(predicate)
            known = self.signatures.setdefault(predicate, arity)
            if known != arity:
                raise ArityError(predicate, arity, known)
        self.plans = compile_program(program)
        self.definite_plans = [p for p in self.plans if not p.anti_joins]
        # set by solve for the drivers, whose sources hold none or all of
        # the base facts of a predicate no rule heads; other callers of the
        # least fixpoints may pass any facts, so they map every input
        self.cache: Optional[InputCache] = None
        self.empty = Database(self.symbols)
        self.stats = SolveStats(mode=opts.mode)

    def empty_view(self) -> DatabaseView:
        return DatabaseView(self.empty)


def _check_cap(opts: SolveOptions, count: int, where: str) -> None:
    if count > opts.max_steps:
        raise IterationLimitError(
            f"{where} exceeded {opts.max_steps} iterations; "
            "this indicates an evaluation bug, not a non-terminating program"
        )


# ---------------------------------------------------------------------------
# Least fixpoints
# ---------------------------------------------------------------------------


def least_fixpoint(
    session: Session,
    plans: Sequence[RulePlan],
    neg: FactSource,
    label: str,
    live_as: str,
) -> Database:
    """lfp of the consequence operator from the empty set (naive driver)."""
    engine, opts, stats = session.engine, session.opts, session.stats
    jobs_before = engine.jobs_run
    current = Database(session.symbols)
    stats.register_live(live_as, current)
    inner = 0
    while True:
        inner += 1
        _check_cap(opts, inner, f"least fixpoint {label}")
        nxt = immediate_consequences(
            engine, plans, current, neg, session.base, stats, session.cache
        )
        if nxt.count() == current.count():
            # the chain is increasing, so equal counts mean equal sets
            if opts.debug_checks and not nxt.same_content(current):
                raise InvariantError(f"{label}: size-based fixpoint test disagrees with set equality")
            break
        if opts.debug_checks and not current.issubset(nxt):
            raise InvariantError(f"{label}: consequence chain is not increasing")
        current = nxt
        stats.register_live(live_as, current)
    stats.lfp_calls += 1
    stats.steps.append(
        StepStat(
            label=label,
            new_facts=current.count() - session.base.count(),
            inner_iterations=inner,
            jobs=engine.jobs_run - jobs_before,
        )
    )
    return current


def least_fixpoint_delta(
    session: Session,
    plans: Sequence[RulePlan],
    start: tuple[Database, ...],
    neg: FactSource,
    label: str,
    live_as: str,
    track: bool = True,
) -> Database:
    """Delta least fixpoint: extend ``start`` to the least fixpoint under
    ``neg`` and return only the newly inferred facts. ``start`` is left
    unchanged and must already be contained in that fixpoint (the caller's
    obligation; verified under deep checks)."""
    engine, opts = session.engine, session.opts
    stats = session.stats if track else SolveStats()
    if opts.deep_checks and track:
        _assert_delta_precondition(session, plans, start, neg, label)
    jobs_before = engine.jobs_run
    delta_new: Optional[Database] = None
    result = Database(session.symbols)
    stats.register_live(live_as, result)
    inner = 0
    new_total = 0
    while True:
        inner += 1
        _check_cap(opts, inner, f"delta least fixpoint {label}")
        accumulated = DatabaseView(*start, result) if start else DatabaseView(result)
        if delta_new is not None:
            derived = _delta_consequences(
                engine, plans, accumulated, neg, delta_new, stats, session.symbols, session.cache
            )
        else:
            derived = immediate_consequences(
                engine, plans, accumulated, neg, session.base, stats, session.cache
            )
        new = derived.difference(accumulated)
        stats.snapshot_live()
        if new.count() == 0:
            break
        result.update(new)
        new_total += new.count()
        delta_new = new
        stats.snapshot_live()
    if opts.debug_checks and new_total != result.count():
        # every fact must enter the delta exactly once
        raise InvariantError(f"{label}: delta set received duplicate facts")
    stats.lfp_calls += 1
    stats.steps.append(
        StepStat(
            label=label,
            # only the first round of an lfp without a start copies in the base facts
            new_facts=result.count() - (0 if start else session.base.count()),
            inner_iterations=inner,
            jobs=engine.jobs_run - jobs_before,
        )
    )
    return result


def _assert_delta_precondition(
    session: Session,
    plans: Sequence[RulePlan],
    start: tuple[Database, ...],
    neg: FactSource,
    label: str,
) -> None:
    """Deep check: the starting set must be inside the fixpoint computed from
    scratch. Runs a full least fixpoint on a throwaway stats sink."""
    probe = Session.__new__(Session)
    probe.__dict__.update(session.__dict__)
    probe.stats = SolveStats()
    full = least_fixpoint(probe, plans, neg, label=f"{label}:precheck", live_as="precheck")
    for part in start:
        if not part.issubset(full):
            raise InvariantError(f"{label}: starting set is not contained in the least fixpoint")


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _finish_step(stats: SolveStats, k_size: int, u_extra: int) -> None:
    stats.steps[-1].k_size = k_size
    stats.steps[-1].u_extra = u_extra


def solve_optimized(session: Session) -> FixpointResult:
    opts, stats = session.opts, session.stats
    known = Database(session.symbols)
    stats.register_live("K", known)
    first = least_fixpoint_delta(
        session, session.definite_plans, (), session.empty_view(), label="K0", live_as="delta"
    )
    known.update(first)
    stats.drop_live("delta")
    _finish_step(stats, known.count(), 0)
    if opts.deep_checks:
        _assert_definite_start(session, known)

    # debug checks keep the previous possible delta (as "U_prev") until the
    # next one has passed the shrinkage check against it
    previous: Optional[Database] = None
    i = 0
    while True:
        _check_cap(opts, i + 1, "alternating fixpoint")
        unknown = least_fixpoint_delta(
            session,
            session.plans,
            (known,),
            DatabaseView(known),
            label=f"U{i}",
            live_as="U_delta",
        )
        _finish_step(stats, known.count(), unknown.count())
        if opts.debug_checks:
            if unknown.difference(known).count() != unknown.count():
                raise InvariantError("possible delta overlaps the true set")
            if previous is not None:
                # Lemma-style shrinkage: U_i must be inside U_{i-1}; the true
                # set is, by the check on the K step before
                if not unknown.issubset(DatabaseView(known, previous)):
                    raise InvariantError("possible set grew between inference steps")
                stats.drop_live("U_prev")
                previous = None

        grown = least_fixpoint_delta(
            session,
            session.plans,
            (known,),
            DatabaseView(known, unknown),
            label=f"K{i + 1}",
            live_as="K_delta",
        )
        i += 1
        stats.inference_steps = i
        _finish_step(stats, known.count() + grown.count(), unknown.count())
        if grown.count() == 0:
            # equal sizes of consecutive true sets: fixpoint reached
            if opts.deep_checks:
                _assert_stable_unknown(session, known, unknown)
            stats.drop_live("K_delta")
            break
        if opts.debug_checks and not grown.issubset(DatabaseView(known, unknown)):
            raise InvariantError("true set escaped the possible set")
        # fixpoint not reached: the possible delta is deleted before the
        # next round; new facts replace the prior true set in place
        stats.drop_live("U_delta")
        if opts.debug_checks:
            previous = unknown
            stats.register_live("U_prev", previous)
        known.update(grown)
        stats.drop_live("K_delta")
        stats.snapshot_live()
        del unknown, grown

    undefined = unknown
    stats.drop_live("U_delta")
    stats.drop_live("K")
    return FixpointResult(known, undefined, stats, session.signatures)


def _assert_definite_start(session: Session, known: Database) -> None:
    """Deep check: the definite fixpoint is contained in the first possible
    set, which justifies seeding that computation with it."""
    probe = Session.__new__(Session)
    probe.__dict__.update(session.__dict__)
    probe.stats = SolveStats()
    u0 = least_fixpoint(probe, session.plans, DatabaseView(known), label="U0:precheck", live_as="precheck")
    if not known.issubset(u0):
        raise InvariantError("definite facts fell outside the first possible set")


def _assert_stable_unknown(session: Session, known: Database, unknown: Database) -> None:
    """Deep check at termination: recomputing the possible delta reproduces it."""
    probe = Session.__new__(Session)
    probe.__dict__.update(session.__dict__)
    probe.stats = SolveStats()
    again = least_fixpoint_delta(
        probe, session.plans, (known,), DatabaseView(known), label="U:recheck", live_as="recheck",
        track=False,
    )
    if not again.same_content(unknown):
        raise InvariantError("possible delta changed after the true set stabilized")


def solve_naive(session: Session) -> FixpointResult:
    opts, stats = session.opts, session.stats
    known = least_fixpoint(session, session.definite_plans, session.empty_view(), "K0", "K")
    _finish_step(stats, known.count(), 0)
    possible = least_fixpoint(session, session.plans, DatabaseView(known), "U0", "U")
    _finish_step(stats, known.count(), possible.count() - known.count())
    stats.inference_steps = 2
    i = 1
    while True:
        _check_cap(opts, i, "alternating fixpoint")
        known_next = least_fixpoint(session, session.plans, DatabaseView(possible), f"K{i}", "K'")
        _finish_step(stats, known_next.count(), possible.count() - known_next.count())
        possible_next = least_fixpoint(session, session.plans, DatabaseView(known_next), f"U{i}", "U'")
        stats.inference_steps += 2
        _finish_step(stats, known_next.count(), possible_next.count() - known_next.count())
        if opts.debug_checks:
            if not known.issubset(known_next):
                raise InvariantError("true set shrank between rounds")
            if not possible_next.issubset(possible):
                raise InvariantError("possible set grew between rounds")
            if not known_next.issubset(possible_next):
                raise InvariantError("true set escaped the possible set")
        stationary = (
            known_next.count() == known.count()
            and possible_next.count() == possible.count()
        )
        if opts.debug_checks and stationary:
            if not (known_next.same_content(known) and possible_next.same_content(possible)):
                raise InvariantError("size-based stationarity test disagrees with set equality")
        stats.drop_live("K'")
        stats.drop_live("U'")
        stats.drop_live("K")
        stats.drop_live("U")
        known, possible = known_next, possible_next
        stats.register_live("K", known)
        stats.register_live("U", possible)
        if stationary:
            break
        i += 1
    undefined = possible.difference(known)
    stats.drop_live("K")
    stats.drop_live("U")
    return FixpointResult(known, undefined, stats, session.signatures)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


@gc_paused
def solve(
    program: Program,
    facts: Iterable[Fact] = (),
    options: Optional[SolveOptions] = None,
    engine: Optional[Engine] = None,
    config: Optional[EngineConfig] = None,
) -> FixpointResult:
    """Compute the well-founded model of ``program`` plus ``facts``.

    Returns the (true, undefined) partition; false atoms are implicit.
    """
    opts = options or SolveOptions()
    if opts.mode not in ("optimized", "naive"):
        raise ValueError(f"unknown mode {opts.mode!r}")
    if engine is None:
        engine = Engine(config or EngineConfig())
    started = time.perf_counter()
    session = Session(program, facts, engine, opts)
    session.cache = InputCache(session.base, (plan.head_predicate for plan in session.plans))
    jobs_before = engine.jobs_run
    if opts.mode == "optimized":
        result = solve_optimized(session)
    else:
        result = solve_naive(session)
    # nothing leaves the cache, so its size now is its peak
    result.stats.peak_cache_records = session.cache.records()
    result.stats.jobs_total = engine.jobs_run - jobs_before
    result.stats.wall_ms = (time.perf_counter() - started) * 1000.0
    return result


def classify(fact: Fact, result: FixpointResult) -> TruthValue:
    """Truth value of a ground atom under the computed model."""
    expected = result.signatures.get(fact.predicate)
    if expected is None:
        raise UnknownPredicateError(f"unknown predicate '{fact.predicate}'")
    if expected != fact.arity:
        raise ArityError(fact.predicate, fact.arity, expected)
    symbols = result.true_facts.symbols
    row = []
    for arg in fact.args:
        sid = symbols.lookup(arg)
        if sid is None:
            return TruthValue.FALSE
        row.append(sid)
    encoded = tuple(row)
    if result.true_facts.contains(fact.predicate, encoded):
        return TruthValue.TRUE
    if result.undefined_facts.contains(fact.predicate, encoded):
        return TruthValue.UNDEFINED
    return TruthValue.FALSE


def partitions_agree(a: FixpointResult, b: FixpointResult) -> bool:
    """Structural agreement of two results (decoded comparison)."""
    return (
        set(a.true_facts.iter_facts()) == set(b.true_facts.iter_facts())
        and set(a.undefined_facts.iter_facts()) == set(b.undefined_facts.iter_facts())
    )
