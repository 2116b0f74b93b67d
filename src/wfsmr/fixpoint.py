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
  derived. When a round shows the fixpoint has not been reached, its
  possible delta stays as the previous one, counted by the live-set
  ledger, until the next possible delta has passed the check that it lies
  inside it. Its inner rounds are semi-naive: after the first round of a
  least fixpoint, a rule runs once per positive subgoal whose predicate
  gained facts in the previous round, with that subgoal reading only those
  facts.

Every least fixpoint round runs the rule set through the MapReduce operator
pipelines. The base facts are one fixed, read-only part of every source a
round reads, positive and negative, and are never copied into a derived
set: every stored set holds rule output only, and :func:`solve` adds the
base facts to the true set once, when it returns. Job inputs that read only
predicates with base facts and no rule are the same in every round and
step, so each solve keeps them in one :class:`~wfsmr.operators.InputCache`,
grouped once and reused, and releases it when it returns.

The per-step checks always run, and a broken invariant raises
:class:`InvariantError`. No loop has an iteration cap: every round of every
loop either stops or checks that a stored set grew (a least fixpoint's
round, the optimized driver's true set) or that the naive true set grew or
its possible set shrank. Each such set lies within the finite set of ground
atoms over the input's constants, so every loop ends.

:func:`trace_records` serializes a solve's :class:`StepStat` per least
fixpoint, its engine's job statistics and its :class:`SolveStats` as one
record stream in run order, which ``solve --trace`` prints as JSON lines.
"""
from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .mapreduce import Engine, gc_paused
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
    "InvariantError",
    "immediate_consequences",
    "solve",
    "classify",
    "trace_records",
]


class TruthValue(enum.Enum):
    TRUE = "true"
    UNDEFINED = "undefined"
    FALSE = "false"

    def __str__(self) -> str:
        return self.value


@dataclass
class SolveOptions:
    mode: str = "optimized"  # "optimized" | "naive"


@dataclass
class StepStat:
    label: str  # K0, U0, K1, ...
    k_size: int = 0  # the whole true set, base facts included
    u_extra: int = 0
    new_facts: int = 0  # facts the step's rules added to its stored set
    inner_iterations: int = 0
    jobs: int = 0


@dataclass
class SolveStats:
    inference_steps: int = 0
    lfp_calls: int = 0
    steps: list[StepStat] = field(default_factory=list)
    jobs_total: int = 0
    derived_facts: int = 0
    peak_facts: int = 0  # base facts counted once, plus the live sets
    peak_live_sets: int = 0
    peak_cache_records: int = 0  # records the solve's InputCache held at the end, its peak
    base_facts: int = 0  # the fixed part of every source, not a live set

    def __post_init__(self) -> None:
        self._live: dict[str, Database] = {}

    # Live-set ledger: the named fact sets the driver keeps between jobs,
    # including those kept only for the per-step checks.
    def register_live(self, name: str, db: Database) -> None:
        self._live[name] = db
        self.snapshot_live()

    def drop_live(self, name: str) -> None:
        self._live.pop(name, None)

    def snapshot_live(self) -> None:
        if len(self._live) > self.peak_live_sets:
            self.peak_live_sets = len(self._live)
        total = self.base_facts + sum(db.count() for db in self._live.values())
        if total > self.peak_facts:
            self.peak_facts = total


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
    stats: Optional[SolveStats] = None,
    cache: Optional[InputCache] = None,
    delta: Optional[Database] = None,
) -> Database:
    """Heads of rules whose positive body lies in ``pos`` and whose negative
    body misses ``neg``.

    With ``delta``, a semi-naive round: only the rule instances that match a
    fact of ``delta`` in some positive subgoal, one evaluation per subgoal
    whose predicate ``delta`` holds. Sound because the accumulated set only
    grows and ``neg`` is fixed during a least-fixpoint computation."""
    out = Database(pos.symbols)
    for plan in plans:
        if delta is None:
            positions: Sequence[Optional[int]] = (None,)
        elif plan.base is None:
            continue  # no positive dependencies: fired in the full first round
        else:
            subgoals = [plan.base.atom.predicate] + [s.right.atom.predicate for s in plan.joins]
            positions = [i for i, p in enumerate(subgoals) if delta.relation(p)]
        for at in positions:
            rows = eval_rule(engine, plan, pos, neg, delta=delta, delta_at=at, cache=cache)
            if stats is not None:
                stats.derived_facts += len(rows)
            out.add_encoded(plan.head_predicate, plan.head_arity, rows)
    return out


# ---------------------------------------------------------------------------
# Session plumbing
# ---------------------------------------------------------------------------


class Session:
    def __init__(self, program: Program, facts: Iterable[Fact], engine: Engine):
        self.engine = engine
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
        # set by solve for the drivers, whose sets hold rule output only, so
        # a predicate with base facts and no rule has no facts but the base
        # ones in their sources; other callers of the least fixpoints may
        # pass any facts, so they map every input
        self.cache: Optional[InputCache] = None
        self.empty = Database(self.symbols)
        self.stats = SolveStats(base_facts=self.base.count())

    def empty_view(self) -> DatabaseView:
        return DatabaseView(self.empty)


# ---------------------------------------------------------------------------
# Least fixpoints
# ---------------------------------------------------------------------------


def _record_step(
    session: Session, label: str, new_facts: int, inner: int, jobs_before: int
) -> None:
    """Record one least fixpoint as a step, with the jobs the engine ran
    since its log held ``jobs_before``."""
    stats = session.stats
    stats.lfp_calls += 1
    jobs = len(session.engine.stats_log) - jobs_before
    stats.steps.append(StepStat(label, new_facts=new_facts, inner_iterations=inner, jobs=jobs))


def least_fixpoint(
    session: Session,
    plans: Sequence[RulePlan],
    neg: FactSource,
    label: str,
    live_as: str,
) -> Database:
    """lfp of the consequence operator from the empty set (naive driver),
    without the base facts, which every round reads from ``session.base``."""
    engine, stats = session.engine, session.stats
    jobs_before = len(engine.stats_log)
    neg = DatabaseView(session.base, neg)
    current = Database(session.symbols)
    stats.register_live(live_as, current)
    inner = 0
    while True:
        inner += 1
        nxt = immediate_consequences(
            engine, plans, DatabaseView(session.base, current), neg, stats, session.cache
        ).difference(session.base)  # rules may derive base facts again
        if nxt.count() == current.count():
            # the chain is increasing, so equal counts mean equal sets
            if not nxt.same_content(current):
                raise InvariantError(f"{label}: size-based fixpoint test disagrees with set equality")
            break
        # so the chain grows strictly and ends within the finite atom space
        if not current.issubset(nxt):
            raise InvariantError(f"{label}: consequence chain is not increasing")
        current = nxt
        stats.register_live(live_as, current)
    _record_step(session, label, current.count(), inner, jobs_before)
    return current


def least_fixpoint_delta(
    session: Session,
    plans: Sequence[RulePlan],
    start: tuple[Database, ...],
    neg: FactSource,
    label: str,
    live_as: str,
) -> Database:
    """Delta least fixpoint: extend ``start`` to the least fixpoint under
    ``neg`` and return only the newly inferred facts, none of them a base
    fact. ``start`` is left unchanged and must already be contained in that
    fixpoint. That is the caller's obligation, which
    ``tests/test_differential.py`` checks on every optimized solve it makes."""
    engine, stats = session.engine, session.stats
    jobs_before = len(engine.stats_log)
    neg = DatabaseView(session.base, neg)
    result = Database(session.symbols)
    accumulated = DatabaseView(session.base, *start, result)
    stats.register_live(live_as, result)
    delta_new: Optional[Database] = None
    inner = 0
    new_total = 0
    while True:
        inner += 1
        derived = immediate_consequences(
            engine, plans, accumulated, neg, stats, session.cache, delta=delta_new
        )
        new = derived.difference(accumulated)
        stats.snapshot_live()
        if new.count() == 0:
            break
        result.update(new)
        new_total += new.count()
        if new_total != result.count():
            # every fact must enter the delta exactly once, so the delta
            # grows in every round and the loop ends within the atom space
            raise InvariantError(f"{label}: delta set received duplicate facts")
        delta_new = new
        stats.snapshot_live()
    _record_step(session, label, result.count(), inner, jobs_before)
    return result


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _finish_step(stats: SolveStats, k_derived: int, u_extra: int) -> None:
    """Record the last step's set sizes; ``k_derived`` counts the true facts
    beyond the base ones."""
    stats.steps[-1].k_size = stats.base_facts + k_derived
    stats.steps[-1].u_extra = u_extra


def solve_optimized(session: Session) -> FixpointResult:
    stats = session.stats
    known = Database(session.symbols)
    stats.register_live("K", known)
    first = least_fixpoint_delta(
        session, session.definite_plans, (), session.empty_view(), label="K0", live_as="delta"
    )
    known.update(first)
    stats.drop_live("delta")
    _finish_step(stats, known.count(), 0)

    # the previous possible delta stays (as "U_prev") until the next one has
    # passed the shrinkage check against it
    previous: Optional[Database] = None
    i = 0
    while True:
        unknown = least_fixpoint_delta(
            session,
            session.plans,
            (known,),
            DatabaseView(known),
            label=f"U{i}",
            live_as="U_delta",
        )
        _finish_step(stats, known.count(), unknown.count())
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
            stats.drop_live("K_delta")
            break
        if not grown.issubset(DatabaseView(known, unknown)):
            raise InvariantError("true set escaped the possible set")
        # fixpoint not reached: the possible delta stays as the previous
        # one; new facts replace the prior true set in place
        stats.drop_live("U_delta")
        previous = unknown
        stats.register_live("U_prev", previous)
        before = known.count()
        known.update(grown)
        if known.count() != before + grown.count():
            # the true set grows in every round, so the loop ends within
            # the atom space
            raise InvariantError("true delta overlaps the true set")
        stats.drop_live("K_delta")
        stats.snapshot_live()
        del unknown, grown

    undefined = unknown
    stats.drop_live("U_delta")
    stats.drop_live("K")
    return FixpointResult(known, undefined, stats, session.signatures)


def solve_naive(session: Session) -> FixpointResult:
    stats = session.stats
    known = least_fixpoint(session, session.definite_plans, session.empty_view(), "K0", "K")
    _finish_step(stats, known.count(), 0)
    possible = least_fixpoint(session, session.plans, DatabaseView(known), "U0", "U")
    _finish_step(stats, known.count(), possible.count() - known.count())
    stats.inference_steps = 2
    i = 1
    while True:
        known_next = least_fixpoint(session, session.plans, DatabaseView(possible), f"K{i}", "K'")
        _finish_step(stats, known_next.count(), possible.count() - known_next.count())
        possible_next = least_fixpoint(session, session.plans, DatabaseView(known_next), f"U{i}", "U'")
        stats.inference_steps += 2
        _finish_step(stats, known_next.count(), possible_next.count() - known_next.count())
        # K only grows and U only shrinks, so until both stand still one of
        # them moves, and the loop ends within the atom space
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
        if stationary and not (
            known_next.same_content(known) and possible_next.same_content(possible)
        ):
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
) -> FixpointResult:
    """Compute the well-founded model of ``program`` plus ``facts``.

    Returns the (true, undefined) partition; false atoms are implicit.
    """
    opts = options or SolveOptions()
    if opts.mode not in ("optimized", "naive"):
        raise ValueError(f"unknown mode {opts.mode!r}")
    if engine is None:
        engine = Engine()
    session = Session(program, facts, engine)
    session.cache = InputCache(session.base, (plan.head_predicate for plan in session.plans))
    jobs_before = len(engine.stats_log)
    if opts.mode == "optimized":
        result = solve_optimized(session)
    else:
        result = solve_naive(session)
    result.true_facts.update(session.base)
    # nothing leaves the cache, so its size now is its peak
    result.stats.peak_cache_records = session.cache.records()
    result.stats.jobs_total = len(engine.stats_log) - jobs_before
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


def trace_records(result: FixpointResult, engine: Engine) -> Iterator[dict]:
    """The run of one solve as records, in run order: each step's ``job``
    records, the step's own ``step`` record, and last one ``solve`` record
    with the :class:`SolveStats` scalars. ``engine`` is the one the solve
    ran on; its last ``jobs_total`` logged jobs are the solve's."""
    stats = result.stats
    jobs = iter(engine.stats_log[len(engine.stats_log) - stats.jobs_total:])
    for step in stats.steps:
        for job in islice(jobs, step.jobs):
            yield {"record": "job", "step": step.label, **asdict(job)}
        yield {"record": "step", **asdict(step)}
    yield {"record": "solve", **{k: v for k, v in asdict(stats).items() if k != "steps"}}


def partitions_agree(a: FixpointResult, b: FixpointResult) -> bool:
    """Structural agreement of two results (decoded comparison)."""
    return (
        set(a.true_facts.iter_facts()) == set(b.true_facts.iter_facts())
        and set(a.undefined_facts.iter_facts()) == set(b.undefined_facts.iter_facts())
    )
