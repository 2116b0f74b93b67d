"""Alternating fixpoint solvers for the well-founded model.

The solver classifies every ground atom as true, undefined, or false.
True and undefined atoms are materialized; false atoms are implicit (the
Herbrand base is never enumerated). Two drivers produce identical
partitions:

* the naive driver runs the paper's alternating fixpoint over the whole
  program, recomputes every least fixpoint from scratch and keeps the full
  true/possible sets of consecutive rounds (up to four stored sets);
* the optimized driver solves the strongly connected components of the
  predicate dependency graph bottom-up (see
  :func:`~wfsmr.planner.compile_program`). K0 runs a component's rules
  without a negative subgoal over its own predicates, and its least
  fixpoint is the component's true set. A component without such a subgoal
  stops there, or after U0 if it reads undefined atoms. Any other component
  runs the alternating fixpoint on its own rules, each least fixpoint
  starting from the facts already established, and stores at most three of
  its sets at any instant: the true set, the possible-but-not-true delta,
  and the delta being derived, or the previous possible delta until the
  next one has passed the check that it lies inside it. Inner rounds are
  semi-naive: after the first, each round runs the rules' positive variants
  (see :mod:`wfsmr.planner`) on the facts the round before added, skipping
  those whose delta predicate gained none. Every round, in either driver,
  skips a rule with a positive subgoal over a predicate that holds no fact
  yet.

  From K2 on, a K step's first round is semi-naive on the negative side
  too (after Brass, Dix, Freitag and Zukowski, TPLP 2001): it runs the
  seed variants on D, the atoms that left the possible set between the
  last two U steps, as every rule instance new to the step has a negative
  atom in D or a positive one that a later round derives. After a full U
  step, the previous possible delta becomes D in place.

  A component whose rules read neither its own predicates positively nor
  undefined atoms counts rule instances in its U steps from U1 on (see
  :mod:`wfsmr.counting`).

Rounds run rule sets through the MapReduce operator pipelines. The base
facts and the true facts of finished components form the fixed, read-only
part of every source (``Session.fixed``), which no derived set copies and
nothing changes, so the rows of a :class:`~wfsmr.program.FactRows` become
base relations uncopied; the undefined atoms of finished components form a second one
(``Session.undefined``), which U steps read positively and K steps
negatively. Stored sets hold rule output only; :func:`solve` adds the base
facts to the true set when it returns. Job inputs over predicates whose
facts all lie in the fixed part, and which no rule still to run heads, stay
grouped in the solve's :class:`~wfsmr.operators.InputCache`, to which the
optimized driver adds a finished component's predicates without undefined
atoms.

The per-step checks always run, and a broken invariant raises
:class:`InvariantError`. No loop has an iteration cap: every round of every
loop either stops or checks that a stored set grew (a least fixpoint's
round, the optimized driver's true set) or that the naive true set grew or
its possible set shrank. Each such set lies within the finite set of ground
atoms over the input's constants, so every loop ends.

:func:`trace_records` serializes a solve's :class:`StepStat` per step, its
engine's job statistics and its :class:`SolveStats` as one record stream
in run order, which ``solve --trace`` prints as JSON lines.
"""
from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .mapreduce import Engine, gc_paused
from .counting import DerivationCounts, count_instances
from .operators import InputCache, eval_rule
from .planner import RulePlan, compile_program
from .program import ArityError, Fact, FactRows, InvariantError, Program, UnknownPredicateError
from .store import Database, DatabaseView, FactSource

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
    label: str  # K0, U0, K1, ..., counted within the step's component
    # bottom-up index of the step's component; None for the naive driver,
    # which runs the whole program at once
    component: Optional[int] = None
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
    first_job: int = 0  # the index of the solve's first job in its engine's stats_log
    jobs_total: int = 0
    derived_facts: int = 0
    peak_facts: int = 0  # the fixed facts counted once, plus the live sets
    peak_live_sets: int = 0
    peak_cache_records: int = 0  # records the solve's InputCache held at the end, its peak
    # the fixed parts of every source, not a live set: the base facts and the
    # true and undefined facts of finished components
    fixed_facts: int = 0

    def __post_init__(self) -> None:
        self._live: dict[str, Database | DerivationCounts] = {}

    # Live-set ledger: the named fact sets the driver keeps between jobs,
    # including those kept only for the per-step checks.
    def register_live(self, name: str, db: Database | DerivationCounts) -> None:
        self._live[name] = db
        self.snapshot_live()

    def drop_live(self, name: str) -> None:
        self._live.pop(name, None)

    def snapshot_live(self) -> None:
        if len(self._live) > self.peak_live_sets:
            self.peak_live_sets = len(self._live)
        total = self.fixed_facts + sum(db.count() for db in self._live.values())
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
    body misses ``neg``, one evaluation per plan. With ``delta``, ``plans``
    are variants, and a variant whose delta subgoal's predicate ``delta``
    lacks is skipped: it would derive nothing. So is any plan with a
    positive subgoal over a predicate ``pos`` holds no fact of, such as a
    recursive rule in the first round of its least fixpoint; a seed variant
    too, since its join with the delta reads the positive goal. It keeps the
    rules' output sets."""
    out = Database()
    for plan in plans:
        if delta is not None and not delta.relation(plan.delta.atom.predicate):
            continue
        reads = (plan.base, *(step.right for step in plan.joins))
        if any(next(iter(pos.tuples(access.atom.predicate)), None) is None
               for access in reads if access is not None and not access.delta):
            continue
        rows = eval_rule(engine, plan, pos, neg, delta, cache)
        if stats is not None:
            stats.derived_facts += len(rows)
        out.add_rows(plan.head_predicate, rows)
    return out


# ---------------------------------------------------------------------------
# Session plumbing
# ---------------------------------------------------------------------------


class Session:
    def __init__(self, program: Program, facts: Iterable[Fact], engine: Engine):
        self.engine = engine
        self.base = Database()
        self.signatures = dict(program.signatures)
        # program facts first: a shared predicate's rows then go into their dict, not the caller's
        for source in (program.facts(), facts):
            if isinstance(source, FactRows):
                for predicate, rows in source.relations.items():
                    if rows:
                        self.base.add_rows(predicate, rows)
            else:
                self.base.insert_many(source)
        # a relation's rows are all of one width, so one check per
        # predicate covers every fact against the program's signatures
        for predicate in self.base.predicates():
            arity = len(next(iter(self.base.tuples(predicate))))
            known = self.signatures.setdefault(predicate, arity)
            if known != arity:
                raise ArityError(predicate, arity, known)
        self.plans = compile_program(program)
        # the true facts of the components the optimized driver has
        # finished; with the base they form the fixed part of every source
        self.finished = Database()
        self.fixed = DatabaseView(self.base, self.finished)
        # the undefined atoms of finished components
        self.undefined = Database()
        # set by solve for the drivers, whose sets hold rule output only, so
        # an invariant predicate has no facts but the fixed ones in their
        # sources; other callers of the least fixpoints may pass any facts,
        # so they map every input
        self.cache: Optional[InputCache] = None
        self.empty = Database()
        self.stats = SolveStats(fixed_facts=self.base.count())

    def empty_view(self) -> DatabaseView:
        return DatabaseView(self.empty)


# ---------------------------------------------------------------------------
# Least fixpoints
# ---------------------------------------------------------------------------


def _record_step(
    session: Session, label: str, new_facts: int, inner: int, jobs_before: int
) -> None:
    """Record one least fixpoint or counted U step as a step, with the jobs
    the engine ran since its log held ``jobs_before``."""
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
    assumed: tuple[Database, ...] = (),
) -> Database:
    """lfp of the consequence operator from the empty set (naive driver),
    without the fixed facts, which every round reads from ``session.fixed``,
    or those of ``assumed``, which it reads positively as well."""
    engine, stats = session.engine, session.stats
    jobs_before = len(engine.stats_log)
    fixed = DatabaseView(session.fixed, *assumed)
    neg = DatabaseView(session.fixed, neg)
    current = Database()
    stats.register_live(live_as, current)
    inner = 0
    while True:
        inner += 1
        nxt = immediate_consequences(
            engine, plans, DatabaseView(fixed, current), neg, stats, session.cache)
        nxt.difference_update(fixed)  # rules may derive fixed facts again
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
    assumed: tuple[Database, ...] = (),
    dropped: Optional[Database] = None,
) -> Database:
    """Delta least fixpoint: extend ``start`` to the least fixpoint under
    ``neg`` and return only the newly inferred facts, none of them a fixed
    fact. Every round reads the facts of ``assumed`` positively, as it reads
    the fixed part, though ``plans`` need not derive them: a U step's
    undefined atoms of finished components. ``start`` is left unchanged and
    must already be contained in that fixpoint. That is the caller's
    obligation, which ``tests/test_differential.py`` checks on every
    optimized solve it makes.

    Rounds after the first run the positive variants of ``plans`` on the
    facts the round before added. With ``dropped``, ``start`` with the
    fixed part and ``assumed`` must moreover be the least fixpoint of
    ``plans`` under ``neg`` plus ``dropped``, none of whose atoms ``neg``
    holds: the first round then runs the seed variants on ``dropped``, so it
    fires only the rule instances with a negative atom there. ``dropped`` is
    in the live-set ledger as ``D`` until that round ends, when it is
    emptied, and the delta only from then on."""
    engine, stats = session.engine, session.stats
    jobs_before = len(engine.stats_log)
    neg = DatabaseView(session.fixed, neg)
    result = Database()
    accumulated = DatabaseView(session.fixed, *assumed, *start, result)
    variants: Sequence[RulePlan] = plans
    if dropped is not None:
        stats.register_live("D", dropped)
        variants = [seed for plan in plans for seed in plan.seeds]
    delta = dropped
    inner = 0
    new_total = 0
    while True:
        inner += 1
        new = immediate_consequences(
            engine, variants, accumulated, neg, stats, session.cache, delta)
        if inner == 1:
            if dropped is not None:
                # D is spent: emptied, it leaves memory as it leaves the
                # ledger, though the caller still holds it
                dropped.clear()
            stats.drop_live("D")
            stats.register_live(live_as, result)
            variants = [variant for plan in plans for variant in plan.deltas]
        new.difference_update(accumulated)
        if new.count() == 0:
            break
        result.update(new)
        new_total += new.count()
        if new_total != result.count():
            # every fact must enter the delta exactly once, so the delta
            # grows in every round and the loop ends within the atom space
            raise InvariantError(f"{label}: delta set received duplicate facts")
        delta = new
        stats.snapshot_live()
    _record_step(session, label, result.count(), inner, jobs_before)
    return result


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _finish_step(
    stats: SolveStats, k_size: int, u_extra: int, component: Optional[int] = None
) -> None:
    """Record the last step's component and set sizes: the whole true set,
    base facts included, and the possible atoms beyond it."""
    step = stats.steps[-1]
    step.k_size, step.u_extra, step.component = k_size, u_extra, component


def solve_optimized(session: Session) -> FixpointResult:
    """Solve the components bottom-up. Each finished component's true facts
    join the fixed part, its undefined atoms join ``session.undefined``, and
    its predicates without undefined atoms become invariant in the cache."""
    stats = session.stats
    components: dict[int, list[RulePlan]] = {}
    for plan in session.plans:
        components.setdefault(plan.component, []).append(plan)
    # a program without rules still records its one K0 step
    for index, plans in sorted(components.items()) or [(0, [])]:
        known, unknown = solve_component(session, index, plans)
        stats.fixed_facts += known.count() + unknown.count()
        session.finished.take(known)
        session.undefined.take(unknown)
        stats.drop_live("K")
        stats.drop_live("U_delta")
        session.cache.invariant.update(
            plan.head_predicate for plan in plans
            if not session.undefined.relation(plan.head_predicate)
        )
    return FixpointResult(session.finished, session.undefined, stats, session.signatures)


def solve_component(
    session: Session, index: int, plans: Sequence[RulePlan]
) -> tuple[Database, Database]:
    """The alternating fixpoint of one component's ``plans`` over the
    finished components: the component's true facts, registered in the
    ledger as ``K``, and its undefined atoms."""
    stats = session.stats
    heads = {plan.head_predicate for plan in plans}
    definite = [
        plan for plan in plans
        if not any(step.access.atom.predicate in heads for step in plan.anti_joins)
    ]
    reads = {lit.atom.predicate for plan in plans for lit in plan.rule.body}
    reads_undefined = any(map(session.undefined.relation, reads))
    true_fixed = session.base.count() + session.finished.count()
    undefined_fixed = session.undefined.count()

    def finish_step(k_derived: int, u_derived: int) -> None:
        _finish_step(stats, true_fixed + k_derived, undefined_fixed + u_derived, index)

    known = least_fixpoint_delta(
        session, definite, (), DatabaseView(session.undefined), label="K0", live_as="K")
    finish_step(known.count(), 0)
    # with no negative subgoal over the component's own predicates, every K
    # step reads the negative facts K0 read: K0 is the whole true set
    negative_cycle = len(definite) < len(plans)
    if not negative_cycle and not reads_undefined:
        # and with no undefined atom to read, the possible set too
        stats.inference_steps += 1
        return known, Database()

    # from U1 on, its U steps may count instances (see wfsmr.counting)
    counted = negative_cycle and not reads_undefined and not any(
        atom.predicate in heads for plan in plans for atom in plan.rule.positive())
    counts: Optional[DerivationCounts] = None
    # the previous possible delta stays (as "U_prev") until the next one has
    # passed the shrinkage check against it, and then becomes the atoms that
    # left the possible set, which seed the next K step
    previous: Optional[Database] = None
    i = 0
    while True:
        if counts is None:
            unknown = least_fixpoint_delta(
                session,
                plans,
                (known,),
                DatabaseView(known),
                label=f"U{i}",
                live_as="U_delta",
                assumed=(session.undefined,),
            )
            if not unknown.isdisjoint(known):
                raise InvariantError("possible delta overlaps the true set")
            if previous is not None:
                # Lemma-style shrinkage: U_i must be inside U_{i-1}; the true
                # set is, by the check on the K step before
                if not unknown.issubset(DatabaseView(known, previous)):
                    raise InvariantError("possible set grew between inference steps")
                # D, in place: the atoms the last K step read negatively that
                # the next one does not; any rule instance new to the next K
                # step has a negative atom in D or a positive one it derives
                previous.difference_update(DatabaseView(known, unknown))
                stats.drop_live("U_prev")
        finish_step(known.count(), unknown.count())
        if not negative_cycle:
            # U0 read the undefined atoms below; K1 would add nothing
            stats.inference_steps += 1
            return known, unknown

        grown = least_fixpoint_delta(
            session,
            plans,
            (known,),
            DatabaseView(session.undefined, known, unknown),
            label=f"K{i + 1}",
            live_as="K_delta",
            dropped=previous,
        )
        previous = None
        i += 1
        finish_step(known.count() + grown.count(), unknown.count())
        if grown.count() == 0:
            # equal sizes of consecutive true sets: fixpoint reached
            stats.drop_live("K_delta")
            break
        if not grown.issubset(DatabaseView(known, unknown)):
            raise InvariantError("true set escaped the possible set")
        if counted:
            # U_i, before the true set takes in grown, which it reads apart
            counts = counts or DerivationCounts(unknown)
            stats.register_live("U_delta", counts)
            previous = count_instances(session, plans, known, grown, counts, f"U{i}")
            unknown = counts.possible
        else:  # the possible delta stays as the previous one
            stats.drop_live("U_delta")
            previous = unknown
            stats.register_live("U_prev", previous)
        # new facts replace the prior true set in place
        before = known.count()
        known.update(grown)
        if known.count() != before + grown.count():
            # the true set grows in every round, so the loop ends within
            # the atom space
            raise InvariantError("true delta overlaps the true set")
        stats.drop_live("K_delta")
        stats.snapshot_live()
        del grown
    stats.inference_steps += i
    return known, unknown


def solve_naive(session: Session) -> FixpointResult:
    stats = session.stats
    base = stats.fixed_facts
    definite = [plan for plan in session.plans if not plan.anti_joins]
    known = least_fixpoint(session, definite, session.empty_view(), "K0", "K")
    _finish_step(stats, base + known.count(), 0)
    possible = least_fixpoint(session, session.plans, DatabaseView(known), "U0", "U")
    _finish_step(stats, base + known.count(), possible.count() - known.count())
    stats.inference_steps = 2
    i = 1
    while True:
        known_next = least_fixpoint(session, session.plans, DatabaseView(possible), f"K{i}", "K'")
        _finish_step(stats, base + known_next.count(), possible.count() - known_next.count())
        possible_next = least_fixpoint(session, session.plans, DatabaseView(known_next), f"U{i}", "U'")
        stats.inference_steps += 2
        _finish_step(stats, base + known_next.count(), possible_next.count() - known_next.count())
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
    session.cache = InputCache(session.fixed, (plan.head_predicate for plan in session.plans))
    jobs_before = len(engine.stats_log)
    if opts.mode == "optimized":
        result = solve_optimized(session)
    else:
        result = solve_naive(session)
    # nothing leaves the cache, so its size now is its peak; it goes first
    result.stats.peak_cache_records = session.cache.records()
    session.cache = None
    result.true_facts.update(session.base)
    result.stats.first_job = jobs_before
    result.stats.jobs_total = len(engine.stats_log) - jobs_before
    return result


def classify(fact: Fact, result: FixpointResult) -> TruthValue:
    """Truth value of a ground atom under the computed model."""
    expected = result.signatures.get(fact.predicate)
    if expected is None:
        raise UnknownPredicateError(f"unknown predicate '{fact.predicate}'")
    if expected != fact.arity:
        raise ArityError(fact.predicate, fact.arity, expected)
    if result.true_facts.contains(fact.predicate, fact.args):
        return TruthValue.TRUE
    if result.undefined_facts.contains(fact.predicate, fact.args):
        return TruthValue.UNDEFINED
    return TruthValue.FALSE


def trace_records(result: FixpointResult, engine: Engine) -> Iterator[dict]:
    """The run of one solve as records, in run order: each step's ``job``
    records, with the rule index and kind parsed from the job's name, the
    step's own ``step`` record, and last one ``solve`` record with the
    :class:`SolveStats` scalars. ``engine`` is the one the solve ran on; the
    ``jobs_total`` jobs it logged from ``first_job`` on are the solve's."""
    stats = result.stats
    jobs = iter(engine.stats_log[stats.first_job:stats.first_job + stats.jobs_total])
    for step in stats.steps:
        for job in islice(jobs, step.jobs):
            rule, _, kind = job.name.split(":")  # r<rule index>:<head>:<kind><n>
            yield {"record": "job", "step": step.label, "component": step.component,
                   "rule": int(rule[1:]), "kind": kind.rstrip("0123456789"), **asdict(job)}
        yield {"record": "step", **asdict(step)}
    yield {"record": "solve", **{k: v for k, v in asdict(stats).items() if k != "steps"}}


def partitions_agree(a: FixpointResult, b: FixpointResult) -> bool:
    """Structural agreement of two results: the same true and undefined facts."""
    return (a.true_facts.same_content(b.true_facts)
            and a.undefined_facts.same_content(b.undefined_facts))
