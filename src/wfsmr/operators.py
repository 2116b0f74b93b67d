"""Relational operators as MapReduce jobs: hash join, chained multi-way
join, duplicate elimination, and anti-join, plus whole-rule evaluation.

Records flowing through operator jobs have the shape ``(tag, cols)``
where ``tag`` names the record's origin and ``cols`` is an encoded tuple.
Map functions re-key records by the join or anti-join columns; join reduce
functions cross-product the two tag groups of a key. Anti-join map
functions pass positive rows on without their tag and negative ones as the
bare negative tag, and the reduce functions emit the positive rows of a key
only when no negative tag is among them (the whole group is scanned first,
so value order never matters). Duplicate elimination keys each record by
itself and emits it once.

Rule evaluation chains one job per join over the positive subgoals and one
per anti-join over the negative subgoals. Job output is a set, so no job
between them removes duplicates. Projections run inside these jobs: the
positive-goal projection in the job that produces the goal, and the head
projection, head constants included, in the reducer of the last job. A rule
with neither joins nor anti-joins runs a single projection job, so every
rule evaluation runs ``max(1, joins + anti-joins)`` jobs.

An :class:`InputCache` keeps the loop-invariant inputs of these jobs for
the length of one solve: subgoals over predicates that have base facts and
head no rule, which no job can change. A job whose inputs are all
invariant runs once per cache and its output is reused, and that output is
an invariant input of the next job. In a job with other inputs too, the
invariant inputs are mapped and grouped by the first job that reads them
and later jobs map only the rest (see :class:`~wfsmr.mapreduce.GroupedInput`).
So with a warm cache an evaluation runs at most as many jobs as without.
"""
from __future__ import annotations

from dataclasses import replace
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .mapreduce import Engine, GroupedInput, JobSpec, Record
from .planner import RulePlan, SubgoalAccess
from .program import InvariantError
from .store import Database, DatabaseView, FactSource

__all__ = [
    "single_join",
    "multi_join",
    "dedup",
    "anti_join",
    "eval_rule",
    "rule_pipeline",
    "InputCache",
]

_NEG = "neg"  # bare tag for negative-side records in an anti-join
_POS = "pos"  # tag of the rows an anti-join keeps


def _picker(indices: Sequence[int], consts: tuple = ()) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[i] for i in indices)``; indices past the end of the
    row pick from ``consts``, which are appended to it."""
    indices = tuple(indices)
    if len(indices) > 1:
        get = itemgetter(*indices)
    elif indices:  # itemgetter of a single index returns a bare value
        get = lambda row, i=indices[0]: (row[i],)  # noqa: E731
    else:
        get = lambda row: ()  # noqa: E731
    return (lambda row: get(row + consts)) if consts else get


# ---------------------------------------------------------------------------
# Input streams
# ---------------------------------------------------------------------------


class InputCache:
    """The loop-invariant job inputs of one solve.

    A predicate is invariant when ``base`` holds facts of it and no rule
    heads it. Every source the fixpoint drivers pass then holds either none
    of those facts or all of them: its facts of such a predicate can only
    be copies of base facts, so it holds all of them when one of its parts
    holds as many as ``base``. :meth:`holds_base` checks which, and raises
    :class:`InvariantError` for any other count. When a source holds all of
    them, the subgoal streams from ``base`` and is an invariant input. So
    are the unit relation of a rule without positive subgoals and the output
    of a job whose inputs are all invariant.

    ``outputs`` keeps the output of each rule whose jobs read only
    invariant inputs, ``grouped`` the grouped invariant inputs of each job
    with other inputs too, both keyed by rule index, job position and which
    inputs are invariant. The output of a job with only invariant inputs
    that feeds another job is not kept: the next job keeps it grouped, or
    is such a job itself. Nothing is evicted. ``InputCache()`` knows no
    invariant predicate, so across calls it never hits.
    """

    def __init__(self, base: Optional[Database] = None, heads: Iterable[str] = ()):
        self.base = base
        self.invariant = frozenset(base.predicates() if base is not None else ()).difference(heads)
        self.outputs: dict[tuple, set] = {}
        self.grouped: dict[tuple, GroupedInput] = {}

    def holds_base(self, source: FactSource, predicate: str) -> bool:
        """Whether ``source`` holds every base fact of an invariant
        ``predicate``; False for a predicate that is not invariant."""
        if predicate not in self.invariant:
            return False
        parts = source.parts if isinstance(source, DatabaseView) else (source,)
        held = [len(rel) for rel in (part.relation(predicate) for part in parts) if rel]
        if not held:
            return False
        want = len(self.base.relation(predicate))
        if held != [want]:
            raise InvariantError(
                f"a job source holds {held} facts of '{predicate}', which heads no rule "
                f"and has {want} base facts: expected none or all of them in one part"
            )
        return True

    def records(self) -> int:
        """Records held: kept job outputs plus grouped values."""
        return sum(map(len, self.outputs.values())) + sum(
            held.records for held in self.grouped.values()
        )


def _access_stream(
    source: FactSource,
    access: SubgoalAccess,
    tag: str,
    cols: Optional[Sequence[int]] = None,
) -> Iterator[Record]:
    """Stream a subgoal's relation with its selection filters and variable
    projection applied map-side.

    ``cols`` overrides the projected atom columns (defaults to the first
    occurrence of each distinct variable, i.e. the access variable layout).
    """
    tuples = source.tuples(access.atom.predicate)
    out_cols = tuple(cols) if cols is not None else tuple(c for _, c in access.var_cols)
    if (
        not access.eq_cols
        and not access.const_cols
        and out_cols == tuple(range(access.atom.arity))
    ):
        for row in tuples:
            yield (tag, row)
        return
    const_cols = []
    for col, symbol in access.const_cols:
        sid = source.symbols.lookup(symbol)
        if sid is None:  # constant never interned: nothing can match
            return
        const_cols.append((col, sid))
    eq_cols = access.eq_cols
    project = _picker(out_cols)
    for row in tuples:
        if any(row[c] != sid for c, sid in const_cols):
            continue
        if any(row[a] != row[b] for a, b in eq_cols):
            continue
        yield (tag, project(row))


def _tagged(rows: Iterable[tuple[int, ...]], tag: str) -> Iterator[Record]:
    for row in rows:
        yield (tag, row)


# ---------------------------------------------------------------------------
# Job builders
# ---------------------------------------------------------------------------


def _join_spec(
    name: str,
    left_tag: str,
    right_tag: str,
    left_key: Sequence[int],
    right_key: Sequence[int],
    pick: Callable[[tuple], tuple],
    out_tag: str,
    inputs: Sequence[Iterable[Record]] = (),
) -> JobSpec:
    """Join job; ``pick`` maps a left row concatenated with a right row to
    the output row."""
    left_get = _picker(left_key)
    right_get = _picker(right_key)
    warnings = ("empty join key: all records meet in one reduce group",) if not left_key else ()

    def mapper(record: Record) -> list:
        tag, cols = record
        if tag == left_tag:
            return [(left_get(cols), record)]
        if tag == right_tag:
            return [(right_get(cols), record)]
        raise ValueError(f"unexpected record tag {tag!r}")

    def reducer(key, values) -> list:
        lefts = []
        rights = []
        for tag, cols in values:
            if tag == left_tag:
                lefts.append(cols)
            else:
                rights.append(cols)
        if not lefts or not rights:
            return []
        # duplicates are pruned inside the group before emission
        rows = {pick(lcols + rcols) for lcols in lefts for rcols in rights}
        return [(out_tag, row) for row in rows]

    return JobSpec(name=name, mapper=mapper, reducer=reducer, inputs=list(inputs), warnings=warnings)


def _dedup_spec(
    name: str,
    pick: Callable[[tuple], tuple] = tuple,  # tuple() of a tuple is the identity
    inputs: Sequence[Iterable[Record]] = (),
) -> JobSpec:
    """Record-as-key duplicate elimination, optionally projecting columns."""

    def mapper(record: Record) -> list:
        return [((record[0], pick(record[1])), "")]

    def reducer(key, values) -> list:
        return [key]

    return JobSpec(name=name, mapper=mapper, reducer=reducer, inputs=list(inputs))


def _antijoin_spec(
    name: str,
    pos_key: Sequence[int],
    inputs: Sequence[Iterable[Record]],
    pick: Optional[Callable[[tuple], tuple]] = None,
    width: Optional[int] = None,
) -> JobSpec:
    """Anti-join job; surviving positive rows are mapped through ``pick``
    when given. When ``pos_key`` covers all ``width`` columns of the positive
    rows, each row is its own key and no key tuple is built."""
    pos_get = _picker(pos_key)
    warnings = ("empty anti-join key: ground negative subgoal",) if not pos_key else ()

    if width and tuple(pos_key) == tuple(range(width)):
        def mapper(record: Record) -> list:
            tag, cols = record
            return [(cols, _NEG if tag == _NEG else cols)]
    else:
        def mapper(record: Record) -> list:
            tag, cols = record
            if tag == _NEG:
                return [(cols, _NEG)]
            return [(pos_get(cols), cols)]  # bare rows: a row is never the marker

    def reducer(key, values) -> list:
        for value in values:
            if value is _NEG:
                return []  # a negative match kills the whole group
        if pick is None:
            return [(_POS, cols) for cols in values]
        return [(_POS, pick(cols)) for cols in values]

    return JobSpec(name=name, mapper=mapper, reducer=reducer, inputs=list(inputs), warnings=warnings)


# ---------------------------------------------------------------------------
# Public operators
# ---------------------------------------------------------------------------


def single_join(
    engine: Engine,
    left: Iterable[tuple[int, ...]],
    right: Iterable[tuple[int, ...]],
    left_key: Sequence[int],
    right_key: Sequence[int],
    out_cols: Sequence[tuple[str, int]],
    name: str = "join",
) -> set[tuple[int, ...]]:
    """Hash-join two tuple streams on the given key columns.

    ``out_cols`` selects output columns as ("l", i) or ("r", i) pairs.
    """
    left = list(left)
    width = len(left[0]) if left else 0
    pick = _picker([i if side == "l" else width + i for side, i in out_cols])
    spec = _join_spec(
        name, "L", "R", left_key, right_key, pick, "out", [_tagged(left, "L"), _tagged(right, "R")]
    )
    output, _ = engine.run_job(spec)
    return {cols for _, cols in output}


def dedup(
    engine: Engine, rows: Iterable[tuple[int, ...]], name: str = "dedup"
) -> set[tuple[int, ...]]:
    """Duplicate elimination as a job: each record becomes its own key."""
    spec = _dedup_spec(name, inputs=[_tagged(rows, "out")])
    output, _ = engine.run_job(spec)
    return {cols for _, cols in output}


def anti_join(
    engine: Engine,
    positive: Iterable[tuple[int, ...]],
    negative: Iterable[tuple[int, ...]],
    key: Sequence[int],
    name: str = "antijoin",
) -> set[tuple[int, ...]]:
    """Keep positive tuples whose key columns match no negative tuple.

    ``negative`` holds bare key tuples (safety guarantees the key covers
    every column of the negative relation).
    """
    spec = _antijoin_spec(name, key, [_tagged(negative, _NEG), _tagged(positive, "P")])
    output, _ = engine.run_job(spec)
    return {cols for _, cols in output}


def rule_pipeline(
    plan: RulePlan,
    pos: FactSource,
    neg: FactSource,
    delta: Optional[FactSource] = None,
    delta_at: Optional[int] = None,
    cache: Optional[InputCache] = None,
) -> list[tuple[JobSpec, tuple[bool, ...]]]:
    """The jobs of one rule evaluation, the last of which emits head tuples.

    Each job comes with one flag per input, true for the inputs that are
    invariant under ``cache``. Every job after the first also reads the
    output of the job before it, which is not among its inputs yet.
    Jobs are named ``r<rule index>:<head predicate>:<kind>``. With
    ``delta``/``delta_at`` the positive subgoal at that index streams from
    the delta source instead of ``pos`` (semi-naive evaluation).
    """
    prefix = f"r{plan.index}:{plan.head_predicate}"
    consts = tuple(pos.symbols.intern(value) for kind, value in plan.head_cols if kind == "c")
    cache = cache if cache is not None else InputCache()

    def head_pick(goal_at: Sequence[int], width: int) -> Callable[[tuple], tuple]:
        """Head projection of rows of ``width`` columns that hold goal column
        ``g`` at ``goal_at[g]``; the head constants follow the row's columns."""
        const_at = iter(range(width, width + len(consts)))
        indices = [goal_at[v] if k == "v" else next(const_at) for k, v in plan.head_cols]
        return _picker(indices, consts)

    def stream(
        source: FactSource, access: SubgoalAccess, tag: str, cols: Optional[Sequence[int]] = None
    ) -> tuple[Iterable[Record], bool]:
        if cache.holds_base(source, access.atom.predicate):
            return _access_stream(cache.base, access, tag, cols), True
        return _access_stream(source, access, tag, cols), False

    def source_for(index: int) -> FactSource:
        return delta if delta is not None and index == delta_at else pos

    def take() -> tuple[list[Iterable[Record]], tuple[bool, ...]]:
        """The pending inputs and their flags; leaves none pending."""
        inputs, fixed = zip(*pending)
        pending.clear()
        return list(inputs), fixed

    # inputs of the next job besides the output of the job before it
    if plan.base is None:
        pending = [([("s0", ())], True)]  # no positive subgoals: unit relation
    else:
        cols = plan.base_cols if plan.joins else [plan.base_cols[g] for g in plan.goal_cols]
        pending = [stream(source_for(0), plan.base, "s0", cols=cols)]

    jobs: list[tuple[JobSpec, tuple[bool, ...]]] = []
    left_tag = "s0"
    left_width = len(plan.base_schema)
    for i, step in enumerate(plan.joins, start=1):
        # output columns as indices into the left row followed by the right row
        flat = [c if side == "l" else left_width + c for side, c in step.out_cols]
        if i < len(plan.joins):
            pick = _picker(flat)
        elif plan.anti_joins:
            pick = _picker([flat[g] for g in plan.goal_cols])
        else:
            row_width = left_width + len(step.right.var_cols)
            pick = head_pick([flat[g] for g in plan.goal_cols], row_width)
        right_tag = f"r{i}"
        pending.append(stream(source_for(i), step.right, right_tag))
        inputs, fixed = take()
        jobs.append((
            _join_spec(f"{prefix}:join{i}", left_tag, right_tag, step.left_key,
                       step.right_key, pick, f"j{i}", inputs),
            fixed,
        ))
        left_tag = f"j{i}"
        left_width = len(flat)

    width = len(plan.goal_schema)
    identity = range(width)
    for j, step in enumerate(plan.anti_joins, start=1):
        pick = head_pick(identity, width) if j == len(plan.anti_joins) else None
        pending.append(stream(neg, step.access, _NEG))
        inputs, fixed = take()
        spec = _antijoin_spec(f"{prefix}:antijoin{j}", step.pos_key, inputs, pick, width)
        jobs.append((spec, fixed))

    if not jobs:
        inputs, fixed = take()
        jobs.append((_dedup_spec(f"{prefix}:head", head_pick(identity, width), inputs), fixed))
    return jobs


def multi_join(engine: Engine, plan: RulePlan, pos: FactSource) -> set[tuple[int, ...]]:
    """Compute the positive goal: the natural join of all positive subgoals
    projected onto the goal schema."""
    goal_head = tuple(("v", g) for g in range(len(plan.goal_schema)))
    return eval_rule(engine, replace(plan, anti_joins=(), head_cols=goal_head), pos, pos)


def eval_rule(
    engine: Engine,
    plan: RulePlan,
    pos: FactSource,
    neg: FactSource,
    delta: Optional[FactSource] = None,
    delta_at: Optional[int] = None,
    cache: Optional[InputCache] = None,
) -> set[tuple[int, ...]]:
    """Head tuples derivable from the rule with positive subgoals matched in
    ``pos`` and negative subgoals absent from ``neg``.

    ``cache`` keeps the invariant inputs between the calls of one solve;
    each call without one maps all of its inputs."""
    cache = cache if cache is not None else InputCache()
    jobs = rule_pipeline(plan, pos, neg, delta, delta_at, cache)
    # each job's input flags, the output of the job before it last
    flags: list[tuple[bool, ...]] = []
    for position, (_, fixed) in enumerate(jobs):
        flags.append(fixed + (all(flags[-1]),) if position else fixed)

    # start after the last job whose result is kept, or at the last job that
    # holds the kept output of the jobs before it
    first, output = 0, None
    for position in reversed(range(len(jobs))):
        if position and not flags[position][-1]:
            continue  # it reads the fresh output of the job before it
        key = (plan.index, position, flags[position])
        if key in cache.outputs:
            first, output = position + 1, cache.outputs[key]
            break
        held = cache.grouped.get(key)
        if held is not None and held.tasks is not None:
            first = position
            break

    for position in range(first, len(jobs)):
        spec, fixed = jobs[position][0], flags[position]
        key = (plan.index, position, fixed)
        inputs = [*spec.inputs, output] if position else list(spec.inputs)
        if all(fixed):
            output, _ = engine.run_job(replace(spec, inputs=inputs))
            if position == len(jobs) - 1:
                cache.outputs[key] = output
            continue
        held = None
        if any(fixed):
            held = cache.grouped.get(key)
            if held is None or held.tasks is None:
                held = cache.grouped[key] = GroupedInput([s for s, f in zip(inputs, fixed) if f])
            inputs = [s for s, f in zip(inputs, fixed) if not f]
        output, _ = engine.run_job(replace(spec, inputs=inputs, grouped=held))
    return {cols for _, cols in output}
