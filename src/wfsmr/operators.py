"""Relational operators as MapReduce jobs: hash join, chained multi-way
join, duplicate elimination, and anti-join, plus whole-rule evaluation.

Records flowing through operator jobs have the shape ``(tag, cols)``
where ``tag`` names the record's origin and ``cols`` is an encoded tuple.
Map functions re-key records by the join or anti-join columns; join reduce
functions cross-product the two tag groups of a key, anti-join reduce
functions emit the positive group only when no negative tag is present (the
whole group is scanned first, so value order never matters), and duplicate
elimination keys each record by itself and emits it once.

Rule evaluation chains one job per join over the positive subgoals and one
per anti-join over the negative subgoals. Job output is a set, so no job
between them removes duplicates. Projections run inside these jobs: the
positive-goal projection in the job that produces the goal, and the head
projection, head constants included, in the reducer of the last job. A rule
with neither joins nor anti-joins runs a single projection job, so every
rule evaluation runs ``max(1, joins + anti-joins)`` jobs.
"""
from __future__ import annotations

from dataclasses import replace
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .mapreduce import Engine, JobSpec, Record
from .planner import RulePlan, SubgoalAccess
from .store import FactSource

__all__ = [
    "single_join",
    "multi_join",
    "dedup",
    "anti_join",
    "eval_rule",
    "rule_pipeline",
]

_NEG = "neg"  # bare tag for negative-side records in an anti-join


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
) -> JobSpec:
    """Anti-join job; surviving positive rows are mapped through ``pick``
    when given."""
    pos_get = _picker(pos_key)
    warnings = ("empty anti-join key: ground negative subgoal",) if not pos_key else ()

    def mapper(record: Record) -> list:
        tag, cols = record
        if tag == _NEG:
            return [(cols, _NEG)]
        return [(pos_get(cols), record)]

    def reducer(key, values) -> list:
        kept = []
        for value in values:
            if value is _NEG or value == _NEG:
                return []  # a negative match kills the whole group
            kept.append(value)
        if pick is None:
            return kept
        return [(tag, pick(cols)) for tag, cols in kept]

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
) -> list[JobSpec]:
    """The jobs of one rule evaluation, the last of which emits head tuples.

    Jobs are named ``r<rule index>:<head predicate>:<kind>``. With
    ``delta``/``delta_at`` the positive subgoal at that index streams from
    the delta source instead of ``pos`` (semi-naive evaluation).
    """
    prefix = f"r{plan.index}:{plan.head_predicate}"
    consts = tuple(pos.symbols.intern(value) for kind, value in plan.head_cols if kind == "c")

    def head_pick(goal_at: Sequence[int], width: int) -> Callable[[tuple], tuple]:
        """Head projection of rows of ``width`` columns that hold goal column
        ``g`` at ``goal_at[g]``; the head constants follow the row's columns."""
        const_at = iter(range(width, width + len(consts)))
        indices = [goal_at[v] if k == "v" else next(const_at) for k, v in plan.head_cols]
        return _picker(indices, consts)

    def source_for(index: int) -> FactSource:
        return delta if delta is not None and index == delta_at else pos

    # inputs of the next job besides the output of the job before it
    if plan.base is None:
        pending: list[Iterable[Record]] = [[("s0", ())]]  # no positive subgoals: unit relation
    else:
        cols = plan.base_cols if plan.joins else [plan.base_cols[g] for g in plan.goal_cols]
        pending = [_access_stream(source_for(0), plan.base, "s0", cols=cols)]

    specs: list[JobSpec] = []
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
        pending.append(_access_stream(source_for(i), step.right, right_tag))
        specs.append(
            _join_spec(
                f"{prefix}:join{i}", left_tag, right_tag, step.left_key, step.right_key,
                pick, f"j{i}", pending,
            )
        )
        pending = []
        left_tag = f"j{i}"
        left_width = len(flat)

    width = len(plan.goal_schema)
    identity = range(width)
    for j, step in enumerate(plan.anti_joins, start=1):
        pick = head_pick(identity, width) if j == len(plan.anti_joins) else None
        pending.append(_access_stream(neg, step.access, _NEG))
        specs.append(_antijoin_spec(f"{prefix}:antijoin{j}", step.pos_key, pending, pick))
        pending = []

    if not specs:
        specs.append(_dedup_spec(f"{prefix}:head", head_pick(identity, width), pending))
    return specs


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
) -> set[tuple[int, ...]]:
    """Head tuples derivable from the rule with positive subgoals matched in
    ``pos`` and negative subgoals absent from ``neg``."""
    output, _ = engine.run_pipeline(rule_pipeline(plan, pos, neg, delta, delta_at))
    return {cols for _, cols in output}
