"""Relational operators as MapReduce jobs, hash join and anti-join, and
whole-rule evaluation.

Operator jobs read encoded rows (tuples of symbol ids) from two inputs,
which the engine co-groups by key (see :mod:`wfsmr.mapreduce`). Slot 0
holds the left or positive side, because the engine reduces only the keys
of slot 0 and a join or anti-join emits nothing for a key that side lacks.
A join maps each side by its join columns and crosses the left rows of a
key with its right rows. An anti-join maps the positive rows by the
anti-join columns and the negative rows, which hold exactly those columns,
by themselves; it emits the positive rows of a key when no negative row
arrived under it. Every reducer emits bare rows, so a job's output is its
result as is. The source paper's Hadoop jobs instead tag each record with
its relation and split each key's values by tag in the reducer; here each
relation is its own input, so no record carries a tag.

Rule evaluation chains one job per join over the positive subgoals and one
per anti-join over the negative subgoals; slot 0 of every job after the
first reads the output of the job before it. Job output is a set, so no job
between them removes duplicates. Projections run inside these jobs: the
positive-goal projection in the job that produces the goal, and the head
projection, head constants included, in the reducer of the last job. A rule
with neither joins nor anti-joins runs a single projection job, which keys
each projected row by itself and emits it once, so every rule evaluation
runs ``max(1, joins + anti-joins)`` jobs.

An :class:`InputCache` keeps the loop-invariant inputs of these jobs for
the length of one solve: subgoals over predicates that have base facts and
head no rule, which no job can change and which stream from the base facts
alone. A job whose inputs are all invariant runs once per cache and its
output is reused, and that output is an invariant input of the next job.
In a job with other inputs too, each invariant input is mapped and grouped
by the first job that reads it and later jobs map only the rest (see
:class:`~wfsmr.mapreduce.GroupedInput`).
So with a warm cache an evaluation runs at most as many jobs as without:
it resumes at the first job with an input that is not invariant, or runs
no job when every input is.
"""
from __future__ import annotations

from dataclasses import replace
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .mapreduce import Engine, GroupedInput, JobSpec, Mapper
from .planner import RulePlan, SubgoalAccess
from .store import Database, FactSource

__all__ = [
    "single_join",
    "anti_join",
    "eval_rule",
    "rule_pipeline",
    "InputCache",
]

Row = tuple[int, ...]


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
    heads it. The fixpoint drivers put ``base`` in every source they pass and
    store rule output only, so a source's facts of such a predicate are
    exactly the base ones: a subgoal over it streams from ``base``, whatever
    the source, and is an invariant input. So are the unit relation of a
    rule without positive subgoals and the output of a job whose inputs are
    all invariant.

    ``outputs`` keeps the output of each rule whose jobs read only
    invariant inputs, keyed by rule index, and ``grouped`` each grouped
    invariant input of a job with other inputs too, keyed by rule index,
    job position and input slot. The output of a job with only invariant
    inputs that feeds another job is not kept: the next job keeps it
    grouped, or is such a job itself. Nothing is evicted. ``InputCache()``
    knows no invariant predicate, so across calls it never hits.
    """

    def __init__(self, base: Optional[Database] = None, heads: Iterable[str] = ()):
        self.base = base
        self.invariant = frozenset(base.predicates() if base is not None else ()).difference(heads)
        self.outputs: dict[int, set] = {}
        self.grouped: dict[tuple[int, int, int], GroupedInput] = {}

    def records(self) -> int:
        """Records held: kept job outputs plus grouped values."""
        return sum(map(len, self.outputs.values())) + sum(
            held.values for held in self.grouped.values()
        )


def _access_stream(
    source: FactSource, access: SubgoalAccess, cols: Optional[Sequence[int]] = None
) -> Iterable[Row]:
    """A subgoal's rows with its selection filters and variable projection
    applied map-side; the relation's own stream when neither changes a row.

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
        return tuples
    const_cols = []
    for col, symbol in access.const_cols:
        sid = source.symbols.lookup(symbol)
        if sid is None:  # constant never interned: nothing can match
            return ()
        const_cols.append((col, sid))
    eq_cols = access.eq_cols
    project = _picker(out_cols)
    return (
        project(row)
        for row in tuples
        if not any(row[c] != sid for c, sid in const_cols)
        and not any(row[a] != row[b] for a, b in eq_cols)
    )


# ---------------------------------------------------------------------------
# Job builders
# ---------------------------------------------------------------------------


def _keyed(get: Callable[[Row], tuple]) -> Mapper:
    """Mapper that emits each row under ``get(row)``."""
    return lambda row: [(get(row), row)]


def _self_keyed(row: Row) -> list:
    return [(row, row)]


def _join_spec(
    name: str,
    left_key: Sequence[int],
    right_key: Sequence[int],
    pick: Callable[[tuple], tuple],
    left: Optional[Iterable[Row]],
    right: Iterable[Row],
) -> JobSpec:
    """Join job; ``pick`` maps a left row concatenated with a right row to
    the output row."""
    warnings = ("empty join key: all records meet in one reduce group",) if not left_key else ()

    def reducer(key, groups) -> Iterable[Row]:
        lefts, rights = groups
        if not rights:
            return ()
        # duplicates are pruned inside the group before emission
        return {pick(lrow + rrow) for lrow in lefts for rrow in rights}

    inputs = [(_keyed(_picker(left_key)), left), (_keyed(_picker(right_key)), right)]
    return JobSpec(name, reducer, inputs, warnings)


def _project_spec(name: str, pick: Callable[[tuple], tuple], rows: Iterable[Row]) -> JobSpec:
    """Projection job: each row, mapped through ``pick``, becomes its own key
    and is emitted once."""

    def mapper(row: Row) -> list:
        return [(pick(row), None)]

    def reducer(key, groups) -> list:
        return [key]

    return JobSpec(name, reducer, [(mapper, rows)])


def _antijoin_spec(
    name: str,
    pos_key: Sequence[int],
    positive: Optional[Iterable[Row]],
    negative: Iterable[Row],
    pick: Optional[Callable[[tuple], tuple]] = None,
    width: Optional[int] = None,
) -> JobSpec:
    """Anti-join job; surviving positive rows are mapped through ``pick``
    when given. When ``pos_key`` covers all ``width`` columns of the positive
    rows, each row is its own key and no key tuple is built."""
    warnings = ("empty anti-join key: ground negative subgoal",) if not pos_key else ()
    whole_row = width and tuple(pos_key) == tuple(range(width))

    def reducer(key, groups) -> Iterable[Row]:
        positives, negatives = groups
        if negatives:
            return ()  # a negative match kills the whole group
        if pick is None:
            return positives
        return map(pick, positives)

    pos_mapper = _self_keyed if whole_row else _keyed(_picker(pos_key))
    return JobSpec(name, reducer, [(pos_mapper, positive), (_self_keyed, negative)], warnings)


# ---------------------------------------------------------------------------
# Public operators
# ---------------------------------------------------------------------------


def single_join(
    engine: Engine,
    left: Iterable[Row],
    right: Iterable[Row],
    left_key: Sequence[int],
    right_key: Sequence[int],
    out_cols: Sequence[tuple[str, int]],
    name: str = "join",
) -> set[Row]:
    """Hash-join two tuple streams on the given key columns.

    ``out_cols`` selects output columns as ("l", i) or ("r", i) pairs.
    """
    left = list(left)
    width = len(left[0]) if left else 0
    pick = _picker([i if side == "l" else width + i for side, i in out_cols])
    output, _ = engine.run_job(_join_spec(name, left_key, right_key, pick, left, right))
    return output


def anti_join(
    engine: Engine,
    positive: Iterable[Row],
    negative: Iterable[Row],
    key: Sequence[int],
    name: str = "antijoin",
) -> set[Row]:
    """Keep positive tuples whose key columns match no negative tuple.

    ``negative`` holds bare key tuples (safety guarantees the key covers
    every column of the negative relation).
    """
    output, _ = engine.run_job(_antijoin_spec(name, key, positive, negative))
    return output


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
    invariant under ``cache``. Slot 0 of every job after the first reads
    the output of the job before it, so its records are left ``None`` and
    its flag is true when that job's inputs all are.
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
        source: FactSource, access: SubgoalAccess, cols: Optional[Sequence[int]] = None
    ) -> tuple[Iterable[Row], bool]:
        if access.atom.predicate in cache.invariant:
            return _access_stream(cache.base, access, cols), True
        return _access_stream(source, access, cols), False

    def source_for(index: int) -> FactSource:
        return delta if delta is not None and index == delta_at else pos

    # slot 0 of the next job: the base subgoal, then each job's output
    left: Optional[Iterable[Row]]
    if plan.base is None:
        left, left_fixed = [()], True  # no positive subgoals: unit relation
    else:
        left, left_fixed = stream(source_for(0), plan.base, cols=plan.base_cols)

    jobs: list[tuple[JobSpec, tuple[bool, ...]]] = []
    left_width = len(plan.base_schema)
    for i, step in enumerate(plan.joins, start=1):
        # output columns as indices into the left row followed by the right row
        flat = [c if side == "l" else left_width + c for side, c in step.out_cols]
        if i < len(plan.joins) or plan.anti_joins:
            pick = _picker(flat)
        else:
            pick = head_pick(flat, left_width + len(step.right.var_cols))
        right, right_fixed = stream(source_for(i), step.right)
        spec = _join_spec(f"{prefix}:join{i}", step.left_key, step.right_key, pick, left, right)
        jobs.append((spec, (left_fixed, right_fixed)))
        left, left_fixed, left_width = None, left_fixed and right_fixed, len(flat)

    width = len(plan.goal_schema)
    identity = range(width)
    for j, step in enumerate(plan.anti_joins, start=1):
        pick = head_pick(identity, width) if j == len(plan.anti_joins) else None
        negative, negative_fixed = stream(neg, step.access)
        spec = _antijoin_spec(f"{prefix}:antijoin{j}", step.pos_key, left, negative, pick, width)
        jobs.append((spec, (left_fixed, negative_fixed)))
        left, left_fixed = None, left_fixed and negative_fixed

    if not jobs:
        spec = _project_spec(f"{prefix}:head", head_pick(identity, width), left)
        jobs.append((spec, (left_fixed,)))
    return jobs


def eval_rule(
    engine: Engine,
    plan: RulePlan,
    pos: FactSource,
    neg: FactSource,
    delta: Optional[FactSource] = None,
    delta_at: Optional[int] = None,
    cache: Optional[InputCache] = None,
) -> set[Row]:
    """Head tuples derivable from the rule with positive subgoals matched in
    ``pos`` and negative subgoals absent from ``neg``.

    ``cache`` keeps the invariant inputs between the calls of one solve;
    each call without one maps all of its inputs. The returned set is the
    last job's output, which ``cache`` may keep: it must not be modified."""
    cache = cache if cache is not None else InputCache()
    jobs = rule_pipeline(plan, pos, neg, delta, delta_at, cache)

    # resume at the first job with an input that is not invariant, whose
    # held slot 0 took in the output of the all-invariant jobs before it;
    # when every job is invariant, the rule's kept output stands for them all
    first = next((at for at, (_, fixed) in enumerate(jobs) if not all(fixed)), len(jobs))
    output = None
    if first == len(jobs):
        output = cache.outputs.get(plan.index)
        if output is None:
            first = 0
    elif first:
        held = cache.grouped.get((plan.index, first, 0))
        if held is None or held.tasks is None:
            first = 0

    for position in range(first, len(jobs)):
        spec, fixed = jobs[position]
        inputs = list(spec.inputs)
        if position:
            inputs[0] = (inputs[0][0], output)
        if not all(fixed):
            for slot, invariant in enumerate(fixed):
                if invariant:
                    key = (plan.index, position, slot)
                    held = cache.grouped.get(key)
                    if held is None or held.tasks is None:
                        held = cache.grouped[key] = GroupedInput(*inputs[slot])
                    inputs[slot] = held
        output, _ = engine.run_job(replace(spec, inputs=inputs))
        if position == len(jobs) - 1 and all(fixed):
            cache.outputs[plan.index] = output
    return output
