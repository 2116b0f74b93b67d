"""Relational operators as MapReduce jobs, hash join and anti-join, and
whole-rule evaluation.

Operator jobs read rows (tuples of constants) from two inputs,
each a key function and its rows, which the engine co-groups by key, each
row as itself (see :mod:`wfsmr.mapreduce`). Slot 0 holds the left or
positive side, because the engine reduces only the keys of slot 0 and a
join or anti-join emits nothing for a key that side lacks. Every job reduces
all keys of a reduce task at once, with a task-level reduce (see
:mod:`wfsmr.mapreduce`) rather than a per-key reducer. A join keys each side
by its join columns. It streams the keys with one row on each side, through
a filter on membership in the right side's groups and maps of its
concatenated rows, all in C; it crosses the left rows of any other key both
sides hold with its right rows and emits their distinct picks. An
anti-join keys the positive rows by the anti-join columns and the negative
rows, which hold exactly those columns, by the row object itself, and
streams the positive rows of the keys the negative side lacks through a
filter on membership in the negative groups, building no key set.
Every job emits bare rows, so a job's output is its result as is. The
source paper's Hadoop mappers instead emit each record once, tagged with its
relation; here each relation is its own input, so no record carries a tag.

Rule evaluation chains one job per join over the positive subgoals and one
per anti-join over the negative subgoals; slot 0 of every job after the
first reads the output of the job before it. Job output holds each row
once, so no job between them removes duplicates. Projections run inside
these jobs: the positive-goal projection in the job that produces the goal,
and the head projection, head constants included, in the reduce of the last
job. A rule with neither joins nor anti-joins runs a single projection job,
which keys each row by its projection and emits the task's keys as they
are, so every rule evaluation runs ``max(1, joins + anti-joins)`` jobs. A variant of the
rule (see :mod:`wfsmr.planner`) reads one subgoal in a delta, which is slot
0 of its job; a seed runs as a join of the delta's atoms with the positive
goal.

An :class:`InputCache` keeps the loop-invariant inputs of these jobs for
the length of one solve: subgoals over predicates whose facts all lie in
the fixed part of every source and which no rule still to run heads, so
that no job can change them and they stream from the fixed part alone. The
output of a job whose inputs are all invariant is an invariant input of the
next job. In a job with other inputs too, each invariant input is mapped and
grouped by the first job that reads it and later jobs map only the rest (see
:class:`~wfsmr.mapreduce.GroupedInput`), so with a warm cache an evaluation
resumes at the first job with an input that is not invariant. A seeded join
whose positive goal is invariant shares the goal's groups with the rule's
first anti-join when both key it alike, so then it maps only the seed's
atoms. No output is kept: a rule whose inputs are all invariant runs all
of its jobs again.
"""
from __future__ import annotations

from dataclasses import replace
from functools import partial
from itertools import chain, filterfalse
from operator import add, itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .mapreduce import Engine, GroupedInput, Groups, JobSpec
from .planner import RulePlan, SubgoalAccess
from .store import FactSource, Row, Rows

__all__ = [
    "single_join",
    "anti_join",
    "eval_rule",
    "rule_pipeline",
    "InputCache",
]


def _picker(indices: Sequence[int], consts: tuple = ()) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[i] for i in indices)``; indices past the end of the
    row pick from ``consts``, which are appended to it."""
    indices = tuple(indices)
    if len(indices) > 1:
        get = itemgetter(*indices)
    else:  # itemgetter of one index gives the bare value, of a slice a tuple
        get = itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0, 0))
    return (lambda row: get(row + consts)) if consts else get


# ---------------------------------------------------------------------------
# Input streams
# ---------------------------------------------------------------------------


class InputCache:
    """The loop-invariant job inputs of one solve.

    ``base`` is the fixed part of every source the fixpoint drivers pass,
    and a predicate is invariant when ``base`` holds all of its facts and no
    rule still to run heads it. At first these are the predicates that
    ``base`` holds facts of and no rule in ``heads`` heads; the optimized
    driver adds each predicate of a finished component that has no
    undefined atoms, whose true facts it has put in ``base``. The drivers
    store rule output only, so a source's facts of an invariant predicate
    are exactly those of ``base``: a subgoal over it streams from ``base``,
    whatever the source, and is an invariant input. So are the unit relation
    of a rule without positive subgoals and the output of a job whose inputs
    are all invariant.

    ``grouped`` holds each grouped invariant input of a job with other
    inputs too, under the key that :func:`rule_pipeline` gives it; the
    output of a job with only invariant inputs is held there by the next
    job. Nothing is evicted. ``InputCache()`` knows no invariant predicate,
    so across calls it never hits.
    """

    def __init__(self, base: Optional[FactSource] = None, heads: Iterable[str] = ()):
        self.base = base
        self.invariant = set(base.predicates() if base is not None else ()).difference(heads)
        self.grouped: dict[tuple, GroupedInput] = {}

    def records(self) -> int:
        """Records held: the grouped values."""
        return sum(held.values for held in self.grouped.values())


def _access_stream(source: FactSource, access: SubgoalAccess, cols: tuple) -> Iterable[Row]:
    """A subgoal's rows with its selection filters applied and projected to
    atom columns ``cols`` map-side; the rows as ``source`` gives them when
    neither changes a row."""
    tuples = source.tuples(access.atom.predicate)
    if not access.eq_cols and not access.const_cols and cols == tuple(range(access.atom.arity)):
        return tuples
    const_cols, eq_cols = access.const_cols, access.eq_cols
    project = _picker(cols)
    return (
        project(row)
        for row in tuples
        if not any(row[c] != symbol for c, symbol in const_cols)
        and not any(row[a] != row[b] for a, b in eq_cols)
    )


# ---------------------------------------------------------------------------
# Job builders
# ---------------------------------------------------------------------------


# Whole-row key: a full slice of a tuple is the tuple itself, so no key is copied.
_itself: Callable[[Row], Row] = itemgetter(slice(None))


def _join_task(pick: Callable[[tuple], tuple], own: Groups, others: Sequence[Groups],
               out: list) -> int:
    """The join's task-level reduce: ``pick(left + right)`` of the rows of
    every key both sides hold, streamed into ``out`` for the keys with one
    row on each side and deduplicated per key for the rest; returns the
    values under the largest key."""
    (single, multi), [(r_single, r_multi)] = own, others
    keys = [*filter(r_single.__contains__, single)]
    out.extend(map(pick, map(add, map(single.__getitem__, keys), map(r_single.__getitem__, keys))))
    sizes = [2] if keys else [1] if single else []
    for key in filter(r_multi.__contains__, single):
        lrow, rights = single[key], r_multi[key]
        sizes.append(1 + len(rights))
        out.extend({pick(lrow + rrow) for rrow in rights})
    for key, lefts in multi.items():
        rights = (r_single[key],) if key in r_single else r_multi.get(key, ())
        sizes.append(len(lefts) + len(rights))
        out.extend({pick(lrow + rrow) for lrow in lefts for rrow in rights})
    return max(sizes, default=0)


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
    inputs = [(_picker(left_key), left), (_picker(right_key), right)]
    return JobSpec(name, partial(_join_task, pick), inputs, warnings)


def _project_task(own: Groups, others: Sequence[Groups], out: list) -> int:
    """The projection's task-level reduce: every key once."""
    single, multi = own
    out.extend(single)
    out.extend(multi)
    return max(map(len, multi.values()), default=1 if single else 0)


def _project_spec(name: str, pick: Callable[[tuple], tuple], rows: Iterable[Row]) -> JobSpec:
    """Projection job: each row is keyed by ``pick(row)``, and each key is
    emitted once."""
    return JobSpec(name, _project_task, [(pick, rows)])


def _antijoin_task(
    pick: Optional[Callable[[tuple], tuple]], own: Groups, others: Sequence[Groups], out: list
) -> int:
    """The anti-join's task-level reduce: the positive rows of every key the
    negative side lacks, through ``pick`` when given, streamed into ``out``
    without a per-key call; returns the values under the largest key."""
    (single, multi), [(neg_single, neg_multi)] = own, others
    # neg_multi holds a negative row met twice, through overlapping parts
    negative = {**neg_single, **neg_multi} if neg_multi else neg_single
    rows, lists = single.values(), multi.values()
    if negative:
        rows = map(single.__getitem__, filterfalse(negative.__contains__, single))
        lists = map(multi.__getitem__, filterfalse(negative.__contains__, multi))
    start = len(out)
    out.extend(rows if pick is None else map(pick, rows))
    hits = len(single) - (len(out) - start)
    rows = chain.from_iterable(lists)
    out.extend(rows if pick is None else map(pick, rows))
    # a group of two positive rows or more, or one that neg_multi hit, is at
    # least as large as any group of one positive row and one negative row
    sizes = [len(values) + (len(neg_multi.get(key, ())) or key in neg_single)
             for key, values in multi.items()]
    sizes += [1 + len(values) for key, values in neg_multi.items() if key in single]
    return max(sizes, default=2 if hits else min(len(single), 1))


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
    pos_key_of = _itself if whole_row else _picker(pos_key)
    inputs = [(pos_key_of, positive), (_itself, negative)]
    return JobSpec(name, partial(_antijoin_task, pick), inputs, warnings)


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
) -> Rows:
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
) -> Rows:
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
    cache: Optional[InputCache] = None,
) -> list[tuple[JobSpec, tuple[Optional[tuple], ...]]]:
    """The jobs of one rule evaluation, the last of which emits head tuples.

    Subgoals stream from ``pos`` and ``neg``, but the one a variant reads in
    ``delta`` (see :mod:`wfsmr.planner`), which is never invariant. Each job
    comes with one cache key per input: the key its groups are held under in
    ``cache`` when the input is invariant, else ``None``. Every job after the
    first reads the output of the job before it in the input whose records
    are left ``None``. A key names the rule, the rows (a subgoal by its access
    and columns, a job output by the written-order jobs that made it) and the
    columns that key them. Jobs are named ``r<rule index>:<head predicate>:<kind>``.
    """
    prefix = f"r{plan.index}:{plan.head_predicate}"
    head_pick = partial(head_picker, plan)
    cache = cache if cache is not None else InputCache()

    def stream(
        access: SubgoalAccess, source: FactSource, cols: Optional[Sequence[int]] = None
    ) -> tuple[Iterable[Row], Optional[tuple]]:
        """A subgoal's rows, by default in its variable layout, and what
        names them when they are invariant."""
        cols = tuple(c for _, c in access.var_cols) if cols is None else cols
        if access.delta:
            return _access_stream(delta, access, cols), None
        if access.atom.predicate in cache.invariant:
            return _access_stream(cache.base, access, cols), (access, cols)
        return _access_stream(source, access, cols), None

    def held(made: Optional[object], key: Sequence[int]) -> Optional[tuple]:
        return None if made is None else (plan.index, made, tuple(key))

    # the input of the next job that the job before feeds, and what names
    # it when invariant: the base subgoal, then each job's output
    left: Optional[Iterable[Row]]
    if plan.base is None:
        left, made = [()], ()  # no positive subgoals: unit relation
    else:
        left, made = stream(plan.base, pos, plan.base_cols)

    jobs: list[tuple[JobSpec, tuple[Optional[tuple], ...]]] = []
    left_width = len(plan.base_schema)
    for i, step in enumerate(plan.joins, start=1):
        # output columns as indices into the left row followed by the right row
        flat = [c if side == "l" else left_width + c for side, c in step.out_cols]
        if i < len(plan.joins) or plan.anti_joins:
            pick = _picker(flat)
        else:
            pick = head_pick(flat, left_width + len(step.right.var_cols))
        right, right_made = stream(step.right, pos)
        spec = _join_spec(f"{prefix}:join{i}", step.left_key, step.right_key, pick, left, right)
        jobs.append((spec, (held(made, step.left_key), held(right_made, step.right_key))))
        left, left_width = None, len(flat)
        made = len(jobs) if made is not None and right_made is not None else None

    width = len(plan.goal_schema)
    for j, step in enumerate(plan.anti_joins, start=1):
        last = j == len(plan.anti_joins)
        rows, rows_made = stream(step.access, neg)
        keyed = len(step.key_vars)
        if step.access.delta:
            # a seed: its rows are the key columns, so the goal row follows them
            goal_at = range(keyed, keyed + width)
            pick = head_pick(goal_at, keyed + width) if last else _picker(goal_at)
            spec = _join_spec(
                f"{prefix}:join{len(plan.joins) + j}", range(keyed), step.pos_key, pick, rows, left
            )
            keys = (None, held(made, step.pos_key))
        else:
            pick = head_pick(range(width), width) if last else None
            spec = _antijoin_spec(f"{prefix}:antijoin{j}", step.pos_key, left, rows, pick, width)
            keys = (held(made, step.pos_key), held(rows_made, range(keyed)))
        jobs.append((spec, keys))
        left = None
        made = len(jobs) if made is not None and rows_made is not None else None

    if not jobs:
        spec = _project_spec(f"{prefix}:head", head_pick(range(width), width), left)
        jobs.append((spec, (held(made, ()),)))
    return jobs


def head_picker(plan: RulePlan, goal_at: Sequence[int], width: int) -> Callable[[tuple], tuple]:
    """Head projection of rows of ``width`` columns that hold goal column
    ``g`` at ``goal_at[g]``; the head constants follow the row's columns."""
    consts = tuple(value for kind, value in plan.head_cols if kind == "c")
    const_at = iter(range(width, width + len(consts)))
    indices = [goal_at[v] if k == "v" else next(const_at) for k, v in plan.head_cols]
    return _picker(indices, consts)


def _fed(spec: JobSpec) -> int:
    """The input of a job after the first that the job before feeds."""
    return next(slot for slot, (_, records) in enumerate(spec.inputs) if records is None)


def eval_rule(
    engine: Engine,
    plan: RulePlan,
    pos: FactSource,
    neg: FactSource,
    delta: Optional[FactSource] = None,
    cache: Optional[InputCache] = None,
) -> Rows:
    """Head tuples derivable from the rule with positive subgoals matched in
    ``pos`` and negative subgoals absent from ``neg``; a variant matches its
    delta subgoal in ``delta`` instead (see :func:`rule_pipeline`).

    ``cache`` keeps the invariant inputs between the calls of one solve;
    each call without one maps all of its inputs. The returned rows are
    the last job's output, new to this call."""
    cache = cache if cache is not None else InputCache()
    jobs = rule_pipeline(plan, pos, neg, delta, cache)

    # resume at the first job with an input that is not invariant, whose
    # held fed input took in the output of the all-invariant jobs before it
    first = next((at for at, (_, keys) in enumerate(jobs) if None in keys), 0)
    output = None
    if first:
        spec, keys = jobs[first]
        held = cache.grouped.get(keys[_fed(spec)])
        if held is None or held.tasks is None:
            first = 0

    for position in range(first, len(jobs)):
        spec, keys = jobs[position]
        inputs = list(spec.inputs)
        if position:
            fed = _fed(spec)
            inputs[fed] = (inputs[fed][0], output)
        if None in keys:
            for slot, key in enumerate(keys):
                if key is not None:
                    held = cache.grouped.get(key)
                    if held is None or held.tasks is None:
                        held = cache.grouped[key] = GroupedInput(*inputs[slot])
                    inputs[slot] = held
        output, _ = engine.run_job(replace(spec, inputs=inputs))
    return output
