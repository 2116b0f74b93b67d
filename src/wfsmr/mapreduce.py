"""Embedded MapReduce engine: key each input, co-group by key, reduce.

A job reads one or more inputs, each a record stream with its own key
function. The map phase groups every record, as its own value, under
``key_of(record)``, separately for each input. Jobs run serially on the
calling thread: an input with a length is keyed and grouped in one C-level
pass, ``dict(zip(map(key_of, records), records))``, and kept as is when no
key repeats; any other input goes through a per-record loop. Then each
distinct key is routed to one of the engine's partitions by
``hash(key) % partitions``, and the partitions are reduced in turn as the
reduce tasks of the job.

Every job reduces with a task-level reduce, the hook Hadoop offers by
overriding ``Reducer.run``. The engine calls it exactly once per reduce
task with all of that task's groups, and it emits the output of every key
of input 0 in the task at once; what it emits for a key may depend only on
the records under that key, and a key that only a later input has is
never reduced. A failing call is reported as a :class:`JobError` that
names the index of the reduce task. The output holds each record emitted
by the reduce calls once, as the keys of a dict in the order they were
emitted, so as a set it is independent of the partition count. String
hashes are salted per process, so the routing, and with it the order of the
reduce calls, may differ between runs; the output's rows do not.

This departs from the reduce-side joins of Hadoop that the source paper
runs, where all inputs share one map function, which may emit any number
of key/value pairs per record, the keys of every input are reduced, and
each record carries a tag naming its relation. The paper's join and
anti-join mappers emit one pair per record; here each record is keyed once
and is its own value, and the engine knows each record's input, so none is
tagged. A job that would emit several pairs per record flattens its
records first.

An input may also be a :class:`GroupedInput`: one that does not change
between the jobs that read it. The first such job maps and groups it like
any other input and keeps its groups, split by reduce task; later jobs
reuse them without mapping it again (the reducer-input cache of HaLoop, Bu
et al., VLDB 2010). Held records form their own input's groups, so they are
never copied or appended to; after slot 0, only the keys input 0 has are
looked up in them. A job's ``map_in``/``map_out`` count only the records
it mapped itself.

Each job's :class:`JobStats`, its counts and its map and reduce times,
goes to the engine's ``stats_log``, which ``solve --trace`` prints.
"""
from __future__ import annotations

import gc
import threading
import time
from contextlib import ContextDecorator
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Optional, Sequence, Union

__all__ = [
    "GroupedInput",
    "JobSpec",
    "JobStats",
    "JobError",
    "EngineConfig",
    "Engine",
    "gc_paused",
]

KeyOf = Callable[[Any], Hashable]
# an input's groups: (key -> its only record, key -> its two or more records)
Groups = tuple[dict, dict]
# (input 0's groups, the other inputs' groups, the output list) of one
# reduce task -> the values in the task's largest group, all inputs
TaskReduce = Callable[[Groups, Sequence[Groups], list], int]


class _CollectorPause(ContextDecorator):
    """Pauses the cycle collector (job data, parsed facts and fact sets are
    acyclic, so it would only add full-heap scans). Overlapping users,
    nested or on other threads, share one pause: the first to enter saves
    the collector's state and the last to leave restores it. When the pause
    held back a young-generation collection, the last to leave runs it
    before it turns the collector back on, so the paused call pays for it
    rather than the caller's next allocation. Only the young generation is
    collected there, so a collection of older generations that allocations
    made before the pause had made due does not land inside the call."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._users = 0
        self._was_enabled = False

    def __enter__(self) -> None:
        with self._lock:
            if self._users == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._users += 1

    def __exit__(self, *exc: object) -> None:
        with self._lock:
            self._users -= 1
            if self._users == 0 and self._was_enabled:
                if 0 < gc.get_threshold()[0] < gc.get_count()[0]:
                    gc.collect(0)
                gc.enable()


gc_paused = _CollectorPause()


class JobError(RuntimeError):
    """A user map or reduce function failed; identifies the offending item:
    the record in the map phase, the reduce task's index in the reduce
    phase."""

    def __init__(self, job: str, phase: str, item: object, cause: BaseException):
        super().__init__(f"job '{job}' failed in {phase} phase on {item!r}: {cause}")
        self.job = job
        self.phase = phase
        self.item = item
        self.cause = cause


@dataclass
class JobStats:
    name: str
    map_in: int = 0
    map_out: int = 0  # always ``map_in`` (each record is grouped once); the benchmark reads it
    reduce_groups: int = 0
    reduce_out: int = 0
    # keying, grouping and routing every input: the shuffle runs inside the
    # map phase, so its time is part of this one
    map_ms: float = 0.0
    reduce_ms: float = 0.0  # the reduce calls and the output set
    partitions: int = 1
    max_group: int = 0  # values under the largest reduced key, all inputs
    cached_groups: int = 0  # distinct keys of the held inputs reused without mapping
    warnings: tuple[str, ...] = ()


class GroupedInput:
    """One job input that is mapped and grouped once and then reused.

    The first job run with it groups ``records`` under ``key_of`` and keeps
    the groups in ``tasks``: per reduce task, one dict from key to its only
    record and one from key to a list of two or more records, so a group of
    one record holds no list. Later jobs reuse them as they are, so every job
    that names one holder must have the same partition count; the owner
    keys its holders by the job input they serve.
    """

    __slots__ = ("key_of", "records", "tasks", "groups", "values")

    def __init__(self, key_of: KeyOf, records: Iterable):
        self.key_of = key_of
        self.records = records
        self.tasks: Optional[list[Groups]] = None
        self.groups = 0  # distinct keys held
        self.values = 0  # records held


Input = Union[tuple[KeyOf, Iterable], GroupedInput]


@dataclass
class JobSpec:
    """One map/shuffle/reduce job.

    Each input is a ``(key_of, records)`` pair or a :class:`GroupedInput`;
    a job needs one at least. ``key_of`` takes a record and returns its
    hashable key. ``reduce_task`` takes one reduce task's groups of input
    0, those of the other inputs and the output list; it appends the output
    of input 0's keys and returns the number of records, all inputs, under
    the key with the most. Both must be pure with respect to the job input:
    ``key_of`` may be called twice on a record of an input whose keys repeat
    or on which it raises. ``reduce_task`` must not modify the groups it is
    given: those of a ``GroupedInput`` are the held ones.
    """

    name: str
    reduce_task: TaskReduce
    inputs: Sequence[Input]
    warnings: tuple[str, ...] = ()


@dataclass
class EngineConfig:
    # ``workers`` is validated but changes nothing: jobs run on the calling
    # thread. It stays only because the benchmark (perfbench/sample.py)
    # passes it; removing it waits for the next change to the benchmark.
    workers: int = 1
    partitions: int = 1


def _map_and_group(
    name: str, key_of: KeyOf, records: Iterable, partitions: int
) -> tuple[list[Groups], int]:
    """Group every record of one input under ``key_of(record)``; returns the
    groups, split by reduce task, and the number of records mapped."""
    if hasattr(records, "__len__"):
        try:
            single = dict(zip(map(key_of, records), records))
        except Exception:  # noqa: BLE001 - the loop below names the record
            single = {}
        if len(single) == len(records):  # no key repeats
            return _split((single, {}), partitions), len(single)
    single = {}
    multi: dict = {}
    mapped = 0
    for record in records:
        mapped += 1
        try:
            key = key_of(record)
        except Exception as exc:  # noqa: BLE001 - reported with the record
            raise JobError(name, "map", record, exc) from exc
        values = multi.get(key)
        if values is not None:
            values.append(record)
        elif key in single:
            multi[key] = [single.pop(key), record]
        else:
            single[key] = record
    return _split((single, multi), partitions), mapped


def _split(groups: Groups, partitions: int) -> list[Groups]:
    """The shuffle: each distinct key goes to one reduce task. All inputs of
    a job, held ones included, are split in the same process, so equal keys
    meet."""
    if partitions == 1:
        return [groups]
    tasks: list[Groups] = [({}, {}) for _ in range(partitions)]
    single, multi = groups
    for key, value in single.items():
        tasks[hash(key) % partitions][0][key] = value
    for key, values in multi.items():
        tasks[hash(key) % partitions][1][key] = values
    return tasks


class Engine:
    """In-process job runner that keeps the statistics of every job it ran."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.config.partitions < 1:
            raise ValueError("partitions must be >= 1")
        self.stats_log: list[JobStats] = []

    # The engine holds no resources, so ``close`` does nothing. It stays only
    # because the benchmark (perfbench/sample.py) calls it; removing it waits
    # for the next change to the benchmark.
    def close(self) -> None:
        pass

    # -- job execution -----------------------------------------------------

    @gc_paused
    def run_job(self, spec: JobSpec) -> tuple[dict, JobStats]:
        """Run one job; returns (output, stats), the output's records being
        the keys of a dict, each once and in the order they were emitted."""
        if not spec.inputs:
            raise ValueError(f"job '{spec.name}' has no inputs")
        start = time.perf_counter()
        partitions = self.config.partitions
        map_in = 0
        cached_groups = 0
        sides: list[list[Groups]] = []  # per input, per reduce task
        for source in spec.inputs:
            held = isinstance(source, GroupedInput)
            if held and source.tasks is not None:
                if len(source.tasks) != partitions:
                    raise ValueError(
                        f"job '{spec.name}': grouped input has {len(source.tasks)} reduce "
                        f"tasks, the engine {partitions}"
                    )
                cached_groups += source.groups
                sides.append(source.tasks)
                continue
            key_of, records = (source.key_of, source.records) if held else source
            tasks, mapped = _map_and_group(spec.name, key_of, records, partitions)
            map_in += mapped
            if held:
                source.tasks, source.records, source.values = tasks, (), mapped
                source.groups = sum(len(one) + len(many) for one, many in tasks)
            sides.append(tasks)

        mapped_at = time.perf_counter()
        reduced: list = []
        reduce_groups = 0
        max_group = 0
        for index in range(partitions):
            own, *others = [side[index] for side in sides]
            reduce_groups += len(own[0]) + len(own[1])
            try:
                max_group = max(max_group, spec.reduce_task(own, others, reduced))
            except Exception as exc:  # noqa: BLE001 - reported with the task
                raise JobError(spec.name, "reduce", index, exc) from exc
        output = dict.fromkeys(reduced)

        stats = JobStats(
            name=spec.name,
            map_in=map_in,
            map_out=map_in,
            reduce_groups=reduce_groups,
            reduce_out=len(reduced),
            map_ms=(mapped_at - start) * 1000.0,
            reduce_ms=(time.perf_counter() - mapped_at) * 1000.0,
            partitions=partitions,
            max_group=max_group,
            cached_groups=cached_groups,
            warnings=spec.warnings,
        )
        self.stats_log.append(stats)
        return output, stats

