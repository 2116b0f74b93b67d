"""Embedded MapReduce engine: map each input, co-group by key, reduce.

A job reads one or more inputs, each a record stream with its own map
function. The engine maps every record, groups the emitted key/value pairs
by key separately for each input, and calls the user reduce function
exactly once per distinct key of input 0 as ``reducer(key, groups)``:
``groups[i]`` holds the values input ``i`` emitted under the key and is
empty when that input emitted none. A key that only a later input emitted
is never reduced. The output is the set of records emitted by all reduce
calls, so it is independent of the partition count. Jobs run serially on
the calling thread: one loop maps and groups, then each distinct key is
routed to one of the engine's partitions by ``hash(key) % partitions``,
and the partitions are reduced in turn as the reduce tasks of the job.
String hashes are salted per process, so the routing, and with it the
order of the reduce calls, may differ between runs; the output does not.

This departs from the reduce-side joins of Hadoop that the source paper
runs, where all inputs share one map function, the keys of every input are
reduced, and each record carries a tag naming its relation so that the
reducer can split a key's values by tag. The engine knows which input each
value came from, so no record is tagged.

An input may also be a :class:`GroupedInput`: one that does not change
between the jobs that read it. The first such job maps and groups it like
any other input and keeps its groups, split by reduce task; later jobs
reuse them without mapping it again (the reducer-input cache of HaLoop, Bu
et al., VLDB 2010). Held values form their own input's groups, so they are
never copied or appended to; after slot 0, only the keys input 0 emitted
are looked up in them. A job's ``map_in``/``map_out`` count only the
records it mapped itself.
"""
from __future__ import annotations

import gc
import threading
import time
from contextlib import ContextDecorator
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterable, Optional, Sequence, Union

__all__ = [
    "GroupedInput",
    "JobSpec",
    "JobStats",
    "JobError",
    "EngineConfig",
    "Engine",
    "wordcount_job",
    "wordcount",
    "gc_paused",
]

Mapper = Callable[[Any], list]
# an input's groups: (key -> its only value, key -> its two or more values)
Groups = tuple[dict, dict]
Reducer = Callable[[Any, Sequence[Sequence]], Iterable]


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
                if gc.get_count()[0] > gc.get_threshold()[0]:
                    gc.collect(0)
                gc.enable()


gc_paused = _CollectorPause()


class JobError(RuntimeError):
    """A user map or reduce function failed; identifies the offending item."""

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
    map_out: int = 0
    reduce_groups: int = 0
    reduce_out: int = 0
    wall_ms: float = 0.0
    partitions: int = 1
    max_group: int = 0  # values in the largest reduced group, all inputs
    cached_groups: int = 0  # distinct keys of the held inputs reused without mapping
    warnings: tuple[str, ...] = ()

    def line(self) -> str:
        text = (
            f"{self.name} in={self.map_in} out={self.map_out} "
            f"groups={self.reduce_groups} cached={self.cached_groups} "
            f"reduced={self.reduce_out} ms={self.wall_ms:.1f}"
        )
        for note in self.warnings:
            text += f" [{note}]"
        return text


class GroupedInput:
    """One job input that is mapped and grouped once and then reused.

    The first job run with it maps ``records`` through ``mapper`` and keeps
    the groups in ``tasks``: per reduce task, one dict from key to its only
    value and one from key to a list of two or more values, so a group of
    one value holds no list. Later jobs reuse them as they are, so every job
    that names one holder must have the same partition count; the owner
    keys its holders by the job input they serve.
    """

    __slots__ = ("mapper", "records", "tasks", "groups", "values")

    def __init__(self, mapper: Mapper, records: Iterable):
        self.mapper = mapper
        self.records = records
        self.tasks: Optional[list[Groups]] = None
        self.groups = 0  # distinct keys held
        self.values = 0  # values held


Input = Union[tuple[Mapper, Iterable], GroupedInput]


@dataclass
class JobSpec:
    """One map/shuffle/reduce job.

    Each input is a ``(mapper, records)`` pair or a :class:`GroupedInput`;
    a job needs one at least. A mapper takes a record and returns a list of
    key/value records; ``reducer`` takes a key that input 0 emitted and,
    per input, the sequence of values that input emitted under it, and
    returns an iterable of output records.
    Both must be pure with respect to the job input, and the reducer must
    not modify the sequences it is given: those of a ``GroupedInput`` are
    the held ones.
    """

    name: str
    reducer: Reducer
    inputs: Sequence[Input]
    warnings: tuple[str, ...] = ()


@dataclass
class EngineConfig:
    # ``workers`` is validated but changes nothing: jobs run on the calling
    # thread. It stays only because the benchmark (perfbench/sample.py)
    # passes it; removing it waits for the next change to the benchmark.
    workers: int = 1
    partitions: int = 1


_MISSING = object()


def _map_and_group(name: str, mapper: Mapper, records: Iterable, counts: list) -> Groups:
    """Map every record of one input and group the emitted values by key;
    adds the records mapped and the pairs emitted to ``counts``."""
    single: dict = {}
    multi: dict = {}
    map_in = 0
    map_out = 0
    for record in records:
        map_in += 1
        try:
            emitted = mapper(record)
        except Exception as exc:  # noqa: BLE001 - reported with the record
            raise JobError(name, "map", record, exc) from exc
        for key, value in emitted:
            map_out += 1
            values = multi.get(key)
            if values is not None:
                values.append(value)
            elif key in single:
                multi[key] = [single.pop(key), value]
            else:
                single[key] = value
    counts[0] += map_in
    counts[1] += map_out
    return single, multi


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

    # -- lifecycle: the engine holds no resources --------------------------

    def close(self) -> None:
        pass

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- job execution -----------------------------------------------------

    @gc_paused
    def run_job(self, spec: JobSpec) -> tuple[set, JobStats]:
        """Run one job; returns (output record set, stats)."""
        if not spec.inputs:
            raise ValueError(f"job '{spec.name}' has no inputs")
        start = time.perf_counter()
        partitions = self.config.partitions
        counts = [0, 0]  # records mapped, key/value pairs emitted
        cached_groups = 0
        sides: list[list[Groups]] = []  # per input, per reduce task
        for source in spec.inputs:
            if not isinstance(source, GroupedInput):
                sides.append(_split(_map_and_group(spec.name, *source, counts), partitions))
                continue
            if source.tasks is None:
                before = counts[1]
                single, multi = _map_and_group(spec.name, source.mapper, source.records, counts)
                source.tasks = _split((single, multi), partitions)
                source.records = ()
                source.groups = len(single) + len(multi)
                source.values = counts[1] - before
            elif len(source.tasks) != partitions:
                raise ValueError(
                    f"job '{spec.name}': grouped input has {len(source.tasks)} reduce tasks, "
                    f"the engine {partitions}"
                )
            else:
                cached_groups += source.groups
            sides.append(source.tasks)

        reducer = spec.reducer
        reduced: list = []
        reduce_groups = 0
        max_group = 0
        for index in range(partitions):
            (single, multi), *others = [side[index] for side in sides]
            # a single value comes as a 1-tuple, made by zip
            for key, own in chain(zip(single, zip(single.values())), multi.items()):
                groups = [own]
                size = len(own)
                for one, many in others:
                    value = one.get(key, _MISSING)
                    values = many.get(key, ()) if value is _MISSING else (value,)
                    groups.append(values)
                    size += len(values)
                reduce_groups += 1
                if size > max_group:
                    max_group = size
                try:
                    reduced.extend(reducer(key, groups))
                except Exception as exc:  # noqa: BLE001 - reported with the key
                    raise JobError(spec.name, "reduce", key, exc) from exc
        output = set(reduced)

        stats = JobStats(
            name=spec.name,
            map_in=counts[0],
            map_out=counts[1],
            reduce_groups=reduce_groups,
            reduce_out=len(reduced),
            wall_ms=(time.perf_counter() - start) * 1000.0,
            partitions=partitions,
            max_group=max_group,
            cached_groups=cached_groups,
            warnings=spec.warnings,
        )
        self.stats_log.append(stats)
        return output, stats

    def stats_lines(self) -> list[str]:
        return [stats.line() for stats in self.stats_log]


# ---------------------------------------------------------------------------
# Smoke-test job
# ---------------------------------------------------------------------------

import re as _re

_WORD_RE = _re.compile(r"[A-Za-z0-9_]+")


def wordcount_job(lines: Iterable[str]) -> JobSpec:
    """Word-frequency job over text lines: the canonical engine smoke test."""

    def mapper(line: str) -> list:
        return [(word, 1) for word in _WORD_RE.findall(line)]

    def reducer(key, groups) -> list:
        return [(key, sum(groups[0]))]

    return JobSpec(name="wordcount", reducer=reducer, inputs=[(mapper, lines)])


def wordcount(engine: Engine, lines: Iterable[str]) -> dict[str, int]:
    output, _ = engine.run_job(wordcount_job(lines))
    return dict(output)
