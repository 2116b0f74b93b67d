"""Embedded MapReduce engine: map over record streams, group by key, reduce.

A job applies a user map function to every input record, groups the emitted
key/value pairs by key, and calls the user reduce function exactly once per
distinct key. The output is the set of records emitted by all reduce calls,
so it is independent of the partition count. Jobs run serially on the
calling thread: one loop maps and groups, then each distinct key is routed
to one of the engine's partitions by ``hash(key) % partitions``, and the
partitions are reduced in turn as the reduce tasks of the job. String
hashes are salted per process, so the routing, and with it the order of
the reduce calls, may differ between runs; the output set does not.

A job may also name a :class:`GroupedInput`: inputs that do not change
between the jobs that read them. The first such job maps and groups them
like its other inputs and keeps the groups, split by reduce task; later
jobs map only their other inputs and merge their groups into the kept ones
key by key as they reduce (the reducer-input cache of HaLoop, Bu et al.,
VLDB 2010). A job's ``map_in``/``map_out`` count only the records it
mapped itself.
"""
from __future__ import annotations

import gc
import threading
import time
from contextlib import ContextDecorator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

__all__ = [
    "Record",
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

Record = tuple  # (key, value)
Mapper = Callable[[Record], list]
Reducer = Callable[[Any, Iterable], list]


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
    max_group: int = 0
    cached_groups: int = 0  # reduce groups whose values came from a GroupedInput
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
    """Job inputs that are mapped and grouped once and then reused.

    The first job run with it maps ``inputs`` and keeps the groups in
    ``tasks``: per reduce task, one dict from key to its only value and one
    from key to a list of two or more values, so a group of one value holds
    no list. Later jobs reuse them as they are, so every job that names one
    holder must have the same mapper and partition count; the owner keys
    its holders by the job they serve.
    """

    __slots__ = ("inputs", "tasks", "groups", "records")

    def __init__(self, inputs: Sequence[Iterable[Record]]):
        self.inputs = inputs
        self.tasks: Optional[list[tuple[dict, dict]]] = None
        self.groups = 0  # distinct keys held
        self.records = 0  # values held


@dataclass
class JobSpec:
    """One map/shuffle/reduce job.

    ``mapper`` takes a record and returns a list of key/value records;
    ``reducer`` takes a key and the list of its values and returns a list of
    output records. Both must be pure with respect to the job input, and the
    reducer must not modify the values it is given: with ``grouped`` they
    may be the held values themselves.
    """

    name: str
    mapper: Mapper
    reducer: Reducer
    inputs: Sequence[Iterable[Record]] = ()
    warnings: tuple[str, ...] = ()
    grouped: Optional[GroupedInput] = None


@dataclass
class EngineConfig:
    # ``workers`` is validated but changes nothing: jobs run on the calling
    # thread. It stays only because the benchmark (perfbench/sample.py)
    # passes it; removing it waits for the next change to the benchmark.
    workers: int = 1
    partitions: int = 1


def _map_and_group(spec: JobSpec, inputs: Iterable[Iterable[Record]], counts: list) -> dict:
    """Map every record of ``inputs`` and group the emitted values by key;
    adds the records mapped and the pairs emitted to ``counts``."""
    mapper = spec.mapper
    groups: dict = {}
    map_in = 0
    map_out = 0
    for records in inputs:
        for record in records:
            map_in += 1
            try:
                emitted = mapper(record)
            except Exception as exc:  # noqa: BLE001 - reported with the record
                raise JobError(spec.name, "map", record, exc) from exc
            for out in emitted:
                map_out += 1
                key = out[0]
                existing = groups.get(key)
                if existing is None:
                    groups[key] = [out[1]]
                else:
                    existing.append(out[1])
    counts[0] += map_in
    counts[1] += map_out
    return groups


def _split(groups: dict, partitions: int) -> list[dict]:
    """The shuffle: each distinct key goes to one reduce task. Held and
    fresh groups of a job are split in the same process, so equal keys meet."""
    if partitions == 1:
        return [groups]
    tasks: list[dict] = [{} for _ in range(partitions)]
    for key, values in groups.items():
        tasks[hash(key) % partitions][key] = values
    return tasks


def _compact(groups: dict) -> tuple[dict, dict]:
    """Groups split into (key -> its only value, key -> values)."""
    single: dict = {}
    multi: dict = {}
    for key, values in groups.items():
        if len(values) == 1:
            single[key] = values[0]
        else:
            multi[key] = values
    return single, multi


def _merged(held: tuple[dict, dict], fresh: dict) -> Iterator[tuple[Any, list]]:
    """The groups of one reduce task: each held group with the fresh values
    of its key appended (in a list that lives for one reduce call), then the
    fresh groups of keys not held. Consumes ``fresh``."""
    single, multi = held
    for key, value in single.items():
        more = fresh.pop(key, None)
        yield key, [value] if more is None else [value, *more]
    for key, values in multi.items():
        more = fresh.pop(key, None)
        yield key, values if more is None else values + more
    yield from fresh.items()


class Engine:
    """In-process job runner that keeps the statistics of every job it ran."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.config.partitions < 1:
            raise ValueError("partitions must be >= 1")
        self.stats_log: list[JobStats] = []
        self.jobs_run = 0

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
        start = time.perf_counter()
        partitions = self.config.partitions
        counts = [0, 0]  # records mapped, key/value pairs emitted
        held = spec.grouped
        cached_groups = 0
        if held is not None:
            if held.tasks is None:
                groups = _map_and_group(spec, held.inputs, counts)
                held.tasks = [_compact(task) for task in _split(groups, partitions)]
                held.inputs = ()
                held.groups = len(groups)
                held.records = counts[1]
            elif len(held.tasks) != partitions:
                raise ValueError(
                    f"job '{spec.name}': grouped input has {len(held.tasks)} reduce tasks, "
                    f"the engine {partitions}"
                )
            else:
                cached_groups = held.groups
        tasks = _split(_map_and_group(spec, spec.inputs, counts), partitions)

        reducer = spec.reducer
        reduced: list = []
        reduce_groups = 0
        max_group = 0
        for index, fresh in enumerate(tasks):
            groups = fresh.items() if held is None else _merged(held.tasks[index], fresh)
            for key, values in groups:
                reduce_groups += 1
                if len(values) > max_group:
                    max_group = len(values)
                try:
                    emitted = reducer(key, values)
                except Exception as exc:  # noqa: BLE001 - reported with the key
                    raise JobError(spec.name, "reduce", key, exc) from exc
                if emitted:
                    reduced.extend(emitted)
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
        self.jobs_run += 1
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
    records = [(i, line) for i, line in enumerate(lines)]

    def mapper(record: Record) -> list:
        return [(word, 1) for word in _WORD_RE.findall(record[1])]

    def reducer(key, values) -> list:
        return [(key, sum(values))]

    return JobSpec(
        name="wordcount",
        mapper=mapper,
        reducer=reducer,
        inputs=[records],
    )


def wordcount(engine: Engine, lines: Iterable[str]) -> dict[str, int]:
    output, _ = engine.run_job(wordcount_job(lines))
    return dict(output)
