"""Embedded MapReduce engine: map over record streams, group by key, reduce.

A job applies a user map function to every input record, groups the emitted
key/value pairs by key, and calls the user reduce function exactly once per
distinct key. The output is the set of records emitted by all reduce calls,
so it is independent of worker and partition counts. Jobs run serially on
the calling thread: one loop maps and groups, then each distinct key is
routed to one of the job's partitions, and the partitions are reduced in
turn as the reduce tasks of the job. Keys are routed with a
platform-independent hash (crc32 over a canonical byte encoding), so runs
are reproducible everywhere.
"""
from __future__ import annotations

import gc
import threading
import time
import zlib
from contextlib import ContextDecorator
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "Record",
    "JobSpec",
    "JobStats",
    "JobError",
    "PipelineError",
    "EngineConfig",
    "Engine",
    "encode_key",
    "partition_for",
    "wordcount_job",
    "wordcount",
    "gc_paused",
]

Record = tuple  # (key, value)
Mapper = Callable[[Record], list]
Reducer = Callable[[Any, Iterable], list]


class _CollectorPause(ContextDecorator):
    """Pauses the cycle collector (job data and fact sets are acyclic, so it
    would only add full-heap scans). Overlapping users, nested or on other
    threads, share one pause: the first to enter saves the collector's
    state and the last to leave restores it."""

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


class PipelineError(RuntimeError):
    def __init__(self, stage: int, job: str, cause: BaseException):
        super().__init__(f"pipeline stage {stage} (job '{job}') failed: {cause}")
        self.stage = stage
        self.job = job
        self.cause = cause


def encode_key(key: Any) -> bytes:
    """Canonical byte encoding for shuffle keys (ints, strings, tuples, None)."""
    if isinstance(key, int):
        return b"i%d" % key
    if isinstance(key, str):
        return b"s" + key.encode("utf-8")
    if isinstance(key, tuple):
        return b"(" + b",".join(encode_key(k) for k in key) + b")"
    if key is None:
        return b"n"
    if isinstance(key, bytes):
        return b"b" + key
    raise TypeError(f"unsupported key type: {type(key).__name__}")


def partition_for(key: Any, partitions: int) -> int:
    return zlib.crc32(encode_key(key)) % partitions


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
    warnings: tuple[str, ...] = ()

    def line(self) -> str:
        text = (
            f"{self.name} in={self.map_in} out={self.map_out} "
            f"groups={self.reduce_groups} reduced={self.reduce_out} "
            f"ms={self.wall_ms:.1f}"
        )
        for note in self.warnings:
            text += f" [{note}]"
        return text


@dataclass
class JobSpec:
    """One map/shuffle/reduce job.

    ``mapper`` takes a record and returns a list of key/value records;
    ``reducer`` takes a key and the list of its values and returns a list of
    output records. Both must be pure with respect to the job input.
    """

    name: str
    mapper: Mapper
    reducer: Reducer
    inputs: Sequence[Iterable[Record]] = ()
    partitions: Optional[int] = None
    warnings: tuple[str, ...] = ()


@dataclass
class EngineConfig:
    # ``workers`` is validated and kept for callers that size their
    # partitions from it; jobs run on the calling thread either way.
    workers: int = 1
    partitions: int = 1


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
        partitions = spec.partitions if spec.partitions is not None else self.config.partitions
        if partitions < 1:
            raise ValueError("partitions must be >= 1")

        mapper = spec.mapper
        groups: dict = {}
        map_in = 0
        map_out = 0
        for records in spec.inputs:
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

        # shuffle: each distinct key goes to one reduce task
        if partitions == 1:
            tasks = [groups.items()]
        else:
            tasks = [[] for _ in range(partitions)]
            for item in groups.items():
                tasks[partition_for(item[0], partitions)].append(item)

        reducer = spec.reducer
        reduced: list = []
        max_group = 0
        for task in tasks:
            for key, values in task:
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
            map_in=map_in,
            map_out=map_out,
            reduce_groups=len(groups),
            reduce_out=len(reduced),
            wall_ms=(time.perf_counter() - start) * 1000.0,
            partitions=partitions,
            max_group=max_group,
            warnings=spec.warnings,
        )
        self.stats_log.append(stats)
        self.jobs_run += 1
        return output, stats

    def run_pipeline(
        self,
        specs: Sequence[JobSpec],
        inputs: Optional[Iterable[Record]] = None,
    ) -> tuple[set, list[JobStats]]:
        """Run jobs left to right, feeding each stage's output record set to
        the next stage alongside the stage's own declared inputs.

        With no stages the seed input is returned unchanged (as a set).
        """
        stats: list[JobStats] = []
        current: Optional[Iterable[Record]] = inputs
        if not specs:
            return set(current) if current is not None else set(), stats
        result: set = set()
        for index, spec in enumerate(specs):
            job_inputs = list(spec.inputs)
            if current is not None:
                job_inputs.append(current)
            try:
                result, job_stats = self.run_job(replace(spec, inputs=job_inputs))
            except JobError as exc:
                raise PipelineError(index, spec.name, exc) from exc
            stats.append(job_stats)
            current = result
        return result, stats

    def stats_lines(self) -> list[str]:
        return [stats.line() for stats in self.stats_log]


# ---------------------------------------------------------------------------
# Smoke-test job
# ---------------------------------------------------------------------------

import re as _re

_WORD_RE = _re.compile(r"[A-Za-z0-9_]+")


def wordcount_job(lines: Iterable[str], partitions: Optional[int] = None) -> JobSpec:
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
        partitions=partitions,
    )


def wordcount(engine: Engine, lines: Iterable[str]) -> dict[str, int]:
    output, _ = engine.run_job(wordcount_job(lines))
    return dict(output)
