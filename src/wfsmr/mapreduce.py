"""Embedded MapReduce engine: map over record streams, group by key, reduce.

A job applies a user map function to every input record, groups the emitted
key/value pairs by key, and calls the user reduce function exactly once per
distinct key. The output is the set of records emitted by all reduce calls,
so it is independent of worker and partition counts. Worker parallelism
runs on a thread pool; map tasks cover input splits, reduce tasks cover key
partitions, and a barrier separates the two phases. Keys are routed to
partitions with a platform-independent hash (crc32 over a canonical byte
encoding), so runs are reproducible everywhere.

Reduce groups larger than ``spill_threshold`` overflow their value lists to
temporary files; at desk scale this indicates a skewed key and is reported
in the job statistics.
"""
from __future__ import annotations

import gc
import pickle
import tempfile
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import ContextDecorator
from dataclasses import dataclass, replace
from pathlib import Path
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
Combiner = Callable[[Any, list], list]


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
    spilled_groups: int = 0
    warnings: tuple[str, ...] = ()

    def line(self) -> str:
        text = (
            f"{self.name} in={self.map_in} out={self.map_out} "
            f"groups={self.reduce_groups} reduced={self.reduce_out} "
            f"ms={self.wall_ms:.1f}"
        )
        if self.spilled_groups:
            text += f" spilled={self.spilled_groups}"
        for note in self.warnings:
            text += f" [{note}]"
        return text


@dataclass
class JobSpec:
    """One map/shuffle/reduce job.

    ``mapper`` takes a record and returns a list of key/value records;
    ``reducer`` takes a key and a single-pass iterable of values and returns
    a list of output records. Both must be pure with respect to the job
    input and safe to call concurrently on disjoint records. ``combiner``,
    when given, pre-aggregates map output per task and partition.
    """

    name: str
    mapper: Mapper
    reducer: Reducer
    inputs: Sequence[Iterable[Record]] = ()
    partitions: Optional[int] = None
    combiner: Optional[Combiner] = None
    warnings: tuple[str, ...] = ()


@dataclass
class EngineConfig:
    workers: int = 1
    partitions: int = 1
    spill_dir: Optional[str] = None
    spill_threshold: Optional[int] = None


class _SpilledValues:
    """Reduce-group value buffer whose overflow lives in a pickle file."""

    def __init__(self, head: list, spill_dir: Optional[str]):
        self._head = head
        self._file = tempfile.NamedTemporaryFile(
            prefix="wfsmr-spill-", suffix=".bin", dir=spill_dir, delete=False
        )
        self._count = len(head)

    def append(self, value: Any) -> None:
        pickle.dump(value, self._file)
        self._count += 1

    def finish(self) -> None:
        self._file.flush()
        self._file.close()

    def cleanup(self) -> None:
        Path(self._file.name).unlink(missing_ok=True)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        yield from self._head
        with open(self._file.name, "rb") as handle:
            while True:
                try:
                    yield pickle.load(handle)
                except EOFError:
                    break


class Engine:
    """In-process job runner with a reusable worker pool."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.config.partitions < 1:
            raise ValueError("partitions must be >= 1")
        self.stats_log: list[JobStats] = []
        self.jobs_run = 0
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.config.workers)
        return self._pool

    # -- job execution -----------------------------------------------------

    @gc_paused
    def run_job(self, spec: JobSpec) -> tuple[set, JobStats]:
        """Run one job; returns (output record set, stats)."""
        start = time.perf_counter()
        partitions = spec.partitions if spec.partitions is not None else self.config.partitions
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        workers = self.config.workers
        tasks = self._map_tasks(spec.inputs, workers)
        threshold = self.config.spill_threshold
        spilled: list[_SpilledValues] = []
        max_group = 0

        if (
            len(tasks) <= 1
            and partitions == 1
            and spec.combiner is None
            and threshold is None
        ):
            # serial single-partition jobs group while mapping: one pass
            groups, map_in, map_out = self._map_and_group(
                spec, tasks[0] if tasks else ()
            )
            groups_by_part = [groups]
        else:
            if workers > 1 and len(tasks) > 1:
                futures = [
                    self._executor().submit(self._run_map_task, spec, task, partitions)
                    for task in tasks
                ]
                map_results = [f.result() for f in futures]
            else:
                map_results = [self._run_map_task(spec, task, partitions) for task in tasks]

            map_in = sum(r[1] for r in map_results)
            map_out = sum(r[2] for r in map_results)

            # barrier: group per partition, merging task buckets in task order
            groups_by_part = [dict() for _ in range(partitions)]
            for buckets, _, _ in map_results:
                for part, bucket in enumerate(buckets):
                    groups = groups_by_part[part]
                    for key, value in bucket:
                        existing = groups.get(key)
                        if existing is None:
                            groups[key] = [value]
                        elif threshold is not None and len(existing) >= threshold:
                            if isinstance(existing, _SpilledValues):
                                existing.append(value)
                            else:
                                spill = _SpilledValues(existing, self.config.spill_dir)
                                spill.append(value)
                                groups[key] = spill
                                spilled.append(spill)
                        else:
                            existing.append(value)
            for spill in spilled:
                spill.finish()

        try:
            if workers > 1 and partitions > 1:
                futures = [
                    self._executor().submit(self._run_reduce_task, spec, groups)
                    for groups in groups_by_part
                    if groups
                ]
                reduce_results = [f.result() for f in futures]
            else:
                reduce_results = [
                    self._run_reduce_task(spec, groups) for groups in groups_by_part if groups
                ]
            output: set = set()
            reduce_groups = 0
            reduce_out = 0
            for out, ngroups, biggest in reduce_results:
                output.update(out)
                reduce_groups += ngroups
                reduce_out += len(out)
                max_group = max(max_group, biggest)
        finally:
            for spill in spilled:
                spill.cleanup()

        stats = JobStats(
            name=spec.name,
            map_in=map_in,
            map_out=map_out,
            reduce_groups=reduce_groups,
            reduce_out=reduce_out,
            wall_ms=(time.perf_counter() - start) * 1000.0,
            partitions=partitions,
            max_group=max_group,
            spilled_groups=len(spilled),
            warnings=spec.warnings,
        )
        self.stats_log.append(stats)
        self.jobs_run += 1
        return output, stats

    @staticmethod
    def _map_tasks(inputs: Sequence[Iterable[Record]], workers: int) -> list:
        if workers <= 1:
            return list(inputs)
        tasks = []
        for stream in inputs:
            data = stream if isinstance(stream, (list, tuple)) else list(stream)
            if len(data) <= 1:
                tasks.append(data)
                continue
            chunk = -(-len(data) // workers)  # ceil division
            tasks.extend(data[i : i + chunk] for i in range(0, len(data), chunk))
        return tasks

    @staticmethod
    def _map_and_group(spec: JobSpec, records: Iterable[Record]):
        groups: dict = {}
        n_in = 0
        n_out = 0
        for record in records:
            n_in += 1
            try:
                emitted = spec.mapper(record)
            except Exception as exc:  # noqa: BLE001 - reported with the record
                raise JobError(spec.name, "map", record, exc) from exc
            for out in emitted:
                n_out += 1
                key = out[0]
                existing = groups.get(key)
                if existing is None:
                    groups[key] = [out[1]]
                else:
                    existing.append(out[1])
        return groups, n_in, n_out

    @staticmethod
    def _run_map_task(spec: JobSpec, records: Iterable[Record], partitions: int):
        buckets: list[list] = [[] for _ in range(partitions)]
        n_in = 0
        n_out = 0
        if partitions == 1:
            bucket = buckets[0]
            for record in records:
                n_in += 1
                try:
                    emitted = spec.mapper(record)
                except Exception as exc:  # noqa: BLE001 - reported with the record
                    raise JobError(spec.name, "map", record, exc) from exc
                if emitted:
                    bucket.extend(emitted)
                    n_out += len(emitted)
        else:
            for record in records:
                n_in += 1
                try:
                    emitted = spec.mapper(record)
                except Exception as exc:  # noqa: BLE001
                    raise JobError(spec.name, "map", record, exc) from exc
                for out in emitted:
                    buckets[partition_for(out[0], partitions)].append(out)
                    n_out += 1
        if spec.combiner is not None:
            for part, bucket in enumerate(buckets):
                if not bucket:
                    continue
                local: dict = {}
                for key, value in bucket:
                    local.setdefault(key, []).append(value)
                combined = []
                for key, values in local.items():
                    try:
                        for value in spec.combiner(key, values):
                            combined.append((key, value))
                    except Exception as exc:  # noqa: BLE001
                        raise JobError(spec.name, "combine", key, exc) from exc
                buckets[part] = combined
        return buckets, n_in, n_out

    @staticmethod
    def _run_reduce_task(spec: JobSpec, groups: dict):
        out: list = []
        biggest = 0
        for key, values in groups.items():
            size = len(values)
            if size > biggest:
                biggest = size
            try:
                emitted = spec.reducer(key, values)
            except Exception as exc:  # noqa: BLE001
                raise JobError(spec.name, "reduce", key, exc) from exc
            if emitted:
                out.extend(emitted)
        return out, len(groups), biggest

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

    def combiner(key, values) -> list:
        return [sum(values)]

    return JobSpec(
        name="wordcount",
        mapper=mapper,
        reducer=reducer,
        inputs=[records],
        partitions=partitions,
        combiner=combiner,
    )


def wordcount(engine: Engine, lines: Iterable[str]) -> dict[str, int]:
    output, _ = engine.run_job(wordcount_job(lines))
    return dict(output)
