"""Spans around the calls into each wfsmr layer, and the per-layer numbers
derived from them.

The benchmark records spans from its own code: ``traced`` wraps the public
entry points of each module for the duration of one sample and restores
them afterwards. A span is (name, start, end, parent, job); spans of one
sample share the tracer's run id. Spans stay in memory and are written out
as JSON lines when the sample ends. All traced calls happen on the calling
thread (the engine's pool threads only run map and reduce functions), so one
span stack is enough.
"""
from __future__ import annotations

import functools
import json
import re
import time
from contextlib import contextmanager
from typing import Callable, Optional

import wfsmr
from wfsmr import fixpoint, program
from wfsmr.mapreduce import Engine
from wfsmr.store import Database

ALGEBRA = ("difference", "update", "copy", "issubset", "same_content")
JOB_KINDS = ("join", "antijoin", "dedup", "goal", "head")

# span name -> layer whose self time it counts toward
LAYER = {
    "program.parse_program": "program",
    "program.parse_facts": "program",
    "fixpoint.solve": "fixpoint",
    "fixpoint.least_fixpoint": "fixpoint",
    "fixpoint.least_fixpoint_delta": "fixpoint",
    "store.insert_many": "store.load",
    "planner.compile_program": "planner",
    "operators.eval_rule": "operators",
    "mapreduce.run_job": "mapreduce",
    **{f"store.{name}": "store.algebra" for name in ALGEBRA},
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, job name]
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, job: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, job(args) if job else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                record = {"run": self.run_id, "id": index, "name": name, "start": start,
                          "end": end, "parent": parent}
                if job is not None:
                    record["job"] = job
                handle.write(json.dumps(record) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


@contextmanager
def traced(tracer: Tracer):
    """Patch the layer entry points for the duration of the block; yields
    traced ``parse_program``, ``parse_facts`` and ``solve`` for the caller."""
    patches = [
        (fixpoint, "compile_program", "planner.compile_program", None),
        (fixpoint, "eval_rule", "operators.eval_rule", None),
        (fixpoint, "least_fixpoint", "fixpoint.least_fixpoint", None),
        (fixpoint, "least_fixpoint_delta", "fixpoint.least_fixpoint_delta", None),
        (Engine, "run_job", "mapreduce.run_job", lambda args: args[1].name),
        (Database, "insert_many", "store.insert_many", None),
        *((Database, name, f"store.{name}", None) for name in ALGEBRA),
    ]
    saved = []
    for owner, attr, name, job in patches:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, job))
    try:
        yield (
            tracer.wrap("program.parse_program", program.parse_program),
            tracer.wrap("program.parse_facts", program.parse_facts),
            tracer.wrap("fixpoint.solve", wfsmr.solve),
        )
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def job_kind(job_name: str) -> str:
    """``tc:dedup2`` -> ``dedup``: the suffix after the last ':' without digits."""
    return re.sub(r"\d+", "", job_name.rsplit(":", 1)[-1])


def layer_metrics(tracer: Tracer, result, engine: Engine) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced sample, as name -> (value, unit).

    Layer times are span self times, job times included (from the
    ``run_job`` spans, not the job log), so the six layer times inside the
    solve span add up to ``trace.solve_s`` (see ``unaccounted_s``). Record
    counts come from the engine's job log and driver counts from
    ``SolveStats``."""
    spans = tracer.spans
    own = tracer.self_times()
    layer_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, _, _, _, _), t in zip(spans, own):
        layer = LAYER[name]
        layer_s[layer] = layer_s.get(layer, 0.0) + t
        calls[name] = calls.get(name, 0) + 1

    def total(name: str) -> float:
        return sum(end - start for n, start, end, _, _ in spans if n == name)

    kind_jobs = dict.fromkeys(JOB_KINDS, 0)
    kind_s = dict.fromkeys(JOB_KINDS, 0.0)
    for job in engine.stats_log:
        kind = job_kind(job.name)
        kind_jobs[kind] = kind_jobs.get(kind, 0) + 1
    for (name, _, _, _, job), t in zip(spans, own):
        if name == "mapreduce.run_job":
            kind = job_kind(job)
            kind_s[kind] = kind_s.get(kind, 0.0) + t

    log = engine.stats_log
    stats = result.stats
    jobs = len(log)
    evals = calls.get("operators.eval_rule", 0)
    new_facts = sum(step.new_facts for step in stats.steps)
    metrics: dict[str, tuple[float, str]] = {
        "program.parse_facts_s": (total("program.parse_facts"), "s"),
        "store.load_s": (layer_s.get("store.load", 0.0), "s"),
        "store.algebra_s": (layer_s.get("store.algebra", 0.0), "s"),
        "store.algebra_calls": (sum(calls.get(f"store.{n}", 0) for n in ALGEBRA), "count"),
        "store.peak_facts": (stats.peak_facts, "count"),
        "store.peak_live_sets": (stats.peak_live_sets, "count"),
        "planner.compile_s": (layer_s.get("planner", 0.0), "s"),
        "planner.jobs_per_eval": (jobs / evals if evals else 0.0, "jobs/call"),
        "operators.eval_calls": (evals, "count"),
        "operators.eval_s": (total("operators.eval_rule"), "s"),
        "operators.self_s": (layer_s.get("operators", 0.0), "s"),
        "mapreduce.jobs": (jobs, "count"),
        "mapreduce.job_s": (layer_s.get("mapreduce", 0.0), "s"),
        "mapreduce.map_in": (sum(s.map_in for s in log), "count"),
        "mapreduce.shuffled": (sum(s.map_out for s in log), "count"),
        "mapreduce.reduce_groups": (sum(s.reduce_groups for s in log), "count"),
        "mapreduce.reduce_out": (sum(s.reduce_out for s in log), "count"),
        "mapreduce.max_group": (max((s.max_group for s in log), default=0), "count"),
        **{f"mapreduce.jobs.{k}": (n, "count") for k, n in kind_jobs.items()},
        **{f"mapreduce.job_s.{k}": (t, "s") for k, t in kind_s.items()},
        "fixpoint.steps": (stats.inference_steps, "count"),
        "fixpoint.lfp_calls": (stats.lfp_calls, "count"),
        "fixpoint.inner_rounds": (sum(step.inner_iterations for step in stats.steps), "count"),
        "fixpoint.derived": (stats.derived_facts, "count"),
        "fixpoint.useful_ratio": (new_facts / stats.derived_facts if stats.derived_facts else 0.0,
                                  "ratio"),
        "fixpoint.self_s": (layer_s.get("fixpoint", 0.0), "s"),
        "trace.solve_s": (total("fixpoint.solve"), "s"),
    }
    return metrics


def unaccounted_s(metrics: dict[str, tuple[float, str]]) -> float:
    """Traced solve time minus the layer self times inside it (0 up to rounding)."""
    inside = ("fixpoint.self_s", "store.load_s", "store.algebra_s", "planner.compile_s",
              "operators.self_s", "mapreduce.job_s")
    return metrics["trace.solve_s"][0] - sum(metrics[name][0] for name in inside)
