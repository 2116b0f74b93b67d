"""One benchmark sample, run in a fresh process so that its peak resident
memory is its own.

Usage: python3 perfbench/sample.py '<json spec>'. It prints "calibrate" at
each calibration point and waits for a line on stdin, which run.py sends
once it has timed its calibration loop.

The spec names the workload (its fields as in ``workloads.Workload``), the
seed, the CPUs to run on, whether to trace, and where to write the spans.
The sample generates the facts text, times parsing (setup) and
``wfsmr.solve`` with default options, each between two calibration points,
reads the peak resident memory, then checks the partition. It prints one
JSON line with its measurements and the problems it found.
"""
from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wfsmr  # noqa: E402
from wfsmr import Engine, EngineConfig  # noqa: E402
from wfsmr.program import parse_facts, parse_program  # noqa: E402

from workloads import Workload, generate, partition_digest, program_text, verify  # noqa: E402


def calibration_point() -> None:
    """Lets the benchmark process time its calibration loop now (see
    ``run.calibrate``) and waits until it has. The loop runs there, so it
    leaves this process's heap and peak memory alone."""
    print("calibrate", flush=True)
    sys.stdin.readline()


def peak_rss_kib() -> int:
    """This process's resident high-water mark since it started. VmHWM
    belongs to the address space made at exec, unlike ``ru_maxrss``, which
    also counts the parent's memory inherited at fork."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure(w: Workload, seed: int, parse_program, parse_facts, solve):
    """Returns the sample's record, the solver's result and its engine."""
    text, original = generate(w, seed)
    calibration_point()
    started = time.perf_counter()
    program = parse_program(program_text(w))
    facts = parse_facts(text)
    setup_s = time.perf_counter() - started
    del text
    calibration_point()
    engine = Engine(EngineConfig(workers=w.workers, partitions=w.partitions))
    try:
        started = time.perf_counter()
        result = solve(program, facts, engine=engine)
        solve_s = time.perf_counter() - started
    finally:
        engine.close()
    calibration_point()
    peak_rss_mb = peak_rss_kib() / 1024.0

    true_atoms = {(f.predicate, f.args) for f in result.true_facts.iter_facts()}
    undefined_atoms = {(f.predicate, f.args) for f in result.undefined_facts.iter_facts()}
    digest = None
    if w.digest is not None:
        digest = partition_digest(true_atoms, undefined_atoms, original)
    moves = [f.args for f in facts if f.predicate == "move"]
    stats = result.stats
    record = {
        "setup_wall_s": setup_s,
        "solve_wall_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "problems": verify(w, moves, true_atoms, undefined_atoms, digest),
        "digest": digest,
        # machine-independent counts: identical for every run and seed
        "counts": {
            "mapreduce.jobs": len(engine.stats_log),
            "mapreduce.shuffled": sum(s.map_out for s in engine.stats_log),
            "fixpoint.derived": stats.derived_facts,
            "fixpoint.steps": stats.inference_steps,
            "store.peak_facts": stats.peak_facts,
        },
    }
    return record, result, engine


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    os.sched_setaffinity(0, spec["cpus"])
    w = Workload(**spec["workload"])
    if spec["trace"]:
        from tracing import Tracer, layer_metrics, traced, unaccounted_s

        tracer = Tracer(spec["run_id"])
        with traced(tracer) as api:
            out, result, engine = measure(w, spec["seed"], *api)
        layers = layer_metrics(tracer, result, engine)
        gap = unaccounted_s(layers)
        if abs(gap) > 1e-6:
            out["problems"].append(f"layer self times miss the traced solve time by {gap:.3g} s")
        out["layers"] = layers
        tracer.write_jsonl(spec["spans_path"])
    else:
        out, _, _ = measure(w, spec["seed"], parse_program, parse_facts, wfsmr.solve)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
