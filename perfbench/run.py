"""The wfsmr benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload win-cycle --seed 1 --seconds 25 --trace 0

Each sample runs in a fresh process (``sample.py``): it generates the
workload's facts text from the seed, times ``parse_program`` plus
``parse_facts`` (``setup_s``) and ``wfsmr.solve`` with default options
(``solve_s``), reads its peak resident memory (``peak_rss_mb``) and checks
the partition. Samples repeat until the next one would end after
``--seconds`` (at least three are taken). The run reports the median of each
metric over the samples that passed; a sample that fails or answers wrongly
counts in ``failed`` and makes the run incorrect.

Times are wall times scaled to a reference speed. On a shared 2-vCPU
virtual machine the CPU speed seen by a process drifted by up to 2x over
seconds to tens of seconds, so medians of raw wall time differed by 15-40%
between 25-second runs. So each sample is pinned to one CPU per engine
worker, and at three points (before setup, between setup and solve, after
solve) this process times a fixed calibration loop (``calibrate``) on those
CPUs while the sample waits. Each region's wall time is divided by its
slowdown: the mean loop time at its two ends over ``CALIBRATION_S``. The
loop runs in this process, so it touches neither the sample's heap nor its
peak memory. Raw wall times and slowdowns stay in the record.

With ``--trace 1`` the run adds one traced sample after the untraced ones
and reports its per-layer numbers instead; ``trace.overhead_s`` is its solve
time minus the untraced median. End-to-end numbers come only from untraced
samples.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The raw samples,
the environment and each workload's rationale go to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``, and the spans
of a traced sample to ``...-spans.jsonl`` beside it.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
END_TO_END = (("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_SAMPLES = 3
CALIBRATION_S = 0.025  # calibrate() time at the reference speed
RUN_LIMIT_S = 170  # a run must end within 180 s


def summarize(values: list[float]) -> dict:
    """Median and quartiles with the sample count, plus the highest of p75,
    p90 and p99 that has at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work shaped like the
    solver's: build a set of 40,000 int pairs, group it in a dict, take a set
    difference. It runs in this process, which holds no wfsmr code or data,
    with the cycle collector off, so only the speed of the machine at that
    moment changes its time. Paired on the same win-cycle samples, run
    medians scaled by this loop spread by 3-5%, by a loop over a small fixed
    table by 7-9%, unscaled by 15-24%."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        pairs = {(i * 2654435761 & 0xFFFFF, i & 7) for i in range(40_000)}
        groups: dict = {}
        for pair in pairs:
            groups.setdefault(pair[1], []).append(pair)
        pairs - {(i * 40503 & 0xFFFFF, i & 7) for i in range(40_000)}
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def sample_cpus(w: Workload) -> list[int]:
    """CPUs a sample of ``w`` is pinned to: one per engine worker, the last
    ones allowed (the first tends to take more interrupts). The calibration
    loop runs on the same CPUs, so it measures the speed of the CPUs the
    solver runs on; on a 2-vCPU machine pinning halved the spread of
    win-cycle solve_s."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-w.workers:]


def calibrate_on(cpus: list[int]) -> float:
    """Mean calibration time over ``cpus``, running on each in turn."""
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate())
        return sum(times) / len(times)
    finally:
        os.sched_setaffinity(0, allowed)


def run_sample(
    w: Workload, seed: int, trace: bool, run_id: str, timeout: float, results_dir: Path
) -> dict:
    """One sample in a child process; returns its measurements, with
    ``problems`` listing why it failed (empty when it passed)."""
    spec = {
        "workload": dataclasses.asdict(w),
        "seed": seed,
        "trace": trace,
        "run_id": run_id,
        "cpus": sample_cpus(w),
        "spans_path": str(results_dir / f"{run_id}-spans.jsonl"),
    }
    # string hashing is seeded too, so a seed fixes the whole sample
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    last = ""
    calibrations: list[float] = []
    with subprocess.Popen(
        [sys.executable, str(HERE / "sample.py"), json.dumps(spec)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=ROOT,
    ) as proc:
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if line == "calibrate\n":
                    calibrations.append(calibrate_on(spec["cpus"]))
                    try:
                        proc.stdin.write("\n")
                        proc.stdin.flush()
                    except BrokenPipeError:
                        pass  # the sample died; its exit code reports it
                elif line.strip():
                    last = line
            proc.wait()
        finally:
            timer.cancel()
    if proc.returncode != 0:
        return {"problems": [f"sample exited with {proc.returncode}: {last.strip()}"]}
    try:
        sample = json.loads(last)
    except ValueError:
        return {"problems": [f"sample printed no result: {last.strip()}"]}
    # calibration points: before setup, between setup and solve, after solve
    before, between, after = calibrations
    sample["setup_slowdown"] = (before + between) / 2 / CALIBRATION_S
    sample["solve_slowdown"] = (between + after) / 2 / CALIBRATION_S
    sample["setup_s"] = sample["setup_wall_s"] / sample["setup_slowdown"]
    sample["solve_s"] = sample["solve_wall_s"] / sample["solve_slowdown"]
    return sample


def git_sha() -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(w: Workload, seed: int, seconds: float, trace: bool, results_dir: Path = RESULTS) -> dict:
    """Measure one workload, write its record and return it; the record's
    ``result`` is the object the run prints last."""
    results_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{w.name}-seed{seed}-trace{int(trace)}"
    started = time.perf_counter()
    samples: list[dict] = []
    while True:
        t0 = time.perf_counter()
        samples.append(
            run_sample(w, seed, False, run_id, RUN_LIMIT_S - (t0 - started), results_dir)
        )
        took = time.perf_counter() - t0
        # stop before the next sample would end after ``seconds``, or after
        # half the run limit even short of MIN_SAMPLES
        end = time.perf_counter() - started + took
        if end > seconds and len(samples) >= MIN_SAMPLES or end > RUN_LIMIT_S / 2:
            break
    if trace:
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        samples.append(run_sample(w, seed, True, run_id, remaining, results_dir))
        samples[-1]["traced"] = True

    # every sample must agree with the first on the machine-independent counts
    reference = next((s["counts"] for s in samples if "counts" in s), None)
    for s in samples:
        if "counts" in s and s["counts"] != reference:
            s["problems"].append(f"counts {s['counts']} differ from {reference}")
    good = [s for s in samples if not s["problems"]]
    untraced = [s for s in good if not s.get("traced")]
    failed = len(samples) - len(good)
    summary = {
        name: summarize([s[name] for s in untraced]) if untraced else None
        for name in ("solve_s", "setup_s", "peak_rss_mb", "solve_wall_s", "setup_wall_s",
                     "setup_slowdown", "solve_slowdown")
    }

    metrics: dict[str, dict] = {}
    if not trace:
        for name, unit in END_TO_END:
            value = summary[name]["median"] if summary[name] else None
            metrics[name] = {"value": value, "unit": unit}
    else:
        traced = samples[-1]
        for name, (value, unit) in traced.get("layers", {}).items():
            if unit == "s":  # parsing runs in the setup region, the rest in solve
                region = "setup" if name.startswith("program.") else "solve"
                value /= traced[f"{region}_slowdown"]
            metrics[name] = {"value": value, "unit": unit}
        if "layers" in traced and summary["solve_s"]:
            overhead = metrics["trace.solve_s"]["value"] - summary["solve_s"]["median"]
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": dataclasses.asdict(w),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
        "error_rate": failed / len(samples),
        "summary": summary,
        "samples": samples,
        "result": result,
    }
    (results_dir / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wfsmr" / "__init__.py").is_file():
        print(f"no wfsmr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    record = run(w, args.seed, args.seconds, bool(args.trace))
    result = record["result"]
    for name, stats in record["summary"].items():
        print(f"{name}: {json.dumps(stats)}")
    for s in record["samples"]:
        for problem in s["problems"]:
            print(f"failed sample: {problem}")
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={record['error_rate']:.3f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
