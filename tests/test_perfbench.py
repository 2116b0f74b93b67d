"""The benchmark's contract with the package, at the self-check's toy sizes.

``perfbench/`` imports the generators and built-in programs of
``wfsmr.bench``, builds ``EngineConfig(workers=..., partitions=...)`` and
patches named entry points of the package to trace them. Every workload runs
here through ``sample.measure`` in this process, untraced and traced, and
must answer right; the traced layer self times must add up to the solve,
and the counts that do not depend on the machine must stay as pinned.
"""
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import sample
    import selfcheck
    import tracing

    # the calibration handshake waits for perfbench/run.py on stdin
    monkeypatch.setattr(sample, "calibration_point", lambda: None)
    return sample, selfcheck, tracing


def test_every_workload_answers_right_untraced(perfbench):
    sample, selfcheck, _ = perfbench
    import wfsmr
    from wfsmr.program import parse_facts, parse_program

    for w in selfcheck.WORKLOADS.values():
        record, _, _ = sample.measure(selfcheck.toy(w), 1, parse_program, parse_facts, wfsmr.solve)
        assert record["problems"] == [], w.name


def test_every_workload_traced_adds_up(perfbench):
    sample, selfcheck, tracing = perfbench
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    for w in selfcheck.WORKLOADS.values():
        tracer = tracing.Tracer(w.name)
        with tracing.traced(tracer) as api:
            record, result, engine = sample.measure(selfcheck.toy(w), 1, *api)
        layers = tracing.layer_metrics(tracer, result, engine)
        assert record["problems"] == [], w.name
        assert set(layers) == declared, w.name
        assert tracing.unaccounted_s(layers) == pytest.approx(0.0, abs=1e-6), w.name


# jobs, map_in, shuffled, reduce_groups, reduce_out, fixpoint.derived,
# store.peak_facts and store.peak_live_sets at toy size; seeds 1 and 2 agree
PINNED_COUNTS = ("mapreduce.jobs", "mapreduce.map_in", "mapreduce.shuffled",
                 "mapreduce.reduce_groups", "mapreduce.reduce_out", "fixpoint.derived",
                 "store.peak_facts", "store.peak_live_sets")
PINNED = {
    "win-cycle": (2, 24, 24, 24, 12, 12, 24, 3),
    "win-cycle-par": (2, 24, 24, 24, 12, 12, 24, 3),
    "win-tree": (5, 27, 27, 34, 26, 14, 25, 3),
    "tc-chain": (13, 147, 147, 102, 63, 45, 45, 3),
}


def test_work_counts_are_pinned(perfbench):
    # a change that alters the work of a workload fails here and must
    # update these counts on purpose
    sample, selfcheck, tracing = perfbench
    assert set(PINNED) == set(selfcheck.WORKLOADS)
    for w in selfcheck.WORKLOADS.values():
        tracer = tracing.Tracer(w.name)
        with tracing.traced(tracer) as api:
            _, result, engine = sample.measure(selfcheck.toy(w), 1, *api)
        layers = tracing.layer_metrics(tracer, result, engine)
        assert tuple(layers[name][0] for name in PINNED_COUNTS) == PINNED[w.name], w.name
