"""The benchmark's contract with the package, at the self-check's toy sizes.

``perfbench/`` imports the generators and built-in programs of
``wfsmr.bench``, builds ``EngineConfig(workers=..., partitions=...)`` and
patches named entry points of the package to trace them. Every workload runs
here through ``sample.measure`` in this process, untraced and traced, and
must answer right; the traced layer self times must add up to the solve.
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
