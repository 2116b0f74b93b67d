"""Self-check of the benchmark at toy size.

Usage, from the root of a checkout: python3 perfbench/selfcheck.py

1. Every workload runs at toy size, untraced and traced, passes its checks
   against expectations from the brute-force oracle ``ground_afp``, and
   emits exactly the metric names and units that BENCHMARK.json lists.
2. The machine-independent counts are the same for two seeds.
3. The verifier rejects tampered partitions: one caught by the counts, one
   by backward induction, one by the partition digest.

Prints "selfcheck ok" and exits 0 when every check holds.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from wfsmr import solve  # noqa: E402
from wfsmr.oracle import ground_afp  # noqa: E402
from wfsmr.program import parse_facts, parse_program  # noqa: E402

import run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Workload, edges, generate, partition_digest, program_text, verify,
)

TOY = {
    "win-cycle": {"n": 12},
    "win-tree": {"n": 7},
    "tc-chain": {"n": 12, "k": 3},
    "win-cycle-par": {"n": 12},
}
class SelfCheckError(Exception):
    pass


def expect(ok: bool, what) -> None:
    if not ok:
        raise SelfCheckError(what)


COUNTS = ("mapreduce.jobs", "mapreduce.shuffled", "fixpoint.derived", "fixpoint.steps",
          "store.peak_facts")


def toy(w: Workload) -> Workload:
    """The workload at toy size, with its expected partition from ``ground_afp``."""
    w = dataclasses.replace(w, **TOY[w.name])
    true_atoms, undefined_atoms = ground_afp(parse_program(program_text(w)), edges(w))
    identity = {a: a for _, args in true_atoms | undefined_atoms for a in args}
    return dataclasses.replace(
        w,
        true_count=len(true_atoms),
        undefined_count=len(undefined_atoms),
        digest=partition_digest(true_atoms, undefined_atoms, identity),
    )


def units(record: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in record["result"]["metrics"].items()}


def check_runs(declared: dict, results_dir: Path) -> None:
    for name, w in WORKLOADS.items():
        w = toy(w)
        plain = run.run(w, seed=1, seconds=0, trace=False, results_dir=results_dir)
        expect(plain["result"]["correct"], (name, plain["samples"]))
        expect(units(plain) == declared["end_to_end"], (name, units(plain)))
        counts = []
        for seed in (1, 2):
            traced = run.run(w, seed=seed, seconds=0, trace=True, results_dir=results_dir)
            expect(traced["result"]["correct"], (name, traced["samples"]))
            expect(units(traced) == declared["per_layer"], (name, units(traced)))
            metrics = traced["result"]["metrics"]
            counts.append({c: metrics[c]["value"] for c in COUNTS})
        expect(counts[0] == counts[1], (name, counts))
        print(f"{name}: toy runs pass, counts {counts[0]}")


def solved(w: Workload, seed: int):
    text, original = generate(w, seed)
    facts = parse_facts(text)
    result = solve(parse_program(program_text(w)), facts)
    true_atoms = {(f.predicate, f.args) for f in result.true_facts.iter_facts()}
    undefined_atoms = {(f.predicate, f.args) for f in result.undefined_facts.iter_facts()}
    moves = [f.args for f in facts if f.predicate == "move"]
    return moves, true_atoms, undefined_atoms, original


def check_tampering() -> None:
    def problems(w, moves, true_atoms, undefined_atoms, original):
        digest = partition_digest(true_atoms, undefined_atoms, original)
        return verify(w, moves, true_atoms, undefined_atoms, digest)

    # counts: an undefined atom reported as true
    w = toy(WORKLOADS["win-cycle"])
    moves, true_atoms, undefined_atoms, original = solved(w, seed=5)
    expect(not problems(w, moves, true_atoms, undefined_atoms, original), w.name)
    atom = min(undefined_atoms)
    expect(problems(w, moves, true_atoms | {atom}, undefined_atoms - {atom}, original), atom)

    # backward induction: a won position swapped for a lost one, counts kept
    w = toy(WORKLOADS["win-tree"])
    moves, true_atoms, undefined_atoms, original = solved(w, seed=5)
    expect(not problems(w, moves, true_atoms, undefined_atoms, original), w.name)
    won = {args[0] for p, args in true_atoms if p == "win"}
    lost = min({b for _, b in moves} - won)
    swapped = true_atoms - {("win", (min(won),))} | {("win", (lost,))}
    found = problems(dataclasses.replace(w, digest=None), moves, swapped, undefined_atoms, original)
    expect(found == ["true set differs from backward induction"], found)

    # digest: tc(a,b) swapped for tc(b,a), counts kept
    w = toy(WORKLOADS["tc-chain"])
    moves, true_atoms, undefined_atoms, original = solved(w, seed=5)
    expect(not problems(w, moves, true_atoms, undefined_atoms, original), w.name)
    a, b = min(args for p, args in true_atoms if p == "tc")
    swapped = true_atoms - {("tc", (a, b))} | {("tc", (b, a))}
    found = problems(w, moves, swapped, undefined_atoms, original)
    expect(len(found) == 1 and found[0].startswith("partition digest"), found)
    print("verifier rejects tampered partitions")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    expect(set(WORKLOADS) == {w["name"] for w in spec["workloads"]}, "workload names")
    check_runs(declared, HERE / "results" / "selfcheck")
    check_tampering()
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
