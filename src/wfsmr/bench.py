"""Benchmark datasets, built-in test programs, and the timing harness.

Three fact distributions are generated: a single move-cycle, a binary
move-tree, and an edge chain with stride ``k`` (the chain allows
``ceil(n/k) - 1`` joins). The two built-in programs are the single-rule
game test and the five-rule transitive-closure-with-negation test. Results
append to a CSV with a fixed schema so runs accumulate across invocations.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .fixpoint import SolveOptions, solve
from .mapreduce import Engine, EngineConfig
from .program import Fact, Program, parse_program

__all__ = [
    "BenchConfig",
    "BenchRow",
    "CSV_HEADER",
    "gen_cycle",
    "gen_tree",
    "gen_chain",
    "chain_levels",
    "builtin_program",
    "run_bench",
    "summarize",
]

CSV_HEADER = [
    "test",
    "n",
    "k",
    "mode",
    "workers",
    "partitions",
    "rep",
    "wall_ms",
    "steps",
    "jobs",
    "peak_facts",
    "true_count",
    "undefined_count",
]

WIN_NOT_WIN = "win(X) :- move(X,Y), not win(Y).\n"

TC_NEG = (
    "tc(X,Y) :- par(X,Y).\n"
    "tc(X,Y) :- par(X,Z), tc(Z,Y).\n"
    "par(X,Y) :- b(X,Y), not q(X,Y).\n"
    "par(X,Y) :- b(X,Y), b(Y,Z), not q(Y,Z).\n"
    "q(X,Y) :- b(Z,X), b(X,Y), not q(Z,X).\n"
)

_TESTS = {
    "win-cycle": ("win-not-win", "cycle"),
    "win-tree": ("win-not-win", "tree"),
    "tc-chain": ("tc-neg", "chain"),
}


def gen_cycle(n: int) -> list[Fact]:
    """n move facts forming one cycle 1 -> 2 -> ... -> n -> 1."""
    if n < 1:
        raise ValueError("cycle size must be >= 1")
    return [Fact("move", (i, i % n + 1)) for i in range(1, n + 1)]


def gen_tree(n: int) -> list[Fact]:
    """2n move facts: binary tree edges i -> 2i and i -> 2i+1 for 1 <= i <= n."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    out = []
    for i in range(1, n + 1):
        out.append(Fact("move", (i, 2 * i)))
        out.append(Fact("move", (i, 2 * i + 1)))
    return out


def gen_chain(n: int, k: int) -> list[Fact]:
    """n chain facts b(i, i+k) for 1 <= i <= n, with stride k < n."""
    if not 1 <= k < n:
        raise ValueError("chain requires 1 <= k < n")
    return [Fact("b", (i, i + k)) for i in range(1, n + 1)]


def chain_levels(n: int, k: int) -> int:
    """Number of levels the chain spreads over; joins = levels - 1."""
    return math.ceil(n / k)


def builtin_program(name: str) -> Program:
    if name == "win-not-win":
        return parse_program(WIN_NOT_WIN)
    if name == "tc-neg":
        return parse_program(TC_NEG)
    raise ValueError(f"unknown test program '{name}'")


@dataclass
class BenchConfig:
    test: str  # win-cycle | win-tree | tc-chain
    n: int
    k: int = 0  # chain stride; ignored for cycle/tree
    mode: str = "optimized"
    workers: int = 1
    partitions: int = 1
    reps: int = 1


@dataclass
class BenchRow:
    test: str
    n: int
    k: int
    mode: str
    workers: int
    partitions: int
    rep: int
    wall_ms: float
    steps: int
    jobs: int
    peak_facts: int
    true_count: int
    undefined_count: int

    def as_list(self) -> list:
        return [
            self.test,
            self.n,
            self.k,
            self.mode,
            self.workers,
            self.partitions,
            self.rep,
            f"{self.wall_ms:.3f}",
            self.steps,
            self.jobs,
            self.peak_facts,
            self.true_count,
            self.undefined_count,
        ]


def _dataset(config: BenchConfig) -> tuple[Program, list[Fact]]:
    try:
        program_name, dist = _TESTS[config.test]
    except KeyError:
        raise ValueError(f"unknown test '{config.test}'") from None
    program = builtin_program(program_name)
    if dist == "cycle":
        facts = gen_cycle(config.n)
    elif dist == "tree":
        facts = gen_tree(config.n)
    else:
        facts = gen_chain(config.n, config.k)
    return program, facts


def run_bench(config: BenchConfig, csv_path: Optional[str] = None) -> list[BenchRow]:
    """Run the configured test ``reps`` times; rows append to ``csv_path``.

    Timing covers fact loading and inference together (they overlap in the
    pipeline), not interpreter startup.
    """
    program, facts = _dataset(config)
    rows = []
    for rep in range(config.reps):
        engine = Engine(EngineConfig(workers=config.workers, partitions=config.partitions))
        options = SolveOptions(mode=config.mode)
        started = time.perf_counter()
        result = solve(program, facts, options=options, engine=engine)
        wall_ms = (time.perf_counter() - started) * 1000.0
        rows.append(
            BenchRow(
                test=config.test,
                n=config.n,
                k=config.k,
                mode=config.mode,
                workers=config.workers,
                partitions=config.partitions,
                rep=rep,
                wall_ms=wall_ms,
                steps=result.stats.inference_steps,
                jobs=result.stats.jobs_total,
                peak_facts=result.stats.peak_facts,
                true_count=result.true_facts.count(),
                undefined_count=result.undefined_facts.count(),
            )
        )
    if csv_path:
        append_rows(csv_path, rows)
    return rows


def append_rows(csv_path: str, rows: list[BenchRow]) -> None:
    path = Path(csv_path)
    new_file = not path.exists() or path.stat().st_size == 0
    with path.open("a", newline="") as handle:
        writer = csv.writer(handle)
        if new_file:
            writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_list())


def summarize(csv_path: str) -> str:
    """Aggregate mean wall time per (test, n, k, mode); gnuplot-friendly
    whitespace-separated columns."""
    groups: dict[tuple, list[float]] = {}
    with open(csv_path, newline="") as handle:
        for record in csv.DictReader(handle):
            key = (record["test"], int(record["n"]), int(record["k"]), record["mode"])
            groups.setdefault(key, []).append(float(record["wall_ms"]))
    lines = ["# test n k mode runs mean_wall_ms"]
    for key in sorted(groups):
        times = groups[key]
        mean = sum(times) / len(times)
        lines.append(f"{key[0]} {key[1]} {key[2]} {key[3]} {len(times)} {mean:.3f}")
    return "\n".join(lines) + "\n"
