"""The benchmark's workloads: what each runs, why it was chosen, which
end-to-end number each layer should move on it, how its facts are made from
a seed, and how its answer is checked.

This module imports nothing from ``wfsmr`` at load time, so the driver can
read the table without the package; generation and checking import it.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Optional

GroundAtom = tuple  # (predicate, args), as ``wfsmr.oracle`` uses them


@dataclass(frozen=True)
class Workload:
    name: str
    program: str  # "win-not-win" | "tc-neg", the built-in programs of wfsmr.bench
    graph: str  # "cycle" | "tree" | "chain", the wfsmr.bench generators
    n: int
    k: int = 0  # chain stride
    workers: int = 1
    partitions: int = 1
    # expected partition: fact counts, and for tc-neg a digest of the sorted
    # partition in the generator's own labels (see ``partition_digest``)
    true_count: int = 0
    undefined_count: int = 0
    digest: Optional[str] = None
    why: str = ""
    predictions: tuple[str, ...] = ()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="win-cycle",
            program="win-not-win",
            graph="cycle",
            n=20_000,
            true_count=20_000,
            undefined_count=20_000,
            why=(
                "1 step, 9 jobs of ~2e4 records: cost is per record (parsing, interning, "
                "map/shuffle/reduce) while the driver is nearly idle"
            ),
            predictions=(
                "program.parse_facts_s moves setup_s",
                "store.load_s moves solve_s",
                "per-record mapreduce.job_s moves solve_s",
                "store.peak_facts and store.peak_live_sets move peak_rss_mb",
                "planner.compile_s and planner.jobs_per_eval: small change only",
                "fixpoint.*: no change (1 step)",
            ),
        ),
        Workload(
            name="win-tree",
            program="win-not-win",
            graph="tree",
            n=4_000,
            true_count=10_668,
            undefined_count=0,
            why=(
                "7 alternating steps over ~1e4 facts: driver set algebra, checks between "
                "steps and anti-joins against a growing negative side weigh most"
            ),
            predictions=(
                "store.algebra_s and store.algebra_calls move solve_s",
                "store.peak_facts and store.peak_live_sets move peak_rss_mb",
            ),
        ),
        Workload(
            name="tc-chain",
            program="tc-neg",
            graph="chain",
            n=400,
            k=40,
            true_count=2760,
            undefined_count=0,
            digest="4f078ab1801eb47c7cd201eabf2667a38b06daa6454d1593f4ff0e76a321a3c4",
            why=(
                "6 steps of 1,562 mostly small jobs: per-job overhead, pipeline length and "
                "re-derivation across inner rounds dominate"
            ),
            predictions=(
                "planner.compile_s and planner.jobs_per_eval move solve_s",
                "operators.eval_calls, operators.eval_s and operators.self_s move solve_s",
                "mapreduce.shuffled and the goal/dedup/head job_s move solve_s",
                "fixpoint.* (semi-naive default, SCC evaluation) move solve_s",
                "program.parse_facts_s and store.load_s: negligible",
            ),
        ),
        Workload(
            name="win-cycle-par",
            program="win-not-win",
            graph="cycle",
            n=20_000,
            workers=2,
            partitions=2,
            true_count=20_000,
            undefined_count=20_000,
            why=(
                "the win-cycle input on 2 workers and 2 partitions: the only workload that "
                "runs the partitioned shuffle and the thread pool"
            ),
            predictions=(
                "store.load_s moves solve_s",
                "per-record mapreduce.job_s moves solve_s",
            ),
        ),
    )
}


def edges(w: Workload) -> list:
    """The workload's facts with the generator's own labels."""
    from wfsmr import bench

    if w.graph == "cycle":
        return bench.gen_cycle(w.n)
    if w.graph == "tree":
        return bench.gen_tree(w.n)
    return bench.gen_chain(w.n, w.k)


def program_text(w: Workload) -> str:
    from wfsmr import bench

    return bench.WIN_NOT_WIN if w.program == "win-not-win" else bench.TC_NEG


def generate(w: Workload, seed: int) -> tuple[str, dict]:
    """Facts text for ``seed`` and the map from its labels back to the
    generator's. The seed permutes node labels and fact order, so every count
    the solver reports is the same for all seeds."""
    from wfsmr import Fact
    from wfsmr.program import facts_to_text

    facts = edges(w)
    rng = random.Random(seed)
    nodes = sorted({a for fact in facts for a in fact.args})
    labels = nodes[:]
    rng.shuffle(labels)
    relabel = dict(zip(nodes, labels))
    shuffled = [Fact(f.predicate, tuple(relabel[a] for a in f.args)) for f in facts]
    rng.shuffle(shuffled)
    return facts_to_text(shuffled), {new: old for old, new in relabel.items()}


def partition_digest(
    true_atoms: Iterable[GroundAtom], undefined_atoms: Iterable[GroundAtom], original: dict
) -> str:
    """sha256 of the sorted partition with labels mapped back through ``original``."""

    def back(atoms: Iterable[GroundAtom]) -> list:
        return sorted((p, tuple(original[a] for a in args)) for p, args in atoms)

    text = repr((back(true_atoms), back(undefined_atoms)))
    return hashlib.sha256(text.encode()).hexdigest()


def verify(
    w: Workload,
    moves: Iterable[tuple],
    true_atoms: set,
    undefined_atoms: set,
    digest: Optional[str],
) -> list[str]:
    """Problems found in a partition; empty when it is right.

    Counts are checked against the workload's closed forms, win-not-win
    partitions against backward induction over ``moves``, and ``digest``
    against the workload's expected digest where it names one (tc-neg)."""
    problems = []
    if len(true_atoms) != w.true_count:
        problems.append(f"true count {len(true_atoms)} != {w.true_count}")
    if len(undefined_atoms) != w.undefined_count:
        problems.append(f"undefined count {len(undefined_atoms)} != {w.undefined_count}")
    if w.program == "win-not-win":
        from wfsmr.oracle import game_partition

        moves = list(moves)
        won, _, drawn = game_partition(moves)
        expected_true = {("move", m) for m in moves} | {("win", (x,)) for x in won}
        if true_atoms != expected_true:
            problems.append("true set differs from backward induction")
        if undefined_atoms != {("win", (x,)) for x in drawn}:
            problems.append("undefined set differs from backward induction")
    if w.digest is not None and digest != w.digest:
        problems.append(f"partition digest {digest[:12]} != {w.digest[:12]}")
    return problems
