"""Command-line interface.

Subcommands: ``check`` validates a program (optionally dumping compiled
plans), ``solve`` writes the true/undefined atom files, ``generate`` writes
benchmark fact files, and ``wordcount`` runs the engine smoke test.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import bench as bench_mod
from .fixpoint import SolveOptions, partitions_agree, solve
from .mapreduce import Engine, EngineConfig, wordcount
from .planner import compile_program
from .program import Fact, Program, ProgramError, facts_to_text, parse_facts, parse_program
from .store import Database

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_PARTITIONS_HELP = "reduce tasks per job (default: 1)"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); remap to 1
        raise _UsageError(message)


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="wfsmr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate a program file")
    check.add_argument("--program", required=True)
    check.add_argument("--explain", action="store_true", help="dump compiled plans")

    solve_cmd = sub.add_parser("solve", help="compute the well-founded model")
    solve_cmd.add_argument("--program", required=True)
    solve_cmd.add_argument("--facts", action="append", default=[])
    solve_cmd.add_argument("--out", required=True, help="output path prefix")
    solve_cmd.add_argument("--mode", choices=["naive", "optimized", "both"], default="optimized")
    solve_cmd.add_argument("--partitions", type=_positive, default=1, help=_PARTITIONS_HELP)
    solve_cmd.add_argument("--trace", action="store_true", help="print per-step trace lines")

    gen = sub.add_parser("generate", help="write a benchmark facts file")
    gen.add_argument("--dist", choices=["cycle", "tree", "chain"], required=True)
    gen.add_argument("--n", type=_positive, required=True)
    gen.add_argument("--k", type=int, help="chain stride, 1 <= k < n (chain only)")
    gen.add_argument("--out", required=True)

    wc = sub.add_parser("wordcount", help="word-frequency smoke test")
    wc.add_argument("files", nargs="+")
    wc.add_argument("--partitions", type=_positive, default=1, help=_PARTITIONS_HELP)
    return parser


def _load_program(path: str) -> Program:
    return parse_program(Path(path).read_text(encoding="utf-8-sig"))


def _load_facts(paths: Sequence[str]) -> list[Fact]:
    texts = (Path(path).read_text(encoding="utf-8-sig") for path in paths)
    return list(dict.fromkeys(fact for text in texts for fact in parse_facts(text)))


def _write_atoms(path: Path, db: Database) -> None:
    lines = sorted(str(fact) for fact in db.iter_facts())
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def cmd_check(args) -> int:
    program = _load_program(args.program)
    if not program.rules:
        print("warning: empty program", file=sys.stderr)
    plans = compile_program(program)
    print(f"ok: {len(program.rules)} rule(s), {len(plans)} plan(s)")
    if args.explain:
        for plan in plans:
            print(plan.explain())
    return EXIT_OK


def cmd_solve(args) -> int:
    program = _load_program(args.program)
    facts = _load_facts(args.facts)
    config = EngineConfig(partitions=args.partitions)
    modes = ["optimized", "naive"] if args.mode == "both" else [args.mode]
    results = {}
    for mode in modes:
        engine = Engine(config)
        results[mode] = solve(program, facts, options=SolveOptions(mode=mode), engine=engine)
        if args.trace:
            for line in results[mode].stats.trace_lines():
                print(f"{mode}: {line}")
            for line in engine.stats_lines():
                print(f"{mode}: job {line}")
            stats = results[mode].stats
            print(
                f"{mode}: peak_facts={stats.peak_facts} peak_live_sets={stats.peak_live_sets} "
                f"peak_cache_records={stats.peak_cache_records}"
            )
    primary = results[modes[0]]
    out = Path(args.out)
    _write_atoms(out.with_name(out.name + ".true"), primary.true_facts)
    _write_atoms(out.with_name(out.name + ".undef"), primary.undefined_facts)
    print(
        f"true={primary.true_facts.count()} undefined={primary.undefined_facts.count()} "
        f"steps={primary.stats.inference_steps} jobs={primary.stats.jobs_total}"
    )
    if args.mode == "both":
        if partitions_agree(results["optimized"], results["naive"]):
            print("agreement: ok")
        else:
            print("agreement: MISMATCH between naive and optimized drivers", file=sys.stderr)
            return EXIT_RUNTIME
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.dist == "cycle":
        facts = bench_mod.gen_cycle(args.n)
    elif args.dist == "tree":
        facts = bench_mod.gen_tree(args.n)
    else:
        facts = bench_mod.gen_chain(args.n, args.k)
    Path(args.out).write_text(facts_to_text(facts), encoding="utf-8")
    print(f"wrote {len(facts)} facts to {args.out}")
    return EXIT_OK


def cmd_wordcount(args) -> int:
    lines: list[str] = []
    for path in args.files:
        lines.extend(Path(path).read_text(encoding="utf-8").splitlines())
    counts = wordcount(Engine(EngineConfig(partitions=args.partitions)), lines)
    for word in sorted(counts):
        print(f"{word}\t{counts[word]}")
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "generate": cmd_generate,
    "wordcount": cmd_wordcount,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate" and args.dist == "chain" and not 1 <= (args.k or 0) < args.n:
            parser.error(f"--dist chain needs --k with 1 <= k < n, got k={args.k} n={args.n}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ProgramError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
