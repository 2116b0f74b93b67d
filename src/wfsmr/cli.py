"""Command-line interface.

Subcommands: ``check`` validates a program (optionally dumping compiled
plans), ``solve`` writes the true/undefined atom files, and ``generate``
writes benchmark fact files.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 runtime error,
4 standard output closed before the command finished (as by ``| head``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import bench as bench_mod
from .fixpoint import SolveOptions, partitions_agree, solve, trace_records
from .mapreduce import Engine, EngineConfig
from .planner import compile_program
from .program import (
    ArityError, Fact, FactRows, ParseError, Program, ProgramError, facts_to_text, parse_facts,
    parse_program,
)
from .store import Database

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_BROKEN_PIPE = 4


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
    solve_cmd.add_argument(
        "--partitions", type=_positive, default=1, help="reduce tasks per job (default: 1)"
    )
    solve_cmd.add_argument("--trace", action="store_true", help="print the run as JSON lines")

    gen = sub.add_parser("generate", help="write a benchmark facts file")
    gen.add_argument("--dist", choices=["cycle", "tree", "chain"], required=True)
    gen.add_argument("--n", type=_positive, required=True)
    gen.add_argument("--k", type=int, help="chain stride, 1 <= k < n (chain only)")
    gen.add_argument("--out", required=True)
    return parser


def _parse_file(path: str, parse: Callable):
    """``parse`` of the file's text, its validation errors naming the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except ParseError as exc:  # path:line:col
        raise ProgramError(f"{path}:{exc}") from exc
    except ProgramError as exc:
        raise ProgramError(f"{path}: {exc}") from exc


def _load_program(path: str) -> Program:
    return _parse_file(path, parse_program)


def _load_facts(paths: Sequence[str], signatures: dict[str, int]) -> FactRows:
    """All files' facts, each predicate's rows in its first file's parsed dict;
    an arity clash with ``signatures`` or an earlier file names the file."""
    arities = dict(signatures)
    relations: dict[str, dict] = {}
    for path in paths:
        for predicate, rows in _parse_file(path, parse_facts).relations.items():
            arity = len(next(iter(rows)))
            known = arities.setdefault(predicate, arity)
            if known != arity:
                raise ProgramError(f"{path}: {ArityError(predicate, arity, known)}")
            held = relations.setdefault(predicate, rows)
            if held is not rows:
                held.update(rows)
    return FactRows(relations)


def _write_atoms(path: Path, db: Database) -> None:
    # sorted as text, so the facts need no order of their own
    lines = sorted(str(Fact(p, row)) for p in db.predicates() for row in db.tuples(p))
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
    facts = _load_facts(args.facts, program.signatures)
    config = EngineConfig(partitions=args.partitions)
    modes = ["optimized", "naive"] if args.mode == "both" else [args.mode]
    results = {}
    for mode in modes:
        engine = Engine(config)
        results[mode] = solve(program, facts, options=SolveOptions(mode=mode), engine=engine)
        if args.trace:
            for record in trace_records(results[mode], engine):
                print(json.dumps({"mode": mode, **record}))
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


_COMMANDS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "generate": cmd_generate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate" and args.dist == "chain" and not 1 <= (args.k or 0) < args.n:
            parser.error(f"--dist chain needs --k with 1 <= k < n, got k={args.k} n={args.n}")
        if args.command == "generate" and args.dist != "chain" and args.k is not None:
            parser.error(f"--k applies to --dist chain only, not --dist {args.dist}")
        if args.command in ("solve", "generate") and (
            not os.path.basename(args.out) or os.path.isdir(args.out)
        ):
            what = "path prefix" if args.command == "solve" else "file path"
            parser.error(f"--out is a {what}, not a directory: {args.out!r}")
        out_dir = os.path.dirname(args.out) if args.command in ("solve", "generate") else ""
        if not os.path.isdir(out_dir or "."):
            parser.error(f"--out names a directory that does not exist: {out_dir!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here rather than at exit
        return code
    except ProgramError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # the reader is gone: stop quietly, and send what is still buffered
        # to devnull so that the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
