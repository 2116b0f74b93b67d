import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import wfsmr
from wfsmr import cli
from wfsmr.bench import TC_NEG, gen_chain, gen_cycle
from wfsmr.cli import (
    EXIT_BROKEN_PIPE, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main,
)
from wfsmr.fixpoint import SolveOptions, SolveStats, solve
from wfsmr.mapreduce import Engine, EngineConfig
from wfsmr.planner import compile_program
from wfsmr.program import FactRows, facts_to_text, parse_facts, parse_program

SECTION3_PROGRAM = "p(X,Y) <- a(X,Z), b(Z,Y), not c(X,Z), not d(Z,Y).\n"
SECTION3_FACTS = "a(1,2).\na(1,3).\nb(2,4).\nb(3,5).\nc(1,2).\nd(2,3).\n"
WIN = "win(X) :- move(X,Y), not win(Y).\n"


def write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCheck:
    def test_valid_program_with_plan_dump(self, tmp_path, capsys):
        path = write(tmp_path, "p.lp", SECTION3_PROGRAM)
        assert main(["check", "--program", path, "--explain"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "positive goal (X,Z,Y)" in out

    def test_unsafe_program_names_variables(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "bad.lp",
            "p(X,Y) <- a(X,Y), not b(Y,Z).\nq(X,Y) <- c(X,U), not d(W,U), not e(U,Y).\n",
        )
        assert main(["check", "--program", path]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        for name in ("Z", "W", "Y"):
            assert name in err

    def test_empty_file_warns(self, tmp_path, capsys):
        path = write(tmp_path, "empty.lp", "")
        assert main(["check", "--program", path]) == EXIT_OK
        assert "empty program" in capsys.readouterr().err


class TestSolve:
    def test_two_cycle_game(self, tmp_path):
        program = write(tmp_path, "win.lp", WIN)
        facts = write(tmp_path, "moves.facts", "move(1,2).\nmove(2,1).\n")
        out = str(tmp_path / "result")
        assert main(["solve", "--program", program, "--facts", facts, "--out", out]) == EXIT_OK
        assert Path(out + ".true").read_text() == "move(1,2)\nmove(2,1)\n"
        assert Path(out + ".undef").read_text() == "win(1)\nwin(2)\n"

    def test_worked_example_goal_is_true(self, tmp_path, capsys):
        program = write(tmp_path, "p.lp", SECTION3_PROGRAM)
        facts = write(tmp_path, "f.facts", SECTION3_FACTS)
        out = str(tmp_path / "result")
        code = main(
            ["solve", "--program", program, "--facts", facts, "--out", out, "--mode", "both"]
        )
        assert code == EXIT_OK
        assert "agreement: ok" in capsys.readouterr().out
        true_lines = Path(out + ".true").read_text().splitlines()
        assert "p(1,5)" in true_lines
        assert Path(out + ".undef").read_text() == ""

    def test_facts_only_program(self, tmp_path):
        program = write(tmp_path, "facts.lp", "e(2,3).\ne(1,2).\n")
        out = str(tmp_path / "result")
        assert main(["solve", "--program", program, "--out", out]) == EXIT_OK
        assert Path(out + ".true").read_text() == "e(1,2)\ne(2,3)\n"

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # an editor may save UTF-8 with a leading byte-order mark
        outputs = []
        for prefix in ("", "\ufeff"):
            tag = len(prefix)
            program = write(tmp_path, f"win{tag}.lp", prefix + WIN + "move(3,4).\n")
            facts = write(tmp_path, f"moves{tag}.facts", prefix + "move(1,2).\nmove(2,1).\n")
            out = str(tmp_path / f"result{tag}")
            args = ["solve", "--program", program, "--facts", facts, "--out", out]
            assert main(args) == EXIT_OK
            outputs.append([Path(out + suffix).read_bytes() for suffix in (".true", ".undef")])
        plain, marked = outputs
        assert marked == plain
        assert plain == [b"move(1,2)\nmove(2,1)\nmove(3,4)\nwin(3)\n", b"win(1)\nwin(2)\n"]

    def test_trace_prints_steps_and_jobs(self, tmp_path, capsys):
        program = write(tmp_path, "win.lp", WIN + "move(1,2).\n")
        out = str(tmp_path / "r")
        assert main(["solve", "--program", program, "--out", out, "--trace"]) == EXIT_OK
        *lines, summary = capsys.readouterr().out.splitlines()
        assert summary.startswith("true=")
        records = [json.loads(line) for line in lines]
        assert {r["mode"] for r in records} == {"optimized"}
        steps = [r for r in records if r["record"] == "step"]
        assert steps[0]["label"] == "K0"
        # move/2 is read from the cache: its 1 record, grouped once
        first_job = next(r for r in records if r["record"] == "job")
        assert first_job["name"] == "r0:win:antijoin1"
        assert first_job["map_in"] == first_job["map_out"] == first_job["reduce_groups"] == 1
        assert first_job["cached_groups"] == 0
        assert records[-1]["record"] == "solve"
        assert records[-1]["peak_cache_records"] == 1

    def test_broken_invariant_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        from wfsmr.store import Database

        monkeypatch.setattr(Database, "same_content", lambda self, other: False)
        program = write(tmp_path, "win.lp", WIN + "move(1,2).\n")
        out = str(tmp_path / "r")
        assert main(["solve", "--program", program, "--out", out, "--mode", "naive"]) == EXIT_RUNTIME
        assert "size-based fixpoint test disagrees" in capsys.readouterr().err

    def test_broken_planner_invariant_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        from wfsmr import planner, program

        for module in (planner, program):
            monkeypatch.setattr(module, "check_safety", lambda rule: ())
        path = write(tmp_path, "unsafe.lp", "p(X) :- q(Y).\n")
        assert main(["check", "--program", path]) == EXIT_RUNTIME
        assert "schema lost variables" in capsys.readouterr().err

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        missing = str(tmp_path / "missing.lp")
        assert main(["solve", "--program", missing, "--out", out]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.lp" in err
        assert sorted(path.name for path in tmp_path.iterdir()) == []

    def test_facts_path_naming_a_directory_is_runtime_error(self, tmp_path, capsys):
        program = write(tmp_path, "win.lp", WIN)
        (tmp_path / "facts").mkdir()
        out = str(tmp_path / "r")
        args = ["solve", "--program", program, "--facts", str(tmp_path / "facts"), "--out", out]
        assert main(args) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "facts" in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["facts", "win.lp"]

    def test_invalid_program_is_validation_error(self, tmp_path):
        program = write(tmp_path, "bad.lp", "p(X) :- not q(X).\n")
        out = str(tmp_path / "r")
        assert main(["solve", "--program", program, "--out", out]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "name, program, files, message",
        [
            ("game.lp", WIN, ["a.facts", "b.facts"], "b.facts:2:8: expected ')', found '4'"),
            ("bad.lp", "win(X) :- move(X,Y), not win(Y)\n", [], "bad.lp:2:1: expected '.'"),
            ("g3.lp", WIN + "move(1,2,3).\n", [],
             "g3.lp: predicate 'move' used with arity 3 but previously with arity 2"),
            ("game.lp", WIN, ["a.facts", "c.facts"],
             "c.facts: predicate 'move' used with arity 3 but previously with arity 2"),
            ("game.lp", WIN, ["c.facts"],
             "c.facts: predicate 'move' used with arity 3 but previously with arity 2"),
        ],
        ids=["facts-syntax", "program-syntax", "program-arity", "facts-arity", "facts-against-program"],
    )
    def test_validation_error_names_its_file(
        self, tmp_path, capsys, monkeypatch, name, program, files, message
    ):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, name, program)
        write(tmp_path, "a.facts", "move(1,2).\n")
        write(tmp_path, "b.facts", "move(2,3).\nmove(3 4).")
        write(tmp_path, "c.facts", "move(2,3,4).\n")
        args = ["solve", "--program", name, "--out", "r"]
        assert main(args + [arg for path in files for arg in ("--facts", path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
        reason="this interpreter converts integers of any length",
    )
    @pytest.mark.parametrize("into", ["facts", "program"])
    def test_integer_over_the_digit_limit_is_validation_error(self, tmp_path, capsys, monkeypatch, into):
        monkeypatch.chdir(tmp_path)
        limit = sys.get_int_max_str_digits()
        fact = f"move(1,{'9' * (limit + 1)}).\n"
        write(tmp_path, "game.lp", WIN + (fact if into == "program" else ""))
        write(tmp_path, "big.facts", "move(1,2).\n" + (fact if into == "facts" else ""))
        args = ["solve", "--program", "game.lp", "--facts", "big.facts", "--out", "r"]
        assert main(args) == EXIT_VALIDATION
        where = "big.facts:2:8" if into == "facts" else "game.lp:2:8"
        message = f"validation error: {where}: integer constant longer than {limit} digits\n"
        assert capsys.readouterr().err == message

    def test_facts_shared_by_files_and_program_count_once(self, tmp_path, capsys):
        program = write(tmp_path, "win.lp", WIN + "move(3,4).\n")
        first = write(tmp_path, "a.facts", "move(1,2).\nmove(2,3).\nmove(3,4).\n")
        second = write(tmp_path, "b.facts", "move(2,3).\nmove(3,1).\nmove(4,5).\n")
        merged = write(tmp_path, "ab.facts", "move(1,2).\nmove(2,3).\nmove(3,4).\nmove(3,1).\nmove(4,5).\n")
        runs = []
        for tag, files in (("two", [first, second]), ("one", [merged])):
            out = str(tmp_path / tag)
            args = ["solve", "--program", program, "--out", out, "--mode", "both"]
            assert main(args + [arg for path in files for arg in ("--facts", path)]) == EXIT_OK
            summary = capsys.readouterr().out.splitlines()[0]
            runs.append([summary] + [Path(out + suffix).read_bytes() for suffix in (".true", ".undef")])
        assert runs[0] == runs[1]
        assert runs[0][0].startswith("true=6 undefined=3 ")

    @pytest.mark.parametrize(
        "texts, handed",
        [(["move(0,1).\n"], FactRows), (["% general path\nmove(0, 1).\nnode(0).\n"], FactRows),
         (["move(0,1).\n", "move(1,2).\n"], list)],
        ids=["fast-path", "general", "two-files"],
    )
    def test_one_facts_file_goes_to_the_solver_as_parsed(self, tmp_path, monkeypatch, texts, handed):
        program = write(tmp_path, "win.lp", WIN)
        files = [write(tmp_path, f"{i}.facts", text) for i, text in enumerate(texts)]
        seen = []

        def recording(program, facts, **kwargs):
            seen.append(facts)
            return solve(program, facts, **kwargs)

        monkeypatch.setattr(cli, "solve", recording)
        args = ["solve", "--program", program, "--out", str(tmp_path / "r")]
        assert main(args + [arg for path in files for arg in ("--facts", path)]) == EXIT_OK
        assert [type(facts) for facts in seen] == [handed]


def solve_records(tmp_path, capsys, program_text, facts):
    """Run ``solve --mode both --partitions 3 --trace`` and return the summary lines and
    the trace records of each mode, checking that every line before the
    summary is a JSON object."""
    program = write(tmp_path, "p.lp", program_text)
    facts_path = write(tmp_path, "in.facts", facts_to_text(facts))
    argv = ["solve", "--program", program, "--facts", facts_path, "--out", str(tmp_path / "r"),
            "--mode", "both", "--partitions", "3", "--trace"]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("true="))
    records = [json.loads(line) for line in lines[:at]]
    assert all(isinstance(record, dict) for record in records)
    # the optimized run is traced in full before the naive one
    modes = [record.pop("mode") for record in records]
    assert modes == sorted(modes, key=["optimized", "naive"].index)
    by_mode = {mode: [r for m, r in zip(modes, records) if m == mode]
               for mode in ("optimized", "naive")}
    return lines[at:], by_mode


class TestTrace:
    """``solve --trace`` prints, per mode and in run order, each step's job
    records, then the step's record, then one solve record."""

    CASES = {
        "win-cycle": (WIN, gen_cycle(7)),
        "tc-chain": (TC_NEG, gen_chain(12, 3)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_records_follow_the_run(self, tmp_path, capsys, case):
        program_text, facts = self.CASES[case]
        summary, by_mode = solve_records(tmp_path, capsys, program_text, facts)
        assert summary[-1] == "agreement: ok"
        for mode, records in by_mode.items():
            *body, final = records
            assert final["record"] == "solve"
            pending = []
            for record in body:
                if record["record"] == "job":
                    pending.append(record)
                    continue
                assert record["record"] == "step"
                assert len(pending) == record["jobs"], (mode, record)
                assert all(job["step"] == record["label"] for job in pending)
                pending = []
            assert pending == []
            jobs = [r for r in body if r["record"] == "job"]
            assert len(jobs) == final["jobs_total"] > 0
            # the solve record carries the SolveStats scalars, and equals
            # those of the same solve run again
            engine = Engine(EngineConfig(partitions=3))
            stats = solve(parse_program(program_text), facts, SolveOptions(mode=mode), engine).stats
            scalars = {f.name: getattr(stats, f.name) for f in fields(SolveStats)}
            del scalars["steps"]
            assert {k: v for k, v in final.items() if k != "record"} == scalars
            step_records = [{k: v for k, v in r.items() if k != "record"}
                            for r in body if r["record"] == "step"]
            assert step_records == [vars(step) for step in stats.steps]
            assert [job["name"] for job in jobs] == [job.name for job in engine.stats_log]
            assert all(job["map_ms"] >= 0 and job["reduce_ms"] >= 0 for job in jobs)
            # each job names its rule and kind apart from its name
            heads = [plan.head_predicate for plan in compile_program(parse_program(program_text))]
            for job in jobs:
                assert job["kind"] in ("join", "antijoin", "head")
                assert job["name"].startswith(f"r{job['rule']}:{heads[job['rule']]}:{job['kind']}")
            if mode == "optimized":
                # tc-chain's q counts its instances from U1 on; from U2 on
                # its U steps run only seed joins
                late_u = [job["kind"] for job in jobs if job["step"][0] == "U"
                          and int(job["step"][1:]) >= 2 and job["component"] == 0]
                assert set(late_u) == ({"join"} if case == "tc-chain" else set())

    def test_facts_only_program_has_no_job_records(self, tmp_path, capsys):
        summary, by_mode = solve_records(tmp_path, capsys, "e(1,2).\n", parse_facts("e(2,3)."))
        assert summary[0].startswith("true=2 ")
        for records in by_mode.values():
            kinds = [r["record"] for r in records]
            assert "job" not in kinds
            assert kinds[-1] == "solve" and kinds.count("step") == len(kinds) - 1 >= 1
            assert records[-1]["jobs_total"] == 0


class TestGenerate:
    def test_cycle(self, tmp_path):
        out = str(tmp_path / "c.facts")
        assert main(["generate", "--dist", "cycle", "--n", "3", "--out", out]) == EXIT_OK
        assert Path(out).read_text() == "move(1,2).\nmove(2,3).\nmove(3,1).\n"

    def test_tree(self, tmp_path):
        out = str(tmp_path / "t.facts")
        assert main(["generate", "--dist", "tree", "--n", "1", "--out", out]) == EXIT_OK
        assert Path(out).read_text() == "move(1,2).\nmove(1,3).\n"

    def test_chain(self, tmp_path):
        out = str(tmp_path / "b.facts")
        assert (
            main(["generate", "--dist", "chain", "--n", "2", "--k", "1", "--out", out])
            == EXIT_OK
        )
        assert Path(out).read_text() == "b(1,2).\nb(2,3).\n"

    def test_bad_chain_parameters(self, tmp_path):
        out = str(tmp_path / "b.facts")
        assert (
            main(["generate", "--dist", "chain", "--n", "2", "--k", "5", "--out", out])
            == EXIT_USAGE
        )
        assert not Path(out).exists()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        for argv in (["transmogrify"], ["wordcount", "docs.txt"]):
            assert main(argv) == EXIT_USAGE, argv
            assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["check"]) == EXIT_USAGE

    def test_determinism_across_worker_configs(self, tmp_path):
        program = write(tmp_path, "win.lp", WIN)
        facts = write(tmp_path, "m.facts", "".join(f"move({i},{i + 1}).\n" for i in range(1, 40)))
        outputs = []
        for i, partitions in enumerate([1, 4, 7]):
            out = str(tmp_path / f"r{i}")
            code = main(
                [
                    "solve",
                    "--program",
                    program,
                    "--facts",
                    facts,
                    "--out",
                    out,
                    "--partitions",
                    str(partitions),
                ]
            )
            assert code == EXIT_OK
            outputs.append(
                (Path(out + ".true").read_bytes(), Path(out + ".undef").read_bytes())
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_partitions_must_be_positive(self, tmp_path, capsys):
        program = write(tmp_path, "win.lp", WIN)
        out = str(tmp_path / "r")
        for value in ("-3", "0", "two"):
            argv = ["solve", "--program", program, "--out", out, "--partitions", value]
            assert main(argv) == EXIT_USAGE, value
            err = capsys.readouterr().err
            assert "argument --partitions" in err
            assert "an integer >= 1" in err and "_positive" not in err, value
        assert not Path(out + ".true").exists()

    def test_solve_out_must_not_name_a_directory(self, tmp_path, capsys):
        program = write(tmp_path, "win.lp", WIN)
        (tmp_path / "results").mkdir()
        for out in (tmp_path / "results", f"{tmp_path / 'fresh'}{os.sep}"):
            assert main(["solve", "--program", program, "--out", str(out)]) == EXIT_USAGE, out
            assert "--out is a path prefix, not a directory" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["results", "win.lp"]

    def test_solve_out_must_be_in_an_existing_directory(self, tmp_path, capsys):
        program = write(tmp_path, "win.lp", WIN)
        out = tmp_path / "nodir" / "r"
        assert main(["solve", "--program", program, "--out", str(out)]) == EXIT_USAGE
        assert f"does not exist: {str(out.parent)!r}" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["win.lp"]

    def test_generate_out_must_be_in_an_existing_directory(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "c.facts"
        argv = ["generate", "--dist", "cycle", "--n", "3", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert f"does not exist: {str(out.parent)!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_generate_out_must_not_name_a_directory(self, tmp_path, capsys):
        (tmp_path / "facts").mkdir()
        for out in (tmp_path / "facts", f"{tmp_path / 'fresh'}{os.sep}", ""):
            argv = ["generate", "--dist", "cycle", "--n", "3", "--out", str(out)]
            assert main(argv) == EXIT_USAGE, out
            assert "--out is a file path, not a directory" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["facts"]

    def test_generate_sizes_are_checked_at_parse_time(self, tmp_path, capsys):
        out = str(tmp_path / "g.facts")
        cases = [
            (["--dist", "cycle", "--n", "0"], "argument --n"),
            (["--dist", "tree", "--n", "-3"], "argument --n"),
            (["--dist", "cycle", "--n", "x"], "argument --n: expected an integer >= 1, got 'x'"),
            (["--dist", "chain", "--n", "5"], "--dist chain needs --k"),
            (["--dist", "chain", "--n", "5", "--k", "0"], "--dist chain needs --k"),
            (["--dist", "chain", "--n", "5", "--k", "5"], "--dist chain needs --k"),
            (["--dist", "cycle", "--n", "5", "--k", "3"], "--k applies to --dist chain only"),
            (["--dist", "tree", "--n", "5", "--k", "1"], "--k applies to --dist chain only"),
        ]
        for flags, message in cases:
            assert main(["generate", *flags, "--out", out]) == EXIT_USAGE, flags
            err = capsys.readouterr().err
            assert message in err and "_positive" not in err, flags
        assert not Path(out).exists()

    def test_a_reader_that_closes_the_pipe_early_gets_no_error(self, tmp_path):
        # as `wfsmr solve ... --trace | head -1`: the trace is far larger
        # than a pipe buffer, so the solve writes on after the reader is gone
        program = write(tmp_path, "tc.lp", TC_NEG)
        facts = write(tmp_path, "chain.facts", facts_to_text(gen_chain(400, 40)))
        src = str(Path(wfsmr.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "wfsmr.cli", "solve", "--program", program,
                "--facts", facts, "--out", str(tmp_path / "r"), "--trace"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert json.loads(proc.stdout.readline())["mode"] == "optimized"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait() == EXIT_BROKEN_PIPE
        assert err == b""

    def test_routing_does_not_leak_into_results_across_processes(self, tmp_path):
        # keys route by hash(key), and the str tags in keys hash differently
        # under each PYTHONHASHSEED, so the two runs reduce in different
        # orders; their files must still be byte-identical
        program = write(tmp_path, "tc.lp", TC_NEG)
        facts = write(tmp_path, "chain.facts", facts_to_text(gen_chain(500, 100)))
        src = str(Path(wfsmr.__file__).resolve().parent.parent)
        outputs = []
        for seed in ("1", "2"):
            out = str(tmp_path / f"r{seed}")
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run(
                [sys.executable, "-m", "wfsmr.cli", "solve", "--program", program,
                 "--facts", facts, "--out", out, "--partitions", "7"],
                env=env, check=True, capture_output=True,
            )
            outputs.append((Path(out + ".true").read_bytes(), Path(out + ".undef").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count(b"\n") > 500  # the chain and its closure
