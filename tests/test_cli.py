import os
import subprocess
import sys
from pathlib import Path

import wfsmr
from wfsmr.bench import TC_NEG, gen_chain
from wfsmr.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main
from wfsmr.program import facts_to_text

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
        text = capsys.readouterr().out
        assert "step=K0" in text
        assert "job " in text
        # move/2 is read from the cache: its 1 record, grouped once
        assert "optimized: job r0:win:antijoin1 in=1 out=1 groups=1 cached=0 " in text
        assert "optimized: peak_facts=" in text and " peak_cache_records=1\n" in text

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

    def test_missing_file_is_runtime_error(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["solve", "--program", "/nonexistent.lp", "--out", out]) == EXIT_RUNTIME

    def test_invalid_program_is_validation_error(self, tmp_path):
        program = write(tmp_path, "bad.lp", "p(X) :- not q(X).\n")
        out = str(tmp_path / "r")
        assert main(["solve", "--program", program, "--out", out]) == EXIT_VALIDATION


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


class TestWordcount:
    def test_worked_example(self, tmp_path, capsys):
        path = write(tmp_path, "docs.txt", "Hello world.\nHello MapReduce.\n")
        assert main(["wordcount", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "Hello\t2\nMapReduce\t1\nworld\t1\n"

    def test_empty_file(self, tmp_path, capsys):
        path = write(tmp_path, "empty.txt", "")
        assert main(["wordcount", path]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_repeated_word(self, tmp_path, capsys):
        path = write(tmp_path, "rep.txt", "ho ho ho ho ho\n")
        assert main(["wordcount", path]) == EXIT_OK
        assert capsys.readouterr().out == "ho\t5\n"


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == EXIT_USAGE
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
        docs = write(tmp_path, "docs.txt", "ho ho\n")
        out = str(tmp_path / "r")
        for value in ("-3", "0", "two"):
            for argv in (["solve", "--program", program, "--out", out], ["wordcount", docs]):
                assert main(argv + ["--partitions", value]) == EXIT_USAGE, (argv[0], value)
                err = capsys.readouterr().err
                assert "argument --partitions" in err
                assert "an integer >= 1" in err and "_positive" not in err, (argv[0], value)
        assert not Path(out + ".true").exists()

    def test_generate_sizes_are_checked_at_parse_time(self, tmp_path, capsys):
        out = str(tmp_path / "g.facts")
        cases = [
            (["--dist", "cycle", "--n", "0"], "argument --n"),
            (["--dist", "tree", "--n", "-3"], "argument --n"),
            (["--dist", "cycle", "--n", "x"], "argument --n: expected an integer >= 1, got 'x'"),
            (["--dist", "chain", "--n", "5"], "--dist chain needs --k"),
            (["--dist", "chain", "--n", "5", "--k", "0"], "--dist chain needs --k"),
            (["--dist", "chain", "--n", "5", "--k", "5"], "--dist chain needs --k"),
        ]
        for flags, message in cases:
            assert main(["generate", *flags, "--out", out]) == EXIT_USAGE, flags
            err = capsys.readouterr().err
            assert message in err and "_positive" not in err, flags
        assert not Path(out).exists()

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
