"""Smoke tests: the scripts in scripts/ run against the package."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from daghash import enumeration
from daghash.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


def test_collision_analysis_shows_pinned_collision():
    done = run_script("scripts/collision_analysis.py")
    assert done.returncode == 0, done.stderr
    pinned = done.stdout.split("\n\n")[0].splitlines()
    assert pinned[0].startswith("== pinned pair: n=10")
    assert "equal: True" in pinned


def test_collision_analysis_shows_least_collision():
    done = run_script("scripts/collision_analysis.py")
    assert done.returncode == 0, done.stderr
    least = done.stdout.split("\n\n")[1].splitlines()
    assert least[0] == "== least collision: n=8, 10 edges each =="
    assert least[1] == "g1 edges: (1,2) (1,5) (2,3) (2,4) (3,4) (4,8) (5,6) (5,7) (6,7) (7,8)"
    assert least[2] == "g2 edges: (1,2) (1,3) (2,4) (2,7) (3,5) (3,6) (4,5) (5,8) (6,7) (7,8)"
    assert least[3][len("digest g1: "):] == least[4][len("digest g2: "):]
    assert least[5:] == [
        "equal: True",
        "concat equal: True",
        "isomorphic: False",
        "equal with colors (4, 1, 1, 1, 1, 1, 1, 5): True",
        "transitive triangles: 2 vs 0",
    ]


def test_collision_analysis_refuses_unpaired_flags():
    # each --degree pairs with one --size, so unequal counts are refused
    for argv in (["--degree", "3"], ["--size", "6"], ["--degree", "2", "--size", "6", "--degree", "3"]):
        done = run_script("scripts/collision_analysis.py", *argv)
        assert done.returncode == 2, argv
        assert done.stdout == ""
        assert "--degree and --size must be given the same number of times" in done.stderr


@pytest.mark.parametrize("argv, code, out, err", [
    (["--degree", "2", "--size", "5"], 1,
     "degenerate construction: size=5 cannot split into two blocks of degree 2\n", ""),
    (["--degree", "1", "--size", "4"], 2, "", "error: degree must be at least 2, got 1\n"),
    (["--degree", "2", "--size", "10000"], 3, "",
     "error: 20002 vertices exceed MAX_VERTICES = 16384\n"),
], ids=["degenerate", "invalid", "capability"])
def test_collision_analysis_exits_like_adversarial(argv, code, out, err, capsys):
    # every family pair is built before any output, and a refused one ends
    # the script as it ends `daghash adversarial`, with no traceback
    done = run_script("scripts/collision_analysis.py", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
    assert main(["adversarial", *argv]) == code
    assert capsys.readouterr() == (out, err)


def test_run_search_space_help():
    done = run_script("scripts/run_search_space.py", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: run_search_space.py")


def test_run_search_space_writes_cli_bytes(tmp_path, capsys):
    # the records and per-n table are the CLI's, then one time and RSS line
    argv = ["--max-vertices", "5", "--max-edges", "7", "--colors", "2", "--reserved-io"]
    a, b = tmp_path / "script.jsonl", tmp_path / "cli.jsonl"
    done = run_script("scripts/run_search_space.py", *argv, "--out", str(a))
    assert done.returncode == 0, done.stderr
    assert main(["enumerate", *argv, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = done.stdout.splitlines()
    assert lines[:-1] == capsys.readouterr().out.splitlines()
    assert lines[-1].endswith(" MB") and ", peak RSS " in lines[-1]
    assert "worker" not in lines[-1]


def test_run_search_space_reports_worker_peak(monkeypatch, capsys):
    # the main process's peak leaves out the pool's workers, so a run with a
    # pool also prints the largest worker's
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    argv = ["--max-vertices", "5", "--max-edges", "7", "--colors", "2", "--workers", "2"]
    monkeypatch.setattr(sys, "argv", ["run_search_space.py", *argv])
    script = runpy.run_path(str(ROOT / "scripts/run_search_space.py"))
    assert script["run"]() == 0
    last = capsys.readouterr().out.splitlines()[-1]
    found = re.fullmatch(r"[\d.]+ s, peak RSS [\d.]+ MB, largest worker ([\d.]+) MB", last)
    assert found and float(found[1]) > 0, last


def test_run_search_space_exits_with_cli_codes(tmp_path):
    # a capability error exits 3 and leaves no file; a bad value exits 2
    out = tmp_path / "records.jsonl"
    done = run_script("scripts/run_search_space.py", "--max-vertices", "2", "--max-edges", "1",
                      "--colors", "30000", "--out", str(out))
    assert done.returncode == 3
    assert done.stderr == "error: 30000 ** 2 colorings at n = 2 exceed 1048576\n"
    assert done.stdout == "" and not out.exists()
    done = run_script("scripts/run_search_space.py", "--max-vertices", "2", "--max-edges", "1",
                      "--colors", "1", "--workers", "0")
    assert done.returncode == 2
    assert done.stderr == "error: workers must be at least 1, got 0\n"


def test_cli_module_runs_as_script(capsys):
    # python -m daghash.cli exits with main's code and prints main's lines
    argv = ["verify", "--max-vertices", "4", "--max-edges", "5", "--colors", "2"]
    done = run_script("-m", "daghash.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
    assert done.stdout.splitlines()[-1].startswith("all buckets pure (")
