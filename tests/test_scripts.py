"""Smoke tests: the scripts in scripts/ run against the package."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_run_search_space_help():
    done = run_script("scripts/run_search_space.py", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: run_search_space.py")


def test_run_search_space_writes_cli_bytes(tmp_path):
    # the script keeps its own census loop; its file must be the CLI's
    argv = ["--max-vertices", "5", "--max-edges", "7", "--colors", "2"]
    a, b = tmp_path / "script.jsonl", tmp_path / "cli.jsonl"
    done = run_script("scripts/run_search_space.py", *argv, "--out", str(a))
    assert done.returncode == 0, done.stderr
    assert main(["enumerate", *argv, "--reserved-io", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_module_runs_as_script(capsys):
    # python -m daghash.cli exits with main's code and prints main's lines
    argv = ["verify", "--max-vertices", "4", "--max-edges", "5", "--colors", "2"]
    done = run_script("-m", "daghash.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
    assert done.stdout.splitlines()[-1].startswith("all buckets pure (")
