"""Command-line behavior: output formats and the exit-code contract."""

import concurrent.futures
import contextlib
import errno
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import parse_record_line, parse_summary_line, save_graph, valid_graphs
from daghash import adversarial, cli, enumeration, hashing
from daghash.adversarial import bipartite_adversarial_pair
from daghash.cli import main
from daghash.enumeration import EnumerationConfig, enumerate_graphs
from daghash.formats import graph_from_dict, graph_to_dict, record_line
from daghash.graphs import (
    MAX_VERTICES, CapabilityExceeded, ComputationalGraph, EdgeOrderViolation, GraphError,
    normalize_dag, validate,
)
from daghash.hashing import digest_hex, graph_invariant


def write(tmp_path, name, graph):
    path = tmp_path / name
    save_graph(graph, path)
    return str(path)


def test_hash_prints_hex_digest(tmp_path, triple, capsys):
    path = write(tmp_path, "left.json", triple[0])
    assert main(["hash", path]) == 0
    out = capsys.readouterr().out
    assert out.strip() == digest_hex(graph_invariant(triple[0]))


def test_hash_is_deterministic(tmp_path, triple, capsys):
    path = write(tmp_path, "left.json", triple[0])
    main(["hash", path])
    first = capsys.readouterr().out
    main(["hash", path])
    assert capsys.readouterr().out == first


def test_hash_concat_backend(tmp_path, capsys):
    g = validate(2, 1, [(1, 2)], [1, 1])
    path = write(tmp_path, "edge.json", g)
    assert main(["hash", path, "--backend", "concat"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == digest_hex(graph_invariant(g, "concat"))
    assert len(out) > 32


def test_hash_normalize_relabels(tmp_path, capsys):
    raw = tmp_path / "scrambled.json"
    raw.write_text(
        json.dumps({"n": 3, "k": 1, "colors": [1, 1, 1], "edges": [[3, 1], [1, 2]]})
    )
    straight = write(tmp_path, "path.json", validate(3, 1, [(1, 2), (2, 3)], [1, 1, 1]))
    assert main(["hash", str(raw), "--normalize"]) == 0
    got = capsys.readouterr().out
    main(["hash", straight])
    assert got == capsys.readouterr().out


def test_hash_rejects_unordered_edges_without_normalize(tmp_path, capsys):
    raw = tmp_path / "scrambled.json"
    raw.write_text(
        json.dumps({"n": 3, "k": 1, "colors": [1, 1, 1], "edges": [[3, 1], [1, 2]]})
    )
    assert main(["hash", str(raw)]) == 2
    assert "error:" in capsys.readouterr().err


def test_hash_missing_file_is_input_error(tmp_path, capsys):
    assert main(["hash", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_hash_unparsable_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["hash", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["hash", "iso"])
def test_deeply_nested_json_is_input_error(tmp_path, command, capsys):
    # the JSON parser gives up with RecursionError; iso must not answer 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    files = [str(deep)] * (2 if command == "iso" else 1)
    assert main([command, *files]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_json_booleans_are_input_error(tmp_path, capsys):
    good = {"n": 2, "k": 1, "colors": [1, 1], "edges": [[1, 2]]}
    bad = [
        {"n": True, "k": True, "colors": [True], "edges": []},
        {**good, "k": True},
        {**good, "colors": [1, True]},
        {**good, "edges": [[True, 2]]},
    ]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(good))
    assert main(["hash", str(path)]) == 0
    capsys.readouterr()
    for obj in bad:
        path.write_text(json.dumps(obj))
        assert main(["hash", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["md5", "concat"])
def test_hash_color_past_le64_is_input_error(tmp_path, backend, capsys):
    # a color of 2**64 does not fit the eight-byte encoding
    path = tmp_path / "wide.json"
    big = 2**64
    path.write_text(json.dumps({"n": 2, "k": big, "colors": [big, 1], "edges": [[1, 2]]}))
    assert main(["hash", str(path), "--backend", backend]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hash", "hash --normalize"])
def test_huge_vertex_count_is_input_error(tmp_path, command, capsys):
    # normalize_dag once allocated n + 1 lists before counting the colors
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1_000_000_000, "k": 1, "colors": [1], "edges": []}))
    assert main([*command.split(), str(path)]) == 2
    assert "expected 1000000000 colors" in capsys.readouterr().err


def test_zero_color_count_is_input_error(tmp_path, capsys):
    path = tmp_path / "nocolors.json"
    path.write_text(json.dumps({"n": 2, "k": 0, "colors": [1, 1], "edges": [[1, 2]]}))
    assert main(["hash", str(path)]) == 2
    assert "color count must be positive, got 0" in capsys.readouterr().err


NOT_EDGE_LISTS = {
    "{'1': 2}": "edge '1' is not an (i, j) pair",
    "[1, 2]": "edge 1 is not an (i, j) pair",
    "'[[1, 2]]'": "edge '[' is not an (i, j) pair",
    "None": "edges must be iterable, got NoneType",
}


@pytest.mark.parametrize("edges", [{"1": 2}, [1, 2], "[[1, 2]]", None])
def test_edges_not_a_list_is_input_error(tmp_path, edges, capsys):
    # validate reads edges as any iterable of pairs, so a mapping or string
    # is refused at its first entry, and so is each entry of [1, 2]
    obj = {"n": 2, "k": 1, "colors": [1, 1], "edges": edges}
    expected = NOT_EDGE_LISTS[repr(edges)]
    with pytest.raises(GraphError, match=f"^{re.escape(expected)}$"):
        graph_from_dict(obj)
    path = tmp_path / "edges.json"
    path.write_text(json.dumps(obj))
    assert main(["hash", str(path)]) == 2
    assert expected in capsys.readouterr().err


DUPLICATE_EDGE = {"n": 3, "k": 1, "colors": [1, 1, 1], "edges": [[1, 2], [2, 3], [1, 2]]}


@pytest.mark.parametrize("normalize", [False, True])
def test_graph_from_dict_rejects_duplicate_edges(normalize):
    # the pair once merged silently, so two different files hashed equal
    with pytest.raises(GraphError, match="more than once"):
        graph_from_dict(DUPLICATE_EDGE, normalize=normalize)
    # without normalize, the reversed file's first fault is its first edge
    reversed_twice = {**DUPLICATE_EDGE, "edges": [[2, 1], [3, 2], [2, 1]]}
    error, message = (GraphError, "more than once") if normalize else (EdgeOrderViolation, "i < j")
    with pytest.raises(error, match=message):
        graph_from_dict(reversed_twice, normalize=normalize)
    once = {**DUPLICATE_EDGE, "edges": [[1, 2], [2, 3]]}
    assert graph_from_dict(once, normalize=normalize).edges == ((1, 2), (2, 3))


GOOD_FILE = {"n": 3, "k": 1, "colors": [1, 1, 1], "edges": [[1, 2], [2, 3]]}
MALFORMED_FILES = {
    "bool-endpoint": {**GOOD_FILE, "edges": [[1, 2], [2, True]]},
    "three-element-edge": {**GOOD_FILE, "edges": [[1, 2, 3], [2, 3]]},
    "edges-not-a-list": {**GOOD_FILE, "edges": {"1": 2}},
    "string-colors": {**GOOD_FILE, "colors": "111"},
    "repeated-edge": {**GOOD_FILE, "edges": [[1, 2], [2, 3], [1, 2]]},
}


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("obj", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_graph_file_faults_are_the_builders_faults(obj, normalize):
    # a graph file has no field rule of its own: each fault is the one
    # validate or normalize_dag raises on the same fields, message included
    build = normalize_dag if normalize else validate
    with pytest.raises(GraphError) as expected:
        build(obj["n"], obj["k"], obj["edges"], obj["colors"])
    with pytest.raises(GraphError) as got:
        graph_from_dict(obj, normalize)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


def test_duplicate_edge_found_in_one_pass(tmp_path, capsys):
    # each edge was once looked up in a copy of the edges before it: about
    # 6 s for a 20,000-edge path (2-core Xeon VM)
    n = 16_001
    edges = [[i, i + 1] for i in range(1, n)]
    obj = {"n": n, "k": 1, "colors": [1] * n, "edges": edges + [edges[-1]]}
    t0 = time.perf_counter()
    with pytest.raises(GraphError, match=rf"^edge \({n - 1}, {n}\) is listed more than once$"):
        graph_from_dict(obj)
    assert time.perf_counter() - t0 < 1.0
    # past MAX_VERTICES the vertex count is refused before any edge is read
    n = 20_001
    edges = [[i, i + 1] for i in range(1, n)]
    obj = {"n": n, "k": 1, "colors": [1] * n, "edges": edges + [edges[-1]]}
    with pytest.raises(CapabilityExceeded, match=f"^{n} vertices exceed MAX_VERTICES"):
        graph_from_dict(obj)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    assert main(["hash", str(path)]) == 3
    assert "MAX_VERTICES" in capsys.readouterr().err
    # the first repeat in list order is the one named
    twice = {**DUPLICATE_EDGE, "edges": [[1, 2], [2, 3], [2, 3], [1, 2]]}
    with pytest.raises(GraphError, match=r"^edge \(2, 3\) is listed"):
        graph_from_dict(twice)
    # the pass stops at the first fault, so a repeat before a bad entry is
    # the one named
    repeat_first = {**DUPLICATE_EDGE, "edges": [[1, 2], [1, 2], [2, True]]}
    with pytest.raises(GraphError, match=r"^edge \(1, 2\) is listed"):
        graph_from_dict(repeat_first)


@pytest.mark.parametrize("command", ["hash", "hash --normalize"])
def test_edge_endpoint_outside_range_is_input_error(tmp_path, command, capsys):
    # refused by pack_edges, and with --normalize by normalize_dag
    path = tmp_path / "outside.json"
    path.write_text(json.dumps({"n": 3, "k": 1, "colors": [1, 1, 1], "edges": [[1, 2], [2, 4]]}))
    assert main([*command.split(), str(path)]) == 2
    assert "edge (2, 4) has an endpoint outside 1..3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hash", "hash --normalize", "iso"])
def test_duplicate_edges_are_input_error(tmp_path, command, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(DUPLICATE_EDGE))
    files = [str(path)] * (2 if command == "iso" else 1)
    assert main([*command.split(), *files]) == 2
    assert "more than once" in capsys.readouterr().err


def test_iso_prints_witness_images(tmp_path, triple, capsys):
    left = write(tmp_path, "left.json", triple[0])
    mid = write(tmp_path, "mid.json", triple[1])
    right = write(tmp_path, "right.json", triple[2])
    assert main(["iso", left, mid]) == 0
    assert capsys.readouterr().out.strip() == "1 2 4 3 5"
    assert main(["iso", left, right]) == 0
    assert capsys.readouterr().out.strip() == "1 3 4 2 5"


def test_iso_negative_answer(tmp_path, pinned_pair, capsys):
    f1 = write(tmp_path, "g1.json", pinned_pair.g1)
    f2 = write(tmp_path, "g2.json", pinned_pair.g2)
    assert main(["iso", f1, f2]) == 1
    assert capsys.readouterr().out.strip() == "non-isomorphic"


def test_iso_over_cap_is_capability_error(tmp_path, capsys):
    n = 13
    g = validate(n, 1, [(i, i + 1) for i in range(1, n)], [1] * n)
    path = write(tmp_path, "long.json", g)
    assert main(["iso", path, path]) == 3
    assert "error:" in capsys.readouterr().err


def test_enumerate_stdout_stream(capsys):
    code = main(
        ["enumerate", "--max-vertices", "3", "--max-edges", "3", "--colors", "1"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    records = [parse_record_line(line) for line in lines[:3]]
    expected = list(enumerate_graphs(EnumerationConfig(3, 3, 1)))
    for (digest, obj), rec in zip(records, expected):
        assert digest == rec.invariant
        assert obj["n"] == rec.graph.n
        assert tuple(obj["colors"]) == rec.graph.colors
        assert [tuple(e) for e in obj["edges"]] == list(rec.graph.edges)
    per_n, total = parse_summary_line(lines[3])
    assert per_n == {2: 1, 3: 2} and total == 3


def test_enumerate_file_mode(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code = main(
        [
            "enumerate",
            "--max-vertices", "3",
            "--max-edges", "3",
            "--colors", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    human = capsys.readouterr().out.splitlines()
    assert human == ["n=2: 4", "n=3: 16", "total: 20"]
    lines = out.read_text().splitlines()
    assert len(lines) == 21
    per_n, total = parse_summary_line(lines[-1])
    assert total == 20 and per_n == {2: 4, 3: 16}
    for line in lines[:-1]:
        parse_record_line(line)


def test_enumerate_reruns_byte_identical(tmp_path, capsys):
    args = ["enumerate", "--max-vertices", "4", "--max-edges", "6", "--colors", "2"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_enumerate_workers_do_not_change_output(tmp_path, capsys, monkeypatch):
    # two cores, so the pool runs even on a one-core host
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    args = [
        "enumerate",
        "--max-vertices", "4",
        "--max-edges", "6",
        "--colors", "2",
        "--reserved-io",
    ]
    a, b = tmp_path / "seq.jsonl", tmp_path / "par.jsonl"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--workers", "2"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_enumerate_workers_capped_at_cpu_count(monkeypatch, capsys):
    # no process is started: the stub pool records its size and refuses;
    # one usable core hashes in this process and builds no pool
    sizes = []

    class Refused(Exception):
        pass

    def pool(max_workers):
        sizes.append(max_workers)
        raise Refused

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    args = ["enumerate", "--max-vertices", "3", "--max-edges", "3", "--colors", "1"]
    for workers in ("1000000", "2"):
        with pytest.raises(Refused):
            main(args + ["--workers", workers])
    assert sizes == [3, 2]
    capsys.readouterr()
    assert main(args) == 0
    sequential = capsys.readouterr().out
    for cores in (None, 1):
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cores)
        assert main(args + ["--workers", "2"]) == 0
        assert sizes == [3, 2]
        assert capsys.readouterr().out == sequential


def test_enumerate_bad_bounds_is_input_error(capsys):
    code = main(
        ["enumerate", "--max-vertices", "1", "--max-edges", "3", "--colors", "1"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_reports_pure_buckets(capsys):
    code = main(["verify", "--max-vertices", "3", "--max-edges", "3", "--colors", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "total: 20" in out
    assert "all buckets pure" in out


def test_verify_readme_example(capsys):
    argv = ["--max-vertices", "5", "--max-edges", "9", "--colors", "3", "--reserved-io"]
    assert main(["verify", *argv]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "all buckets pure (832 duplicate members verified)"


def test_enumerate_readme_example(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("$ daghash enumerate --max-vertices 3 --max-edges 3 --colors 1\n")[1]
    assert main(["enumerate", "--max-vertices", "3", "--max-edges", "3", "--colors", "1"]) == 0
    assert capsys.readouterr().out == block[: block.index("```")]


@st.composite
def records(draw):
    g = draw(valid_graphs(max_n=12))
    colors = draw(st.lists(st.integers(1, 300), min_size=g.n, max_size=g.n))
    digest = draw(st.binary(min_size=16, max_size=16))
    return digest, ComputationalGraph(g.n, 300, g.bits, tuple(colors))


@settings(max_examples=100)
@given(records(), records())
def test_record_line_matches_json_dumps(a, b):
    # A, B, A: the cached edges text of one graph must never leak into another
    for digest, g in (a, b, a):
        assert record_line(digest, g) == json.dumps(
            {
                "hash": digest.hex(),
                "n": g.n,
                "colors": list(g.colors),
                "edges": [list(e) for e in g.edges],
            }
        )


def test_record_line_colors_cache_is_exact():
    # 1 == True == 1.0, so (1, 2), (True, 2) and (1.0, 2) are one cache key;
    # each must still print as json.dumps prints it
    digest = bytes(16)
    for colors in ((1, 2), (True, 2), (1.0, 2), (1, 2), (True, 2), (1.0, 2)):
        g = ComputationalGraph(2, 2, 1, colors)
        want = json.dumps({"hash": digest.hex(), "n": 2, "colors": list(colors),
                           "edges": [[1, 2]]})
        assert record_line(digest, g) == want


def test_verify_false_merge_is_negative_answer(monkeypatch, capsys):
    # a digest that depends only on n merges the 3-vertex path and triangle
    def by_n(n, outs, ins, colors, backend="md5"):
        return bytes([n]) * 16

    monkeypatch.setattr(enumeration, "invariant_from_lists", by_n)
    code = main(["verify", "--max-vertices", "3", "--max-edges", "3", "--colors", "1"])
    assert code == 1
    path = {"n": 3, "k": 1, "colors": [1, 1, 1], "edges": [[1, 2], [2, 3]]}
    triangle = {"n": 3, "k": 1, "colors": [1, 1, 1], "edges": [[1, 2], [1, 3], [2, 3]]}
    assert capsys.readouterr().out.splitlines() == [
        f"false merge on digest {'03' * 16}",
        f"canonical: {json.dumps(path)}",
        f"offender:  {json.dumps(triangle)}",
    ]


def test_verify_over_cap_is_capability_error(capsys):
    code = main(["verify", "--max-vertices", "13", "--max-edges", "3", "--colors", "1"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_too_many_colorings_is_capability_error(tmp_path, command, capsys):
    # 30000 ** 2 colorings at n = 2 once filled memory before the first record
    out = tmp_path / "records.jsonl"
    argv = [command, "--max-vertices", "2", "--max-edges", "1", "--colors", "30000"]
    if command == "enumerate":
        argv += ["--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceed" in captured.err
    assert not out.exists()


def test_failed_enumerate_keeps_special_out_file(monkeypatch, capsys):
    # a failed run removes its partial --out file only if it is a regular
    # file; the recorder stands in for os.unlink, so no device is at risk
    unlinked = []
    monkeypatch.setattr(os, "unlink", unlinked.append)
    argv = ["enumerate", "--max-vertices", "2", "--max-edges", "1", "--colors", "30000"]
    assert main(argv + ["--out", os.devnull]) == 3
    assert "exceed" in capsys.readouterr().err
    assert unlinked == []


def run_child(argv, setup=""):
    """Run the command line in a child process that first imports it, then
    runs setup, then times main; returns the run and main's seconds."""
    code = (
        "import sys, time\nfrom daghash.cli import main\n"
        f"{setup}\n"
        "t0 = time.perf_counter()\ncode = main(sys.argv[1:])\n"
        "print(f'seconds: {time.perf_counter() - t0}', file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    return run, float(run.stderr.rsplit("seconds: ", 1)[1])


# The child may write files of at most 100 bytes, and a longer write fails
# with EFBIG instead of killing it.
SMALL_FILES = (
    "import resource, signal\n"
    "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
    "resource.setrlimit(resource.RLIMIT_FSIZE,"
    " (100, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))"
)


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
@pytest.mark.parametrize("argv", [
    ["enumerate", "--max-vertices", "3", "--max-edges", "3", "--colors", "1"],
    ["adversarial", "--figure2"],
])
def test_failed_final_write_removes_out_file(tmp_path, argv):
    # the output fits the write buffer, so the write fails in the final
    # flush, when the file is closed; that once left a 100-byte file
    out = tmp_path / "out.json"
    run, _ = run_child(argv + ["--out", str(out)], SMALL_FILES)
    assert run.returncode == 2
    assert run.stderr.startswith(f"error: [Errno {errno.EFBIG}] ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_scan_steps_over_budget_matrices(tmp_path, command):
    # visiting every int below 2^66 at n = 12 never ended; the matrices
    # within budget, at most 2,212 per n, take milliseconds
    argv = [command, "--max-vertices", "12", "--max-edges", "2", "--colors", "1"]
    if command == "enumerate":
        argv += ["--out", str(tmp_path / "records.jsonl")]
    run, seconds = run_child(argv)
    assert run.returncode == 0, run.stderr
    table = ["n=2: 1", "n=3: 1", "total: 2"]
    if command == "verify":
        table.append("all buckets pure (0 duplicate members verified)")
    assert run.stdout.splitlines() == table
    assert seconds < 1.0


def test_out_of_memory_is_capability_error(tmp_path, monkeypatch, capsys):
    # two records, then the allocator gives up; no real memory is exhausted
    def failing(config, backend="md5", workers=1):
        records = enumerate_graphs(config, backend=backend)
        yield next(records)
        yield next(records)
        raise MemoryError

    monkeypatch.setattr(cli, "enumerate_graphs", failing)
    out = tmp_path / "records.jsonl"
    argv = ["enumerate", "--max-vertices", "3", "--max-edges", "3", "--colors", "1"]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"
    assert not out.exists()


def test_concat_census_matches_md5_census(tmp_path, capsys):
    # the only CLI path into the concat refinement rounds and final
    argv = ["--max-vertices", "5", "--max-edges", "7", "--colors", "2", "--reserved-io"]
    census = {}
    for backend in ("md5", "concat"):
        out = tmp_path / f"{backend}.jsonl"
        assert main(["enumerate", *argv, "--backend", backend, "--out", str(out)]) == 0
        census[backend] = [
            {k: v for k, v in json.loads(line).items() if k != "hash"}
            for line in out.read_text().splitlines()
        ]
    # 551 records, then the summary line
    assert census["concat"] == census["md5"]
    assert len(census["concat"]) == 552 and census["concat"][-1]["total"] == 551
    capsys.readouterr()
    assert main(["verify", *argv, "--backend", "concat"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "all buckets pure (190 duplicate members verified)"


def test_concat_over_size_cap_is_capability_error(tmp_path, capsys):
    # the 14-vertex adversarial graph's concat digest would take about 831 GB
    path = write(tmp_path, "g1.json", bipartite_adversarial_pair(2, 6).g1)
    assert main(["hash", path, "--backend", "concat"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "CONCAT_MAX_BYTES" in captured.err


def test_vertex_cap_is_capability_error(tmp_path, capsys):
    # a 200,002-vertex pair once raised MemoryError in pack_edges (exit 1)
    assert main(["adversarial", "--degree", "2", "--size", "100000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_VERTICES" in captured.err
    n = MAX_VERTICES + 1
    path = tmp_path / "path.json"
    edges = [[i, i + 1] for i in range(1, n)]
    path.write_text(json.dumps({"n": n, "k": 1, "colors": [1] * n, "edges": edges}))
    assert main(["hash", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_VERTICES" in captured.err


_INTS = st.integers(-3, 10) | st.integers(-(2**70), 2**70) | st.integers(0, 10**9)
_JUNK = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4) | _INTS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=4)
    ),
    max_leaves=12,
)
_GRAPHISH = st.fixed_dictionaries({
    "n": _INTS | _JUNK,
    "k": _INTS | _JUNK,
    "colors": st.lists(_INTS, max_size=9) | _JUNK,
    "edges": st.lists(st.lists(_INTS, min_size=2, max_size=2) | _JUNK, max_size=8) | _JUNK,
})
_FILES = (
    valid_graphs(max_n=8).map(graph_to_dict) | _GRAPHISH | _JUNK
).map(lambda v: json.dumps(v).encode()) | st.binary(max_size=40)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["hash", "hash --normalize", "hash --backend concat", "iso"]),
    st.lists(_FILES, min_size=2, max_size=2),
)
def test_exit_code_contract_fuzz(command, contents):
    """Any file gives exit 0, 1 (iso's negative answer only), 2 or 3."""
    cap = hashing.CONCAT_MAX_BYTES
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for t, data in enumerate(contents[: 2 if command == "iso" else 1]):
            paths.append(str(Path(tmp) / f"g{t}.json"))
            Path(paths[-1]).write_bytes(data)
        try:
            # valid concat inputs reach the cap at test-sized digests
            hashing.CONCAT_MAX_BYTES = 1 << 20
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([*command.split(), *paths])
        finally:
            hashing.CONCAT_MAX_BYTES = cap
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert command == "iso" and out.getvalue() == "non-isomorphic\n"


def test_adversarial_figure2_stdout(pinned_pair, capsys):
    assert main(["adversarial", "--figure2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    payload = json.loads(lines[0])
    assert set(payload) == {"g1", "g2"}
    assert payload["g1"]["n"] == 10 and payload["g2"]["n"] == 10
    digest = digest_hex(graph_invariant(pinned_pair.g1))
    assert lines[1] == f"digest: {digest}"
    assert lines[2] == f"digest: {digest}"
    assert lines[3].startswith("certificate: ")


def test_adversarial_hashes_each_graph_once(monkeypatch, capsys):
    # the pair carries the digest _certified checked, so printing it hashes
    # nothing more; the stdout bytes are pinned
    calls = []

    def counting(g, backend="md5"):
        calls.append(g)
        return graph_invariant(g, backend)

    monkeypatch.setattr(adversarial, "graph_invariant", counting)
    monkeypatch.setattr(cli, "graph_invariant", counting)
    assert main(["adversarial", "--figure2"]) == 0
    assert len(calls) == 2
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "8b1fc4946c39a5145952beb92f80ae5f2c3d63491cc42e81552b6e3fb902c78b"
    )


def test_adversarial_out_file(tmp_path, capsys):
    out = tmp_path / "pair.json"
    assert main(["adversarial", "--degree", "2", "--size", "6", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0] == lines[1]
    payload = json.loads(out.read_text())
    assert payload["g1"]["n"] == 14


def test_adversarial_degenerate_is_negative(capsys):
    assert main(["adversarial", "--degree", "2", "--size", "3"]) == 1
    assert "degenerate construction" in capsys.readouterr().out


def test_adversarial_invalid_parameters(capsys):
    assert main(["adversarial", "--degree", "1", "--size", "4"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["adversarial"],
        ["adversarial", "--figure2", "--degree", "2", "--size", "4"],
        ["adversarial", "--degree", "2"],
        ["adversarial", "--size", "4"],
    ],
)
def test_adversarial_flag_conflicts(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # the usage line names the subcommand, as argparse's own errors do
    assert capsys.readouterr().err.startswith("usage: daghash adversarial")


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_entry_exits_with_main_code(monkeypatch, capsys):
    # the console script reads sys.argv and exits with main's return code
    argv = ["verify", "--max-vertices", "13", "--max-edges", "3", "--colors", "1"]
    monkeypatch.setattr(sys, "argv", ["daghash", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err
