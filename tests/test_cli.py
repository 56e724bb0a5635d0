"""Command-line behavior: output formats and the exit-code contract."""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import valid_graphs
from daghash import adversarial, cli, enumeration, hashing
from daghash.adversarial import bipartite_adversarial_pair
from daghash.cli import main
from daghash.enumeration import EnumerationConfig, enumerate_graphs
from daghash.formats import (
    graph_from_dict,
    graph_to_dict,
    parse_record_line,
    parse_summary_line,
    save_graph,
)
from daghash.graphs import MAX_VERTICES, GraphError, validate
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


DUPLICATE_EDGE = {"n": 3, "k": 1, "colors": [1, 1, 1], "edges": [[1, 2], [2, 3], [1, 2]]}


@pytest.mark.parametrize("normalize", [False, True])
def test_graph_from_dict_rejects_duplicate_edges(normalize):
    # the pair once merged silently, so two different files hashed equal
    with pytest.raises(GraphError, match="more than once"):
        graph_from_dict(DUPLICATE_EDGE, normalize=normalize)
    reversed_twice = {**DUPLICATE_EDGE, "edges": [[2, 1], [3, 2], [2, 1]]}
    with pytest.raises(GraphError, match="more than once"):
        graph_from_dict(reversed_twice, normalize=normalize)
    once = {**DUPLICATE_EDGE, "edges": [[1, 2], [2, 3]]}
    assert graph_from_dict(once, normalize=normalize).edges == ((1, 2), (2, 3))


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


def test_enumerate_workers_do_not_change_output(tmp_path, capsys):
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
    # no process is started: the stub pool records its size and refuses
    sizes = []

    class Refused(Exception):
        pass

    def pool(max_workers):
        sizes.append(max_workers)
        raise Refused

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    args = ["enumerate", "--max-vertices", "3", "--max-edges", "3", "--colors", "1"]
    for workers in ("1000000", "2"):
        with pytest.raises(Refused):
            main(args + ["--workers", workers])
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
    with pytest.raises(Refused):
        main(args + ["--workers", "2"])
    assert sizes == [3, 2, 1]
    capsys.readouterr()


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
    capsys.readouterr()


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
