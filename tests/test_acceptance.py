"""Acceptance gate: eight end-to-end criteria with runtime budgets.

Each test prints one [PASS]/[FAIL] line on the real terminal (capture
disabled) so a full run reads as a checklist.  Budgets are asserted, not
advisory: a slow pass is a failure.
"""

import hashlib
import itertools
import time
from contextlib import contextmanager

import pytest

from conftest import parse_summary_line
from daghash.cli import main as cli_main
from daghash.enumeration import EnumerationConfig, _surviving_matrices, enumerate_graphs
from daghash.graphs import apply_permutation, linear_extensions
from daghash.hashing import graph_invariant, graph_invariants, refinement_trace
from daghash.isomorphism import are_isomorphic, verify_witness

SEARCH_SPACE_ARGS = [
    "enumerate",
    "--max-vertices", "7",
    "--max-edges", "9",
    "--colors", "3",
    "--reserved-io",
]

# pinned on the first brute-force-verified run of this pipeline; the n <= 5
# prefix is re-proven pure by criterion 4's oracle sweep on every run
SEARCH_SPACE_TOTAL = 423_624
SEARCH_SPACE_PER_N = {2: 1, 3: 6, 4: 84, 5: 2_441, 6: 62_010, 7: 359_082}
# the reference census file, byte for byte
SEARCH_SPACE_SHA256 = "9dad824e44cf545acfd193a585f03fa4afa24db39148d876188c25b21a318d81"


@contextmanager
def criterion(capsys, num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {num}: {label}")
        raise
    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(f"[PASS] criterion {num}: {label} ({dt:.2f}s)")


@pytest.fixture(scope="module")
def search_space_run(tmp_path_factory):
    """First full census run; shared by criteria 5 and 8."""
    out = tmp_path_factory.mktemp("census") / "run1.jsonl"
    t0 = time.perf_counter()
    code = cli_main(SEARCH_SPACE_ARGS + ["--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return out, elapsed


def test_criterion_1_example_triple(triple, capsys):
    with criterion(capsys, 1, "example triple: one digest, pairwise witnesses"):
        t0 = time.perf_counter()
        for backend in ("md5", "concat"):
            a, b, c = graph_invariants(list(triple), backend)
            assert a == b == c
        for g1, g2 in itertools.combinations(triple, 2):
            w = are_isomorphic(g1, g2)
            assert w.isomorphic and verify_witness(g1, g2, w.permutation)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_adversarial_pair(pinned_pair, capsys):
    with criterion(capsys, 2, "pinned pair: equal digests, non-isomorphic"):
        t0 = time.perf_counter()
        g1, g2 = pinned_pair.g1, pinned_pair.g2
        assert graph_invariant(g1) == graph_invariant(g2)
        c1, c2 = graph_invariants([g1, g2], "concat")
        assert c1 == c2
        assert not are_isomorphic(g1, g2).isomorphic
        for trace in (refinement_trace(g1), refinement_trace(g2)):
            for state in trace:
                assert len({state[i] for i in range(1, 5)}) == 1
                assert len({state[i] for i in range(5, 9)}) == 1
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_relabeling_invariance(small_corpus, capsys):
    with criterion(capsys, 3, "digest constant over all linear extensions"):
        t0 = time.perf_counter()
        checks = failures = 0
        for rec in small_corpus:
            for p in linear_extensions(rec.graph):
                image = apply_permutation(rec.graph, p)
                checks += 1
                if graph_invariant(image) != rec.invariant:
                    failures += 1
        assert failures == 0
        assert checks >= len(small_corpus) == 3_148
        assert time.perf_counter() - t0 < 300.0


def test_criterion_4_bucket_purity_reduced_scale(capsys):
    with criterion(capsys, 4, "oracle sweep finds zero false merges"):
        t0 = time.perf_counter()
        code = cli_main(
            [
                "verify",
                "--max-vertices", "5",
                "--max-edges", "9",
                "--colors", "3",
                "--reserved-io",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all buckets pure" in out
        assert time.perf_counter() - t0 < 600.0


def test_criterion_5_search_space_census(search_space_run, capsys):
    out, elapsed = search_space_run
    label = f"full reserved-io census matches pinned count and bytes, run took {elapsed:.0f}s"
    with criterion(capsys, 5, label):
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SEARCH_SPACE_SHA256
        lines = out.read_text().splitlines()
        per_n, total = parse_summary_line(lines[-1])
        assert total == SEARCH_SPACE_TOTAL
        assert per_n == SEARCH_SPACE_PER_N
        assert len(lines) == total + 1
        assert elapsed < 1800.0


def _cycles(order):
    seen, count = set(), 0
    for start in order:
        count += start not in seen
        v = start
        while v not in seen:
            seen.add(v)
            v = order[v]
    return count


def test_burnside_counts_the_search_space_classes():
    # Counts each n's classes without the hash (Cauchy-Frobenius).  A
    # survivor is its canonical matrix C iff the identity is among its
    # orders, which are then the automorphisms of C; each fixes the sole
    # source and sink, whose colors are reserved, and fixes 3 ** (its cycles
    # on the other vertices) colorings.  Equal census keys give equal
    # digests, so the census never splits a class; with criterion 5's equal
    # per-n counts it merges none either: one record per class.
    per_n = {}
    for n in range(2, 8):
        per_n[n] = 0
        for _, _, _, orders in _surviving_matrices(n, 9):
            if tuple(range(n)) in orders:
                assert all(order[0] == 0 and order[-1] == n - 1 for order in orders)
                fixed = sum(3 ** (_cycles(order) - 2) for order in orders)
                assert fixed % len(orders) == 0
                per_n[n] += fixed // len(orders)
    assert per_n == SEARCH_SPACE_PER_N


def test_criterion_6_oracle_equivalence(census_by_oracle, capsys):
    with criterion(capsys, 6, "small-space totals equal the no-hash census"):
        for spec, expected in (((2, 1, 1), 1), ((3, 3, 1), 3), ((3, 3, 2), 20)):
            total = sum(1 for _ in enumerate_graphs(EnumerationConfig(*spec)))
            assert total == expected == census_by_oracle(*spec)


def test_criterion_7_backend_agreement(small_corpus, capsys):
    with criterion(capsys, 7, "md5 and concat partition the corpus alike"):
        md5_digests = [rec.invariant for rec in small_corpus]
        concat_digests = graph_invariants(
            [rec.graph for rec in small_corpus], "concat"
        )
        groups_md5 = {}
        groups_concat = {}
        for idx, (dm, dc) in enumerate(zip(md5_digests, concat_digests)):
            groups_md5.setdefault(dm, []).append(idx)
            groups_concat.setdefault(dc, []).append(idx)
        partition_md5 = {tuple(v) for v in groups_md5.values()}
        partition_concat = {tuple(v) for v in groups_concat.values()}
        assert partition_md5 == partition_concat


def test_criterion_8_determinism(search_space_run, tmp_path, capsys):
    with criterion(capsys, 8, "census rerun is byte-identical"):
        first, _ = search_space_run
        second = tmp_path / "run2.jsonl"
        assert cli_main(SEARCH_SPACE_ARGS + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert second.read_bytes() == first.read_bytes()
