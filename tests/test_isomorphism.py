"""Brute-force oracle: witnesses, soundness, symmetry, the cap."""

import gc
import itertools
import time

import pytest
from hypothesis import given, settings

from conftest import identity_permutation, inverse_permutation, valid_graphs
from daghash import enumeration, isomorphism
from daghash.enumeration import EnumerationConfig, verify_buckets
from daghash.graphs import (
    ComputationalGraph,
    GraphError,
    Permutation,
    apply_permutation,
    linear_extensions,
    neighbor_rows_from_bits,
    pack_edges,
    validate,
)
from daghash.isomorphism import (
    ORACLE_MAX_VERTICES,
    IsoWitness,
    OracleCapExceeded,
    are_isomorphic,
    verify_witness,
)


def test_self_isomorphism_yields_identity(triple):
    for g in triple:
        w = are_isomorphic(g, g)
        assert w.isomorphic
        assert w.permutation.mapping == tuple(range(1, g.n + 1))


def test_triple_witnesses(triple):
    left, middle, right = triple
    w = are_isomorphic(left, middle)
    assert w.isomorphic and w.permutation.mapping == (1, 2, 4, 3, 5)
    w = are_isomorphic(left, right)
    assert w.isomorphic and w.permutation.mapping == (1, 3, 4, 2, 5)
    w = are_isomorphic(middle, right)
    assert w.isomorphic


def test_size_mismatch_is_negative():
    a = validate(2, 1, {(1, 2)}, [1, 1])
    b = validate(3, 1, {(1, 2), (2, 3)}, [1, 1, 1])
    w = are_isomorphic(a, b)
    assert not w.isomorphic and w.permutation is None


def test_declared_palette_is_ignored():
    a = validate(2, 1, {(1, 2)}, [1, 1])
    b = validate(2, 9, {(1, 2)}, [1, 1])
    assert are_isomorphic(a, b).isomorphic


def test_color_mismatch_is_negative():
    a = validate(2, 2, {(1, 2)}, [1, 2])
    b = validate(2, 2, {(1, 2)}, [2, 1])
    assert not are_isomorphic(a, b).isomorphic


def test_counterexample_is_non_isomorphic(pinned_pair):
    assert not are_isomorphic(pinned_pair.g1, pinned_pair.g2).isomorphic


def test_verify_witness_identity(triple):
    g = triple[0]
    assert verify_witness(g, g, identity_permutation(g.n))


def test_verify_witness_triple(triple):
    left, middle, _ = triple
    assert verify_witness(left, middle, Permutation((1, 2, 4, 3, 5)))
    assert not verify_witness(left, middle, identity_permutation(5))


def test_verify_witness_checks_colors():
    a = validate(2, 2, {(1, 2)}, [1, 2])
    b = validate(2, 2, {(1, 2)}, [1, 1])
    assert not verify_witness(a, b, identity_permutation(2))


def test_verify_witness_rejects_reversed_edges():
    # the reversal maps the path onto its mirror image: same shape, every
    # edge pointing backwards
    path = validate(3, 1, {(1, 2), (2, 3)}, [1, 1, 1])
    assert not verify_witness(path, path, Permutation((3, 2, 1)))


def test_verify_witness_on_long_path_in_linear_time():
    # comparing adjacency rows built by shifting the packed int took about
    # 3.4 s at 8,000 vertices (2-core Xeon VM)
    n = 8000
    g = ComputationalGraph(n, 1, pack_edges(n, [(i, i + 1) for i in range(1, n)]), (1,) * n)
    t0 = time.perf_counter()
    assert verify_witness(g, g, identity_permutation(n))
    assert time.perf_counter() - t0 < 1.0


def test_verify_witness_size_mismatch_is_error():
    g2 = validate(2, 1, {(1, 2)}, [1, 1])
    g3 = validate(3, 1, {(1, 2), (2, 3)}, [1, 1, 1])
    with pytest.raises(GraphError):
        verify_witness(g2, g3, identity_permutation(2))
    with pytest.raises(GraphError):
        verify_witness(g3, g3, identity_permutation(2))


def test_verify_witness_matches_edge_set_definition(small_corpus):
    # every permutation, reversing ones and non-witnesses included, of every
    # pair of classes with n <= 4 and equal vertex and edge counts, and of
    # each class against its images under its linear extensions
    graphs = [rec.graph for rec in small_corpus if rec.graph.n <= 4]
    pairs = [
        (g1, g2) for g1 in graphs for g2 in graphs
        if g1.n == g2.n and g1.bits.bit_count() == g2.bits.bit_count()
    ]
    pairs += [(g, apply_permutation(g, q)) for g in graphs for q in linear_extensions(g)]
    witnesses = 0
    for g1, g2 in pairs:
        target = set(g2.edges)
        for mapping in itertools.permutations(range(1, g1.n + 1)):
            expected = all(
                g1.colors[i] == g2.colors[mapping[i] - 1] for i in range(g1.n)
            ) and {(mapping[i - 1], mapping[j - 1]) for i, j in g1.edges} == target
            assert verify_witness(g1, g2, Permutation(mapping)) == expected
            witnesses += expected
    assert witnesses > len(graphs)


def test_unverified_witness_is_internal_error(triple, monkeypatch):
    # the search's witness is re-checked before it is returned
    monkeypatch.setattr(isomorphism, "verify_witness", lambda g1, g2, p: False)
    with pytest.raises(RuntimeError, match="re-verification"):
        are_isomorphic(triple[0], triple[0])


def test_witness_type_shape():
    w = IsoWitness(None)
    assert not w.isomorphic
    w = IsoWitness(identity_permutation(2))
    assert w.isomorphic


def test_oracle_cap():
    n = ORACLE_MAX_VERTICES + 1
    edges = [(i, i + 1) for i in range(1, n)]
    g = validate(n, 1, edges, [1] * n)
    with pytest.raises(OracleCapExceeded):
        are_isomorphic(g, g)


def test_cap_boundary_is_allowed():
    n = ORACLE_MAX_VERTICES
    edges = [(i, i + 1) for i in range(1, n)]
    g = validate(n, 1, edges, [1] * n)
    assert are_isomorphic(g, g).isomorphic


@settings(max_examples=60)
@given(valid_graphs(max_n=5))
def test_relabelings_are_found_and_verified(g):
    extensions = list(linear_extensions(g))
    p = extensions[-1]
    gp = apply_permutation(g, p)
    w = are_isomorphic(g, gp)
    assert w.isomorphic
    assert verify_witness(g, gp, w.permutation)


@settings(max_examples=40)
@given(valid_graphs(max_n=5))
def test_witness_symmetry(g):
    extensions = list(linear_extensions(g))
    gp = apply_permutation(g, extensions[-1])
    w12 = are_isomorphic(g, gp)
    w21 = are_isomorphic(gp, g)
    assert w12.isomorphic and w21.isomorphic
    assert verify_witness(gp, g, inverse_permutation(w12.permutation))
    assert verify_witness(g, gp, inverse_permutation(w21.permutation))


def test_lexicographically_first_witness():
    # two disjoint recolorable middle vertices admit several witnesses; the
    # oracle must return the smallest mapping
    g = validate(4, 1, {(1, 2), (1, 3), (2, 4), (3, 4)}, [1, 1, 1, 1])
    w = are_isomorphic(g, g)
    assert w.permutation.mapping == (1, 2, 3, 4)


def _naive_isomorphic(g1, g2):
    """Definition-level oracle: the first of all n! bijections, no pruning.

    itertools.permutations yields mappings in lexicographic order, so the
    mapping returned is the lexicographically first witness; None if no
    bijection preserves colors and edges.
    """
    if g1.n != g2.n:
        return None
    e1 = set(g1.edges)
    e2 = set(g2.edges)
    for mapping in itertools.permutations(range(1, g1.n + 1)):
        p = Permutation(mapping)
        if any(g1.colors[i - 1] != g2.colors[p(i) - 1] for i in range(1, g1.n + 1)):
            continue
        ok = True
        for i in range(1, g1.n + 1):
            for j in range(i + 1, g1.n + 1):
                # membership of the mapped pair with its actual orientation;
                # edge sets only ever hold (small, large) pairs, so a mapped
                # edge that lands reversed is simply absent from e2
                if ((i, j) in e1) != ((p(i), p(j)) in e2):
                    ok = False
                    break
                if ((j, i) in e1) != ((p(j), p(i)) in e2):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return mapping
    return None


def _last_relabeling(g):
    return apply_permutation(g, list(linear_extensions(g))[-1])


def test_pruned_oracle_agrees_with_naive_search(small_corpus):
    """Candidate pruning must change no verdict and no witness (n <= 5 sample)."""
    import random

    rng = random.Random(11)
    graphs = rng.sample([r.graph for r in small_corpus], 60)
    pairs = [(rng.choice(graphs), rng.choice(graphs)) for _ in range(120)]
    pairs += [(g, _last_relabeling(g)) for g in graphs]
    # raw graphs that break the path condition: several sources and sinks
    raw = [
        ComputationalGraph(4, 2, pack_edges(4, [(1, 3), (2, 3), (2, 4)]), (1, 2, 1, 2)),
        ComputationalGraph(5, 1, pack_edges(5, [(1, 4), (2, 4), (3, 5)]), (1,) * 5),
        ComputationalGraph(5, 2, pack_edges(5, [(1, 5), (2, 5), (3, 4)]), (2, 1, 1, 2, 1)),
        ComputationalGraph(4, 1, 0, (1,) * 4),
    ]
    pairs += [(g, _last_relabeling(g)) for g in raw]
    assert any(g.n == 5 for pair in pairs for g in pair)
    for g1, g2 in pairs:
        w = are_isomorphic(g1, g2).permutation
        assert (None if w is None else w.mapping) == _naive_isomorphic(g1, g2)


def test_oracle_on_verify_pairs(monkeypatch):
    """The pairs verify itself checks: every witness is the naive search's,
    a recolored interior vertex makes the pair negative, and swapping two
    interior colors leaves the naive search's verdict and witness."""
    pairs = []

    def record(rep, dup):
        pairs.append((rep, dup))
        return are_isomorphic(rep, dup)

    monkeypatch.setattr(enumeration, "are_isomorphic", record)
    report = verify_buckets(EnumerationConfig(5, 7, 2, True))
    assert len(pairs) == report.duplicates == 190
    moved, swap_verdicts = 0, set()
    for rep, dup in pairs:
        mapping = are_isomorphic(rep, dup).permutation.mapping
        assert mapping == _naive_isomorphic(rep, dup)
        moved += mapping != tuple(range(1, rep.n + 1))
        colors = list(dup.colors)
        colors[1] = 3 - colors[1]  # interior colors are 1 and 2
        recolored = dup._replace(colors=tuple(colors))
        assert not are_isomorphic(rep, recolored).isomorphic
        assert _naive_isomorphic(rep, recolored) is None
        v = next((v for v in range(2, dup.n - 1) if dup.colors[v] != dup.colors[1]), None)
        if v is not None:
            colors = list(dup.colors)
            colors[1], colors[v] = colors[v], colors[1]
            swapped = dup._replace(colors=tuple(colors))
            w = are_isomorphic(rep, swapped).permutation
            assert (None if w is None else w.mapping) == _naive_isomorphic(rep, swapped)
            swap_verdicts.add(w is not None)
    assert moved > 0 and swap_verdicts == {True, False}


def test_verify_stream_reuses_decoded_rows():
    # verify hashes each matrix's colorings in a row, so most oracle calls
    # repeat the last call's two matrices and hit the two-slot cache (326
    # of 380 lookups); the witness check walks g1's bits and looks up nothing
    report = verify_buckets(EnumerationConfig(5, 7, 2, True))
    info = neighbor_rows_from_bits.cache_info()
    lookups = info.hits + info.misses
    assert lookups == 2 * report.duplicates == 380
    assert info.hits >= 0.85 * lookups


def test_oracle_leaves_no_garbage(triple, pinned_pair):
    # the recursive search closure referred to itself, so every call left a
    # cycle that only the cyclic collector freed
    for g1, g2 in ((triple[0], triple[1]), (pinned_pair.g1, pinned_pair.g2)):
        gc.collect()
        gc.disable()
        try:
            are_isomorphic(g1, g2)
            assert gc.collect() == 0
        finally:
            gc.enable()
