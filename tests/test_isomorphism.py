"""Brute-force oracle: witnesses, soundness, symmetry, the cap."""

import itertools

import pytest
from hypothesis import given, settings

from conftest import valid_graphs
from daghash.graphs import (
    ComputationalGraph,
    GraphError,
    Permutation,
    apply_permutation,
    linear_extensions,
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
    assert verify_witness(g, g, Permutation.identity(g.n))


def test_verify_witness_triple(triple):
    left, middle, _ = triple
    assert verify_witness(left, middle, Permutation((1, 2, 4, 3, 5)))
    assert not verify_witness(left, middle, Permutation.identity(5))


def test_verify_witness_checks_colors():
    a = validate(2, 2, {(1, 2)}, [1, 2])
    b = validate(2, 2, {(1, 2)}, [1, 1])
    assert not verify_witness(a, b, Permutation.identity(2))


def test_verify_witness_rejects_reversed_edges():
    # the reversal maps the path onto its mirror image: same shape, every
    # edge pointing backwards
    path = validate(3, 1, {(1, 2), (2, 3)}, [1, 1, 1])
    assert not verify_witness(path, path, Permutation((3, 2, 1)))


def test_verify_witness_size_mismatch_is_error():
    g2 = validate(2, 1, {(1, 2)}, [1, 1])
    g3 = validate(3, 1, {(1, 2), (2, 3)}, [1, 1, 1])
    with pytest.raises(GraphError):
        verify_witness(g2, g3, Permutation.identity(2))
    with pytest.raises(GraphError):
        verify_witness(g3, g3, Permutation.identity(2))


def test_witness_type_shape():
    w = IsoWitness(None)
    assert not w.isomorphic
    w = IsoWitness(Permutation.identity(2))
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
    assert verify_witness(gp, g, w12.permutation.inverse())
    assert verify_witness(g, gp, w21.permutation.inverse())


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
