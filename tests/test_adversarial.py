"""Adversarial pairs: digest collision, certified non-isomorphism."""

import tracemalloc

import pytest

from conftest import has_edge
from daghash import adversarial
from daghash.adversarial import (
    AdversarialPair,
    ConstructionDegenerate,
    bipartite_adversarial_pair,
    counterexample_pair,
    middle_component_sizes,
)
from daghash.graphs import (
    CapabilityExceeded,
    ComputationalGraph,
    neighbor_lists_from_bits,
    pack_edges,
    validate,
)
from daghash.hashing import graph_invariant, graph_invariants, refinement_trace
from daghash.isomorphism import are_isomorphic


def test_pinned_pair_shape(pinned_pair):
    for g in (pinned_pair.g1, pinned_pair.g2):
        assert g.n == 10
        assert g.edge_count == 16
        assert g.k == 3
        assert g.colors == (3, 1, 1, 1, 1, 2, 2, 2, 2, 3)
    assert pinned_pair.g1.edges != pinned_pair.g2.edges


def test_pinned_pair_collides_md5(pinned_pair):
    assert graph_invariant(pinned_pair.g1) == graph_invariant(pinned_pair.g2)


def test_pinned_pair_collides_concat(pinned_pair):
    c1, c2 = graph_invariants([pinned_pair.g1, pinned_pair.g2], "concat")
    assert c1 == c2


def test_pinned_pair_not_isomorphic(pinned_pair):
    assert not are_isomorphic(pinned_pair.g1, pinned_pair.g2).isomorphic


# The least collision among uncolored path-condition DAGs: 8 vertices and
# 10 edges (none exists at n <= 7, nor at n = 8 with fewer edges).
LEAST_G1 = [(1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (4, 8), (5, 6), (5, 7), (6, 7), (7, 8)]
LEAST_G2 = [(1, 2), (1, 3), (2, 4), (2, 7), (3, 5), (3, 6), (4, 5), (5, 8), (6, 7), (7, 8)]


def transitive_triangles(g):
    edges = set(g.edges)
    return sum((a, c) in edges for a, b in edges for b2, c in edges if b == b2)


def test_least_collision_pinned():
    # refinement collides, not md5: the concat digests are equal too.  It
    # cannot count triangles, and g1 has two transitive ones where g2 has none
    g1, g2 = (validate(8, 1, edges, [1] * 8) for edges in (LEAST_G1, LEAST_G2))
    assert graph_invariant(g1) == graph_invariant(g2)
    assert graph_invariant(g1).hex() == "abfbc6c6bd8dec2a47a60cbf4fd8fcd7"
    assert graph_invariant(g1, "concat") == graph_invariant(g2, "concat")
    assert not are_isomorphic(g1, g2).isomorphic
    assert (transitive_triangles(g1), transitive_triangles(g2)) == (2, 0)
    io = (4, 1, 1, 1, 1, 1, 1, 5)
    r1, r2 = (validate(8, 5, edges, io) for edges in (LEAST_G1, LEAST_G2))
    assert graph_invariant(r1) == graph_invariant(r2)
    assert not are_isomorphic(r1, r2).isomorphic


def test_certified_rejects_non_colliding_pair(pinned_pair):
    g1 = pinned_pair.g1
    recolored = ComputationalGraph(g1.n, g1.k, g1.bits, (3, 2) + g1.colors[2:])
    with pytest.raises(RuntimeError, match="does not collide"):
        adversarial._certified(g1, recolored)


def test_certified_rejects_isomorphic_pair(pinned_pair):
    # within the oracle cap, the oracle finds the isomorphism
    with pytest.raises(ConstructionDegenerate, match="isomorphic"):
        adversarial._certified(pinned_pair.g1, pinned_pair.g1)


def test_certified_rejects_equal_middles_above_oracle_cap():
    # 14 vertices: past the oracle, so only the component sizes certify
    h = bipartite_adversarial_pair(2, 6).g1
    assert h.n == 14
    with pytest.raises(ConstructionDegenerate, match="middle components agree"):
        adversarial._certified(h, h)


def test_pinned_pair_certificate_mentions_oracle(pinned_pair):
    assert "no isomorphism" in pinned_pair.certificate


def test_layer_equality_every_round(pinned_pair):
    """Refinement stays layer-constant, so the digests can never split."""
    t1 = refinement_trace(pinned_pair.g1)
    t2 = refinement_trace(pinned_pair.g2)
    assert len(t1) == len(t2) == 11
    for r1, r2 in zip(t1, t2):
        for layer in (range(1, 5), range(5, 9), (0,), (9,)):
            vals = {r1[i] for i in layer} | {r2[i] for i in layer}
            assert len(vals) == 1


@pytest.mark.parametrize("a,b", [(1, 2), (1, 1), (5, 9)])
def test_counterexample_color_choices(a, b):
    pair = counterexample_pair(a, b)
    io = max(a, b) + 1
    for g in (pair.g1, pair.g2):
        assert g.colors == (io,) + (a,) * 4 + (b,) * 4 + (io,)
        assert g.k == io
        validate(g.n, g.k, g.edges, g.colors)
    assert graph_invariant(pair.g1) == graph_invariant(pair.g2)


def test_counterexample_rejects_bad_colors():
    with pytest.raises(ValueError):
        counterexample_pair(0, 2)
    with pytest.raises(ValueError):
        counterexample_pair(1, -1)


def test_middle_component_sizes_cases(pinned_pair):
    assert middle_component_sizes(pinned_pair.g1) == [8]
    assert middle_component_sizes(pinned_pair.g2) == [4, 4]
    path3 = validate(3, 1, [(1, 2), (2, 3)], [1, 1, 1])
    assert middle_component_sizes(path3) == [1]
    edge2 = validate(2, 1, [(1, 2)], [1, 1])
    assert middle_component_sizes(edge2) == []


def test_family_smallest_matches_pinned(pinned_pair):
    assert bipartite_adversarial_pair(2, 4) == pinned_pair


@pytest.mark.parametrize("degree,size", [(2, 3), (3, 4), (2, 5)])
def test_family_degenerate_inputs(degree, size):
    with pytest.raises(ConstructionDegenerate):
        bipartite_adversarial_pair(degree, size)


@pytest.mark.parametrize("degree,size", [(1, 4), (2, 2), (0, 6), (3, 3)])
def test_family_invalid_inputs(degree, size):
    with pytest.raises(ValueError):
        bipartite_adversarial_pair(degree, size)


@pytest.mark.parametrize("degree,size", [(2, 6), (3, 6)])
def test_family_larger_instances(degree, size):
    pair = bipartite_adversarial_pair(degree, size)
    n = 2 * size + 2
    for g in (pair.g1, pair.g2):
        assert g.n == n
        assert g.edge_count == 2 * size + degree * size
        validate(g.n, g.k, g.edges, g.colors)
    assert graph_invariant(pair.g1) == graph_invariant(pair.g2)
    assert middle_component_sizes(pair.g1) == [2 * size]
    assert middle_component_sizes(pair.g2) == [size, size]
    assert str(size) in pair.certificate


def test_oversized_family_refused_before_allocating():
    # 200,002 vertices: the edge lists were built before pack_edges refused
    # the size, about 156 MB of RSS at these parameters
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityExceeded) as refused:
            bipartite_adversarial_pair(8, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(CapabilityExceeded) as packed:
        pack_edges(200_002, ())
    assert str(refused.value) == str(packed.value)


def test_family_regular_degrees():
    pair = bipartite_adversarial_pair(3, 8)
    for g in (pair.g1, pair.g2):
        outs, ins = neighbor_lists_from_bits(g.n, g.bits)
        for v in range(g.n):
            assert outs[v] == tuple(w for w in range(g.n) if has_edge(g, v + 1, w + 1))
            assert ins[v] == tuple(u for u in range(g.n) if has_edge(g, u + 1, v + 1))
        # 0-based: layer A is 1..8, layer B is 9..16
        for u in range(1, 9):
            assert len(outs[u]) == 3 and len(ins[u]) == 1
        for v in range(9, 17):
            assert len(ins[v]) == 3 and len(outs[v]) == 1


def test_pair_is_frozen(pinned_pair):
    assert isinstance(pinned_pair, AdversarialPair)
    with pytest.raises(AttributeError):
        pinned_pair.certificate = "x"
