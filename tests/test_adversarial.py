"""Adversarial pairs: digest collision, certified non-isomorphism."""

import pytest

from daghash.adversarial import (
    AdversarialPair,
    ConstructionDegenerate,
    bipartite_adversarial_pair,
    counterexample_pair,
    middle_component_sizes,
)
from daghash.graphs import adjacency_lists, validate
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


def test_family_regular_degrees():
    pair = bipartite_adversarial_pair(3, 8)
    for g in (pair.g1, pair.g2):
        outs, ins = adjacency_lists(g)
        for v in range(g.n):
            assert outs[v] == [w for w in range(g.n) if g.has_edge(v + 1, w + 1)]
            assert ins[v] == [u for u in range(g.n) if g.has_edge(u + 1, v + 1)]
        # 0-based: layer A is 1..8, layer B is 9..16
        for u in range(1, 9):
            assert len(outs[u]) == 3 and len(ins[u]) == 1
        for v in range(9, 17):
            assert len(ins[v]) == 3 and len(outs[v]) == 1


def test_pair_is_frozen(pinned_pair):
    assert isinstance(pinned_pair, AdversarialPair)
    with pytest.raises(AttributeError):
        pinned_pair.certificate = "x"
