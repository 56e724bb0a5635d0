"""Graph model: packing, validation, relabeling, normalization."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import valid_graphs
from daghash.graphs import (
    MAX_VERTICES,
    CapabilityExceeded,
    ColorOutOfRange,
    ComputationalGraph,
    CycleDetected,
    EdgeOrderViolation,
    GraphError,
    NotLinearExtension,
    PathConditionViolation,
    Permutation,
    adjacency_lists,
    apply_permutation,
    iter_pairs,
    linear_extensions,
    neighbor_lists_from_bits,
    normalize_dag,
    pack_edges,
    pair_count,
    pair_index,
    validate,
)


def test_pair_order_is_row_major():
    assert list(iter_pairs(4)) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for n in range(2, 7):
        for t, (i, j) in enumerate(iter_pairs(n)):
            assert pair_index(n, i, j) == t
        assert pair_count(n) == n * (n - 1) // 2


def test_pack_edges_sets_pair_bits():
    bits = pack_edges(3, [(1, 2), (2, 3)])
    assert bits == 0b101
    g = ComputationalGraph(3, 1, bits, (1, 1, 1))
    assert g.edges == ((1, 2), (2, 3))
    assert g.edge_count == 2
    assert g.has_edge(1, 2) and not g.has_edge(1, 3)


def test_pack_edges_rejects_bad_order():
    with pytest.raises(EdgeOrderViolation):
        pack_edges(3, [(3, 2)])
    with pytest.raises(EdgeOrderViolation):
        pack_edges(3, [(2, 2)])


@settings(max_examples=200)
@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << pair_count(n)) - 1))
))
def test_decoders_agree_with_has_edge(case):
    n, bits = case
    g = ComputationalGraph(n, 1, bits, (1,) * n)
    want = [(i, j) for i, j in iter_pairs(n) if g.has_edge(i, j)]
    assert list(g.edges) == want
    outs, ins = neighbor_lists_from_bits(n, bits)
    assert [(i + 1, j + 1) for i in range(n) for j in outs[i]] == want
    assert sorted((i + 1, j + 1) for j in range(n) for i in ins[j]) == want
    assert pack_edges(n, want) == bits


def test_long_path_converts_in_linear_time():
    # shifting the packed int once per pair made each conversion O(n^4):
    # 11-15 s at 1,200 vertices
    n = 3000
    path = [(i, i + 1) for i in range(1, n)]
    t0 = time.perf_counter()
    g = validate(n, 1, path, [1] * n)
    outs, ins = neighbor_lists_from_bits(n, g.bits)
    assert list(g.edges) == path
    assert time.perf_counter() - t0 < 10.0
    assert outs[0] == [1] and outs[-1] == [] and ins[-1] == [n - 2]


def test_pack_edges_refuses_past_vertex_cap():
    assert pack_edges(MAX_VERTICES, [(1, MAX_VERTICES)]) == 1 << (MAX_VERTICES - 2)
    with pytest.raises(CapabilityExceeded):
        pack_edges(MAX_VERTICES + 1, [(1, 2)])


def test_validate_smallest_graph():
    g = validate(2, 1, {(1, 2)}, [1, 1])
    assert (g.n, g.k, g.colors) == (2, 1, (1, 1))


def test_validate_single_vertex_is_vacuous():
    assert validate(1, 1, [], [1]).n == 1


def test_validate_path_condition_names_vertex():
    with pytest.raises(PathConditionViolation) as exc:
        validate(3, 1, {(1, 3)}, [1, 1, 1])
    assert exc.value.vertex == 2


def test_validate_triple_left(triple):
    left = triple[0]
    again = validate(5, 3, left.edges, left.colors)
    assert again == left


def test_validate_color_range():
    with pytest.raises(ColorOutOfRange):
        validate(2, 1, {(1, 2)}, [1, 2])
    with pytest.raises(GraphError):
        validate(2, 1, {(1, 2)}, [1])
    with pytest.raises(GraphError):
        validate(0, 1, [], [])


def test_neighbors_and_degrees(triple):
    left = triple[0]
    outs, ins = adjacency_lists(left)
    assert outs[0] == [1, 2, 3] and ins[0] == [] and ins[4] == [2, 3]
    for v in range(left.n):
        assert outs[v] == [w for w in range(left.n) if left.has_edge(v + 1, w + 1)]
        assert ins[v] == [u for u in range(left.n) if left.has_edge(u + 1, v + 1)]


def test_permutation_bijection_checked():
    with pytest.raises(GraphError):
        Permutation((1, 1, 3))
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and p.inverse()(2) == 1
    assert Permutation.identity(3).mapping == (1, 2, 3)


def test_apply_identity_is_exact(triple):
    for g in triple:
        assert apply_permutation(g, Permutation.identity(g.n)) == g


def test_apply_permutation_reproduces_triple(triple):
    left, middle, right = triple
    assert apply_permutation(left, Permutation((1, 2, 4, 3, 5))) == middle
    assert apply_permutation(left, Permutation((1, 3, 4, 2, 5))) == right


def test_apply_permutation_rejects_reversal():
    g = validate(3, 1, {(1, 2), (2, 3)}, [1, 1, 1])
    with pytest.raises(NotLinearExtension):
        apply_permutation(g, Permutation((2, 1, 3)))


def test_linear_extensions_total_orders():
    path = validate(3, 1, {(1, 2), (2, 3)}, [1, 1, 1])
    assert [p.mapping for p in linear_extensions(path)] == [(1, 2, 3)]
    triangle = validate(3, 1, {(1, 2), (1, 3), (2, 3)}, [1, 1, 1])
    assert [p.mapping for p in linear_extensions(triangle)] == [(1, 2, 3)]


def test_linear_extensions_of_join():
    g = ComputationalGraph(3, 1, pack_edges(3, [(1, 3), (2, 3)]), (1, 1, 1))
    assert [p.mapping for p in linear_extensions(g)] == [(1, 2, 3), (2, 1, 3)]


@settings(max_examples=60)
@given(valid_graphs(max_n=5))
def test_extensions_match_brute_force_filter(g):
    """linear_extensions is exactly the order-preserving subset of S_n."""
    expected = []
    for mapping in itertools.permutations(range(1, g.n + 1)):
        p = Permutation(mapping)
        if all(p(i) < p(j) for i, j in g.edges):
            expected.append(mapping)
    assert [p.mapping for p in linear_extensions(g)] == expected


@settings(max_examples=60)
@given(valid_graphs())
def test_extension_images_valid_and_involutive(g):
    for p in itertools.islice(linear_extensions(g), 8):
        gp = apply_permutation(g, p)
        assert validate(gp.n, gp.k, gp.edges, gp.colors) == gp
        assert apply_permutation(gp, p.inverse()) == g


def test_normalize_reverses_edges():
    g = normalize_dag(2, 2, [(2, 1)], [1, 2])
    assert g.edges == ((1, 2),)
    assert g.colors == (2, 1)


def test_normalize_keeps_sorted_input():
    g = normalize_dag(3, 1, [(1, 2), (2, 3)], [1, 1, 1])
    assert g.edges == ((1, 2), (2, 3))


def test_normalize_detects_cycles():
    with pytest.raises(CycleDetected):
        normalize_dag(2, 1, [(1, 2), (2, 1)], [1, 1])
    with pytest.raises(CycleDetected):
        normalize_dag(2, 1, [(1, 1)], [1, 1])


def test_normalize_prefers_smallest_ready_vertex():
    # Both orders 1,2,3 and 1,3,2 would topologically sort {(3,2)} wrapped
    # in a diamond; Kahn with a min-heap must pick vertex 2's new place by
    # original index.
    g = normalize_dag(4, 2, [(1, 3), (3, 2), (2, 4), (1, 2)], [1, 1, 2, 1])
    assert g.edges == ((1, 2), (1, 3), (2, 3), (3, 4))
    assert g.colors == (1, 2, 1, 1)


def test_normalize_still_validates():
    with pytest.raises(PathConditionViolation):
        normalize_dag(3, 1, [(1, 3)], [1, 1, 1])


@settings(max_examples=40)
@given(valid_graphs(max_n=5))
def test_normalize_is_identity_on_valid_graphs(g):
    assert normalize_dag(g.n, g.k, g.edges, g.colors) == g
