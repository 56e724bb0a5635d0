"""Graph model: packing, validation, relabeling, normalization."""

import copy
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_linear_extensions,
    has_edge,
    identity_permutation,
    inverse_permutation,
    iter_pairs,
    valid_graphs,
)
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
    linear_extensions,
    neighbor_lists_from_bits,
    neighbor_rows_from_bits,
    normalize_dag,
    pack_edges,
    pair_count,
    pair_index,
    span_mask,
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
    assert has_edge(g, 1, 2) and not has_edge(g, 1, 3)


# Changes that make ComputationalGraph(3, 1, 0b101, (1, 1, 1)) malformed.
MALFORMED = {
    "too_few_colors": {"colors": (1,)},
    "too_many_colors": {"colors": (1, 1, 1, 1)},
    "no_colors": {"colors": ()},
    "bit_past_pairs": {"bits": 0b1101},
    "float_n": {"n": 3.0},
    "negative_bits": {"bits": -1},
    "float_bits": {"bits": 1.5},
    "none_colors": {"colors": None},
    "list_colors": {"colors": [1, 1, 1]},
}


@pytest.mark.parametrize("change", MALFORMED.values(), ids=MALFORMED)
def test_malformed_shape_is_graph_error(change):
    # refused however a graph is built, so no malformed graph reaches
    # hashing, the oracle or .edges
    good = ComputationalGraph(3, 1, 0b101, (1, 1, 1))
    fields = {**good._asdict(), **change}
    with pytest.raises(GraphError, match="^no graph has n = "):
        ComputationalGraph(**fields)
    with pytest.raises(GraphError):
        good._replace(**change)
    # an instance made around the check is refused when copied or loaded
    raw = tuple.__new__(ComputationalGraph, fields.values())
    with pytest.raises(GraphError):
        copy.deepcopy(raw)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(GraphError):
            pickle.loads(pickle.dumps(raw, protocol))


def test_shape_check_leaves_palette_and_path_condition():
    # hashing takes any i < j DAG: colors outside 1..k and vertices off every
    # 1 -> n path construct; bit n(n-1)/2 - 1 is the last pair's
    g = ComputationalGraph(3, 0, 0b100, (7, 8, 9))
    assert g.edges == ((2, 3),) and g.edge_count == 1
    assert ComputationalGraph(1, 1, 0, (1,)).edges == ()


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
    want = [(i, j) for i, j in iter_pairs(n) if has_edge(g, i, j)]
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


def rows_from_lists(n, bits):
    outs, ins = neighbor_lists_from_bits(n, bits)
    return [sum(1 << j for j in row) for row in outs], [len(col) for col in ins]


def test_neighbor_rows_agree_with_lists():
    # every matrix up to 6 vertices, then seeded random ones up to the
    # oracle's 12 vertices, sparse to dense
    for n in range(1, 7):
        for bits in range(1 << pair_count(n)):
            assert neighbor_rows_from_bits(n, bits) == rows_from_lists(n, bits)
    rng = random.Random(20)
    for n in range(7, 13):
        for _ in range(300):
            bits = rng.getrandbits(pair_count(n))
            for sparse in (bits, bits & rng.getrandbits(pair_count(n))):
                assert neighbor_rows_from_bits(n, sparse) == rows_from_lists(n, sparse)


def test_neighbor_rows_of_long_path_in_linear_time():
    # cutting each row out of the packed int with a shift copies the matrix
    # once per vertex, O(n^3): 0.58 s at 4,000 vertices, so about 4.6 s at
    # 8,000 (2-core Xeon VM)
    n = 8000
    bits = pack_edges(n, [(i, i + 1) for i in range(1, n)])
    t0 = time.perf_counter()
    rows, indeg = neighbor_rows_from_bits(n, bits)
    assert time.perf_counter() - t0 < 1.0
    assert rows == [1 << j for j in range(1, n)] + [0]
    assert indeg == [0] + [1] * (n - 1)


def test_edges_of_long_path_in_linear_time():
    # walking every vertex pair took about 4 s at 8,000 vertices (2-core Xeon VM)
    n = 8000
    path = [(i, i + 1) for i in range(1, n)]
    g = ComputationalGraph(n, 1, pack_edges(n, path), (1,) * n)
    t0 = time.perf_counter()
    edges = g.edges
    assert time.perf_counter() - t0 < 1.0
    assert list(edges) == path


def test_apply_permutation_on_long_path_in_linear_time():
    # one growing-int OR per edge took 7-9 s at 8,000 vertices (2-core Xeon VM)
    n = 8000
    g = ComputationalGraph(n, 1, pack_edges(n, [(i, i + 1) for i in range(1, n)]), (1,) * n)
    t0 = time.perf_counter()
    image = apply_permutation(g, identity_permutation(n))
    assert time.perf_counter() - t0 < 1.0
    assert image == g


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
        assert outs[v] == [w for w in range(left.n) if has_edge(left, v + 1, w + 1)]
        assert ins[v] == [u for u in range(left.n) if has_edge(left, u + 1, v + 1)]


def test_permutation_bijection_checked():
    with pytest.raises(GraphError):
        Permutation((1, 1, 3))
    # entries equal to an int but of another type are refused too
    for mapping in ((1.0, 2), (True, 2), (2, True)):
        with pytest.raises(GraphError, match="not an int"):
            Permutation(mapping)
        raw = tuple.__new__(Permutation, (mapping,))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            with pytest.raises(GraphError, match="not an int"):
                pickle.loads(pickle.dumps(raw, protocol))
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and inverse_permutation(p)(2) == 1
    assert identity_permutation(3).mapping == (1, 2, 3)


def test_apply_identity_is_exact(triple):
    for g in triple:
        assert apply_permutation(g, identity_permutation(g.n)) == g


def test_apply_permutation_reproduces_triple(triple):
    left, middle, right = triple
    assert apply_permutation(left, Permutation((1, 2, 4, 3, 5))) == middle
    assert apply_permutation(left, Permutation((1, 3, 4, 2, 5))) == right


def test_apply_permutation_rejects_reversal():
    g = validate(3, 1, {(1, 2), (2, 3)}, [1, 1, 1])
    with pytest.raises(NotLinearExtension):
        apply_permutation(g, Permutation((2, 1, 3)))
    # a permutation of another vertex count is refused too
    with pytest.raises(GraphError, match=r"^permutation acts on 2 vertices, graph has 3$"):
        apply_permutation(g, Permutation((1, 2)))
    # the first reversed edge in row-major order is the one named
    g = validate(4, 1, {(3, 4), (2, 4), (2, 3), (1, 2)}, [1] * 4)
    with pytest.raises(NotLinearExtension, match=r"^edge \(2, 3\) maps to \(4, 3\), reversing"):
        apply_permutation(g, Permutation((1, 4, 3, 2)))


def test_linear_extensions_total_orders():
    path = validate(3, 1, {(1, 2), (2, 3)}, [1, 1, 1])
    assert [p.mapping for p in linear_extensions(path)] == [(1, 2, 3)]
    triangle = validate(3, 1, {(1, 2), (1, 3), (2, 3)}, [1, 1, 1])
    assert [p.mapping for p in linear_extensions(triangle)] == [(1, 2, 3)]


def test_linear_extensions_of_join():
    g = ComputationalGraph(3, 1, pack_edges(3, [(1, 3), (2, 3)]), (1, 1, 1))
    assert [p.mapping for p in linear_extensions(g)] == [(1, 2, 3), (2, 1, 3)]


def test_extensions_match_brute_force_filter():
    """linear_extensions is exactly the order-preserving subset of S_n, in
    the same order, on every matrix with n <= 5, path condition or not."""
    for n in range(6):
        for bits in range(1 << pair_count(n)):
            g = ComputationalGraph(n, 1, bits, (1,) * n)
            assert list(linear_extensions(g)) == list(brute_linear_extensions(g))


def test_extensions_match_brute_force_at_six_vertices():
    n, full = 6, (1 << 6) - 1
    checked = 0
    for bits in range(1 << pair_count(n)):
        if span_mask(n, *neighbor_lists_from_bits(n, bits)) != full:
            continue
        g = ComputationalGraph(n, 1, bits, (1,) * n)
        assert list(linear_extensions(g)) == list(brute_linear_extensions(g))
        checked += 1
    assert checked == 3346


def test_span_mask_matches_edge_fixpoint():
    """span_mask equals reachability found without index order, a fixpoint
    over the edge list, on every matrix with n <= 5."""
    for n in range(1, 6):
        for bits in range(1 << pair_count(n)):
            outs, ins = neighbor_lists_from_bits(n, bits)
            edges = [(u, v) for u in range(n) for v in outs[u]]
            forward, backward = {0}, {n - 1}
            grew = True
            while grew:
                size = len(forward) + len(backward)
                for u, v in edges:
                    if u in forward:
                        forward.add(v)
                    if v in backward:
                        backward.add(u)
                grew = len(forward) + len(backward) > size
            assert span_mask(n, outs, ins) == sum(1 << v for v in forward & backward)


def test_path_condition_is_local():
    """The path condition holds iff every vertex but the first has an
    in-neighbor and every vertex but the last an out-neighbor, on every
    matrix with n <= 6; conftest.valid_graphs completes matrices by it."""
    for n in range(1, 7):
        full = (1 << n) - 1
        for bits in range(1 << pair_count(n)):
            outs, ins = neighbor_lists_from_bits(n, bits)
            local = all(ins[1:]) and all(outs[:-1])
            assert (span_mask(n, outs, ins) == full) == local


def test_extensions_of_pinned_pair_are_fast(pinned_pair):
    # filtering all 10! permutations took 3.0-4.5 s (2-core Xeon VM)
    t0 = time.perf_counter()
    extensions = list(linear_extensions(pinned_pair.g1))
    assert time.perf_counter() - t0 < 0.5
    assert len(extensions) == 1088


def test_first_extension_of_long_path_is_fast():
    # the search is iterative, so its depth does not grow with n
    n = 8000
    g = ComputationalGraph(n, 1, pack_edges(n, [(i, i + 1) for i in range(1, n)]), (1,) * n)
    t0 = time.perf_counter()
    first = next(linear_extensions(g))
    assert time.perf_counter() - t0 < 1.0
    assert first == identity_permutation(n)


@settings(max_examples=60)
@given(valid_graphs())
def test_extension_images_valid_and_involutive(g):
    for p in itertools.islice(linear_extensions(g), 8):
        gp = apply_permutation(g, p)
        assert validate(gp.n, gp.k, gp.edges, gp.colors) == gp
        assert apply_permutation(gp, inverse_permutation(p)) == g


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
    with pytest.raises(GraphError, match="vertex count must be positive"):
        normalize_dag(0, 1, [], [])


@settings(max_examples=40)
@given(valid_graphs(max_n=5))
def test_normalize_is_identity_on_valid_graphs(g):
    assert normalize_dag(g.n, g.k, g.edges, g.colors) == g
