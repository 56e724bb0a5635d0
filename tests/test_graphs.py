"""Graph model: packing, validation, relabeling, normalization."""

import copy
import enum
import itertools
import pickle
import random
import re
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
from daghash import graphs
from daghash.formats import graph_from_dict
from daghash.graphs import (
    DECODE_TABLE_MAX_N,
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
    apply_permutation,
    linear_extensions,
    neighbor_lists_from_bits,
    normalize_dag,
    pack_edges,
    pair_count,
    pair_index,
    span_mask,
    validate,
)
from daghash.isomorphism import _neighbor_rows, verify_witness


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
    assert outs[0] == (1,) and outs[-1] == () and ins[-1] == (n - 2,)


def decode_cases(n_max, per_n=2000):
    # every matrix up to 5 vertices, then empty, full and seeded random ones
    cases = [(n, bits) for n in range(6) for bits in range(1 << pair_count(n))]
    rng = random.Random(25)
    for n in range(6, n_max + 1):
        m = pair_count(n)
        cases += [(n, 0), (n, (1 << m) - 1)] + [(n, rng.getrandbits(m)) for _ in range(per_n)]
    return cases


def test_table_decode_equals_find_loop(monkeypatch):
    cases = decode_cases(DECODE_TABLE_MAX_N)
    by_table = [neighbor_lists_from_bits(n, bits) for n, bits in cases]
    assert graphs._decode_tables.cache_info().currsize >= DECODE_TABLE_MAX_N
    monkeypatch.setattr(graphs, "DECODE_TABLE_MAX_N", -1)
    assert [neighbor_lists_from_bits(n, bits) for n, bits in cases] == by_table
    for outs, ins in by_table:
        assert {type(outs), type(ins)} | set(map(type, outs + ins)) <= {tuple}


def test_decode_past_table_cutoff_builds_no_table():
    n = DECODE_TABLE_MAX_N + 1
    before = graphs._decode_tables.cache_info()
    for _, bits in decode_cases(n, per_n=200)[-202:]:
        outs, ins = neighbor_lists_from_bits(n, bits)
        want = [(i, j) for i, j in iter_pairs(n) if bits >> pair_index(n, i, j) & 1]
        assert [(i + 1, j + 1) for i in range(n) for j in outs[i]] == want
        assert sorted((i + 1, j + 1) for j in range(n) for i in ins[j]) == want
        assert {type(outs), type(ins)} | set(map(type, outs + ins)) <= {tuple}
    assert graphs._decode_tables.cache_info() == before


def rows_from_lists(n, bits):
    outs, ins = neighbor_lists_from_bits(n, bits)
    return tuple(sum(1 << j for j in row) for row in outs), tuple(len(col) for col in ins)


def test_neighbor_rows_agree_with_lists():
    # every matrix up to 6 vertices, then seeded random ones up to the
    # oracle's 12 vertices, sparse to dense
    for n in range(1, 7):
        for bits in range(1 << pair_count(n)):
            assert _neighbor_rows(n, bits) == rows_from_lists(n, bits)
    rng = random.Random(20)
    for n in range(7, 13):
        for _ in range(300):
            bits = rng.getrandbits(pair_count(n))
            for sparse in (bits, bits & rng.getrandbits(pair_count(n))):
                assert _neighbor_rows(n, sparse) == rows_from_lists(n, sparse)


def test_neighbor_rows_cache_serves_interleaved_decodes():
    # two graphs per oracle call fill both slots; a third matrix evicts the
    # least recent one, and every answer equals a fresh decode
    uncached = _neighbor_rows.__wrapped__
    rng = random.Random(24)
    keys = [(n, rng.getrandbits(pair_count(n))) for n in (2, 5, 5, 7, 12)]
    for _ in range(200):
        n, bits = rng.choice(keys)
        rows, indeg = _neighbor_rows(n, bits)
        assert type(rows) is tuple and type(indeg) is tuple
        assert (rows, indeg) == uncached(n, bits) == rows_from_lists(n, bits)
    info = _neighbor_rows.cache_info()
    assert info.maxsize == 2 and info.currsize == 2 and info.hits > 0


def test_neighbor_rows_of_long_path_in_linear_time():
    # cutting each row out of the packed int with a shift copies the matrix
    # once per vertex, O(n^3): 0.58 s at 4,000 vertices, so about 4.6 s at
    # 8,000 (2-core Xeon VM)
    n = 8000
    bits = pack_edges(n, [(i, i + 1) for i in range(1, n)])
    t0 = time.perf_counter()
    rows, indeg = _neighbor_rows(n, bits)
    assert time.perf_counter() - t0 < 1.0
    assert rows == tuple(1 << j for j in range(1, n)) + (0,)
    assert indeg == (0,) + (1,) * (n - 1)


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


def test_apply_permutation_refuses_past_vertex_cap():
    # only pack_edges checked the cap: verify_witness allocated this graph's
    # 16 MiB image and returned True
    n = MAX_VERTICES + 1
    g = ComputationalGraph(n, 1, 0, (1,) * n)
    p = identity_permutation(n)
    message = rf"^{n} vertices exceed MAX_VERTICES = {MAX_VERTICES}$"
    with pytest.raises(CapabilityExceeded, match=message):
        apply_permutation(g, p)
    with pytest.raises(CapabilityExceeded, match=message):
        verify_witness(g, g, p)


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


NON_INT_INPUTS = {
    "float_n": (2.0, 2, [(1, 2)], [1, 1]),
    "str_n": ("2", 2, [(1, 2)], [1, 1]),
    "bool_n": (True, 1, [], [1]),
    "float_k": (2, 1.5, [(1, 2)], [1, 1]),
    "bool_k": (2, True, [(1, 2)], [1, 1]),
    "float_color": (2, 2, [(1, 2)], [1.5, 1]),
    "bool_color": (2, 2, [(1, 2)], [True, 1]),
    "float_endpoint": (2, 1, [(1.0, 2)], [1, 1]),
    "bool_endpoint": (2, 1, [(True, 2)], [1, 1]),
}


@pytest.mark.parametrize("build", [validate, normalize_dag])
@pytest.mark.parametrize("case", NON_INT_INPUTS.values(), ids=NON_INT_INPUTS)
def test_non_int_inputs_are_graph_errors(build, case):
    # an int-valued float or bool once built a graph, or raised TypeError;
    # bool colors [True, 1] hashed as [1, 1]
    with pytest.raises(GraphError, match="not an int|must be ints"):
        build(*case)


class Small(enum.IntEnum):
    ONE = 1
    TWO = 2


INT_SUBCLASS_INPUTS = {
    "n": (Small.TWO, 2, [(1, 2)], [1, 1]),
    "k": (2, Small.TWO, [(1, 2)], [1, 1]),
    "color": (2, 2, [(1, 2)], [Small.ONE, 1]),
    "endpoint": (2, 1, [(Small.ONE, 2)], [1, 1]),
}


def graph_from_fields(n, k, edges, colors):
    return graph_from_dict({"n": n, "k": k, "colors": colors, "edges": [list(e) for e in edges]})


@pytest.mark.parametrize("build", [validate, normalize_dag, graph_from_fields])
@pytest.mark.parametrize("case", INT_SUBCLASS_INPUTS.values(), ids=INT_SUBCLASS_INPUTS)
def test_int_subclasses_are_graph_errors(build, case):
    # ints are exact: an IntEnum k, color or endpoint once built a graph, and
    # an IntEnum n failed only in the constructor, naming its bit length
    with pytest.raises(GraphError, match="not an int|must be ints"):
        build(*case)


@pytest.mark.parametrize("build", [validate, normalize_dag])
def test_repeated_edge_refused_naming_first_repeat(build):
    # a repeat was once merged, so two different edge lists built one graph
    edges = [(1, 2), (2, 3), (2, 3), (1, 2)]
    with pytest.raises(GraphError, match=r"^edge \(2, 3\) is listed more than once$"):
        build(3, 1, edges, [1, 1, 1])


def test_pack_edges_refuses_repeated_edge():
    with pytest.raises(GraphError, match=r"^edge \(1, 3\) is listed more than once$"):
        pack_edges(3, [(1, 3), (1, 2), (1, 3), (1, 2)])


def test_pack_edges_refuses_int_subclass_endpoints():
    message = r"^edge \(<Small.ONE: 1>, 2\) has an endpoint that is not an int$"
    with pytest.raises(GraphError, match=message):
        pack_edges(2, [(Small.ONE, 2)])


MALFORMED_SHAPES = {
    "colors_none": ((2, 1, [(1, 2)], None), "colors must be a sequence"),
    "colors_int": ((2, 1, [(1, 2)], 7), "colors must be a sequence"),
    "edges_none": ((2, 1, None, [1, 1]), "edges must be iterable"),
    "edge_int": ((2, 1, [5], [1, 1]), "not an .i, j. pair"),
    "edge_triple": ((3, 1, [(1, 2, 3)], [1, 1, 1]), "not an .i, j. pair"),
    "edge_single": ((2, 1, [(1,)], [1, 1]), "not an .i, j. pair"),
}


@pytest.mark.parametrize("build", [validate, normalize_dag])
@pytest.mark.parametrize("case, message", MALFORMED_SHAPES.values(), ids=MALFORMED_SHAPES)
def test_malformed_shapes_are_graph_errors(build, case, message):
    # colors that are not a sequence and edges that are not pairs once
    # raised TypeError or a bare ValueError
    with pytest.raises(GraphError, match=message):
        build(*case)


def test_neighbors_and_degrees(triple):
    left = triple[0]
    outs, ins = neighbor_lists_from_bits(left.n, left.bits)
    assert outs[0] == (1, 2, 3) and ins[0] == () and ins[4] == (2, 3)
    for v in range(left.n):
        assert outs[v] == tuple(w for w in range(left.n) if has_edge(left, v + 1, w + 1))
        assert ins[v] == tuple(u for u in range(left.n) if has_edge(left, u + 1, v + 1))


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


def reference_relabel(g, p):
    """apply_permutation rebuilt from .edges and pack_edges."""
    for i, j in g.edges:
        if p(i) >= p(j):
            raise NotLinearExtension(
                f"edge ({i}, {j}) maps to ({p(i)}, {p(j)}), reversing the order"
            )
    colors = [None] * g.n
    for v, c in enumerate(g.colors, 1):
        colors[p(v) - 1] = c
    bits = pack_edges(g.n, [(p(i), p(j)) for i, j in g.edges])
    return ComputationalGraph(g.n, g.k, bits, tuple(colors))


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_apply_permutation_matches_reference(n):
    # n = 7 and 8 decode by table, 9 and 10 by the walk over the set bits
    assert (n <= DECODE_TABLE_MAX_N) == (n <= 8)
    rng = random.Random(n)
    for _ in range(200):
        mapping = list(range(1, n + 1))
        rng.shuffle(mapping)
        p = Permutation(mapping)
        dense = rng.random()
        # every edge i -> j with p(i) < p(j): p is a linear extension
        edges = [(i, j) for i, j in iter_pairs(n) if p(i) < p(j) and rng.random() < dense]
        colors = tuple(rng.randint(1, 3) for _ in range(n))
        g = ComputationalGraph(n, 3, pack_edges(n, edges), colors)
        assert apply_permutation(g, p) == reference_relabel(g, p)
        # one more edge that p reverses, unless p preserves every pair
        reversed_pairs = [(i, j) for i, j in iter_pairs(n) if p(i) > p(j)]
        if reversed_pairs:
            bad = ComputationalGraph(
                n, 3, g.bits | pack_edges(n, [rng.choice(reversed_pairs)]), colors
            )
            with pytest.raises(NotLinearExtension) as want:
                reference_relabel(bad, p)
            with pytest.raises(NotLinearExtension, match=f"^{re.escape(str(want.value))}$"):
                apply_permutation(bad, p)


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
