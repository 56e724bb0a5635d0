"""Invariant digests: encoding, refinement, invariance, backends."""

import contextlib
import hashlib
import itertools
import struct
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import valid_graphs
from daghash import enumeration, hashing
from daghash.enumeration import (
    EnumerationConfig,
    _surviving_matrices,
    enumerate_graphs,
)
from daghash.graphs import (
    CapabilityExceeded,
    ComputationalGraph,
    adjacency_lists,
    apply_permutation,
    canonical_relabeling,
    linear_extensions,
    pack_edges,
    pair_count,
    validate,
)
from daghash.hashing import (
    BACKENDS,
    digest_function,
    digest_hex,
    final_digest,
    graph_invariant,
    graph_invariants,
    invariant_from_lists,
    refine_round,
    refinement_trace,
    vertex_init_digest,
)


def le64(v):
    return struct.pack("<Q", v)


def test_backends():
    assert set(BACKENDS) == {"md5", "concat"}
    assert digest_function("md5")(b"x") == hashlib.md5(b"x").digest()
    assert digest_function("concat")(b"x") == b"x"
    with pytest.raises(ValueError):
        digest_function("sha1")


def test_init_digest_encoding():
    # concat mode exposes the exact byte encoding: LE64 out, in, color
    assert vertex_init_digest(1, 0, 1, "concat") == le64(1) + le64(0) + le64(1)
    assert vertex_init_digest(2, 1, 3, "md5") == hashlib.md5(
        le64(2) + le64(1) + le64(3)
    ).digest()
    assert len(vertex_init_digest(0, 0, 1, "md5")) == 16


def test_init_digest_argument_order_matters():
    for backend in BACKENDS:
        assert vertex_init_digest(1, 0, 1, backend) != vertex_init_digest(
            0, 1, 1, backend
        )
        assert vertex_init_digest(1, 0, 1, backend) == vertex_init_digest(
            1, 0, 1, backend
        )


def test_refine_round_single_vertex():
    g = ComputationalGraph(1, 1, 0, (1,))
    h = [b"\xab" * 16]
    out = refine_round(g, h, "concat")
    assert out == [le64(0) + le64(0) + h[0]]


def test_refine_round_checks_length(triple):
    with pytest.raises(ValueError):
        refine_round(triple[0], [b"x" * 16], "md5")


def test_refine_round_reads_pre_round_state():
    # a 2-path: vertex 1's update must see vertex 2's *old* digest
    g = validate(2, 1, {(1, 2)}, [1, 1])
    h0 = [vertex_init_digest(1, 0, 1, "concat"), vertex_init_digest(0, 1, 1, "concat")]
    out = refine_round(g, h0, "concat")
    assert out[0] == le64(1) + h0[1] + le64(0) + h0[0]
    assert out[1] == le64(0) + le64(1) + h0[0] + h0[1]


def test_refinement_trace_shape_and_consistency(triple):
    g = triple[0]
    for backend in BACKENDS:
        trace = refinement_trace(g, backend)
        assert len(trace) == g.n + 1
        h = trace[0]
        for r in range(1, g.n + 1):
            h = refine_round(g, h, backend)
            assert h == trace[r]
        assert final_digest(g.n, trace[-1], backend) == graph_invariant(g, backend)


def test_trace_of_single_vertex():
    g = ComputationalGraph(1, 1, 0, (1,))
    trace = refinement_trace(g, "md5")
    assert len(trace) == 2 and all(len(h) == 1 for h in trace)


def test_final_digest_prefixes_vertex_count():
    digests = [b"b" * 16, b"a" * 16]
    assert final_digest(2, digests, "concat") == le64(2) + b"a" * 16 + b"b" * 16


def test_triple_collapses_to_one_digest(triple):
    for backend in BACKENDS:
        values = {graph_invariant(g, backend) for g in triple}
        assert len(values) == 1


def test_recoloring_separates_paths():
    a = validate(3, 2, {(1, 2), (2, 3)}, [1, 2, 1])
    b = validate(3, 2, {(1, 2), (2, 3)}, [2, 1, 2])
    for backend in BACKENDS:
        assert graph_invariant(a, backend) != graph_invariant(b, backend)


def test_palette_size_is_not_hashed():
    a = validate(2, 1, {(1, 2)}, [1, 1])
    b = validate(2, 5, {(1, 2)}, [1, 1])
    assert graph_invariant(a) == graph_invariant(b)


def test_hashing_total_without_path_condition():
    # hashing must accept structurally well-formed graphs that fail the
    # path condition (the enumerator prunes them, the hash does not care)
    g = ComputationalGraph(3, 1, pack_edges(3, [(1, 3)]), (1, 1, 1))
    for backend in BACKENDS:
        assert graph_invariant(g, backend)


def test_digest_hex_rendering(triple):
    d = graph_invariant(triple[0])
    assert digest_hex(d) == d.hex() and len(digest_hex(d)) == 32


@settings(max_examples=80)
@given(valid_graphs(max_n=5))
def test_invariance_under_linear_extensions(g):
    want = {b: graph_invariant(g, b) for b in BACKENDS}
    for p in itertools.islice(linear_extensions(g), 6):
        gp = apply_permutation(g, p)
        for backend in BACKENDS:
            assert graph_invariant(gp, backend) == want[backend]


@settings(max_examples=40)
@given(valid_graphs(max_n=5))
def test_round_consistency_under_relabeling(g):
    """Per-round digest lists of a relabeled graph are the permuted lists."""
    extensions = list(linear_extensions(g))
    p = extensions[len(extensions) // 2]
    gp = apply_permutation(g, p)
    tg = refinement_trace(g, "md5")
    tp = refinement_trace(gp, "md5")
    for hg, hp in zip(tg, tp):
        for i in range(1, g.n + 1):
            assert hp[p(i) - 1] == hg[i - 1]


def _twice(g):
    # The first call compiles the structure's kernel.  With the digest table
    # emptied before each call, the repeat misses it too and runs the cached
    # kernel, so exactly one is compiled.
    outs, ins = adjacency_lists(g)
    compiled = []
    compile_kernel = hashing._compile_kernel
    hashing._compile_kernel = lambda *key: compiled.append(key) or compile_kernel(*key)
    hashing._kernel = (None,) * 5
    try:
        digests = []
        for _ in range(2):
            hashing._table = (None, {})
            digests.append(invariant_from_lists(g.n, outs, ins, g.colors))
    finally:
        hashing._compile_kernel = compile_kernel
    assert len(compiled) == 1
    return digests


def test_invariant_from_lists_matches_graph_invariant(small_corpus):
    # freshly compiled and cached kernel against the one-shot generic path
    for rec in small_corpus[:300]:
        assert _twice(rec.graph) == [rec.invariant, graph_invariant(rec.graph)]


@settings(max_examples=150)
@given(valid_graphs(max_n=7))
def test_kernel_matches_refinement_trace(g):
    want = final_digest(g.n, refinement_trace(g)[-1])
    assert _twice(g) == [want, want]


def test_kernel_cache_follows_structure(monkeypatch):
    # A, A, B, B, A, A with equal colors and the digest table emptied before
    # each call: a stale kernel would repeat B's digest
    def never(*args):
        raise AssertionError("the md5 path ran the generic refinement")

    a = validate(4, 1, {(1, 2), (2, 3), (3, 4)}, [1] * 4)
    b = validate(4, 1, {(1, 2), (1, 3), (2, 4), (3, 4)}, [1] * 4)
    want = [graph_invariant(g) for g in (a, a, b, b, a, a)]
    compiled = []
    compile_kernel = hashing._compile_kernel
    monkeypatch.setattr(
        hashing, "_compile_kernel", lambda *key: compiled.append(key) or compile_kernel(*key)
    )
    monkeypatch.setattr(hashing, "_generic_invariant", never)
    digests = []
    for g in (a, a, b, b, a, a):
        monkeypatch.setattr(hashing, "_table", (None, {}))
        digests.append(invariant_from_lists(g.n, *adjacency_lists(g), g.colors))
    assert digests == want
    assert digests[0] != digests[2]
    assert len(compiled) == 3


def test_one_shot_hashing_compiles_no_kernel(monkeypatch, triple):
    def never(*args):
        raise AssertionError("one-shot hashing compiled a kernel")

    monkeypatch.setattr(hashing, "_compile_kernel", never)
    assert len(set(graph_invariants(list(triple)))) == 1
    assert graph_invariant(triple[0]) == graph_invariants(list(triple))[0]


@pytest.mark.parametrize("bad", [3, -1, "1", 1.0, True, "h0)); import os; ((1"])
def test_kernel_rejects_bad_neighbor_index_before_codegen(monkeypatch, bad):
    def never(*args):
        raise AssertionError("kernel compiled from unchecked input")

    outs = [[1, 2], [1], []]
    ins = [[], [0], [0, 1]]
    compiled = []
    compile_kernel = hashing._compile_kernel
    monkeypatch.setattr(
        hashing, "_compile_kernel", lambda *key: compiled.append(key) or compile_kernel(*key)
    )
    for colors in ([1, 2, 1], [1, 1, 1]):
        # cache the kernel and table entries of the all-int structure that
        # 1.0 and True equal
        invariant_from_lists(3, outs, ins, colors)
    assert compiled == [(3, ((1, 2), (1,), ()), ((), (0,), (0, 1)))]
    monkeypatch.setattr(hashing, "_compile_kernel", never)
    outs[1] = [bad]
    for backend in BACKENDS:
        for _ in range(2):
            with pytest.raises(ValueError):
                invariant_from_lists(3, outs, ins, [1, 1, 1], backend)
            with pytest.raises(ValueError):
                invariant_from_lists(3, ins, outs, [1, 1, 1], backend)
    with pytest.raises(ValueError):
        invariant_from_lists(3, outs[:2], ins, [1, 1, 1])


def test_fast_path_still_checks_n():
    # the same tuple objects skip the structure check, but never the check
    # of n: True equals 1 and a wrong n must not reuse the checked structure
    one = ((),)
    three_outs, three_ins = ((1, 2), (2,), ()), ((), (0,), (0, 1))
    invariant_from_lists(1, one, one, [1])
    for n in (True, 1.0, 0, 2):
        with pytest.raises(ValueError):
            invariant_from_lists(n, one, one, [1] * int(n))
    invariant_from_lists(3, three_outs, three_ins, [1, 1, 1])
    for n in (True, 2, 4):
        with pytest.raises(ValueError):
            invariant_from_lists(n, three_outs, three_ins, [1] * int(n))
    g = validate(3, 1, {(1, 2), (1, 3), (2, 3)}, [1, 1, 1])
    assert invariant_from_lists(3, three_outs, three_ins, [1, 1, 1]) == graph_invariant(g)


@pytest.mark.parametrize("wrap", [list, tuple])
def test_mutable_structure_rechecked_on_every_call(wrap):
    # lists, even inside a tuple, may change between calls with the same
    # objects, so they never take the fast path
    outs = wrap([[1, 2], [2], []])
    ins = wrap([[], [0], [0, 1]])
    g = validate(3, 1, {(1, 2), (1, 3), (2, 3)}, [1, 1, 1])
    assert invariant_from_lists(3, outs, ins, [1, 1, 1]) == graph_invariant(g)
    outs[1].append(3)
    for colors in ([1, 1, 1], [1, 2, 1]):
        with pytest.raises(ValueError):
            invariant_from_lists(3, outs, ins, colors)
    outs[1][1:] = [1.0]
    with pytest.raises(ValueError):
        invariant_from_lists(3, outs, ins, [1, 1, 1])


def test_structure_checked_once_per_matrix(monkeypatch):
    # every coloring of a matrix reuses the check of its canonical lists
    checked = []
    structure_key = hashing._structure_key
    monkeypatch.setattr(
        hashing, "_structure_key", lambda *args: checked.append(structure_key(*args)) or checked[-1]
    )
    calls = []
    invariant = enumeration.invariant_from_lists
    monkeypatch.setattr(
        enumeration, "invariant_from_lists", lambda *args: calls.append(1) or invariant(*args)
    )
    config = EnumerationConfig(5, 9, 2, True)
    list(enumerate_graphs(config))
    matrices = [(n, outs, ins) for n in range(2, 6) for _, outs, ins, _ in _surviving_matrices(n, 9)]
    assert checked == matrices
    assert len(calls) == sum(len(list(config.colorings(n))) for n, *_ in matrices) > len(matrices)


def test_color_beyond_le64_leaves_no_table_entry():
    outs, ins = ((1,), ()), ((), (0,))
    g = validate(2, 1, {(1, 2)}, [1, 1])
    for _ in range(2):
        with pytest.raises(ValueError):
            invariant_from_lists(2, outs, ins, [1, 2**64])
    key, kernel, _, _, known = hashing._kernel
    assert key == (2, outs, ins) and known == {}
    # vertex 0's round-0 table holds color 1; vertex 1's holds nothing
    assert [list(closure_cells(kernel)[f"r{i}"]) for i in range(2)] == [[1], []]
    assert invariant_from_lists(2, outs, ins, [1, 1]) == graph_invariant(g)


def closure_cells(f):
    """The values of the variables f closes over, by name."""
    return {name: cell.cell_contents for name, cell in zip(f.__code__.co_freevars, f.__closure__)}


def kernel_rows(g):
    """The row cache keys of g's structure: (vertex, out-list, in-list)."""
    outs, ins = (tuple(map(tuple, lists)) for lists in adjacency_lists(g))
    return [(i, outs[i], ins[i]) for i in range(g.n)]


def test_structures_sharing_a_row_compile_it_once():
    # a and b differ in vertices 2 and 3 only: the rows of vertices 1 and 4
    # (out {2, 3}, and in {2, 3}) and their functions are shared
    a = validate(4, 3, {(1, 2), (1, 3), (2, 4), (3, 4)}, [1, 2, 3, 1])
    b = validate(4, 3, {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}, [1, 2, 3, 1])
    shared = set(kernel_rows(a)) & set(kernel_rows(b))
    assert {key[0] for key in shared} == {0, 3}
    assert invariant_from_lists(4, *adjacency_lists(a), a.colors) == graph_invariant(a)
    n, make, rows = hashing._rows
    before = dict(rows)
    assert n == 4 and set(before) == set(kernel_rows(a))
    assert invariant_from_lists(4, *adjacency_lists(b), b.colors) == graph_invariant(b)
    assert hashing._rows[1] is make and hashing._rows[2] is rows
    assert set(rows) == set(kernel_rows(a)) | set(kernel_rows(b))
    assert all(rows[key] is before[key] for key in before)
    kernel = closure_cells(hashing._kernel[1])
    assert [kernel[f"f{key[0]}"] is before.get(key) for key in kernel_rows(b)] == [
        key in shared for key in kernel_rows(b)
    ]


def test_row_cache_dropped_when_n_changes():
    a = validate(4, 1, {(1, 2), (2, 3), (3, 4)}, [1] * 4)
    b = validate(5, 1, {(1, 2), (2, 3), (3, 4), (4, 5)}, [1] * 5)
    assert invariant_from_lists(4, *adjacency_lists(a), a.colors) == graph_invariant(a)
    n, make, rows = hashing._rows
    assert n == 4 and set(rows) == set(kernel_rows(a))
    assert invariant_from_lists(5, *adjacency_lists(b), b.colors) == graph_invariant(b)
    assert hashing._rows[0] == 5 and set(hashing._rows[2]) == set(kernel_rows(b))
    assert hashing._rows[1] is not make
    # back at n = 4, a's rows and maker are compiled anew
    assert invariant_from_lists(4, *adjacency_lists(a), a.colors) == graph_invariant(a)
    assert hashing._rows[0] == 4 and set(hashing._rows[2]) == set(kernel_rows(a))
    assert hashing._rows[1] is not make
    assert not any(hashing._rows[2][key] is rows[key] for key in rows)


@pytest.mark.parametrize("colors", [(1, 2, 2, 3), (1, 2, 3, 4), (1, 3, 2, 4)])
def test_kernel_orders_degree_two_groups(colors):
    # vertices 1 and 4 each have the pair {2, 3} as neighbors: equal digests
    # when 2 and 3 share a color, and unequal ones in both orders otherwise
    g = validate(4, 4, {(1, 2), (1, 3), (2, 4), (3, 4)}, colors)
    assert invariant_from_lists(4, *adjacency_lists(g), g.colors) == graph_invariant(g)


@pytest.mark.parametrize("bad", [1.0, True, -1])
def test_colors_checked_before_table_lookup(monkeypatch, bad):
    def never(*args):
        raise AssertionError("unchecked colors reached the hash")

    g = validate(3, 1, {(1, 2), (1, 3), (2, 3)}, [1, 1, 1])
    outs, ins = adjacency_lists(g)
    for colors in ([1, 2, 1], [1, 1, 1]):
        # the table now holds [1, 1, 1], which [1, 1.0, 1] and [1, True, 1] equal
        invariant_from_lists(3, outs, ins, colors)
    monkeypatch.setattr(hashing, "_compile_kernel", never)
    monkeypatch.setattr(hashing, "_generic_invariant", never)
    for backend in BACKENDS:
        for _ in range(2):
            with pytest.raises(ValueError):
                invariant_from_lists(3, outs, ins, [1, bad, 1], backend)
    with pytest.raises(ValueError):
        invariant_from_lists(3, outs, ins, [1, 1])


@pytest.mark.parametrize("backend", BACKENDS)
def test_le64_rejects_negative_values(backend):
    # a negative value once indexed the LE64 table from its end: -1 was 127;
    # 2**64 does not fit in eight bytes
    for args in [(-1, 0, 1), (0, -1, 1), (0, 0, -1), (0, 0, -200), (0, 0, 2**64)]:
        with pytest.raises(ValueError):
            vertex_init_digest(*args, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_le64_refuses_bool_and_float(backend):
    # True once indexed the LE64 table as 1, so colors (True, 2) hashed as
    # (1, 2), and 1.0 raised a bare TypeError
    for args in [(True, 0, 1), (0, False, 1), (0, 0, True), (0, 0, 1.0)]:
        with pytest.raises(ValueError, match="^LE64 encodes ints"):
            vertex_init_digest(*args, backend)
    for colors in [(True, 2), (1.0, 2)]:
        with pytest.raises(ValueError, match="^LE64 encodes ints"):
            graph_invariant(ComputationalGraph(2, 2, 1, colors), backend)


def test_isomorphic_structure_answered_from_table(monkeypatch, triple):
    # triple[1] and triple[2] relabel triple[0]; in canonical labeling their
    # every coloring repeats one of triple[0]'s inputs
    def never(*args):
        raise AssertionError("an isomorphic structure was refined again")

    left = triple[0]
    want = graph_invariant(left)
    _, outs, ins, _ = canonical_relabeling(left.n, *adjacency_lists(left))
    for colors in itertools.product(range(1, 4), repeat=left.n):
        invariant_from_lists(left.n, outs, ins, colors)
    monkeypatch.setattr(hashing, "_kernel", (None,) * 5)
    monkeypatch.setattr(hashing, "_compile_kernel", never)
    monkeypatch.setattr(hashing, "_generic_invariant", never)
    for g in triple[1:]:
        _, g_outs, g_ins, (order, *_) = canonical_relabeling(g.n, *adjacency_lists(g))
        assert (g_outs, g_ins) == (outs, ins)
        colors = [g.colors[v] for v in order]
        assert invariant_from_lists(g.n, g_outs, g_ins, colors) == want


def test_table_dropped_when_n_changes(monkeypatch):
    a = validate(4, 1, {(1, 2), (2, 3), (3, 4)}, [1] * 4)
    b = validate(5, 1, {(1, 2), (2, 3), (3, 4), (4, 5)}, [1] * 5)
    want = [graph_invariant(g) for g in (a, a, b, a)]
    compiled = []
    compile_kernel = hashing._compile_kernel
    monkeypatch.setattr(
        hashing, "_compile_kernel", lambda *key: compiled.append(key[0]) or compile_kernel(*key)
    )
    got = [invariant_from_lists(g.n, *adjacency_lists(g), g.colors) for g in (a, a, b, a)]
    assert got == want
    # the second a is a table hit; b drops the n = 4 table, so the last a
    # misses, compiles again and the table then holds n = 4 only
    assert compiled == [4, 5, 4]
    assert hashing._table[0] == 4 and len(hashing._table[1]) == 1


def test_enumeration_compiles_one_kernel_per_canonical_structure(monkeypatch):
    # a canonical structure's table misses arrive as one run, and a matrix
    # isomorphic to an earlier one is answered from the table
    def never(*args):
        raise AssertionError("the md5 path ran the generic refinement")

    compiled = []
    compile_kernel = hashing._compile_kernel
    monkeypatch.setattr(
        hashing, "_compile_kernel", lambda *key: compiled.append(key) or compile_kernel(*key)
    )
    monkeypatch.setattr(hashing, "_generic_invariant", never)
    records = list(enumerate_graphs(EnumerationConfig(5, 9, 2, True)))
    structures = {
        (n, outs, ins) for n in range(2, 6) for _, outs, ins, _ in _surviving_matrices(n, 9)
    }
    assert len(compiled) == len(structures) and set(compiled) == structures
    assert {rec.graph.n for rec in records} == {2, 3, 4, 5}


def test_batch_invariants_match_individual(small_corpus):
    graphs = [rec.graph for rec in small_corpus[:120]]
    for backend in BACKENDS:
        individual = [graph_invariant(g, backend) for g in graphs]
        assert graph_invariants(graphs, backend) == individual


def _concat_from_full_last_round(g):
    return final_digest(g.n, refinement_trace(g, "concat")[-1], "concat")


# At 0 every concat round from 1 on is a rope; at the default only rounds
# past 64 KiB are, such as round 5 of the complete 6-vertex DAG.
ROPE_BYTES = (0, hashing._ROPE_BYTES)


@contextlib.contextmanager
def ropes_past(size):
    saved = hashing._ROPE_BYTES
    hashing._ROPE_BYTES = size
    try:
        yield
    finally:
        hashing._ROPE_BYTES = saved


@st.composite
def raw_graphs(draw, max_n=6):
    """Any i < j matrix and coloring, with or without the path condition."""
    n = draw(st.integers(0, max_n))
    bits = draw(st.integers(0, (1 << pair_count(n)) - 1))
    colors = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    return ComputationalGraph(n, 3, bits, colors)


@settings(max_examples=100)
@given(st.one_of(valid_graphs(max_n=6), raw_graphs()))
def test_concat_final_digest_equals_full_last_round(g):
    # rounds past the rope size are kept as ropes and only the final digest
    # is joined; it must equal the one joined from the fully built last round
    for size in ROPE_BYTES:
        with ropes_past(size):
            assert graph_invariant(g, "concat") == _concat_from_full_last_round(g)


def test_concat_final_digest_on_one_and_two_vertices():
    graphs = [ComputationalGraph(1, 3, 0, (c,)) for c in (1, 2, 3)] + [
        ComputationalGraph(2, 2, bits, colors)
        for bits in (0, 1)
        for colors in itertools.product((1, 2), repeat=2)
    ]
    for g in graphs:
        assert graph_invariant(g, "concat") == _concat_from_full_last_round(g)


def test_concat_batch_matches_one_by_one(triple):
    # the batch's final memo is keyed on object ids: one-vertex graphs of
    # different colors, repeats and isomorphic graphs must not share an entry
    # unless their digests are equal
    singles = [ComputationalGraph(1, 3, 0, (c,)) for c in (1, 2, 3)]
    twos = [ComputationalGraph(2, 2, bits, (1, 2)) for bits in (0, 1)]
    raw = ComputationalGraph(4, 2, pack_edges(4, [(1, 3), (2, 4)]), (1, 2, 2, 1))
    batch = [singles[0], *triple, singles[1], *twos, raw, singles[0], singles[2],
             *reversed(triple), raw, *twos, singles[1]]
    for size in ROPE_BYTES:
        with ropes_past(size):
            assert graph_invariants(batch, "concat") == [
                graph_invariant(g, "concat") for g in batch
            ]


def test_concat_rope_round_straddles_the_rope_size():
    # round 6's digests fall on both sides of the rope size, and the whole
    # round is kept as ropes: ropes for its large digests only would sort
    # bytes against tuples, a TypeError
    edges = [(1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (4, 7)]
    g = ComputationalGraph(7, 2, pack_edges(7, edges), (1, 2, 1, 2, 2, 1, 1))
    sizes = [len(h) for h in refinement_trace(g, "concat")[6]]
    assert min(sizes) <= hashing._ROPE_BYTES < max(sizes)
    expected = _concat_from_full_last_round(g)
    assert graph_invariant(g, "concat") == expected
    c1, c2 = graph_invariants([g, g], "concat")
    assert c1 is c2 and c1 == expected


def test_concat_ropes_of_an_edgeless_graph_stay_shallow():
    # at rope size 0 every round from 1 would be a rope but for the depth
    # bound; ropes 1,099 rounds deep passed the interpreter's recursion limit
    # when two of them were sorted
    n = 1100
    g = ComputationalGraph(n, 2, 0, tuple(1 + i % 2 for i in range(n)))
    zero = le64(0) * 2
    with ropes_past(0):
        got = graph_invariant(g, "concat")
    assert got == le64(n) + b"".join(sorted(zero * n + zero + le64(c) for c in g.colors))


def test_concat_pair_peak_memory(pinned_pair):
    # rounds from the first whose largest digest passes the rope size are
    # ropes of shared parts, so the final digest is the only large copy:
    # about 1.004x, 1.13x when every round was joined and 1.56x before that
    tracemalloc.start()
    try:
        c1, c2 = graph_invariants([pinned_pair.g1, pinned_pair.g2], "concat")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c1 is c2
    assert peak < 1.05 * len(c1)


def test_large_color_values_hash():
    g = validate(3, 300, {(1, 2), (2, 3)}, [1, 299, 300])
    h = validate(3, 300, {(1, 2), (2, 3)}, [1, 299, 299])
    assert graph_invariant(g) != graph_invariant(h)
    assert graph_invariant(g, "concat") != graph_invariant(h, "concat")


def test_wide_graph_compiles_one_kernel():
    # n and the degrees of vertices 1 and n are past the 128-entry LE64 table
    n = 130
    edges = [(1, j) for j in range(2, n)] + [(j, n) for j in range(2, n)]
    g = validate(n, 1, edges, [1] * n)
    assert _twice(g) == [graph_invariant(g)] * 2


@settings(max_examples=60)
@given(valid_graphs(max_n=6))
def test_concat_cap_matches_digest_length(g):
    # the size recurrence is exact: a cap of the digest's length passes, one
    # byte less refuses before building anything
    size = len(graph_invariant(g, "concat"))
    cap = hashing.CONCAT_MAX_BYTES
    try:
        hashing.CONCAT_MAX_BYTES = size
        assert len(graph_invariants([g, g], "concat")[1]) == size
        hashing.CONCAT_MAX_BYTES = size - 1
        with pytest.raises(CapabilityExceeded):
            refinement_trace(g, "concat")
    finally:
        hashing.CONCAT_MAX_BYTES = cap


def test_concat_refusal_stops_at_first_round_over_cap():
    # running all n rounds of the size recurrence before the cap check took
    # 23-27 s at 4,000 vertices (2-core Xeon VM)
    n = 4000
    g = ComputationalGraph(n, 1, pack_edges(n, [(i, i + 1) for i in range(1, n)]), (1,) * n)
    t0 = time.perf_counter()
    with pytest.raises(CapabilityExceeded):
        graph_invariant(g, "concat")
    assert time.perf_counter() - t0 < 1.0


def test_concat_refuses_the_128_leaf_star():
    # hashing._LE64 shares the encodings of counts below 128 only; the
    # least graph with a larger count, a 128-leaf star, is over the cap
    n = 129
    star = ComputationalGraph(n, 1, pack_edges(n, [(v, n) for v in range(1, n)]), (1,) * n)
    with pytest.raises(CapabilityExceeded):
        graph_invariant(star, "concat")


def test_concat_refuses_every_validated_graph_past_20_vertices():
    # every vertex of a validated graph on n >= 2 vertices has a neighbor,
    # so a round at least doubles its smallest digest plus 16: round r's
    # digests hold at least 40 * 2**r - 16 bytes, and the final digest's n
    # of round n pass CONCAT_MAX_BYTES from n = 21 on
    n = 21
    g = validate(n, 1, [(i, i + 1) for i in range(1, n)], [1] * n)
    assert n * (40 * 2**n - 16) > hashing.CONCAT_MAX_BYTES
    with pytest.raises(CapabilityExceeded, match="CONCAT_MAX_BYTES"):
        graph_invariant(g, "concat")


def test_md5_one_shot_memory_is_linear():
    # keeping every round's list and one memo across all rounds peaked at
    # 8 MB of allocations at 200 vertices, and 887 MB RSS at 2,000
    n = 200
    g = ComputationalGraph(n, 1, pack_edges(n, [(i, i + 1) for i in range(1, n)]), (1,) * n)
    tracemalloc.start()
    try:
        graph_invariant(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_color_sensitivity_on_rigid_graphs(small_corpus):
    """Flipping one color on a rigid graph must change the concat digest."""
    checked = 0
    for rec in small_corpus:
        g = rec.graph
        if checked >= 40:
            break
        exts = list(itertools.islice(linear_extensions(g), 2))
        if len(exts) != 1:
            continue
        checked += 1
        base = graph_invariant(g, "concat")
        for v in range(g.n):
            flipped = list(g.colors)
            flipped[v] = 2 if flipped[v] == 1 else 1
            g2 = ComputationalGraph(g.n, g.k, g.bits, tuple(flipped))
            assert graph_invariant(g2, "concat") != base
    assert checked == 40
