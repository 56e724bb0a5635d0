"""Enumeration: pruning, ordering, dedup counts, bucket verification."""

import copy
import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_linear_extensions,
    census_key,
    inverse_permutation,
    iter_pairs,
    valid_graphs,
)
from daghash.adversarial import AdversarialPair
from daghash.enumeration import (
    CanonicalRecord,
    EnumerationConfig,
    EnumerationReport,
    FalseMerge,
    _matrix_digests,
    _surviving_matrices,
    enumerate_graphs,
    verify_buckets,
)
from daghash import enumeration, hashing
from daghash.graphs import (
    ComputationalGraph,
    GraphError,
    Permutation,
    adjacency_lists,
    apply_permutation,
    canonical_relabeling,
    linear_extensions,
    neighbor_lists_from_bits,
    pack_edges,
    pair_count,
    span_mask,
    validate,
)
from daghash.hashing import graph_invariant
from daghash.isomorphism import IsoWitness, OracleCapExceeded, are_isomorphic


def test_config_validation():
    with pytest.raises(ValueError):
        EnumerationConfig(1, 1, 1)
    with pytest.raises(ValueError):
        EnumerationConfig(2, 0, 1)
    with pytest.raises(ValueError):
        EnumerationConfig(2, 1, 0)


# reserved_io="no" once reserved the I/O colors, e_max=5.5 ran, and
# n_max=6.5 or k=2.0 failed with a TypeError deep in the scan.
@pytest.mark.parametrize("field,value", [
    ("n_max", 6.5), ("n_max", True), ("e_max", 5.5), ("e_max", "9"),
    ("k", 2.0), ("k", False), ("reserved_io", "no"), ("reserved_io", 1),
])
def test_config_field_types(field, value):
    cfg = EnumerationConfig(3, 2, 1)
    message = rf"^{field} must be an? (int|bool), got {value!r}$"
    with pytest.raises(ValueError, match=message):
        EnumerationConfig(**{**cfg._asdict(), field: value})
    with pytest.raises(ValueError, match=message):
        cfg._replace(**{field: value})
    raw = tuple.__new__(EnumerationConfig, {**cfg._asdict(), field: value}.values())
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError, match=message):
            pickle.loads(pickle.dumps(raw, protocol))


def test_config_defaults_and_replace_validates():
    cfg = EnumerationConfig(3, 2, 1)
    assert cfg.reserved_io is False
    assert cfg == EnumerationConfig(n_max=3, e_max=2, k=1, reserved_io=False)
    assert cfg._replace(reserved_io=True).palette == 3
    with pytest.raises(ValueError, match="k must be at least 1, got 0"):
        cfg._replace(k=0)
    with pytest.raises(GraphError):
        Permutation((1, 2))._replace(mapping=(5, 5))


G2 = ComputationalGraph(2, 1, 1, (1, 1))
VALUE_TYPES = [
    (G2, ("n", "k", "bits", "colors")),
    (Permutation((2, 1)), ("mapping",)),
    (EnumerationConfig(3, 2, 1), ("n_max", "e_max", "k", "reserved_io")),
    (CanonicalRecord(b"\x00" * 16, G2), ("invariant", "graph")),
    (EnumerationReport({2: 1}, 0), ("per_n", "duplicates")),
    (IsoWitness(Permutation((1, 2))), ("permutation",)),
    (AdversarialPair(G2, G2, "oracle", b"\x01" * 16), ("g1", "g2", "certificate", "digest")),
]


@pytest.mark.parametrize("value,fields", VALUE_TYPES, ids=[type(v).__name__ for v, _ in VALUE_TYPES])
def test_value_type_contract(value, fields):
    # Fields in declaration order; instances are tuples of them, immutable,
    # and copy or pickle to an equal object of the same type.
    assert tuple(value) == tuple(getattr(value, f) for f in fields)
    assert repr(value).startswith(f"{type(value).__name__}({fields[0]}=")
    with pytest.raises(AttributeError):
        setattr(value, fields[0], getattr(value, fields[0]))
    for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(again) is type(value) and again == value


def test_config_palette_and_colorings():
    plain = EnumerationConfig(4, 6, 2)
    assert plain.palette == 2
    assert list(plain.colorings(2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    reserved = EnumerationConfig(4, 6, 2, reserved_io=True)
    assert reserved.palette == 4
    assert list(reserved.colorings(2)) == [(3, 4)]
    got = list(reserved.colorings(3))
    assert got == [(3, 1, 4), (3, 2, 4)]


def test_colorings_are_lexicographic():
    cfg = EnumerationConfig(4, 6, 3)
    seen = list(cfg.colorings(3))
    assert seen == sorted(seen)


def _spans(n, bits):
    # the production path condition on a packed matrix
    return span_mask(n, *neighbor_lists_from_bits(n, bits)) == (1 << n) - 1


def test_neighbor_lists_from_bits_examples():
    assert neighbor_lists_from_bits(2, 0b1) == (((1,), ()), ((), (0,)))
    assert neighbor_lists_from_bits(3, 0b101) == (((1,), (2,), ()), ((), (0,), (1,)))
    assert neighbor_lists_from_bits(3, 0) == (((), (), ()), ((), (), ()))


def test_decode_positions_follow_pair_order():
    n = 5
    for t, pair in enumerate(iter_pairs(n)):
        outs, ins = neighbor_lists_from_bits(n, 1 << t)
        assert {(i + 1, j + 1) for i, row in enumerate(outs) for j in row} == {pair}
        assert {(i + 1, j + 1) for j, row in enumerate(ins) for i in row} == {pair}


def test_surviving_matrices_examples():
    survivors3 = {bits for bits, *_ in _surviving_matrices(3, 9)}
    assert pack_edges(3, {(1, 2), (2, 3)}) in survivors3
    assert pack_edges(3, {(1, 3)}) not in survivors3
    # the edge budget: the complete 4-vertex graph spans, and has 6 edges
    complete4 = pack_edges(4, iter_pairs(4))
    assert complete4 in {bits for bits, *_ in _surviving_matrices(4, 6)}
    assert complete4 not in {bits for bits, *_ in _surviving_matrices(4, 5)}
    complete5 = pack_edges(5, iter_pairs(5))
    assert complete5.bit_count() == 10
    assert complete5 in {bits for bits, *_ in _surviving_matrices(5, 10)}
    assert complete5 not in {bits for bits, *_ in _surviving_matrices(5, 9)}


@settings(max_examples=80)
@given(st.integers(2, 6), st.data())
def test_prune_agrees_with_validate(n, data):
    """The path-condition prune matches validate's path condition exactly."""
    bits = data.draw(st.integers(0, (1 << pair_count(n)) - 1))
    edges = {p for t, p in enumerate(iter_pairs(n)) if bits >> t & 1}
    try:
        validate(n, 1, edges, [1] * n)
        valid = True
    except GraphError:
        valid = False
    assert _spans(n, bits) == valid


def test_smallest_space_single_record():
    recs = list(enumerate_graphs(EnumerationConfig(2, 1, 1)))
    assert len(recs) == 1
    g = recs[0].graph
    assert (g.n, g.edges, g.colors) == (2, ((1, 2),), (1, 1))


def test_three_structures_one_color():
    recs = list(enumerate_graphs(EnumerationConfig(3, 3, 1)))
    shapes = [(r.graph.n, r.graph.edges) for r in recs]
    assert shapes == [
        (2, ((1, 2),)),
        (3, ((1, 2), (2, 3))),
        (3, ((1, 2), (1, 3), (2, 3))),
    ]


def test_twenty_classes_two_colors():
    recs = list(enumerate_graphs(EnumerationConfig(3, 3, 2)))
    assert len(recs) == 20


@pytest.mark.parametrize(
    "n_max,e_max,k",
    [(2, 1, 1), (3, 3, 1), (3, 3, 2), (4, 4, 1), (3, 3, 3)],
)
def test_counts_match_oracle_census(n_max, e_max, k, census_by_oracle):
    total = sum(1 for _ in enumerate_graphs(EnumerationConfig(n_max, e_max, k)))
    assert total == census_by_oracle(n_max, e_max, k)


def test_generation_order_is_monotone(small_corpus):
    ns = [rec.graph.n for rec in small_corpus]
    assert ns == sorted(ns)
    # within one n, matrices ascend numerically and colorings lexicographically
    for n in set(ns):
        group = [r.graph for r in small_corpus if r.graph.n == n]
        keys = [(g.bits, g.colors) for g in group]
        assert keys == sorted(keys)


def test_records_carry_their_digest(small_corpus):
    for rec in small_corpus[:200]:
        assert graph_invariant(rec.graph) == rec.invariant


def test_digests_unique_across_records(small_corpus):
    digs = [rec.invariant for rec in small_corpus]
    assert len(set(digs)) == len(digs)


def test_rerun_is_identical(small_corpus):
    again = list(enumerate_graphs(EnumerationConfig(5, 10, 2)))
    assert again == small_corpus


@settings(max_examples=80)
@given(valid_graphs(max_n=6))
def test_canonical_relabeling_is_shared_by_linear_extensions(g):
    relabelings = [apply_permutation(g, p) for p in linear_extensions(g)]
    least = min(gp.bits for gp in relabelings)
    for gp in relabelings:
        bits, outs, ins, orders = canonical_relabeling(gp.n, *adjacency_lists(gp))
        assert bits == least
        assert (outs, ins) == neighbor_lists_from_bits(g.n, bits)
        # order[v] is the vertex of gp placed at position v; every reported
        # relabeling is a linear extension that rebuilds bits and carries
        # the colors along
        assert len(set(orders)) == len(orders) >= 1
        for order in orders:
            p = Permutation(tuple(order.index(v) + 1 for v in range(g.n)))
            canon = apply_permutation(gp, p)
            assert canon.bits == bits
            assert canon.colors == tuple(gp.colors[v] for v in order)
            assert graph_invariant(canon) == graph_invariant(g)


def test_canonical_relabeling_matches_brute_force():
    """Every least-bits linear extension of the brute-force reference, in
    its order, on every path-condition matrix with n <= 6 and at most 9
    edges."""
    for n in range(2, 7):
        for bits, *_ in _surviving_matrices(n, 9):
            g = ComputationalGraph(n, 1, bits, (1,) * n)
            least, best = None, []
            for p in brute_linear_extensions(g):
                image = apply_permutation(g, p).bits
                if least is None or image < least:
                    least, best = image, [p]
                elif image == least:
                    best.append(p)
            assert canonical_relabeling(n, *adjacency_lists(g)) == (
                least,
                *neighbor_lists_from_bits(n, least),
                tuple(tuple(v - 1 for v in inverse_permutation(p).mapping) for p in best),
            )


def test_canonical_relabeling_lists_are_the_decoded_least_bits():
    """Each least-bits extension relabels the lists, sorted, into the decode
    of the least bits, tuples included, on every path-condition matrix with
    n <= 6."""
    for n in range(2, 7):
        for bits, *_ in _surviving_matrices(n, pair_count(n)):
            outs, ins = neighbor_lists_from_bits(n, bits)
            least, c_outs, c_ins, orders = canonical_relabeling(n, outs, ins)
            assert (c_outs, c_ins) == neighbor_lists_from_bits(n, least)
            assert {type(row) for row in (c_outs, c_ins, *c_outs, *c_ins)} == {tuple}
            for order in orders:
                p = sorted(range(n), key=order.__getitem__)  # p[v]: v's position
                assert c_outs == tuple(tuple(sorted(p[j] for j in outs[i])) for i in order)
                assert c_ins == tuple(tuple(sorted(p[j] for j in ins[i])) for i in order)


def test_surviving_matrices_relabel_colorings_consistently():
    # each coloring, hashed from the canonical lists and the orders, hashes
    # like the matrix with its own coloring, for every matrix, canonical or not
    config = EnumerationConfig(5, 6, 2, reserved_io=True)
    for n in range(2, 6):
        colorings = list(config.colorings(n))
        for mat in _surviving_matrices(n, config.e_max):
            bits, digests = _matrix_digests(n, colorings, "md5", mat)
            assert bits == mat[0]
            assert digests == [
                graph_invariant(ComputationalGraph(n, config.palette, bits, colors))
                for colors in colorings
            ]


def _plain(x):
    return type(x) is int or type(x) is tuple and all(map(_plain, x))


def test_relabel_maps_colorings_to_orbit_minima(monkeypatch):
    # each coloring reaches the hash as the least coloring of the canonical
    # matrix that the colored matrix is isomorphic to, also from a yielded
    # tuple that went through the pickling a pool does
    config = EnumerationConfig(5, 6, 2, reserved_io=True)
    hashed = []
    monkeypatch.setattr(enumeration, "invariant_from_lists",
                        lambda n, outs, ins, colors, backend: hashed.append(colors))
    nontrivial = 0
    for n in range(2, 6):
        colorings = list(config.colorings(n))
        for mat in _surviving_matrices(n, config.e_max):
            bits, outs, ins, orders = mat
            assert _plain(mat)
            copied = pickle.loads(pickle.dumps(mat))
            assert copied == mat
            nontrivial += len(orders) > 1
            canon = validate(n, config.palette, [(i + 1, j + 1) for i in range(n) for j in outs[i]],
                             [config.k + 1] + [1] * (n - 2) + [config.k + 2]).bits
            hashed.clear()
            _matrix_digests(n, colorings, "md5", copied)
            assert len(hashed) == len(colorings)
            for colors, got in zip(colorings, hashed):
                g = ComputationalGraph(n, config.palette, bits, colors)
                least = min(c for c in colorings if are_isomorphic(
                    g, ComputationalGraph(n, config.palette, canon, c)).isomorphic)
                assert got == least
    assert nontrivial > 0


def test_census_keys_agree_with_digests_and_oracle():
    # every member of a digest class has its first member's key, the oracle
    # confirms every duplicate, and on sampled pairs of distinct same-n
    # graphs, half of them colorings of isomorphic matrices, equal keys mean
    # isomorphic graphs
    config = EnumerationConfig(5, 9, 2, True)
    firsts, by_canon = {}, {}
    duplicates = 0
    for n, bits, colors, dig in enumeration._hashed(config, "md5"):
        g = ComputationalGraph(n, config.palette, bits, colors)
        key = census_key(g)
        by_canon.setdefault(key[:2], []).append((g, key))
        first, first_key = firsts.setdefault(dig, (g, key))
        if first is not g:
            assert key == first_key
            assert are_isomorphic(first, g).isomorphic
            duplicates += 1
    assert (sum(map(len, by_canon.values())), len(firsts), duplicates) == (1013, 779, 234)
    by_n = {}
    for (n, _), members in by_canon.items():
        by_n.setdefault(n, []).extend(members)
    groups = [members for (n, _), members in by_canon.items() if n > 2]
    rng = random.Random(30)
    differ = 0
    for i in range(2000):
        members = rng.choice(groups)
        (g, key), (h, h_key) = rng.sample(members if i % 2 else by_n[members[0][0].n], 2)
        assert (key == h_key) == are_isomorphic(g, h).isomorphic
        differ += key != h_key
    assert differ == 1973


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_digest_table_holds_one_entry_per_class(n):
    # every coloring is hashed as its orbit minimum, so the n's table, which
    # holds one entry per kernel run, ends with one entry per class
    report = verify_buckets(EnumerationConfig(n, 7, 2, reserved_io=True))
    table_n, table = hashing._table
    assert table_n == n
    assert sum(map(len, table.values())) == report.per_n[n]


def test_parallel_stream_matches_sequential(monkeypatch):
    # two cores, so the pool runs even on a one-core host
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    for cfg in (EnumerationConfig(4, 6, 2), EnumerationConfig(5, 9, 3, True)):
        seq = list(enumerate_graphs(cfg))
        par = list(enumerate_graphs(cfg, workers=2))
        assert par == seq


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        list(enumerate_graphs(EnumerationConfig(2, 1, 1), workers=0))


# 2.0 and "2" once failed with a TypeError, and True ran as one worker.
@pytest.mark.parametrize("workers", [2.0, "2", True])
def test_workers_must_be_an_int(workers):
    with pytest.raises(ValueError, match=re.escape(f"workers must be an int, got {workers!r}")):
        list(enumerate_graphs(EnumerationConfig(2, 1, 1), workers=workers))


def test_reserved_io_color_discipline():
    cfg = EnumerationConfig(5, 6, 2, reserved_io=True)
    recs = list(enumerate_graphs(cfg))
    assert recs
    for rec in recs:
        g = rec.graph
        assert g.colors[0] == 3 and g.colors[-1] == 4
        assert all(1 <= c <= 2 for c in g.colors[1:-1])
        assert g.k == 4


def test_completeness_small_scale():
    """Every valid graph in space maps to exactly one record's class."""
    cfg = EnumerationConfig(4, 6, 2)
    records = list(enumerate_graphs(cfg))
    by_digest = {r.invariant: r for r in records}
    for n in range(2, cfg.n_max + 1):
        pairs = list(iter_pairs(n))
        for bits in range(1 << len(pairs)):
            if bits.bit_count() > cfg.e_max or not _spans(n, bits):
                continue
            edges = [p for t, p in enumerate(pairs) if bits >> t & 1]
            for colors in itertools.product((1, 2), repeat=n):
                g = validate(n, cfg.k, edges, colors)
                rec = by_digest[graph_invariant(g)]
                assert rec.graph.n == n
                assert are_isomorphic(g, rec.graph).isomorphic


def test_verify_buckets_small_pure():
    # one coloring per matrix and no two isomorphic matrices: no duplicates
    report = verify_buckets(EnumerationConfig(3, 3, 1))
    assert report.total == 3 and report.per_n == {2: 1, 3: 2}
    assert report.duplicates == 0


def test_verify_buckets_counts_match_enumerate():
    cfg = EnumerationConfig(4, 6, 2)
    report = verify_buckets(cfg)
    assert report.total == sum(1 for _ in enumerate_graphs(cfg))
    assert report.duplicates == 8


def test_verify_buckets_respects_oracle_cap():
    with pytest.raises(OracleCapExceeded):
        verify_buckets(EnumerationConfig(13, 3, 1))


def test_injected_collision_is_reported(monkeypatch):
    # a digest that depends only on n merges the 3-vertex path and triangle
    def by_n(n, outs, ins, colors, backend="md5"):
        return bytes([n]) * 16

    monkeypatch.setattr(enumeration, "invariant_from_lists", by_n)
    with pytest.raises(FalseMerge) as exc:
        verify_buckets(EnumerationConfig(3, 3, 1))
    assert exc.value.digest == bytes([3]) * 16
    assert exc.value.canonical == validate(3, 1, [(1, 2), (2, 3)], [1, 1, 1])
    assert exc.value.offender == validate(3, 1, [(1, 2), (1, 3), (2, 3)], [1, 1, 1])


def test_record_type_is_plain():
    rec = CanonicalRecord(b"\x00" * 16, validate(2, 1, {(1, 2)}, [1, 1]))
    assert rec.invariant == b"\x00" * 16
