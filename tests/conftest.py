"""Shared fixtures and test-only helpers: pinned graphs, the property-test
corpus, strategies, and reference helpers the package does not export."""

import itertools
import json

import pytest
from hypothesis import strategies as st

from daghash import hashing
from daghash.adversarial import counterexample_pair
from daghash.enumeration import EnumerationConfig, enumerate_graphs
from daghash.formats import graph_to_dict
from daghash.graphs import (
    ComputationalGraph,
    GraphError,
    Permutation,
    canonical_relabeling,
    neighbor_lists_from_bits,
    pack_edges,
    pair_count,
    pair_index,
    validate,
)
from daghash.isomorphism import _neighbor_rows, are_isomorphic


def iter_pairs(n):
    """All pairs (i, j), i < j, in row-major order."""
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            yield i, j


def has_edge(g, i, j):
    """Whether g has the edge i -> j: the bit of pair (i, j) in the packed
    matrix, read without a decoder; the tests' reference for the layout."""
    return 1 <= i < j <= g.n and bool(g.bits >> pair_index(g.n, i, j) & 1)


def identity_permutation(n):
    return Permutation(tuple(range(1, n + 1)))


def inverse_permutation(p):
    inv = [0] * len(p.mapping)
    for i, image in enumerate(p.mapping, start=1):
        inv[image - 1] = i
    return Permutation(tuple(inv))


def brute_linear_extensions(g):
    """The reference linear_extensions: every one of the n! permutations
    that keeps all edges order-preserving, in lexicographic order."""
    edges = g.edges
    for mapping in itertools.permutations(range(1, g.n + 1)):
        if all(mapping[i - 1] < mapping[j - 1] for i, j in edges):
            yield Permutation(mapping)


def census_key(g):
    """(n, canonical bits, least coloring over the orders): the inputs the
    census hashes for g, read off canonical_relabeling without the hash."""
    bits, _, _, orders = canonical_relabeling(g.n, *neighbor_lists_from_bits(g.n, g.bits))
    return g.n, bits, min(tuple(g.colors[v] for v in order) for order in orders)


def save_graph(g, path):
    """Write one graph as a JSON file (newline terminated)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(graph_to_dict(g)) + "\n")


def parse_record_line(line):
    """Digest bytes and the raw object of one record line."""
    obj = json.loads(line)
    return bytes.fromhex(obj["hash"]), obj


def parse_summary_line(line):
    """per-n counts (int keys) and total from a summary line."""
    obj = json.loads(line)
    return {int(n): c for n, c in obj["per_n"].items()}, obj["total"]


def triple_graphs():
    """Three one-class 5-vertex graphs that differ only by relabeling.

    The middle graph is the left one with vertices 3 and 4 exchanged; the
    right one applies the cycle 2->3->4->2.  All three carry the palette
    green=1, red=2, blue=3.
    """
    left = ComputationalGraph(
        5, 3, pack_edges(5, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)]),
        (1, 2, 1, 3, 3),
    )
    middle = ComputationalGraph(
        5, 3, pack_edges(5, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)]),
        (1, 2, 3, 1, 3),
    )
    right = ComputationalGraph(
        5, 3, pack_edges(5, [(1, 2), (1, 3), (1, 4), (3, 4), (2, 5), (4, 5)]),
        (1, 3, 2, 1, 3),
    )
    return left, middle, right


@pytest.fixture(autouse=True)
def empty_hash_caches(monkeypatch):
    """Every test starts with no cached kernel, an empty digest table, no
    compiled md5 rows and no decoded oracle rows."""
    monkeypatch.setattr(hashing, "_kernel", (None,) * 5)
    monkeypatch.setattr(hashing, "_table", (None, {}))
    monkeypatch.setattr(hashing, "_rows", (None, None, {}))
    _neighbor_rows.cache_clear()


@pytest.fixture(scope="session")
def triple():
    return triple_graphs()


@pytest.fixture(scope="session")
def pinned_pair():
    return counterexample_pair()


@pytest.fixture(scope="session")
def small_corpus():
    """Every class with n <= 5, k = 2, e_max = 10; a few thousand graphs."""
    return list(enumerate_graphs(EnumerationConfig(5, 10, 2)))


def oracle_census(n_max, e_max, k):
    """Class count by pairwise oracle dedup; no hashing involved.

    Walks the same (n, bit vector, coloring) space as the enumerator but
    keeps a flat list of representatives and compares each candidate
    against all same-size ones with the permutation oracle.  The path
    condition does not depend on colors, so the first GraphError for an
    edge set rules out all its colorings.
    """
    reps = []
    for n in range(2, n_max + 1):
        pairs = list(iter_pairs(n))
        for bits in range(1 << len(pairs)):
            if bits.bit_count() > e_max:
                continue
            edges = [p for t, p in enumerate(pairs) if bits >> t & 1]
            structural = None
            for colors in itertools.product(range(1, k + 1), repeat=n):
                if structural is False:
                    break
                try:
                    g = validate(n, k, edges, colors)
                    structural = True
                except GraphError:
                    structural = False
                    break
                if not any(
                    r.n == n and are_isomorphic(r, g).isomorphic for r in reps
                ):
                    reps.append(g)
    return len(reps)


@pytest.fixture(scope="session")
def census_by_oracle():
    return oracle_census


@st.composite
def valid_graphs(draw, max_n=6, max_k=3):
    """Random graphs satisfying the path condition, drawn without filtering.

    A drawn matrix is completed instead of rejected: every vertex without an
    in-edge gets one from vertex 1, every vertex without an out-edge gets one
    to vertex n.  Then each vertex has an in-neighbor below it and an
    out-neighbor above it, so it lies on a path from 1 to n; a matrix that
    already meets the path condition is its own completion, so every valid
    graph can be drawn.
    """
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, max_k))
    bits = draw(st.integers(0, (1 << pair_count(n)) - 1))
    outs, ins = neighbor_lists_from_bits(n, bits)
    for v in range(2, n + 1):
        if not ins[v - 1]:
            bits |= 1 << pair_index(n, 1, v)
    for v in range(1, n):
        if not outs[v - 1]:
            bits |= 1 << pair_index(n, v, n)
    colors = tuple(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    return ComputationalGraph(n, k, bits, colors)
