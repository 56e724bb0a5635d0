"""Exact isomorphism decision by pruned brute force over vertex bijections.

The ground truth the hash is verified against: two graphs are isomorphic when
some bijection preserves both adjacency and coloring.  Candidates are pruned
to vertices matching in (color, out-degree, in-degree) -- any witness must
respect those -- and the search returns the lexicographically first witness.
Factorial worst case; hard-capped at 12 vertices.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .graphs import (
    CapabilityExceeded, ComputationalGraph, GraphError, NotLinearExtension, Permutation,
    apply_permutation, neighbor_lists_from_bits,
)

ORACLE_MAX_VERTICES = 12


class OracleCapExceeded(CapabilityExceeded):
    """Graphs are larger than the brute-force search is willing to handle."""


class IsoWitness(NamedTuple):
    """Outcome of an isomorphism check: a witness permutation, or None."""

    permutation: Permutation | None

    @property
    def isomorphic(self) -> bool:
        return self.permutation is not None


def verify_witness(g1: ComputationalGraph, g2: ComputationalGraph, p: Permutation) -> bool:
    """True iff p, through apply_permutation, carries g1 onto g2's bits and colors.

    The palette k is ignored, and a p that reverses an edge has no image.
    The graphs' constructor has checked their shape; g1 over MAX_VERTICES
    vertices raises CapabilityExceeded.
    """
    if g2.n != g1.n:
        raise GraphError(f"graphs have different vertex counts: {g1.n} vs {g2.n}")
    try:
        image = apply_permutation(g1, p)
    except NotLinearExtension:
        return False
    return image.bits == g2.bits and image.colors == g2.colors


@functools.lru_cache(maxsize=2)
def _neighbor_rows(n: int, bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Out-neighbor bitmask rows (bit j of rows[i] is the edge i -> j) and
    # in-degrees, as shared tuples.  The cache keeps one result per side of
    # a call: verify hashes each matrix's colorings in a row, so most of its
    # calls repeat both matrices and decode neither.  A call hashes the key,
    # O(n^2 / 30) word operations, and the cache keeps two matrices and
    # their rows alive, about n^2 / 8 bytes each when dense.
    outs, ins = neighbor_lists_from_bits(n, bits)
    return tuple([sum(map((1).__lshift__, row)) for row in outs]), tuple(map(len, ins))


def are_isomorphic(g1: ComputationalGraph, g2: ComputationalGraph) -> IsoWitness:
    """Search for a color- and adjacency-preserving bijection.

    Returns the first witness in lexicographic order of the mapping, or a
    negative witness after exhausting all candidates.  Declared palette
    sizes are ignored; only the concrete color values are compared.
    """
    if g1.n != g2.n:
        return IsoWitness(None)
    n = g1.n
    if n > ORACLE_MAX_VERTICES:
        raise OracleCapExceeded(
            f"{n} vertices exceeds the brute-force cap of {ORACLE_MAX_VERTICES}"
        )

    # A vertex's row and in-degree give its (color, out-degree, in-degree).
    rows1, indeg1 = _neighbor_rows(n, g1.bits)
    rows2, indeg2 = _neighbor_rows(n, g2.bits)
    sig1 = list(zip(g1.colors, map(int.bit_count, rows1), indeg1))
    sig2 = list(zip(g2.colors, map(int.bit_count, rows2), indeg2))
    if sorted(sig1) != sorted(sig2):
        return IsoWitness(None)
    # Candidates group by signature: one map from a signature to g2's
    # vertices with it, in ascending order, serves every vertex of g1.
    groups: dict[tuple[int, int, int], list[int]] = {}
    for w, s in enumerate(sig2):
        groups.setdefault(s, []).append(w)
    candidates = [groups[s] for s in sig1]

    # Depth-first over vertex v = len(mapping), with mapping[u] vertex u's
    # image and pending[v] the iterator over v's untried candidates.  Rows
    # hold only i < j bits, so the edge test reads 0 for a > w and the
    # reversed-edge test reads 0 for w > a.  A loop, not a recursive
    # closure, so a call leaves no reference cycle for the collector.
    mapping: list[int] = []
    pending = [iter(candidates[0])] if n else []
    while pending and (v := len(mapping)) < n:
        for w in pending[-1]:
            if w in mapping:
                continue
            for u, a in enumerate(mapping):
                if rows1[u] >> v & 1 != rows2[a] >> w & 1 or rows2[w] >> a & 1:
                    break
            else:
                mapping.append(w)
                if v + 1 < n:
                    pending.append(iter(candidates[v + 1]))
                break
        else:
            pending.pop()
            if mapping:
                mapping.pop()
    if len(mapping) < n:
        return IsoWitness(None)
    witness = Permutation(map((1).__add__, mapping))
    if not verify_witness(g1, g2, witness):
        raise RuntimeError("internal error: search produced a witness that fails re-verification")
    return IsoWitness(witness)
