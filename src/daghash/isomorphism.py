"""Exact isomorphism decision by pruned brute force over vertex bijections.

The ground truth the hash is verified against: two graphs are isomorphic when
some bijection preserves both adjacency and coloring.  Candidates are pruned
to vertices matching in (color, out-degree, in-degree) -- any witness must
respect those -- and the search returns the lexicographically first witness.
Factorial worst case; hard-capped at 12 vertices.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    CapabilityExceeded,
    ComputationalGraph,
    GraphError,
    Permutation,
    adjacency_lists,
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
    """True iff p preserves adjacency and coloring between g1 and g2.

    p must carry g1's edge set onto g2's edge set.  A g1 edge (i, j) that p
    reverses maps to a pair (a, b) with a > b, which g2's i < j edge set
    never holds, so it never matches.
    """
    n = g1.n
    if g2.n != n:
        raise GraphError(f"graphs have different vertex counts: {n} vs {g2.n}")
    if len(p.mapping) != n:
        raise GraphError(f"permutation acts on {len(p.mapping)} vertices, graphs have {n}")
    mapping = p.mapping
    if any(g1.colors[i] != g2.colors[mapping[i] - 1] for i in range(n)):
        return False
    return {(mapping[i - 1], mapping[j - 1]) for i, j in g1.edges} == set(g2.edges)


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

    # Per vertex: a bitmask row over 0-based targets (bit j of rows[i] is the
    # edge i -> j) and the (color, out-degree, in-degree) signature.
    sides = []
    for g in (g1, g2):
        outs, ins = adjacency_lists(g)
        rows = [sum([1 << j for j in row]) for row in outs]
        sides.append((rows, [(g.colors[v], len(outs[v]), len(ins[v])) for v in range(n)]))
    (rows1, sig1), (rows2, sig2) = sides
    if sorted(sig1) != sorted(sig2):
        return IsoWitness(None)
    candidates = [[w for w in range(n) if sig2[w] == sig1[v]] for v in range(n)]

    # mapping[u] is vertex u's image.  Rows hold only i < j bits, so the edge
    # test reads 0 for a > w and the reversed-edge test reads 0 for w > a.
    mapping: list[int] = []

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in candidates[v]:
            if w in mapping:
                continue
            for u, a in enumerate(mapping):
                if rows1[u] >> v & 1 != rows2[a] >> w & 1 or rows2[w] >> a & 1:
                    break
            else:
                mapping.append(w)
                if extend(v + 1):
                    return True
                mapping.pop()
        return False

    if not extend(0):
        return IsoWitness(None)
    witness = Permutation(tuple(w + 1 for w in mapping))
    if not verify_witness(g1, g2, witness):
        raise RuntimeError("internal error: search produced a witness that fails re-verification")
    return IsoWitness(witness)
