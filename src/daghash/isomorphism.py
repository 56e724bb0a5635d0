"""Exact isomorphism decision by pruned brute force over vertex bijections.

The ground truth the hash is verified against: two graphs are isomorphic when
some bijection preserves both adjacency and coloring.  Candidates are pruned
to vertices matching in (color, out-degree, in-degree) -- any witness must
respect those -- and the search returns the lexicographically first witness.
Factorial worst case; hard-capped at 12 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import CapabilityExceeded, ComputationalGraph, GraphError, Permutation, pair_index

ORACLE_MAX_VERTICES = 12


class OracleCapExceeded(CapabilityExceeded):
    """Graphs are larger than the brute-force search is willing to handle."""


@dataclass(frozen=True, slots=True)
class IsoWitness:
    """Outcome of an isomorphism check: a witness permutation, or None."""

    permutation: Permutation | None

    @property
    def isomorphic(self) -> bool:
        return self.permutation is not None


def _adjacency_rows(g: ComputationalGraph) -> list[int]:
    """Per-vertex bitmask over 0-based targets: bit j of row i means edge i+1 -> j+1.

    Vertex i's row is the run of pairs (i, i+1)..(i, n) in the packed matrix,
    shifted so that target j lands on bit j-1.
    """
    n, bits = g.n, g.bits
    return [
        (bits >> pair_index(n, i, i + 1) & ((1 << (n - i)) - 1)) << i
        for i in range(1, n + 1)
    ]


def verify_witness(g1: ComputationalGraph, g2: ComputationalGraph, p: Permutation) -> bool:
    """True iff p preserves adjacency and coloring between g1 and g2.

    g1's adjacency rows, carried through p, must equal g2's.  A g1 edge that
    p reverses lands below the diagonal, where g2's i < j rows have no bits,
    so it never matches.
    """
    n = g1.n
    if g2.n != n:
        raise GraphError(f"graphs have different vertex counts: {n} vs {g2.n}")
    if len(p.mapping) != n:
        raise GraphError(f"permutation acts on {len(p.mapping)} vertices, graphs have {n}")
    mapping = p.mapping
    if any(g1.colors[i] != g2.colors[mapping[i] - 1] for i in range(n)):
        return False
    mapped = [0] * n
    for i, j in g1.edges:
        mapped[mapping[i - 1] - 1] |= 1 << (mapping[j - 1] - 1)
    return mapped == _adjacency_rows(g2)


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

    rows1 = _adjacency_rows(g1)
    rows2 = _adjacency_rows(g2)

    def signatures(g: ComputationalGraph, rows: list[int]) -> list[tuple[int, int, int]]:
        # (color, out-degree, in-degree) per vertex, from the adjacency rows.
        return [
            (g.colors[v], rows[v].bit_count(), sum(row >> v & 1 for row in rows))
            for v in range(n)
        ]

    sig1 = signatures(g1, rows1)
    sig2 = signatures(g2, rows2)
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
