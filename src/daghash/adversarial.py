"""Adversarial pairs: non-isomorphic graphs with equal invariant digests.

The refinement digest is a sound isomorphism invariant but not a complete
one.  Both constructions here exploit the same blind spot: a bipartite
middle layer where every vertex has identical degrees and layer colors.
Refinement then keeps each layer digest-constant round after round, so two
middles with the same degree profile but different wiring produce identical
digest multisets, and the final digests collide under any backend, the
collision-free concatenation backend included.  Non-isomorphism is certified
independently, by the brute-force oracle when the size permits and by the
component structure of the middle layer otherwise.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    MAX_VERTICES, CapabilityExceeded, ComputationalGraph, neighbor_lists_from_bits, validate,
)
from .hashing import graph_invariant
from .isomorphism import ORACLE_MAX_VERTICES, are_isomorphic


class ConstructionDegenerate(Exception):
    """The requested parameters cannot yield a non-isomorphic pair."""


class AdversarialPair(NamedTuple):
    """Two same-size graphs with equal digests that are not isomorphic.

    certificate records the non-isomorphism evidence used when the pair was
    built: an exhaustive oracle search, or the differing component sizes of
    the middle layer (an isomorphism invariant, since any isomorphism of
    valid graphs fixes the input and output vertices and hence restricts to
    the interior).  digest is the md5 digest both graphs share.
    """

    g1: ComputationalGraph
    g2: ComputationalGraph
    certificate: str
    digest: bytes


def middle_component_sizes(g: ComputationalGraph) -> list[int]:
    """Sorted component sizes of the interior subgraph, direction ignored.

    Interior means every vertex except the input (1) and output (n); edges
    touching those two are dropped.  Vertex 1 is the unique source and
    vertex n the unique sink of a valid graph, so any isomorphism fixes
    both and this multiset is invariant.
    """
    outs, ins = neighbor_lists_from_bits(g.n, g.bits)
    sizes = []
    unvisited = set(range(1, g.n - 1))
    while unvisited:
        stack = [unvisited.pop()]
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for w in outs[v] + ins[v]:
                if w in unvisited:
                    unvisited.remove(w)
                    stack.append(w)
        sizes.append(size)
    return sorted(sizes)


def _certified(g1: ComputationalGraph, g2: ComputationalGraph) -> AdversarialPair:
    # Check both halves of the adversarial claim before handing the pair
    # out.  Digest inequality would mean the layer-symmetry argument was
    # violated by the caller, not a degenerate parameter choice.
    digest = graph_invariant(g1)
    if graph_invariant(g2) != digest:
        raise RuntimeError("constructed pair does not collide; broken symmetry")
    comp1 = middle_component_sizes(g1)
    comp2 = middle_component_sizes(g2)
    if g1.n <= ORACLE_MAX_VERTICES:
        if are_isomorphic(g1, g2).isomorphic:
            raise ConstructionDegenerate(
                "the two constructions are isomorphic at these parameters"
            )
        cert = (
            "exhaustive permutation search found no isomorphism; "
            f"middle component sizes {comp1} vs {comp2}"
        )
    else:
        if comp1 == comp2:
            raise ConstructionDegenerate(
                "middle components agree; no certificate at this size"
            )
        cert = f"middle component sizes {comp1} vs {comp2}"
    return AdversarialPair(g1, g2, cert, digest)


def _layered_pair(degree, size, color_a, color_b) -> AdversarialPair:
    # The two circulant middles of bipartite_adversarial_pair, with layer
    # colors color_a and color_b and input and output (and k) one past both.
    m, d, half = size, degree, size // 2
    n = 2 * m + 2
    if n > MAX_VERTICES:
        raise CapabilityExceeded(f"{n} vertices exceed MAX_VERTICES = {MAX_VERTICES}")
    a = [2 + u for u in range(m)]
    b = [2 + m + v for v in range(m)]
    ends = [(1, v) for v in a] + [(v, n) for v in b]
    mid1 = [(a[u], b[(u + t) % m]) for u in range(m) for t in range(d)]
    mid2 = [
        (a[base + u], b[base + (u + t) % half])
        for base in (0, half)
        for u in range(half)
        for t in range(d)
    ]
    io = max(color_a, color_b) + 1
    colors = (io,) + (color_a,) * m + (color_b,) * m + (io,)
    return _certified(validate(n, io, ends + mid1, colors), validate(n, io, ends + mid2, colors))


def counterexample_pair(color_a: int = 1, color_b: int = 2) -> AdversarialPair:
    """The pinned 10-vertex, 16-edge pair with equal digests.

    Both graphs fan out from the input vertex to layer {2,3,4,5} and collect
    layer {6,7,8,9} into the output vertex; they differ only in the 4x4
    middle wiring, a single 8-cycle against two disjoint 4-cycles.  Layer
    colors are color_a and color_b (which may be equal); the input and
    output vertices share a further color one past the larger of the two.
    Both are built through validate, whose GraphError refuses a bad color.
    """
    return _layered_pair(2, 4, color_a, color_b)


def bipartite_adversarial_pair(degree: int, size: int) -> AdversarialPair:
    """A colliding non-isomorphic pair from d-regular bipartite middles.

    Layer A (size vertices) feeds layer B (size vertices), all edges A to B,
    every vertex of A with out-degree `degree` and every vertex of B with
    in-degree `degree`.  g1 wires one circulant across the full layers
    (A_u to B_{(u+t) mod size} for t < degree), a connected middle; g2 wires
    two disjoint half-size circulant blocks, a two-component middle.  Layers
    A and B take colors 1 and 2, input and output color 3.  The pair
    generalizes the 10-vertex counterexample, which is identical to
    degree=2, size=4.

    Needs size even and size/2 >= degree so the half blocks exist;
    otherwise ConstructionDegenerate.  degree < 2 or size <= degree are
    rejected outright (a 1-regular middle is a matching in both layouts,
    and offsets must stay distinct mod the layer size).
    """
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    if size <= degree:
        raise ValueError(f"size must exceed degree, got size={size} degree={degree}")
    if size % 2 or size // 2 < degree:
        raise ConstructionDegenerate(
            f"size={size} cannot split into two blocks of degree {degree}"
        )
    return _layered_pair(degree, size, 1, 2)
