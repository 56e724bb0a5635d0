"""Colored-DAG data model: validation, relabeling, and topological normalization.

A computational graph is a colored DAG on vertices 1..n whose edges all point
from a smaller to a larger index, and in which every vertex lies on some
directed path from vertex 1 to vertex n.  Adjacency is stored as a packed
upper-triangular bit matrix: bit t of ``bits`` is the t-th vertex pair (i, j),
i < j, in row-major order (1,2), (1,3), ..., (1,n), (2,3), ...  All public
interfaces speak 1-indexed vertices and colors.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Malformed graph input."""


class CapabilityExceeded(ValueError):
    """A request exceeds a documented capability limit of the library."""


class EdgeOrderViolation(GraphError):
    """An edge (i, j) does not satisfy i < j."""


class ColorOutOfRange(GraphError):
    """A vertex color falls outside the declared palette [1, k]."""


class PathConditionViolation(GraphError):
    """A vertex lies on no directed path from vertex 1 to vertex n."""

    def __init__(self, vertex: int, n: int):
        self.vertex = vertex
        super().__init__(
            f"vertex {vertex} lies on no directed path from vertex 1 to vertex {n}"
        )


class NotLinearExtension(GraphError):
    """A permutation reverses an edge, so the image has no i < j representation."""


class CycleDetected(GraphError):
    """The input edge set contains a directed cycle."""


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Row-major position of the pair (i, j), 1 <= i < j <= n."""
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


def iter_pairs(n: int) -> Iterator[tuple[int, int]]:
    """All pairs (i, j), i < j, in row-major order."""
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            yield i, j


# Largest vertex count a packed matrix may have: 2^14 vertices need 16 MiB.
MAX_VERTICES = 1 << 14


def pack_edges(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Pack an i < j edge set into the upper-triangular bit matrix.

    Raises CapabilityExceeded, before allocating, if n exceeds MAX_VERTICES.
    """
    if n > MAX_VERTICES:
        raise CapabilityExceeded(f"{n} vertices exceed MAX_VERTICES = {MAX_VERTICES}")
    packed = bytearray((pair_count(n) + 7) // 8)
    for i, j in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphError(f"edge ({i}, {j}) has an endpoint outside 1..{n}")
        if i >= j:
            raise EdgeOrderViolation(f"edge ({i}, {j}) violates i < j")
        t = pair_index(n, i, j)
        packed[t >> 3] |= 1 << (t & 7)
    return int.from_bytes(packed, "little")


@dataclass(frozen=True, slots=True)
class ComputationalGraph:
    """A colored DAG in canonical i < j edge representation.

    Instances are immutable; construct checked instances through
    :func:`validate` or :func:`normalize_dag`.  The dataclass constructor
    itself performs no validation, which keeps hashing usable on DAGs that
    do not meet the path condition.
    """

    n: int
    k: int
    bits: int
    colors: tuple[int, ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edge tuples in row-major (i, j) order."""
        # bin() lists the bits once; shifting the int per pair copies it each time
        return tuple(p for p, b in zip(iter_pairs(self.n), bin(self.bits)[:1:-1]) if b == "1")

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        if not (1 <= i < j <= self.n):
            return False
        return bool(self.bits >> pair_index(self.n, i, j) & 1)


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection on vertices 1..n; mapping[i-1] is the image of vertex i."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(self.mapping)
        object.__setattr__(self, "mapping", mapping)
        n = len(mapping)
        if sorted(mapping) != list(range(1, n + 1)):
            raise GraphError(f"{mapping} is not a bijection on 1..{n}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for i, image in enumerate(self.mapping, start=1):
            inv[image - 1] = i
        return Permutation(tuple(inv))

    def __call__(self, i: int) -> int:
        return self.mapping[i - 1]

    def __len__(self) -> int:
        return len(self.mapping)


def adjacency_lists(g: ComputationalGraph) -> tuple[list[list[int]], list[list[int]]]:
    """Out- and in-neighbor lists over 0-based vertex positions."""
    return neighbor_lists_from_bits(g.n, g.bits)


def neighbor_lists_from_bits(n: int, bits: int) -> tuple[list[list[int]], list[list[int]]]:
    """Decode a packed bit matrix into 0-based out-/in-neighbor lists."""
    outs: list[list[int]] = [[] for _ in range(n)]
    ins: list[list[int]] = [[] for _ in range(n)]
    # One pass over the bits as text, lowest first: shifting the int per
    # pair would copy it each time.  Row i ends just before position end.
    s = bin(bits)[:1:-1]
    m = pair_count(n)
    i, end = 0, n - 1
    t = s.find("1", 0, m)
    while t >= 0:
        while t >= end:
            i += 1
            end += n - 1 - i
        j = t - end + n
        outs[i].append(j)
        ins[j].append(i)
        t = s.find("1", t + 1, m)
    return outs, ins


def span_mask(n: int, outs: Sequence[Sequence[int]], ins: Sequence[Sequence[int]]) -> int:
    """Bitmask of 0-based vertices both forward-reachable from vertex 1 and
    backward-reachable from vertex n."""
    forward = 1
    stack = [0]
    while stack:
        u = stack.pop()
        for v in outs[u]:
            if not forward >> v & 1:
                forward |= 1 << v
                stack.append(v)
    backward = 1 << (n - 1)
    stack = [n - 1]
    while stack:
        u = stack.pop()
        for v in ins[u]:
            if not backward >> v & 1:
                backward |= 1 << v
                stack.append(v)
    return forward & backward


def validate(
    n: int,
    k: int,
    edges: Iterable[tuple[int, int]],
    colors: Sequence[int],
) -> ComputationalGraph:
    """Check all structural conditions and return the graph.

    Raises EdgeOrderViolation, ColorOutOfRange, or PathConditionViolation
    (naming the smallest offending vertex), plus GraphError for size
    mismatches.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    if k < 1:
        raise GraphError(f"color count must be positive, got {k}")
    colors = tuple(colors)
    if len(colors) != n:
        raise GraphError(f"expected {n} colors, got {len(colors)}")
    for i, c in enumerate(colors, start=1):
        if not 1 <= c <= k:
            raise ColorOutOfRange(f"vertex {i} has color {c}, outside 1..{k}")
    bits = pack_edges(n, edges)
    outs, ins = neighbor_lists_from_bits(n, bits)
    span = span_mask(n, outs, ins)
    if span != (1 << n) - 1:
        missing = ((1 << n) - 1) & ~span
        vertex = (missing & -missing).bit_length()
        raise PathConditionViolation(vertex, n)
    return ComputationalGraph(n, k, bits, colors)


def apply_permutation(g: ComputationalGraph, p: Permutation) -> ComputationalGraph:
    """Relabel vertices by p; the image keeps the i < j representation.

    Succeeds only when p is a linear extension of the DAG order, i.e. no
    edge is reversed; raises NotLinearExtension otherwise.
    """
    mapping = p.mapping
    if len(mapping) != g.n:
        raise GraphError(f"permutation acts on {len(mapping)} vertices, graph has {g.n}")
    n = g.n
    bits = 0
    for i, j in g.edges:
        a, b = mapping[i - 1], mapping[j - 1]
        if a >= b:
            raise NotLinearExtension(
                f"edge ({i}, {j}) maps to ({a}, {b}), reversing the order"
            )
        bits |= 1 << pair_index(n, a, b)
    new_colors = [0] * n
    for i in range(n):
        new_colors[mapping[i] - 1] = g.colors[i]
    return ComputationalGraph(n, g.k, bits, tuple(new_colors))


def linear_extensions(g: ComputationalGraph) -> Iterator[Permutation]:
    """Every relabeling that keeps all edges order-preserving, in
    lexicographic order of the mapping.  Brute force over all n!
    permutations; intended for small test graphs."""
    edges = g.edges
    for mapping in permutations(range(1, g.n + 1)):
        if all(mapping[i - 1] < mapping[j - 1] for i, j in edges):
            yield Permutation(mapping)


def normalize_dag(
    n: int,
    k: int,
    edges: Iterable[tuple[int, int]],
    colors: Sequence[int],
) -> ComputationalGraph:
    """Relabel an arbitrarily-oriented DAG into i < j form, then validate.

    Vertices are renumbered by a deterministic Kahn topological sort that
    always picks the smallest original index among ready vertices, so
    already-sorted input comes back unchanged.  Raises CycleDetected when
    the input is not acyclic.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    if len(colors) != n:
        raise GraphError(f"expected {n} colors, got {len(colors)}")
    edge_set = set()
    for i, j in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphError(f"edge ({i}, {j}) has an endpoint outside 1..{n}")
        if i == j:
            raise CycleDetected(f"self-loop at vertex {i}")
        edge_set.add((i, j))
    succs: list[list[int]] = [[] for _ in range(n + 1)]
    in_deg = [0] * (n + 1)
    for i, j in edge_set:
        succs[i].append(j)
        in_deg[j] += 1
    ready = [v for v in range(1, n + 1) if in_deg[v] == 0]
    heapq.heapify(ready)
    new_index = [0] * (n + 1)
    placed = 0
    while ready:
        v = heapq.heappop(ready)
        placed += 1
        new_index[v] = placed
        for w in succs[v]:
            in_deg[w] -= 1
            if in_deg[w] == 0:
                heapq.heappush(ready, w)
    if placed < n:
        stuck = sorted(v for v in range(1, n + 1) if new_index[v] == 0)
        raise CycleDetected(f"cycle through vertices {stuck}")
    relabeled = [(new_index[i], new_index[j]) for i, j in edge_set]
    new_colors = [0] * n
    for v in range(1, n + 1):
        new_colors[new_index[v] - 1] = colors[v - 1]
    return validate(n, k, relabeled, new_colors)
