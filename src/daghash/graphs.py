"""Colored-DAG data model: validation, relabeling, canonical form, normalization.

A computational graph is a colored DAG on vertices 1..n whose edges all point
from a smaller to a larger index, and in which every vertex lies on some
directed path from vertex 1 to vertex n.  Adjacency is stored as a packed
upper-triangular bit matrix: bit t of ``bits`` is the t-th vertex pair (i, j),
i < j, in row-major order (1,2), (1,3), ..., (1,n), (2,3), ...  Only this
module reads that layout.  All public interfaces speak 1-indexed vertices
and colors.
"""

from __future__ import annotations

import functools
import heapq
from operator import getitem
from typing import Iterable, Iterator, NamedTuple, Sequence


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


# An int here is exactly int: bool and every other int subclass are refused,
# since True would pass for 1 and hash like it.
def _check_counts(n, k) -> None:
    if not (type(n) is int and type(k) is int):
        raise GraphError(f"vertex and color counts must be ints, got {n!r} and {k!r}")
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    if k < 1:
        raise GraphError(f"color count must be positive, got {k}")


def _color_tuple(n, colors) -> tuple:
    try:
        colors = tuple(colors)
    except TypeError:
        raise GraphError(f"colors must be a sequence, got {type(colors).__name__}") from None
    if len(colors) != n:
        raise GraphError(f"expected {n} colors, got {len(colors)}")
    return colors


def _int_pairs(edges, n) -> Iterator[tuple[int, int]]:
    # Each edge as a pair of exact ints in 1..n; GraphError otherwise.
    try:
        edges = iter(edges)
    except TypeError:
        raise GraphError(f"edges must be iterable, got {type(edges).__name__}") from None
    for e in edges:
        try:
            i, j = e
        except (TypeError, ValueError):
            raise GraphError(f"edge {e!r} is not an (i, j) pair") from None
        if not (type(i) is int and type(j) is int):
            raise GraphError(f"edge ({i!r}, {j!r}) has an endpoint that is not an int")
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphError(f"edge ({i}, {j}) has an endpoint outside 1..{n}")
        yield i, j


# Largest vertex count a packed matrix may have: 2^14 vertices need 16 MiB.
MAX_VERTICES = 1 << 14


def _empty_matrix(n: int) -> bytearray:
    # A zeroed packed matrix, refused before allocating past MAX_VERTICES.
    if n > MAX_VERTICES:
        raise CapabilityExceeded(f"{n} vertices exceed MAX_VERTICES = {MAX_VERTICES}")
    return bytearray((pair_count(n) + 7) // 8)


def pack_edges(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Pack an i < j edge set into the upper-triangular bit matrix.

    Raises CapabilityExceeded, before allocating, if n exceeds MAX_VERTICES,
    and GraphError on an edge that is not a pair, an endpoint that is not an
    exact int (bool and other int subclasses refused) or lies outside 1..n,
    and on an edge listed more than once (the first repeat in list order).
    """
    packed = _empty_matrix(n)
    for i, j in _int_pairs(edges, n):
        if i >= j:
            raise EdgeOrderViolation(f"edge ({i}, {j}) violates i < j")
        t = pair_index(n, i, j)
        if packed[t >> 3] >> (t & 7) & 1:
            raise GraphError(f"edge ({i}, {j}) is listed more than once")
        packed[t >> 3] |= 1 << (t & 7)
    return int.from_bytes(packed, "little")


def checked_tuple(name: str, fields: list[tuple[str, type]]) -> type:
    """A NamedTuple base whose _make and pickling build through the subclass.

    A subclass that checks its fields in __new__ keeps them checked under
    _replace, which builds through _make, and under copy.deepcopy and
    unpickling at every protocol; 0 and 1 would otherwise call tuple.__new__.
    """
    base = NamedTuple(name, fields)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    base.__reduce__ = lambda self: (type(self), tuple(self))
    return base


class ComputationalGraph(checked_tuple(
    "ComputationalGraph", [("n", int), ("k", int), ("bits", int), ("colors", tuple[int, ...])]
)):
    """A colored DAG in canonical i < j edge representation.

    Instances are immutable.  The constructor raises GraphError unless n and
    bits are ints, colors is a tuple of n entries and bits sets only the
    n(n-1)/2 pairs; the palette and the path condition are left to
    :func:`validate` and :func:`normalize_dag`, so hashing takes any i < j DAG.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, bits: int, colors: tuple[int, ...]):
        if (type(n) is not int or type(bits) is not int or type(colors) is not tuple
                or len(colors) != n or bits >> (n * (n - 1) >> 1)):
            have = (f"{len(colors)} colors" if type(colors) is tuple
                    else f"colors of type {type(colors).__name__}")
            if type(bits) is int:
                sign = " (negative)" if bits < 0 else ""
                have += f" and bits of bit length {bits.bit_length()}{sign}"
            else:
                have += f" and bits of type {type(bits).__name__}"
            raise GraphError(f"no graph has n = {n!r}, {have}")
        return tuple.__new__(cls, (n, k, bits, colors))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edge tuples in row-major (i, j) order."""
        outs = neighbor_lists_from_bits(self.n, self.bits)[0]
        return tuple([(i, j + 1) for i, row in enumerate(outs, 1) for j in row])

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()


class Permutation(checked_tuple("Permutation", [("mapping", tuple[int, ...])])):
    """A bijection on vertices 1..n; mapping[i-1] is the image of vertex i."""

    __slots__ = ()

    def __new__(cls, mapping: Iterable[int]):
        mapping = tuple(mapping)
        n = len(mapping)
        # Sorting alone would take 1.0 and True for 1.
        if not {int}.issuperset(map(type, mapping)):
            raise GraphError(f"{mapping} has an entry that is not an int")
        if sorted(mapping) != list(range(1, n + 1)):
            raise GraphError(f"{mapping} is not a bijection on 1..{n}")
        return super().__new__(cls, mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i - 1]


Neighbors = tuple[tuple[int, ...], ...]


# Largest n whose matrices decode by table lookup; 8 covers every census
# space up to the n = 8 frontier.  At n = 8 the tables hold 255 row and
# 255 column entries and four 256-entry byte maps, built on first use.
DECODE_TABLE_MAX_N = 8


@functools.cache
def _decode_tables(n):
    # (rows, moves, cols).  rows[i] is (offset, mask, targets): row i's
    # n-1-i pairs, read as an int from bit offset of the packed matrix,
    # index the tuple of its targets.  moves[q] maps byte q of the packed
    # matrix to those pairs' bits in column-major order, (0,1), (0,2),
    # (1,2), (0,3), ..., in which cols[j] reads column j the same way.
    def table(off, width, base):
        read = tuple(tuple([base + b for b in range(width) if r >> b & 1])
                     for r in range(1 << width))
        return off, (1 << width) - 1, read

    rows = tuple(table(i * (2 * n - i - 1) // 2, n - 1 - i, i + 1) for i in range(n))
    cols = tuple(table(j * (j - 1) // 2, j, 0) for j in range(n))
    column_bit = [1 << j * (j - 1) // 2 + i for i in range(n) for j in range(i + 1, n)]
    column_bit += [0] * (-len(column_bit) % 8)
    moves = tuple(
        tuple(sum(column_bit[q + b] for b in range(8) if v >> b & 1) for v in range(256))
        for q in range(0, len(column_bit), 8)
    )
    return rows, moves, cols


def neighbor_lists_from_bits(n: int, bits: int) -> tuple[Neighbors, Neighbors]:
    """Decode a packed bit matrix (0 <= bits < 2^(n(n-1)/2)) into 0-based
    out-/in-neighbor lists, as tuples of sorted tuples.

    Up to DECODE_TABLE_MAX_N vertices each row and column is one lookup in
    per-n tables, and the tuples are shared with the tables; above it, one
    pass over the set bits.
    """
    if n <= DECODE_TABLE_MAX_N:
        rows, moves, cols = _decode_tables(n)
        column_major = sum(map(getitem, moves, bits.to_bytes(len(moves), "little")))
        return (
            tuple([read[bits >> off & mask] for off, mask, read in rows]),
            tuple([read[column_major >> off & mask] for off, mask, read in cols]),
        )
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
    return tuple(map(tuple, outs)), tuple(map(tuple, ins))


def span_mask(n: int, outs: Sequence[Sequence[int]], ins: Sequence[Sequence[int]]) -> int:
    """Bitmask of 0-based vertices both forward-reachable from vertex 1 and
    backward-reachable from vertex n, for neighbor lists outs and ins in
    which each edge u -> w has u < w.  Index order is then a topological
    order, so one ascending pass over outs finds the forward reach and one
    descending pass over ins the backward reach."""
    forward = 1
    for u in range(n):
        if forward >> u & 1:
            for v in outs[u]:
                forward |= 1 << v
    backward = 1 << (n - 1)
    for u in reversed(range(n)):
        if backward >> u & 1:
            for v in ins[u]:
                backward |= 1 << v
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
    mismatches, for colors that are not a sequence, an edge that is not a
    pair or is listed more than once, and for an n, k, color or endpoint
    that is not an exact int (bool and other int subclasses refused).
    """
    _check_counts(n, k)
    colors = _color_tuple(n, colors)
    for i, c in enumerate(colors, start=1):
        if type(c) is not int:
            raise GraphError(f"vertex {i} has color {c!r}, not an int")
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
    edge is reversed; raises NotLinearExtension otherwise.  Raises
    GraphError when p does not act on exactly g's n vertices, and
    CapabilityExceeded, before allocating, if n exceeds MAX_VERTICES.
    """
    mapping = p.mapping
    n = g.n
    if len(mapping) != n:
        raise GraphError(f"permutation acts on {len(mapping)} vertices, graph has {n}")
    # Each image bit is set in place: g's row i maps to row a, where
    # pair_index(n, a, b) is off + b.
    packed = _empty_matrix(n)
    for i, row in enumerate(neighbor_lists_from_bits(n, g.bits)[0]):
        a = mapping[i]
        off = (a - 1) * (2 * n - a) // 2 - a - 1
        for j in row:
            b = mapping[j]
            if a >= b:
                raise NotLinearExtension(
                    f"edge ({i + 1}, {j + 1}) maps to ({a}, {b}), reversing the order"
                )
            u = off + b
            packed[u >> 3] |= 1 << (u & 7)
    colors = tuple([c for _, c in sorted(zip(mapping, g.colors))])
    return ComputationalGraph(n, g.k, int.from_bytes(packed, "little"), colors)


def _extensions(n: int, outs, ins) -> Iterator[tuple[int, ...]]:
    """Every linear extension of the DAG with 0-based neighbor lists outs and
    ins (each edge u -> w has u < w), as the position map p (p[v] is v's
    position), in lexicographic order of p.

    Vertices are placed in index order above their predecessors, and kept
    iff the rest can follow: by Hall's theorem, iff for each occupied r,
    the vertices placed at r or higher have no more unplaced descendants
    than there are free positions above r.  Placing v at q changes this
    only for r in (v's lower bound, q], and the q that pass are a prefix
    of v's candidates.  Iterative, so the depth does not grow with n.
    """
    desc = [0] * n  # desc[v]: bitmask of v's descendants
    for v in reversed(range(n)):
        for w in outs[v]:
            desc[v] |= 1 << w | desc[w]
    p = [-1] * n  # p[v] = -1: v is not placed
    at = [0] * n  # at[r]: the vertex placed at position r
    low = [0] * n  # low[v]: the highest position of v's predecessors
    free = full = (1 << n) - 1
    v = 0
    while v >= 0:
        if v == n:
            yield tuple(p)
            v -= 1
            continue
        q = p[v]
        if q < 0:
            q = low[v] = max([p[u] for u in ins[v]], default=-1)
        else:
            free |= 1 << q
        rest = free >> q + 1
        if rest:
            q += (rest & -rest).bit_length()
            at[q] = v
            free ^= 1 << q
            lo, reach = low[v], 0
            taken = (full ^ free) >> lo + 1
            while taken:  # occupied positions r > lo, highest first
                r = taken.bit_length() + lo
                taken ^= 1 << r - lo - 1
                reach |= desc[at[r]]
                if r <= q and (reach >> v + 1).bit_count() > (free >> r + 1).bit_count():
                    break
            else:
                p[v] = q
                v += 1
                continue
            free ^= 1 << q
        p[v] = -1
        v -= 1


def linear_extensions(g: ComputationalGraph) -> Iterator[Permutation]:
    """Every order-preserving relabeling, in lexicographic order of mapping."""
    for p in _extensions(g.n, *neighbor_lists_from_bits(g.n, g.bits)):
        yield Permutation(tuple(v + 1 for v in p))


def canonical_relabeling(n: int, outs, ins):
    """The linear extensions giving the least packed bits, applied to the lists.

    Searches the linear extensions of the DAG with 0-based out- and
    in-neighbor lists outs and ins (each edge i -> j has i < j) in
    lexicographic order.  Returns (bits, outs, ins, orders): the least
    bits, its neighbor lists as neighbor_lists_from_bits decodes them (the
    lists relabeled by any of those extensions), and one order per
    extension giving the least bits, in search order: order[v] is the
    original vertex placed at position v.  The orders differ by the
    automorphisms of the relabeled DAG, so the first one names the least
    labeling and all of them together its automorphism group.
    """
    edges = [(i, j) for i in range(n) for j in outs[i]]
    # pair_index(n, a + 1, b + 1) is off[a] + b, as in apply_permutation.
    off = [a * (2 * n - a - 1) // 2 - a - 1 for a in range(n)]
    best, best_ps = None, []
    for p in _extensions(n, outs, ins):
        bits = 0
        for i, j in edges:
            bits |= 1 << off[p[i]] + p[j]
        if best is None or bits < best:
            best, best_ps = bits, [p]
        elif bits == best:
            best_ps.append(p)
    orders = tuple(tuple(sorted(range(n), key=p.__getitem__)) for p in best_ps)
    return (best, *neighbor_lists_from_bits(n, best), orders)


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
    the input is not acyclic, GraphError on an edge listed more than once
    (the first repeat in list order), and validate's errors otherwise.
    """
    _check_counts(n, k)
    colors = _color_tuple(n, colors)
    edge_set = set()
    for i, j in _int_pairs(edges, n):
        if i == j:
            raise CycleDetected(f"self-loop at vertex {i}")
        if (i, j) in edge_set:
            raise GraphError(f"edge ({i}, {j}) is listed more than once")
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
    new_colors = [c for _, c in sorted(zip(new_index[1:], colors))]
    return validate(n, k, relabeled, new_colors)
