"""Iterative neighborhood digests: an isomorphism-invariant hash for colored DAGs.

Every vertex starts from a digest of (out-degree, in-degree, color); each of
the n refinement rounds replaces a vertex's digest with a digest of its
sorted out-neighbor digests, sorted in-neighbor digests, and its own digest;
the final value digests the sorted per-vertex list.  Relabeling a graph
permutes the per-round digest lists but never changes their multisets, so the
result is invariant under isomorphism.

Digest inputs are byte strings built from LE64 length prefixes and raw digest
bytes, making the encoding injective.  Two backends share this encoding:

* ``md5``    -- 16-byte digests, the default.
* ``concat`` -- the identity map on the encoded bytes.  Collision-free, but
  digests grow exponentially with the round count, so a graph whose final
  digest would exceed CONCAT_MAX_BYTES raises CapabilityExceeded up front,
  as soon as the digest sizes of some round pass it.

One loop, the ``_rounds`` generator, serves traces, one-shot and batch
digests.  A one-shot digest keeps only the latest round, and an md5 round
memoizes its inputs for that round alone, so its memory is linear in the
graph.  ``invariant_from_lists``, the enumeration's md5 path, instead runs a
kernel per structure, cached until the next, built from compiled md5 rows:
one function per vertex and neighbor lists, compiled once per n and shared
by every structure with that row.  It reads round 0 from per-vertex tables
by color.  md5 is CPython's ``_md5`` or ``hashlib.md5``.

A concat digest need not be joined to be compared.  ``_row`` lays out a
vertex's round input as a tuple of counts and digests, and as the digests of
one round are self-delimiting, such tuples order exactly as their joins.  So
from the first round whose largest digest passes a private size, the
one-shot and batch paths keep concat rounds as ropes, tuples of shared
parts, and they never build round n: the final sorts its rows and joins
their leaves, the one large copy.  ``refinement_trace``, ``refine_round``
and ``final_digest`` build bytes only.

For md5, ``invariant_from_lists`` also keeps a table of the digests it has
computed for the current n, keyed by (structure, colors), and drops it when n
changes; a call whose key is in the table returns that digest unrefined.
A call with the last call's neighbor lists, if they are tuples of tuples of
ints (which nothing can change), skips their check, key and table lookup.
"""

from __future__ import annotations

import struct
from collections import deque
from itertools import islice
from typing import Callable, Sequence

from .graphs import CapabilityExceeded, ComputationalGraph, adjacency_lists

try:
    from _md5 import md5 as _md5_new
except ImportError:
    from hashlib import md5 as _md5_new

Digest = bytes

BACKENDS = ("md5", "concat")

CONCAT_MAX_BYTES = 1 << 30  # the pinned 10-vertex pair needs 534,164,472

# Concat rounds from the first whose largest digest passes _ROPE_BYTES are
# ropes, but only within the last _ROPE_DEPTH rounds.  A smaller digest
# copies more cheaply than a rope is built, sorted and flattened: at 4 KiB
# the pinned pair flattens 392,831 parts and is no faster than joining every
# round, at 64 KiB 21,887.  Comparing two ropes recurses once per rope round
# in C, so the depth stays far below the interpreter's recursion limit; only
# an edgeless graph has more than a few dozen rounds within the cap.
_ROPE_BYTES = 1 << 16
_ROPE_DEPTH = 64

# Shared LE64 encodings of 0..127.  The concat rope and final memos are keyed
# on the ids of a digest's parts, so they hit only because the degree counts
# among those parts are these shared objects.  A count of 128 or more needs
# n >= 129, and such a vertex pushes the digest past CONCAT_MAX_BYTES by
# round 6 (as the 128-leaf star, the smallest such graph, does), so the size
# guard refuses the graph before any round is built and no memo is reached.
_LE64 = [struct.pack("<Q", v) for v in range(128)]


def _le64(v: int) -> bytes:
    if type(v) is int and 0 <= v < 128:
        return _LE64[v]
    if type(v) is not int or not 0 <= v < 1 << 64:  # True would pass for 1
        raise ValueError(f"LE64 encodes ints in [0, 2**64), got {v!r}")
    return struct.pack("<Q", v)


def _md5(data: bytes) -> bytes:
    return _md5_new(data).digest()


def _identity(data: bytes) -> bytes:
    return data


def digest_function(backend: str) -> Callable[[bytes], bytes]:
    if backend == "md5":
        return _md5
    if backend == "concat":
        return _identity
    raise ValueError(f"unknown digest backend {backend!r}; expected one of {BACKENDS}")


def digest_hex(digest: Digest) -> str:
    """External rendering: lowercase hex of the raw bytes."""
    return digest.hex()


def vertex_init_digest(
    out_degree: int, in_degree: int, color: int, backend: str = "md5"
) -> Digest:
    """Digest of LE64(out_degree) || LE64(in_degree) || LE64(color)."""
    d = digest_function(backend)
    return d(_le64(out_degree) + _le64(in_degree) + _le64(color))


def refine_round(
    g: ComputationalGraph, digests: Sequence[Digest], backend: str = "md5"
) -> list[Digest]:
    """One refinement round over the pre-round digest list.

    Vertex i's new digest is digest(LE64(#out) || sorted out-neighbor digests
    || LE64(#in) || sorted in-neighbor digests || own digest).  All n updates
    read only the pre-round list.
    """
    if len(digests) != g.n:
        raise ValueError(f"expected {g.n} digests, got {len(digests)}")
    outs, ins = adjacency_lists(g)
    return _refine(g.n, outs, ins, list(digests), digest_function(backend), {})


def graph_invariant(g: ComputationalGraph, backend: str = "md5") -> Digest:
    """The graph's invariant digest.

    Initializes per-vertex digests, refines exactly n rounds, then digests
    LE64(n) || concatenation of the lexicographically sorted final digests.
    Does not rely on the path condition, only on the i < j representation.
    """
    outs, ins = adjacency_lists(g)
    return _generic_invariant(g.n, outs, ins, g.colors, digest_function(backend), ({}, {}))


def refinement_trace(
    g: ComputationalGraph, backend: str = "md5"
) -> list[list[Digest]]:
    """The n+1 per-round digest lists (initial plus each of the n rounds)."""
    outs, ins = adjacency_lists(g)
    return list(_rounds(g.n, outs, ins, g.colors, digest_function(backend), {}))


def final_digest(n: int, digests: Sequence[Digest], backend: str = "md5") -> Digest:
    """Collapse a per-vertex digest list into the single graph digest."""
    d = digest_function(backend)
    return d(b"".join([_le64(n)] + sorted(digests)))


def _rounds(n, outs, ins, colors, d, memo, ropes=False):
    # Yields the initial digest list, then the list after each of n rounds.
    # With ropes, concat rounds past _ROPE_BYTES are ropes (see _rope); sizes
    # grow every round, so no bytes round follows a rope round.
    if d is _identity:
        largest = _concat_sizes(n, outs, ins)
    h = [d(_le64(len(outs[i])) + _le64(len(ins[i])) + _le64(colors[i])) for i in range(n)]
    yield h
    for r in range(1, n + 1):
        if ropes and largest[r] > _ROPE_BYTES and r > n - _ROPE_DEPTH:
            h = _rope(n, outs, ins, h, memo)
        else:
            # No md5 input recurs across rounds, so a round's memo dies with it.
            h = _refine(n, outs, ins, h, d, memo if d is _identity else {})
        yield h


def _concat_sizes(n, outs, ins):
    # The largest concat digest of each of rounds 0..n.  A digest starts at 24
    # bytes; a round adds 16 and the neighbors'.  Sizes only grow, so the
    # first round whose digests total past the cap refuses the graph.
    size, largest = [24] * n, [24]
    for _ in range(n):
        size = [16 + size[i] + sum(size[j] for j in (*outs[i], *ins[i])) for i in range(n)]
        if (total := 8 + sum(size)) > CONCAT_MAX_BYTES:
            raise CapabilityExceeded(
                f"concat digest of at least {total} bytes exceeds CONCAT_MAX_BYTES"
            )
        largest.append(max(size))
    return largest


def _row(h, outs, ins, i):
    # Vertex i's round input over the digests h: (LE64(#out), *sorted out
    # digests, LE64(#in), *sorted in digests, own digest), joined as is.
    ho = sorted([h[j] for j in outs[i]])
    hi = sorted([h[j] for j in ins[i]])
    return (_le64(len(ho)), *ho, _le64(len(hi)), *hi, h[i])


def _refine(n, outs, ins, h, d, memo):
    # memo maps a vertex's row to the built output, so vertices whose rows
    # agree share one output object.  bytes objects cache their hash and
    # equal digests are shared, so after the first sighting of a digest the
    # row costs almost nothing to hash or compare.  This keeps concat-mode
    # work proportional to the number of *distinct* digests per round
    # instead of n, and the memo stays valid across rounds and graphs.
    new = []
    for i in range(n):
        row = _row(h, outs, ins, i)
        got = memo.get(row)
        if got is None:
            got = memo[row] = d(b"".join(row))
        new.append(got)
    return new


def _rope(n, outs, ins, h, memo):
    # A rope digest is vertex i's _row itself, standing for the row's join.
    # It is interned by the ids of its parts, which past round 0 are shared
    # per content (by _refine's memo, then by this one), so equal digests
    # are one object and a row hashes without reading its bytes.  The entry
    # holds the parts, so no id in a key is reused while it is cached; keys
    # of ints never equal the rows of bytes that share the memo.
    new = []
    for i in range(n):
        row = _row(h, outs, ins, i)
        new.append(memo.setdefault(tuple(map(id, row)), row))
    return new


def _leaves(parts):
    # The byte strings that parts join, in order, one rope level at a time.
    # Every digest among the parts is of one round, the last part's, so some
    # part is a rope exactly while the last one is.
    while type(parts[-1]) is tuple:
        parts = [q for p in parts for q in (p if type(p) is tuple else (p,))]
    return parts


def invariant_from_lists(
    n: int,
    outs: Sequence[Sequence[int]],
    ins: Sequence[Sequence[int]],
    colors: Sequence[int],
    backend: str = "md5",
) -> Digest:
    """Invariant digest from raw 0-based neighbor lists.

    Hot path of enumeration.  For md5, inputs seen before at this n are
    answered from the digest table; otherwise a kernel for (n, outs, ins)
    runs, built anew whenever the structure differs from the last one built.
    A kernel joins one md5 row function per vertex, and each row is compiled
    once per (vertex, out-list, in-list) at this n and shared by every
    structure that has it.  Raises ValueError unless n is an int, outs, ins
    are n lists of ints in range(n) and colors are n ints >= 0.
    """
    global _kernel, _table
    if type(n) is not int or len(outs) != n or len(ins) != n or len(colors) != n:
        raise ValueError(f"expected {n} out- and {n} in-neighbor lists and {n} colors")
    for c in colors:
        if type(c) is not int or c < 0:
            raise ValueError(f"color {c!r} is not an int >= 0")
    k = _kernel
    if outs is not k[2] or ins is not k[3] or backend != "md5":
        key = _structure_key(n, outs, ins)
        if backend != "md5" or not n:
            return _generic_invariant(n, outs, ins, colors, digest_function(backend), ({}, {}))
        if _table[0] != n:
            _table = (n, {})
        known = _table[1].setdefault(key, {})
        frozen_outs = outs if all(type(t) is tuple for t in (outs, ins, *outs, *ins)) else None
        k = _kernel = (key, k[1] if k[0] == key else None, frozen_outs, ins, known)
    # bytes keys are smaller than tuples; colors are checked ints >= 0
    ckey = bytes(colors) if max(colors) < 256 else tuple(colors)
    got = k[4].get(ckey)
    if got is None:
        if k[1] is None:
            k = _kernel = (k[0], _compile_kernel(*k[0]), *k[2:])
        got = k[4][ckey] = k[1](colors)
    return got


def _structure_key(n, outs, ins):
    key = (n, tuple(map(tuple, outs)), tuple(map(tuple, ins)))
    for nbrs in key[1] + key[2]:
        for j in nbrs:
            if type(j) is not int or not 0 <= j < n:
                raise ValueError(f"neighbor index {j!r} is not an int in range({n})")
    return key


def _generic_invariant(n, outs, ins, colors, d, ctx):
    # ctx is (memo, final_memo): round outputs memoized on their inputs, final
    # concat digests on their sorted parts.  After round 0, equal digests in
    # one ctx are one object, so sorts and comparisons short-circuit on identity.
    memo, final_memo = ctx
    if d is not _identity:
        h = deque(_rounds(n, outs, ins, colors, d, memo), maxlen=1).pop()
        h.sort()
        return d(b"".join([_le64(n)] + h))
    # Round n is never built: vertex i's digest would be its _row over round
    # n-1, so the final sorts those rows and joins their leaves once, the
    # only join of a rope.  Every concat digest of one round is
    # self-delimiting (its counts say how many self-delimiting digests
    # follow), so two different rows first differ in a pair of aligned parts
    # of which neither is a prefix of the other: at each rope level, ordering
    # the tuples orders the joined bytes exactly.  That needs a round to be
    # all bytes or all ropes, as bytes and tuples do not compare.
    rounds = _rounds(n, outs, ins, colors, d, memo, ropes=True)
    h = deque(islice(rounds, max(n, 1)), maxlen=1).pop()
    rows = sorted(_row(h, outs, ins, i) for i in range(n))
    parts = [p for row in rows for p in row]
    # Keyed on ids, which is cheaper than hashing hundreds of megabytes; the
    # entry keeps the parts alive so no id is reused while it is cached (at
    # n = 1 the parts are round-0 digests, which the round memo never holds).
    key = (n, tuple(map(id, parts)))
    if key not in final_memo:
        final_memo[key] = (parts, b"".join(_leaves([_le64(n)] + parts)))
    return final_memo[key][1]


def graph_invariants(
    graphs: Sequence[ComputationalGraph], backend: str = "md5"
) -> list[Digest]:
    """Invariant digests for several graphs at once.

    Returns exactly what mapping ``graph_invariant`` over the sequence would,
    but the graphs share one builder state, which only concat reads, so concat
    digests that several graphs have in common, joined or kept as ropes, are
    built once and shared.  Worth using whenever concat digests of related
    graphs are compared: for a pair whose refinement agrees everywhere the
    second graph costs almost nothing and its final digest is the same
    object, so the equality check is an identity test.
    """
    d, ctx = digest_function(backend), ({}, {})
    return [_generic_invariant(g.n, *adjacency_lists(g), g.colors, d, ctx) for g in graphs]


_kernel = (None,) * 5  # (structure, kernel, outs, ins, table dict); results never depend on it
_table = (None, {})  # (n, {structure: {colors: digest}}); results never depend on it
_rows = (None, None, {})  # (n, maker, {(i, outs[i], ins[i]): row}); results never depend on it


class _Round0(dict):
    # One vertex's round-0 digests by color, each computed on first use.
    def __init__(self, prefix):
        self.prefix = prefix

    def __missing__(self, c):
        return self.setdefault(c, _md5_new(self.prefix + _le64(c)).digest())


def _compile_kernel(n, outs, ins):
    # Source from n, the checked indices and LE64 constants only.  The maker,
    # compiled once per n, closes a kernel over n row functions and round-0
    # tables; a round is one tuple assignment, so every update reads the
    # pre-round digests.  Row i's function digests vertex i's round input
    # from all n pre-round digests, so it is compiled once per (i, outs[i],
    # ins[i]) and shared by every structure at this n that has the row.
    # Maker and rows are dropped when n changes, as the digest table is.
    global _rows
    hs = "".join(f"h{i}, " for i in range(n))
    if _rows[0] != n:
        fs, rs = ("".join(f"{c}{i}, " for i in range(n)) for c in "fr")
        src = f"def make({fs}{rs}):\n    def kernel(colors):\n" + "".join(
            f"        h{i} = r{i}[colors[{i}]]\n" for i in range(n)
        ) + f"        for _ in range({n}):\n            {hs}= " + "".join(
            f"f{i}({hs}), " for i in range(n)
        ) + f"\n        return md5({_le64(n)!r} + join(sorted(({hs})))).digest()\n"
        src += "    return kernel\n"
        exec(src, ns := {"md5": _md5_new, "join": b"".join})
        _rows = (n, ns["make"], {})
    _, make, rows = _rows

    def group(js):
        hs = ", ".join(f"h{j}" for j in js)
        if len(js) == 2:
            return "*((h{0}, h{1}) if h{0} < h{1} else (h{1}, h{0})), ".format(*js)
        return f"*sorted(({hs})), " if len(js) > 1 else f"{hs}, " if js else ""

    pre = [(_le64(len(outs[i])), _le64(len(ins[i]))) for i in range(n)]
    keys = [(i, outs[i], ins[i]) for i in range(n)]
    if new := [i for i in range(n) if keys[i] not in rows]:
        src = "".join(
            f"f{i} = lambda {hs}: md5(join(({pre[i][0]!r}, {group(outs[i])}"
            f"{pre[i][1]!r}, {group(ins[i])}h{i}))).digest()\n"
            for i in new
        )
        exec(src, ns := {"md5": _md5_new, "join": b"".join})
        rows.update((keys[i], ns[f"f{i}"]) for i in new)
    return make(*[rows[key] for key in keys], *[_Round0(o + d) for o, d in pre])
