"""Exhaustive generation of computational graphs up to isomorphism.

One generation stream serves both enumeration and verification.  For each
vertex count n up to n_max, every upper-triangular adjacency bit vector
within the edge budget is decoded in increasing numeric order, pruned by
the input-to-output path condition, and expanded over all colorings in
lexicographic order; the stream yields each coloring's invariant digest.
enumerate_graphs keeps a graph iff its digest has not been seen before,
making the first-observed graph the canonical representative of its
equivalence class.  The digest dedup is sound only insofar as the invariant
separates non-isomorphic graphs; verify_buckets re-checks that assumption on
the same stream with the brute-force oracle, checking every duplicate against
its digest's first graph and demanding bucket purity.  With several workers
and more than one core only the hashing moves to a process pool, whose
modules are imported only then; the stream, and so every output, is unchanged.

The seen-digest set spans all n.  Digests embed the vertex count, so graphs
of different sizes cannot merge; the global set simply mirrors the loop
structure of the generation procedure.

Each surviving matrix is hashed in its canonical labeling C, the linear
extension with the least packed bits, which graphs.canonical_relabeling
finds by a search that visits only linear extensions.  Isomorphic i < j
DAGs have the same set of i < j relabelings, so they share one canonical
matrix.  The same search returns every extension that reaches C; they
differ by the automorphisms of C, and two colorings of C give isomorphic
graphs iff one of those maps one onto the other.  So each coloring is
hashed as the least coloring in its automorphism orbit, and a coloring
isomorphic to an earlier one, of this matrix or an earlier one, reaches
invariant_from_lists as exactly the inputs it saw then.  Its per-n table,
keyed by those inputs, answers the repeat with what they computed before
without refining: reuse is exact whether or not the hash separates all
classes, and the md5 kernel runs once per class.  The relabeling only
changes what is hashed, and the hash is an isomorphism invariant, so every
digest, record and output byte is what hashing the original labeling gives.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import os
from typing import Iterator, NamedTuple

from .graphs import (
    CapabilityExceeded,
    ComputationalGraph,
    canonical_relabeling,
    checked_tuple,
    neighbor_lists_from_bits,
    pair_count,
    span_mask,
)
from .hashing import Digest, invariant_from_lists
from .isomorphism import ORACLE_MAX_VERTICES, OracleCapExceeded, are_isomorphic

# Most colorings of one vertex count the stream lists; the reference space
# (n <= 7, k = 3, reserved I/O) needs 243.
MAX_COLORINGS = 1 << 20


class EnumerationConfig(checked_tuple(
    "EnumerationConfig", [("n_max", int), ("e_max", int), ("k", int), ("reserved_io", bool)]
)):
    """Search space bounds: vertex budget, edge budget, interior palette.

    With reserved_io set, vertex 1 always takes color k+1 and vertex n color
    k+2, interior vertices draw from [1, k], and generated graphs carry the
    full k+2 palette.  Otherwise every vertex draws from [1, k].
    """

    __slots__ = ()

    def __new__(cls, n_max: int, e_max: int, k: int, reserved_io: bool = False):
        for name, v, least in (("n_max", n_max, 2), ("e_max", e_max, 1), ("k", k, 1)):
            if type(v) is not int:
                raise ValueError(f"{name} must be an int, got {v!r}")
            if v < least:
                raise ValueError(f"{name} must be at least {least}, got {v}")
        if type(reserved_io) is not bool:
            raise ValueError(f"reserved_io must be a bool, got {reserved_io!r}")
        return super().__new__(cls, n_max, e_max, k, reserved_io)

    @property
    def palette(self) -> int:
        """Color count carried by generated graphs."""
        return self.k + 2 if self.reserved_io else self.k

    def colorings(self, n: int) -> Iterator[tuple[int, ...]]:
        """All color vectors for n vertices, in lexicographic order."""
        interior = range(1, self.k + 1)
        if not self.reserved_io:
            yield from itertools.product(interior, repeat=n)
        else:
            first, last = self.k + 1, self.k + 2
            for mid in itertools.product(interior, repeat=n - 2):
                yield (first, *mid, last)


class CanonicalRecord(NamedTuple):
    """A digest together with the first graph observed to produce it."""

    invariant: Digest
    graph: ComputationalGraph


class EnumerationReport(NamedTuple):
    """Per-n class counts and the oracle-checked duplicates."""

    per_n: dict[int, int]
    duplicates: int

    @property
    def total(self) -> int:
        return sum(self.per_n.values())


class FalseMerge(Exception):
    """A digest bucket holds graphs the oracle says are non-isomorphic."""

    def __init__(
        self,
        digest: Digest,
        canonical: ComputationalGraph,
        offender: ComputationalGraph,
    ):
        self.digest = digest
        self.canonical = canonical
        self.offender = offender
        super().__init__(
            f"digest {digest.hex()} merges non-isomorphic graphs "
            f"(n={canonical.n})"
        )


def _surviving_matrices(n: int, e_max: int):
    """Packed adjacency ints that pass both prunes, ascending numerically.

    Yields (bits, outs, ins, orders), ints and tuples only: the matrix, the
    neighbor lists of its canonical relabeling C, and canonical_relabeling's
    orders, one per automorphism of C.  The relabeling reuses the decoded
    lists, so each matrix is decoded once.  Over-budget ints are stepped
    over, not visited: every int between x and x plus its lowest set bit
    keeps x's set bits.
    """
    full = (1 << n) - 1
    bits, end = 0, 1 << pair_count(n)
    while bits < end:
        outs, ins = neighbor_lists_from_bits(n, bits)
        if span_mask(n, outs, ins) == full:
            yield (bits, *canonical_relabeling(n, outs, ins)[1:])
        bits += 1
        while bits.bit_count() > e_max:
            bits += bits & -bits


def _matrix_digests(n, colorings, backend, mat):
    # One matrix's bits and its digests in coloring order, each coloring
    # hashed as the least of its images under the orders; runs here or in a
    # pool worker.
    bits, outs, ins, orders = mat
    getters = [operator.itemgetter(*order) for order in orders]
    least = getters[0] if len(getters) == 1 else lambda c: min([get(c) for get in getters])
    return bits, [
        invariant_from_lists(n, outs, ins, least(colors), backend)
        for colors in colorings
    ]


def _hashed(config, backend, workers=1):
    """(n, bits, colors, digest) for every coloring of every surviving matrix.

    Generation order: n ascending, then bits ascending, then colorings
    lexicographic.  workers > 1, on more than one core, computes each matrix's
    digests in a process pool while the scan stays in this process; the pool's
    map returns blocks in submission order, so the stream is the sequential
    one.  Raises CapabilityExceeded, before yielding, if n_max has over
    MAX_COLORINGS colorings.
    """
    # The count is k ** (free vertices at n_max).  Any k >= 2 exceeds the cap
    # at 21 free vertices, so clamping the exponent there keeps the int small.
    free = config.n_max - 2 if config.reserved_io else config.n_max
    if config.k ** min(free, MAX_COLORINGS.bit_length()) > MAX_COLORINGS:
        raise CapabilityExceeded(
            f"{config.k} ** {free} colorings at n = {config.n_max} exceed {MAX_COLORINGS}"
        )
    # The executor forks all its processes at the first submit, so never ask
    # for more than there are cores; one usable core hashes in this process,
    # which then never imports the pool modules.
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        blocks = map if pool is None else functools.partial(pool.map, chunksize=64)
        for n in range(2, config.n_max + 1):
            colorings = list(config.colorings(n))
            digests_of = functools.partial(_matrix_digests, n, colorings, backend)
            for bits, digests in blocks(digests_of, _surviving_matrices(n, config.e_max)):
                for colors, dig in zip(colorings, digests):
                    yield n, bits, colors, dig


def enumerate_graphs(
    config: EnumerationConfig, backend: str = "md5", workers: int = 1
) -> Iterator[CanonicalRecord]:
    """Stream canonical records in deterministic generation order.

    The generation stream, filtered to first sightings: a record is yielded
    iff its digest is new, and the seen set is global across n.  workers > 1
    spreads digest computation over at most os.cpu_count() processes and
    yields the same stream as workers == 1; workers must be an int >= 1.
    """
    if type(workers) is not int:
        raise ValueError(f"workers must be an int, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    seen: set[Digest] = set()
    palette = config.palette
    for n, bits, colors, dig in _hashed(config, backend, workers):
        if dig not in seen:
            seen.add(dig)
            yield CanonicalRecord(dig, ComputationalGraph(n, palette, bits, colors))


def verify_buckets(
    config: EnumerationConfig, backend: str = "md5"
) -> EnumerationReport:
    """Run the generation stream, oracle-checking every duplicate.

    The first graph of each digest is its bucket's canonical representative,
    and only it is kept.  Every later graph of that digest is checked against
    it with the brute-force oracle and counted.  Returns the report if every
    bucket is pure; raises FalseMerge at the first duplicate, in generation
    order, that the oracle separates from its representative.  Requires
    n_max within the oracle cap.
    """
    if config.n_max > ORACLE_MAX_VERTICES:
        raise OracleCapExceeded(
            f"verification needs the oracle, capped at "
            f"{ORACLE_MAX_VERTICES} vertices; n_max={config.n_max}"
        )
    reps: dict[Digest, ComputationalGraph] = {}
    per_n: dict[int, int] = {}
    duplicates = 0
    palette = config.palette
    for n, bits, colors, dig in _hashed(config, backend):
        g = ComputationalGraph(n, palette, bits, colors)
        rep = reps.setdefault(dig, g)
        if rep is g:
            per_n[n] = per_n.get(n, 0) + 1
        elif are_isomorphic(rep, g).isomorphic:
            duplicates += 1
        else:
            raise FalseMerge(dig, rep, g)
    return EnumerationReport(per_n, duplicates)
