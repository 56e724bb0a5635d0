"""JSON interchange for graphs, enumeration records, and run summaries.

A graph file is one JSON object: {"n": int, "k": int, "colors": [c1..cn],
"edges": [[i, j], ...]} with 1-indexed vertices and i < j edges unless the
reader is asked to normalize.  Enumeration output is JSON lines, one record
per line carrying the digest hex plus the graph fields, followed by a final
summary object with per-n class counts.  All emitters are deterministic:
equal inputs produce byte-equal text.
"""

from __future__ import annotations

import functools
import json
from typing import Mapping

from .graphs import ComputationalGraph, GraphError, normalize_dag, validate
from .hashing import Digest


def graph_to_dict(g: ComputationalGraph) -> dict:
    """Plain-JSON form of a graph; inverse of graph_from_dict."""
    return {
        "n": g.n,
        "k": g.k,
        "colors": list(g.colors),
        "edges": [list(e) for e in g.edges],
    }


def graph_from_dict(obj, normalize: bool = False) -> ComputationalGraph:
    """Parse and validate the JSON-object form of a graph.

    With normalize set, arbitrarily-oriented DAG edges are relabeled into
    i < j form first; otherwise out-of-order edges are a validation error.
    Integers are exact ints (bool and other int subclasses refused), and an
    edge listed twice is an error rather than merged.
    """
    if not isinstance(obj, Mapping):
        raise GraphError(f"expected a JSON object, got {type(obj).__name__}")
    missing = {"n", "k", "colors", "edges"} - obj.keys()
    if missing:
        raise GraphError(f"graph object lacks keys: {sorted(missing)}")
    # validate and normalize_dag refuse a non-int n, k or color; the edge
    # entries are checked here, before the duplicate check hashes them.
    colors = obj["colors"]
    if not isinstance(colors, list):
        raise GraphError("colors must be a list of integers")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise GraphError("edges must be a list of [i, j] pairs")
    # One pass; the dict keeps list order, so validate reports as before.
    edges = {}
    for e in raw_edges:
        if not isinstance(e, list) or len(e) != 2 or not {int}.issuperset(map(type, e)):
            raise GraphError(f"bad edge entry {e!r}; expected [i, j]")
        pair = (e[0], e[1])
        if pair in edges:
            raise GraphError(f"edge {e} is listed more than once")
        edges[pair] = None
    if normalize:
        return normalize_dag(obj["n"], obj["k"], edges, colors)
    return validate(obj["n"], obj["k"], edges, colors)


def load_graph(path, normalize: bool = False) -> ComputationalGraph:
    """Read one graph from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise GraphError(f"{path}: JSON nested too deeply") from None
    return graph_from_dict(obj, normalize=normalize)


@functools.lru_cache(maxsize=1)
def _edges_text(n: int, bits: int) -> str:
    return json.dumps(ComputationalGraph(n, 0, bits, (0,) * n).edges)


# A census emits each n's colorings once per matrix, in one order; 1,024
# covers them for k = 3 up to n = 8 with reserved I/O, and n = 6 without.
@functools.lru_cache(maxsize=1024)
def _int_colors_text(colors: tuple[int, ...]) -> str:
    return json.dumps(colors)


def record_line(digest: Digest, g: ComputationalGraph) -> str:
    """A record's JSON line, as json.dumps writes it (no newline); edges cached
    per (n, bits) and colors per tuple of ints."""
    colors = g.colors
    # Only exact ints share the cache: (True, 2) and (1.0, 2) equal (1, 2)
    # as keys but print differently.
    if {int}.issuperset(map(type, colors)):
        text = _int_colors_text(colors)
    else:
        text = json.dumps(colors)
    head = f'{{"hash": "{digest.hex()}", "n": {g.n}, "colors": {text}'
    return f'{head}, "edges": {_edges_text(g.n, g.bits)}}}'


def summary_line(per_n: Mapping[int, int]) -> str:
    """The final summary object as a JSON line (no trailing newline)."""
    ordered = {str(n): per_n[n] for n in sorted(per_n)}
    return json.dumps({"per_n": ordered, "total": sum(per_n.values())})
