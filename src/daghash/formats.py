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
    """Build a graph from its JSON-object form through validate.

    Only the envelope is checked here: a mapping with keys n, k, colors and
    edges.  The fields go to validate, or with normalize set to
    normalize_dag, which relabels arbitrarily-oriented DAG edges into i < j
    form first; their errors, an edge listed twice included, are raised as is.
    """
    if not isinstance(obj, Mapping):
        raise GraphError(f"expected a JSON object, got {type(obj).__name__}")
    missing = {"n", "k", "colors", "edges"} - obj.keys()
    if missing:
        raise GraphError(f"graph object lacks keys: {sorted(missing)}")
    build = normalize_dag if normalize else validate
    return build(obj["n"], obj["k"], obj["edges"], obj["colors"])


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
