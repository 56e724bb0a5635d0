"""Inspect adversarial pairs: digests, certificates, refinement traces.

Builds the pinned 10-vertex pair plus a few bipartite family instances
and shows, round by round, how many distinct digests the refinement
assigns inside each layer.  The counts stay at 1, which is exactly why
the final digests collide even though the graphs are not isomorphic.

Also shows the least collision among uncolored path-condition DAGs, an
8-vertex, 10-edge pair: refinement does not count triangles, and g1 has
two transitive triangles where g2 has none.
"""

import argparse

from daghash.adversarial import (
    bipartite_adversarial_pair,
    counterexample_pair,
    middle_component_sizes,
)
from daghash.graphs import validate
from daghash.hashing import digest_hex, graph_invariant, graph_invariants, refinement_trace
from daghash.isomorphism import are_isomorphic

LEAST_PAIR = (
    [(1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (4, 8), (5, 6), (5, 7), (6, 7), (7, 8)],
    [(1, 2), (1, 3), (2, 4), (2, 7), (3, 5), (3, 6), (4, 5), (5, 8), (6, 7), (7, 8)],
)
RESERVED_IO = (4, 1, 1, 1, 1, 1, 1, 5)


def layer_profile(g, degree_layers):
    """Distinct digest count per layer for every refinement round."""
    rows = []
    for state in refinement_trace(g):
        rows.append(tuple(len({state[i] for i in layer}) for layer in degree_layers))
    return rows


def show_pair(name, pair):
    g1, g2 = pair.g1, pair.g2
    print(f"== {name}: n={g1.n}, {g1.edge_count} edges each ==")
    d1, d2 = graph_invariant(g1), graph_invariant(g2)
    print(f"digest g1: {digest_hex(d1)}")
    print(f"digest g2: {digest_hex(d2)}")
    print(f"equal: {d1 == d2}")
    print(f"middle components: {middle_component_sizes(g1)}"
          f" vs {middle_component_sizes(g2)}")
    print(f"certificate: {pair.certificate}")

    m = (g1.n - 2) // 2
    layers = [range(1, 1 + m), range(1 + m, 1 + 2 * m)]
    p1, p2 = layer_profile(g1, layers), layer_profile(g2, layers)
    print("round  g1 A-layer  g1 B-layer  g2 A-layer  g2 B-layer")
    for r, (a, b) in enumerate(zip(p1, p2)):
        print(f"{r:5d}  {a[0]:9d}  {a[1]:9d}  {b[0]:9d}  {b[1]:9d}")
    print()


def transitive_triangles(g):
    """Edge triples a -> b -> c with the shortcut a -> c."""
    edges = set(g.edges)
    return sum((a, c) in edges for a, b in edges for b2, c in edges if b == b2)


def show_least_pair():
    g1, g2 = (validate(8, 1, edges, [1] * 8) for edges in LEAST_PAIR)
    print(f"== least collision: n={g1.n}, {g1.edge_count} edges each ==")
    for name, g in (("g1", g1), ("g2", g2)):
        print(f"{name} edges: " + " ".join(f"({i},{j})" for i, j in g.edges))
    d1, d2 = graph_invariant(g1), graph_invariant(g2)
    print(f"digest g1: {digest_hex(d1)}")
    print(f"digest g2: {digest_hex(d2)}")
    print(f"equal: {d1 == d2}")
    c1, c2 = graph_invariants([g1, g2], "concat")
    print(f"concat equal: {c1 == c2}")
    print(f"isomorphic: {are_isomorphic(g1, g2).isomorphic}")
    r1, r2 = (validate(8, 5, edges, RESERVED_IO) for edges in LEAST_PAIR)
    print(f"equal with colors {RESERVED_IO}: {graph_invariant(r1) == graph_invariant(r2)}")
    print(f"transitive triangles: {transitive_triangles(g1)} vs {transitive_triangles(g2)}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degree", type=int, action="append", default=None,
                    help="family degree, repeatable (paired with --size)")
    ap.add_argument("--size", type=int, action="append", default=None)
    args = ap.parse_args()
    if len(args.degree or []) != len(args.size or []):
        ap.error("--degree and --size must be given the same number of times")

    show_pair("pinned pair", counterexample_pair())
    show_least_pair()
    if args.degree:
        instances = list(zip(args.degree, args.size))
    else:
        instances = [(2, 6), (3, 6), (3, 8)]
    for d, m in instances:
        show_pair(f"bipartite family d={d}, m={m}",
                  bipartite_adversarial_pair(d, m))


if __name__ == "__main__":
    main()
