"""Command-line front end: hash, iso, enumerate, verify, adversarial.

Exit codes are uniform across commands: 0 for success or a positive answer,
1 for a negative result (non-isomorphic, impure bucket, degenerate
construction), 2 for input errors (bad flags, unparsable or invalid graph
files), 3 when a request exceeds a documented capability limit (the
brute-force oracle cap, the per-n coloring count, the concat digest size,
the vertex count of a packed matrix) or runs out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .adversarial import (
    ConstructionDegenerate,
    bipartite_adversarial_pair,
    counterexample_pair,
)
from .enumeration import EnumerationConfig, FalseMerge, enumerate_graphs, verify_buckets
from .formats import graph_to_dict, load_graph, record_line, summary_line
from .graphs import CapabilityExceeded, GraphError
from .hashing import BACKENDS, digest_hex, graph_invariant
from .isomorphism import are_isomorphic


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-vertices", type=int, required=True, metavar="N")
    p.add_argument("--max-edges", type=int, required=True, metavar="E")
    p.add_argument("--colors", type=int, required=True, metavar="K")
    p.add_argument(
        "--reserved-io",
        action="store_true",
        help="reserve color K+1 for vertex 1 and K+2 for vertex n",
    )
    p.add_argument("--backend", choices=BACKENDS, default="md5")


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="daghash",
        description="invariant hashing and enumeration of colored computational DAGs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hash", help="print the invariant digest of a graph file")
    p.add_argument("file")
    p.add_argument("--backend", choices=BACKENDS, default="md5")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="relabel arbitrary DAG input into i < j form before hashing",
    )
    p.set_defaults(func=_cmd_hash)

    p = sub.add_parser("iso", help="decide isomorphism of two graph files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("enumerate", help="enumerate all graphs up to isomorphism")
    _add_config_flags(p)
    p.add_argument("--out", metavar="FILE", help="write records here instead of stdout")
    p.add_argument("--workers", type=int, default=1, metavar="W")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="oracle-check that no digest bucket merges")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("adversarial", help="construct an equal-digest non-isomorphic pair")
    p.add_argument(
        "--figure2",
        action="store_true",
        help="emit the pinned 10-vertex, 16-edge pair",
    )
    p.add_argument("--degree", type=int, metavar="D")
    p.add_argument("--size", type=int, metavar="M")
    p.add_argument("--out", metavar="FILE", help="write the pair JSON here")
    p.set_defaults(func=_cmd_adversarial)

    return top


def _cmd_hash(args) -> int:
    g = load_graph(args.file, normalize=args.normalize)
    print(digest_hex(graph_invariant(g, args.backend)))
    return 0


def _cmd_iso(args) -> int:
    g1 = load_graph(args.file1)
    g2 = load_graph(args.file2)
    witness = are_isomorphic(g1, g2)
    if witness.isomorphic:
        p = witness.permutation
        print(" ".join(str(p(i)) for i in range(1, g1.n + 1)))
        return 0
    print("non-isomorphic")
    return 1


def _print_per_n(per_n: dict[int, int]) -> None:
    for n in sorted(per_n):
        print(f"n={n}: {per_n[n]}")
    print(f"total: {sum(per_n.values())}")


def _cmd_enumerate(args) -> int:
    config = EnumerationConfig(
        args.max_vertices, args.max_edges, args.colors, args.reserved_io
    )
    records = enumerate_graphs(config, backend=args.backend, workers=args.workers)
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
    per_n: dict[int, int] = {}
    try:
        for rec in records:
            per_n[rec.graph.n] = per_n.get(rec.graph.n, 0) + 1
            out.write(record_line(rec.invariant, rec.graph) + "\n")
        out.write(summary_line(per_n) + "\n")
    except BaseException:
        if args.out is not None:
            out.close()
            os.unlink(args.out)
        raise
    if args.out is not None:
        out.close()
        _print_per_n(per_n)
    return 0


def _cmd_verify(args) -> int:
    config = EnumerationConfig(
        args.max_vertices, args.max_edges, args.colors, args.reserved_io
    )
    try:
        report = verify_buckets(config, backend=args.backend)
    except FalseMerge as fm:
        print(f"false merge on digest {fm.digest.hex()}")
        print(f"canonical: {json.dumps(graph_to_dict(fm.canonical))}")
        print(f"offender:  {json.dumps(graph_to_dict(fm.offender))}")
        return 1
    _print_per_n(report.per_n)
    print(f"all buckets pure ({report.duplicates} duplicate members verified)")
    return 0


def _cmd_adversarial(args) -> int:
    wants_family = args.degree is not None or args.size is not None
    if args.figure2 == wants_family:
        _parser().error("give either --figure2 or both --degree and --size")
    if wants_family and (args.degree is None or args.size is None):
        _parser().error("--degree and --size go together")
    try:
        if args.figure2:
            pair = counterexample_pair()
        else:
            pair = bipartite_adversarial_pair(args.degree, args.size)
    except ConstructionDegenerate as e:
        print(f"degenerate construction: {e}")
        return 1
    payload = json.dumps({"g1": graph_to_dict(pair.g1), "g2": graph_to_dict(pair.g2)})
    if args.out is None:
        print(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(f"digest: {digest_hex(pair.digest)}")
    print(f"digest: {digest_hex(pair.digest)}")
    print(f"certificate: {pair.certificate}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapabilityExceeded, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3
    except (GraphError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
