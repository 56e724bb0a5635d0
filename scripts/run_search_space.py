"""Time a full enumeration run and print the per-size class table.

Defaults reproduce the reserved-io search space with up to 7 vertices,
9 edges, and 3 operation colors (423,624 classes, about 31 s and 95 MB
peak RSS on one core of a 2-core Intel Xeon virtual machine).  Pass --out to keep the JSONL records.
"""

import argparse
import resource
import time

from daghash.enumeration import EnumerationConfig, enumerate_graphs
from daghash.formats import record_line, summary_line
from daghash.hashing import BACKENDS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-vertices", type=int, default=7)
    ap.add_argument("--max-edges", type=int, default=9)
    ap.add_argument("--colors", type=int, default=3)
    ap.add_argument("--plain-palette", action="store_true",
                    help="do not reserve input/output colors")
    ap.add_argument("--backend", default="md5", choices=BACKENDS)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", help="write JSONL records here")
    args = ap.parse_args()

    config = EnumerationConfig(
        args.max_vertices, args.max_edges, args.colors,
        reserved_io=not args.plain_palette,
    )
    sink = open(args.out, "w", encoding="utf-8") if args.out else None

    per_n = {}
    t0 = time.perf_counter()
    last = t0
    for rec in enumerate_graphs(config, backend=args.backend, workers=args.workers):
        n = rec.graph.n
        if n not in per_n:
            now = time.perf_counter()
            if per_n:
                done = max(per_n)
                print(f"n={done}: {per_n[done]} classes ({now - last:.1f}s)")
            last = now
            per_n[n] = 0
        per_n[n] += 1
        if sink:
            sink.write(record_line(rec.invariant, rec.graph) + "\n")
    elapsed = time.perf_counter() - t0

    done = max(per_n)
    print(f"n={done}: {per_n[done]} classes ({time.perf_counter() - last:.1f}s)")
    print(f"total: {sum(per_n.values())} classes in {elapsed:.1f}s")
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak:.1f} MB")
    if sink:
        sink.write(summary_line(per_n) + "\n")
        sink.close()
        print(f"records written to {args.out}")


if __name__ == "__main__":
    main()
