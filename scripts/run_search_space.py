"""Time `daghash enumerate` and print its per-size class table and peak RSS.

Arguments are `daghash enumerate`'s flags (see `daghash enumerate --help`),
passed on unchanged; with none, the reference space --max-vertices 7
--max-edges 9 --colors 3 --reserved-io (423,624 classes, about 18-21 s and
88 MB peak RSS on one core of a 2-core Intel Xeon virtual machine).  Records
go to --out, or to os.devnull without it.  When --workers runs a process
pool, the last line also gives the largest worker's peak RSS, which the
main process's own peak leaves out.  The script exits with the command's
code.
"""

import argparse
import os
import resource
import sys
import time

from daghash.cli import main

REFERENCE = ["--max-vertices", "7", "--max-edges", "9", "--colors", "3", "--reserved-io"]


def run() -> int:
    ap = argparse.ArgumentParser(
        usage="%(prog)s [-h] [enumerate flags]", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    argv = ap.parse_known_args()[1] or REFERENCE
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    # the last --out wins, so one in argv replaces os.devnull
    code = main(["enumerate", "--out", os.devnull, *argv])
    if code == 0:
        # ru_maxrss is in KiB on Linux.  RUSAGE_CHILDREN covers the children
        # reaped so far, so it changes during the run iff a pool's workers
        # ran, and its ru_maxrss is then the largest one's peak (or that of
        # a larger child reaped earlier, such as a launcher's).
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        line = f"{time.perf_counter() - t0:.1f} s, peak RSS {peak:.1f} MB"
        workers = resource.getrusage(resource.RUSAGE_CHILDREN)
        if workers != children:
            line += f", largest worker {workers.ru_maxrss / 1024:.1f} MB"
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(run())
