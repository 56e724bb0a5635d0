"""Run one benchmark workload once, in the fresh interpreter this file starts.

Usage, from the root of a checkout:

    python3 perfbench/workload.py WORKLOAD MODE SEED

MODE is ``setup`` (set up, then stop), ``run`` (set up, make the timed call
through the package's public entry points, check the output against pinned
values) or ``trace`` (as ``run``, with the layer boundaries wrapped by
``tracer.Tracer``).  The last line of stdout is one JSON object.  The
program's own stdout is captured, so only that object reaches the caller.
Record files go to ``.perfbench_out/``, which ``run.py`` creates and removes.

Set-up is timed from the first statement of this file: ``import daghash``
plus building the config or the graph pair, without the imports the
benchmark needs for itself.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import daghash  # noqa: E402
from daghash import cli, enumeration, graphs, hashing, isomorphism  # noqa: E402

_T_IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

from tracer import Tracer  # noqa: E402

OUT_DIR = ".perfbench_out"

# Enumeration workloads: CLI flags and the pinned output of the seed commit.
# They are exhaustive, so the seed does not change their input.
ENUMERATIONS = {
    "census6e7": {
        "command": "enumerate",
        "config": (6, 7, 3),
        "per_n": {2: 1, 3: 6, 4: 84, 5: 1685, 6: 8250},
        "sha256": "b4234310995c457b250672b1dee70df32b8588ae5db1095c503ca2c8989c99d4",
    },
    "verify6e8": {
        "command": "verify",
        "config": (6, 8, 2),
        "per_n": {2: 1, 3: 4, 4: 38, 5: 676, 6: 5610},
        "duplicates": 5900,
    },
}

CONCAT10_MD5 = "ae9822e95b161b2ccc72638e5db13518"
CONCAT10_BYTES = 534_164_472

WORKLOADS = (*ENUMERATIONS, "concat10")


def interpreter_loop():
    """Seconds for a fixed pure-Python loop: 300,000 additions."""
    t = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i & 7
    return time.perf_counter() - t


def copy_loop():
    """Seconds for fixed large copies: four 32 MiB joins of a 4 MiB block."""
    t = time.perf_counter()
    block = bytes(range(256)) * 16384
    for _ in range(4):
        b"".join([block] * 8)
    return time.perf_counter() - t


# The reference loop each workload's wall time is divided by.  The benchmark
# runs on shared cores whose speed changes by up to half within seconds,
# unseen by the guest's load average or CPU clock; a loop timed just before
# and just after the call reads that speed.  Contention slows interpreter
# work and memory copies by different amounts, so each workload gets the
# loop that slows like it: on the 2-core machine the benchmark was built on,
# the interpreter loop cut census6e7's per-call spread from 0.36 to 0.13 and
# the copy loop cut concat10's from 0.16 to 0.06 (quartile distance over
# median), while the other loop helped each much less.  Neither runs the
# package, so a faster program never makes them faster.
REFERENCE_LOOPS = {
    "census6e7": interpreter_loop,
    "verify6e8": interpreter_loop,
    "concat10": copy_loop,
}


def random_linear_extension(g, rng):
    """A seeded topological order of g, as a Permutation for apply_permutation."""
    succs = [[] for _ in range(g.n + 1)]
    indeg = [0] * (g.n + 1)
    for i, j in g.edges:
        succs[i].append(j)
        indeg[j] += 1
    ready = [v for v in range(1, g.n + 1) if indeg[v] == 0]
    mapping = [0] * g.n
    for position in range(1, g.n + 1):
        v = ready.pop(rng.randrange(len(ready)))
        mapping[v - 1] = position
        for w in succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return graphs.Permutation(tuple(mapping))


def setup(workload, seed):
    """Everything before the timed call; returns the workload's state."""
    if workload == "concat10":
        t = time.perf_counter()
        pair = daghash.counterexample_pair()
        build_s = time.perf_counter() - t
        rng = random.Random(seed)
        g1, g2 = (
            graphs.apply_permutation(g, random_linear_extension(g, rng))
            for g in (pair.g1, pair.g2)
        )
        return {"graphs": [g1, g2], "build_s": build_s}
    spec = ENUMERATIONS[workload]
    n_max, e_max, k = spec["config"]
    config = enumeration.EnumerationConfig(n_max, e_max, k, reserved_io=True)
    argv = [spec["command"], "--max-vertices", str(n_max), "--max-edges",
            str(e_max), "--colors", str(k), "--reserved-io"]
    out = None
    if spec["command"] == "enumerate":
        out = os.path.join(OUT_DIR, f"{workload}-{os.getpid()}.jsonl")
        argv += ["--out", out]
    return {"argv": argv, "config": config, "out": out, "build_s": 0.0}


def run_enumeration(state):
    """Time one cli.main call; returns (wall_s, stdout text, exit code)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t = time.perf_counter()
        rc = cli.main(state["argv"])
        wall_s = time.perf_counter() - t
    return wall_s, buf.getvalue(), rc


def check_enumeration(workload, state, text, rc):
    """Problems found in one enumeration run, and its class count."""
    spec = ENUMERATIONS[workload]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    per_n = {}
    duplicates = None
    for line in text.splitlines():
        if line.startswith("n="):
            n, count = line[2:].split(": ")
            per_n[int(n)] = int(count)
        elif line.startswith("all buckets pure ("):
            duplicates = int(line.split("(")[1].split()[0])
    if per_n != spec["per_n"]:
        problems.append(f"per_n {per_n} != pinned {spec['per_n']}")
    if f"total: {sum(spec['per_n'].values())}" not in text.splitlines():
        problems.append("total line missing or wrong")
    if "duplicates" in spec and duplicates != spec["duplicates"]:
        problems.append(f"duplicates {duplicates} != pinned {spec['duplicates']}")
    if state["out"] is not None:
        try:
            with open(state["out"], "rb") as fh:
                data = fh.read()
        except OSError as e:
            problems.append(f"cannot read output: {e}")
            data = b""
        lines = data.count(b"\n")
        if lines != sum(spec["per_n"].values()) + 1:
            problems.append(f"{lines} output lines")
        if hashlib.sha256(data).hexdigest() != spec["sha256"]:
            problems.append("output sha256 differs from the pinned file")
    return problems, sum(per_n.values()), duplicates


def run_concat10(state):
    """Time md5 digests, concat digests and the oracle on the relabeled pair."""
    g1, g2 = state["graphs"]
    t = time.perf_counter()
    md5s = hashing.graph_invariants([g1, g2])
    concats = hashing.graph_invariants([g1, g2], "concat")
    iso = isomorphism.are_isomorphic(g1, g2)
    wall_s = time.perf_counter() - t
    problems = []
    if [hashing.digest_hex(d) for d in md5s] != [CONCAT10_MD5] * 2:
        problems.append(f"md5 digests {[d.hex() for d in md5s]}")
    if concats[0] != concats[1]:
        problems.append("concat digests differ")
    if [len(d) for d in concats] != [CONCAT10_BYTES] * 2:
        problems.append(f"concat digest lengths {[len(d) for d in concats]}")
    if iso.isomorphic:
        problems.append("oracle found the pair isomorphic")
    return wall_s, problems


def main(argv):
    workload, mode, seed = argv[0], argv[1], int(argv[2])
    if workload not in WORKLOADS or mode not in ("setup", "run", "trace"):
        raise SystemExit(f"usage: workload.py {{{','.join(WORKLOADS)}}} "
                         "{setup,run,trace} SEED")
    if os.path.dirname(os.path.abspath(daghash.__file__)) != os.path.join(SRC, "daghash"):
        raise SystemExit(f"imported daghash from {daghash.__file__}, not {SRC}")
    t = time.perf_counter()
    state = setup(workload, seed)
    import_s = _T_IMPORTED - _T0
    result = {"setup_s": import_s + time.perf_counter() - t, "import_s": import_s}
    if mode == "setup":
        print(json.dumps(result))
        return
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    reference_loop = REFERENCE_LOOPS[workload]
    probe_before = reference_loop()
    if workload == "concat10":
        wall_s, problems = run_concat10(state)
        classes, duplicates = 2, None
    else:
        wall_s, text, rc = run_enumeration(state)
        problems, classes, duplicates = check_enumeration(workload, state, text, rc)
    probe_s = (probe_before + reference_loop()) / 2
    if tracer is not None:
        tracer.uninstall()
        out = state.get("out")
        bytes_out = os.path.getsize(out) if out and os.path.exists(out) else 0
        layers, trace_problems = tracer.layer_metrics(
            workload, state, wall_s, classes, duplicates, bytes_out
        )
        problems += trace_problems
        result["layers"] = layers
    if state.get("out"):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(state["out"])
    result.update(
        wall_s=wall_s,
        probe_s=probe_s,
        classes=classes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        problems=problems,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
