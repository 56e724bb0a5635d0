"""Benchmark runner: run one workload repeatedly, each time in a fresh interpreter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census6e7 --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, as medians over the runs made in ``--seconds``.  With
``--trace 1`` it carries the per-layer metrics instead, from traced runs
that alternate with untraced ones so the tracing overhead can be reported.
Every run's output is checked against pinned values; a run that fails its
check counts in ``failed`` and is left out of the timings.

Children run one at a time, so the benchmark never uses more than one core
beyond its idle parent.  Stdout ends with a context line (machine, load,
host speed, commit, seed, every sample) and then the one-line JSON result.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_PY = os.path.join(HERE, "workload.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("census6e7", "verify6e8", "concat10")
# The enumeration workloads are exhaustive; only concat10 draws from the seed.
SEED_DEPENDENT = ("concat10",)

# Set-up-only interpreters started before the timed loop.  Their set-up
# times join those of the timed runs, and the first one also writes the
# bytecode cache so later ones read it, as an installed package would.
SETUP_SAMPLES = 9
# A run must end within 180 s; leave room for the parent's own work.
RUN_LIMIT_S = 170.0


class ChildFailed(Exception):
    """A workload interpreter exited abnormally or printed no result."""


def run_child(workload, mode, seed, timeout):
    """Start workload.py in a fresh interpreter; return its result object."""
    cmd = [sys.executable, WORKLOAD_PY, workload, mode, str(seed)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(
            f"{workload} {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{workload} {mode} printed no result") from None


def git_commit(root):
    """HEAD of the checkout, read from .git without running git, or None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds, modes, started):
    """Cycle through modes, one child each, until seconds have passed.

    A new cycle starts only if a cycle of median length still fits, and at
    least one cycle always runs.  Returns [(mode, result)]; a child that
    crashed or timed out gives a result holding only its problem.
    """
    samples = []
    cycle_times = []
    loop_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for mode in modes:
            timeout = RUN_LIMIT_S - (time.perf_counter() - started)
            try:
                if timeout < 1:
                    raise ChildFailed(f"{workload} {mode} had no time left")
                result = run_child(workload, mode, seed, timeout)
            except ChildFailed as e:
                result = {"problems": [str(e)]}
            samples.append((mode, result))
            print(f"{mode}: wall_s={result.get('wall_s')} problems={result['problems']}",
                  file=sys.stderr)
        now = time.perf_counter()
        cycle_times.append(now - cycle_start)
        if now - loop_start + statistics.median(cycle_times) > seconds:
            return samples


def timed(samples, mode):
    """Results of mode that measured; failed ones only if none passed."""
    measured = [r for m, r in samples if m == mode and "wall_s" in r]
    return [r for r in measured if not r["problems"]] or measured


def end_to_end(samples, setup_times):
    """Medians of the untraced runs."""
    runs = timed(samples, "run")
    if not runs:
        return None
    return {
        "wall_norm": statistics.median(r["wall_s"] / r["probe_s"] for r in runs),
        "setup_s": statistics.median(setup_times + [r["setup_s"] for r in runs]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def raw_medians(samples):
    """Unnormalized medians of the untraced runs, for the context line."""
    runs = timed(samples, "run")
    if not runs:
        return None
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "classes_per_s": statistics.median(r["classes"] / r["wall_s"] for r in runs),
        "probe_s": statistics.median(r["probe_s"] for r in runs),
    }


def per_layer(samples):
    """Medians of the traced runs, plus traced minus untraced wall time."""
    traced, untraced = timed(samples, "trace"), timed(samples, "run")
    if not traced or not untraced:
        return None
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced)
    )
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "daghash", "__init__.py")):
        print(f"error: no daghash package under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    load_before = os.getloadavg()
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setup_times = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setup_times.append(
                    run_child(args.workload, "setup", args.seed, 60)["setup_s"]
                )
        modes = ("run", "trace") if args.trace else ("run",)
        samples = measure(args.workload, args.seed, args.seconds, modes, started)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    metrics = per_layer(samples) if args.trace else end_to_end(samples, setup_times)
    if metrics is None:
        print("error: no run produced a measurement", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree "
              "with BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = len(samples)
    failed = sum(1 for _, r in samples if r["problems"])
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_dependent": args.workload in SEED_DEPENDENT,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "failed_frac": failed / attempted,
        "raw_medians": raw_medians(samples),
        "setup_samples_s": setup_times,
        "samples": [
            {"mode": mode, **{k: v for k, v in r.items() if k != "layers"}}
            for mode, r in samples
        ],
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
