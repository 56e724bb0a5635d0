"""The benchmark's traced call counts hold on a small census and verify.

perfbench/tracer.py wraps the layer boundaries and checks count identities
(a decode per matrix within the edge budget, a digest per coloring of each
survivor, a record per class, an oracle call per duplicate).  A change that
breaks one would only show in a traced benchmark run; here it fails Tier-1.
"""

import importlib.util
import time
from pathlib import Path

import pytest

from daghash.cli import main
from daghash.enumeration import EnumerationConfig

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("workload, command", [("census6e7", "enumerate"), ("verify6e8", "verify")])
def test_traced_counts_hold(tmp_path, capsys, workload, command):
    argv = [command, "--max-vertices", "5", "--max-edges", "7", "--colors", "2", "--reserved-io"]
    out = tmp_path / "records.jsonl"
    if command == "enumerate":
        argv += ["--out", str(out)]
    trace = tracer.Tracer()
    trace.install()
    try:
        t0 = time.perf_counter()
        code = main(argv)
        main_s = time.perf_counter() - t0
    finally:
        trace.uninstall()
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    classes = int(next(line for line in lines if line.startswith("total: ")).split()[1])
    duplicates = None
    if command == "verify":
        duplicates = int(lines[-1].split("(")[1].split()[0])
    state = {"config": EnumerationConfig(5, 7, 2, True), "build_s": 0.0}
    bytes_out = out.stat().st_size if command == "enumerate" else 0
    metrics, problems = trace.layer_metrics(
        workload, state, main_s, classes, duplicates, bytes_out
    )
    assert problems == []
    assert metrics["enumeration.classes"] == classes > 0
