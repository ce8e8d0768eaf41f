"""The benchmark's tracer still fits the package.

``perfbench/tracing.py`` wraps the package's functions in place, so a change
of names or call paths can break it without any other test noticing.  The
tracer runs in a child process, so that its wrappers stay out of this one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: One identity check, one exact-reciprocal sum, one theta evaluation.
COMMANDS = (
    ["verify", "--identity", "knuth-wrench", "--trials", "10", "--digits", "50"],
    ["recip-sum", "--m1", "1", "--m2", "1", "--method", "naive", "--digits", "50"],
    ["eval", "lambert", "--method", "theta", "--q", "1/2", "--digits", "50"],
)

CHILD = """
import contextlib, io, json, sys
perfbench, src, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path[:0] = [perfbench, src]
import tracing
tracer = tracing.install()
from qlambert.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands]
print(json.dumps({"codes": codes, "metrics": tracer.layer_metrics(len(commands))}))
"""


def test_the_tracer_reports_every_declared_layer_metric() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    proc = subprocess.run(
        [
            sys.executable, "-c", CHILD,
            str(ROOT / "perfbench"), str(ROOT / "src"), json.dumps(COMMANDS),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(COMMANDS)
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(metric["name"] for metric in declared)
    assert metrics["qcore.sum_calls"] > 0
