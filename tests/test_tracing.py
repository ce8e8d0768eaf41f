"""The benchmark's tracer still fits the package.

``perfbench/tracing.py`` wraps the package's functions in place, so a change
of names or call paths can break it without any other test noticing.  The
tracer runs in a child process, so that its wrappers stay out of this one;
an untraced child must print the same output.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Two identity checks, one exact-reciprocal sum, one theta evaluation, and
#: four sums above TAPER_FROM digits, where the precision tapers: among them
#: the Fibonacci reciprocal sum by its theta routes at 1000 digits, whose
#: eager traced reads check the lazy theta certification, guard included.
#: The gosper-poch trials include points whose product side needs more
#: digits than the context: it takes them before summing, with no re-run.
COMMANDS = (
    ["verify", "--identity", "knuth-wrench", "--trials", "10", "--digits", "50"],
    ["verify", "--identity", "gosper-poch", "--trials", "10", "--seed", "42", "--digits", "50"],
    ["recip-sum", "--m1", "1", "--m2", "1", "--method", "naive", "--digits", "50"],
    ["eval", "lambert", "--method", "theta", "--q", "1/2", "--digits", "50"],
    ["eval", "qxt", "--method", "naive", "--x=-37/61", "--t=29/59", "--q=72/103", "--digits", "300"],
    [
        "eval", "bilateral", "--method", "form1",
        "--x=35/59", "--t=-31/61", "--q=21/103", "--digits", "1000",
    ],
    ["recip-sum", "--m1", "1", "--m2", "1", "--method", "horadam", "--digits", "1000"],
    ["recip-sum", "--m1", "1", "--m2", "1", "--method", "split", "--digits", "1000"],
)

CHILD = """
import contextlib, io, json, sys
perfbench, src, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
traced = sys.argv[4] == "traced"
sys.path[:0] = [perfbench, src]
import tracing
tracer = tracing.install() if traced else None
from qlambert.cli import main
codes, outputs = [], []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(main(argv))
    outputs.append(out.getvalue())
metrics = tracer.layer_metrics(len(commands)) if traced else None
print(json.dumps({"codes": codes, "outputs": outputs, "metrics": metrics}))
"""


@functools.cache
def run_commands(mode: str) -> dict:
    """The exit codes, outputs and (traced) layer metrics of ``COMMANDS``,
    run in a child process ``traced`` or ``untraced``."""
    proc = subprocess.run(
        [
            sys.executable, "-c", CHILD,
            str(ROOT / "perfbench"), str(ROOT / "src"), json.dumps(COMMANDS), mode,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_tracer_reports_every_declared_layer_metric() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    result = run_commands("traced")
    assert result["codes"] == [0] * len(COMMANDS)
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(metric["name"] for metric in declared)
    assert metrics["qcore.sum_calls"] > 0
    assert metrics["identities.escalations"] == 0


def test_traced_and_untraced_runs_print_the_same_output() -> None:
    """The tracer's wrapper of the majorant has no ``log2_floor``, so traced
    sums read ``ratio_at`` at every index, while untraced ones read it
    lazily, the taper only up to the first ``rho < 1``: both print the same
    bytes, also above ``TAPER_FROM`` digits and with theta weights."""
    traced, untraced = run_commands("traced"), run_commands("untraced")
    assert traced["codes"] == untraced["codes"]
    assert all(traced["outputs"])
    assert traced["outputs"] == untraced["outputs"]
