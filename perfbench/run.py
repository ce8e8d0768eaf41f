"""Benchmark of the ``qlambert`` command line: one workload, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-50|naive-300|theta-1000 \
        [--seed N] [--seconds T] [--trace 0|1]

The program runs in a child process (``harness.py``) that does nothing else:
one thread, a closed loop of in-process ``qlambert.cli.main(argv)`` calls.
This process only starts it, then checks every output against mpmath
(``reference.py``) after the child has exited, and prints the result as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``ops_per_s``,
``latency_p50_ms``, ``latency_p90_ms``, ``setup_s`` (median of
:data:`SETUP_SAMPLES` set-ups, each in a fresh process) and ``peak_rss_mb``.
With ``--trace 1`` the child installs the wrappers of ``tracing.py`` and the
metrics are the per-layer ones.  Either way a summary, including the traced
or untraced ``ops_per_s``, is written to ``perfbench/out/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Set-up time samples per run: set-up-only children, half before and half
#: after the measured child, plus the measured child itself.
SETUP_SAMPLES = 7
#: Every child, and the checks, must end within this many seconds of start.
RUN_BUDGET_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_child(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    """Run ``harness.py`` once and return its JSON result."""
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if args.trace:
        command.append("--trace")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting the program")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"program did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"program exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict) -> tuple[bool, int, int, list[str]]:
    """Check every outcome; return (correct, attempted, failed, problems).

    A nonzero exit or an exception fails the operation.  A value outside its
    certified bound also fails it and makes the run incorrect.
    """
    import reference

    cache: dict = {}
    correct = True
    attempted = failed = 0
    problems = []
    for op in result["ops"]:
        for outcome in op["outcomes"]:
            attempted += outcome["count"]
            reason = reference.check_output(
                op["argv"], outcome["code"], outcome["stdout"], cache
            )
            if reason is None:
                continue
            failed += outcome["count"]
            if outcome["code"] == 0:
                correct = False
            detail = outcome["error"] or reason
            problems.append(f"{' '.join(op['argv'])}: {detail}")
    return correct, attempted, failed, problems


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    latencies_ms = [ns / 1e6 for ns in result["latencies_ns"]]
    return {
        "ops_per_s": {"value": result["operations"] / result["elapsed_s"], "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
        "latency_p90_ms": {
            "value": statistics.quantiles(latencies_ms, n=10)[8],
            "unit": "ms",
        },
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    """The traced layer metrics, with the units ``BENCHMARK.json`` lists."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in bench["per_layer"]}
    layers = result["layers"]
    if layers.keys() != units.keys():
        raise BenchError(
            f"traced metrics not in BENCHMARK.json: {sorted(layers.keys() - units.keys())}; "
            f"listed metrics not traced: {sorted(units.keys() - layers.keys())}"
        )
    return {name: {"value": value, "unit": units[name]} for name, value in layers.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        if not (ROOT / "src" / "qlambert" / "cli.py").is_file():
            raise BenchError(f"no qlambert sources under {ROOT / 'src'}")
        setup_samples = []
        if not args.trace:
            run_child(args, "setup", deadline)  # untimed: byte-compiles, fills caches
            for _ in range(SETUP_SAMPLES // 2):
                setup_samples.append(run_child(args, "setup", deadline)["setup_s"])
        result = run_child(args, "run", deadline)
        setup_samples.append(result["setup_s"])
        if not args.trace:
            # Half the samples come after the measured child, so that they
            # span the run rather than one moment of the machine's speed.
            for _ in range(SETUP_SAMPLES // 2):
                setup_samples.append(run_child(args, "setup", deadline)["setup_s"])
        correct, attempted, failed, problems = check(result)
        metrics = per_layer(result) if args.trace else end_to_end(result, setup_samples)
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_s": result["operations"] / result["elapsed_s"],
        "setup_samples_s": setup_samples,
        "problems": problems,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n"
    )
    for line in problems[:10]:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
