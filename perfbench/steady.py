"""Steadiness check: run each workload with ten seeds, report the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--first-seed 1] [--trace]

Runs ``run.py`` once per seed (seeds ``first-seed .. first-seed+9``) on every
workload of ``BENCHMARK.json`` and prints, for every end-to-end metric, the
median and the distance between the first and third quartiles as a share of
the median, next to the metric's bound.  A spread above the bound is marked
``OVER``; one above a third of it ``wide``.  It also prints the share of
failed operations, which must be the same in every run.  With ``--trace`` the
first three runs of each workload are each followed by a traced run of the
same seed, and the median ratio of untraced to traced ``ops_per_s`` is
printed as the tracing overhead.  Every run's result is appended to
``perfbench/out/steady.jsonl``.

Exits with 1 if a spread is ``OVER``, if the failed share differs between
runs of a workload, or if a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LOG = HERE / "out" / "steady.jsonl"

#: Runs per workload, one seed each.
RUNS = 10
#: With --trace, the first runs are each followed by a traced run of the
#: same seed; adjacent runs keep the machine's slow drift out of the ratio.
TRACE_PAIRS = 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with LOG.open("a") as log:
        log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, **result}) + "\n")
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    LOG.parent.mkdir(exist_ok=True)
    seconds = bench["run_seconds"]
    steady = True

    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        ratios = []
        for i in range(RUNS):
            results.append(run_once(workload, args.first_seed + i, seconds, 0))
            if args.trace and i < TRACE_PAIRS:
                run_once(workload, args.first_seed + i, seconds, 1)
                summary = json.loads((HERE / "out" / f"{workload}-trace1.json").read_text())
                untraced = results[-1]["metrics"]["ops_per_s"]["value"]
                ratios.append(untraced / summary["ops_per_s"])
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        steady = steady and correct and len(shares) == 1
        print(f"{workload}: {RUNS} runs, failed share {sorted(shares)}, correct {correct}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median, iqr = spread(values)
            bound = metric["bound"]
            steady = steady and iqr <= bound
            mark = "OVER" if iqr > bound else "wide" if iqr > bound / 3 else ""
            print(f"  {metric['name']:16s} median {median:12.4f} {metric['unit']:4s} "
                  f"spread {iqr:7.2%} bound {bound:5.0%} {mark}")
        if ratios:
            print(f"  tracing overhead {statistics.median(ratios) - 1:.1%} "
                  f"(median of {len(ratios)} traced/untraced pairs: "
                  f"{', '.join(f'{r - 1:.1%}' for r in ratios)})")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
