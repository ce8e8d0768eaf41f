"""The measured process: runs one workload through ``qlambert.cli.main``.

Usage (started by ``run.py``, from the root of a checkout)::

    python3 perfbench/harness.py --workload NAME --seed N --seconds T \
        --mode setup|run [--trace]

``--mode setup`` imports ``qlambert``, builds the operation list and runs one
untimed warm-up operation of each kind, then prints the set-up time.
``--mode run`` does the same and then runs whole rounds of the list in a
closed loop (each call starts when the one before it has returned) until
``T`` seconds have passed and at least :data:`MIN_OPS` operations ran.  It
prints one JSON object: the set-up time, every latency, the peak memory of
this process, and for each operation the distinct outcomes seen with their
counts, so that the caller can check every output.  This process computes no
reference values.

With ``--trace`` the wrappers of :mod:`tracing` are installed before set-up,
spans are kept in memory and written to ``perfbench/out/`` at the end, and
the per-layer metrics are printed instead of the latencies.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Fewest operations per run, so that the 90th percentile has ten samples
#: above it.
MIN_OPS = 100


def call(main, argv: tuple[str, ...]) -> tuple[object, str, str]:
    """Run one command in-process; return (exit code, stdout, error)."""
    out = io.StringIO()
    err = io.StringIO()
    error = ""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaping exception is a failed operation
        code = None
        error = f"{type(exc).__name__}: {exc}"
    if code not in (0, None) and not error:
        error = err.getvalue().strip()
    return code, out.getvalue(), error


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    import workloads

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qlambert
    import qlambert.cli

    if not Path(qlambert.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qlambert imported from {qlambert.__file__}, not {ROOT}/src")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    ops = workloads.build(args.workload, args.seed)
    for op in workloads.warmup(args.workload, args.seed):
        call(qlambert.cli.main, op.argv)
    setup_s = time.perf_counter() - started
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is not None:
        tracer.reset()
    cli_main = qlambert.cli.main
    outcomes = [Counter() for _ in ops]
    latencies_ns: list[int] = []
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + int(args.seconds * 1e9)
    while True:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(latencies_ns)
            began = clock()
            outcome = call(cli_main, op.argv)
            latencies_ns.append(clock() - began)
            outcomes[index][outcome] += 1
        if clock() >= deadline and len(latencies_ns) >= MIN_OPS:
            break
    elapsed_ns = clock() - start

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "elapsed_s": elapsed_ns / 1e9,
        "operations": len(latencies_ns),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [
            {
                "argv": list(op.argv),
                "outcomes": [
                    {"code": code, "stdout": out, "error": error, "count": count}
                    for (code, out, error), count in counter.items()
                ],
            }
            for op, counter in zip(ops, outcomes)
        ],
    }
    if tracer is None:
        result["latencies_ns"] = latencies_ns
    else:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
        result["layers"] = tracer.layer_metrics(len(latencies_ns))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
