"""Wall time of ``qlambert`` commands in two checkouts, side by side.

Usage, from the root of a checkout::

    python3 tools/route_timing.py --root BASELINE

The script times the commands of the timing table in ``ROADMAP.md``.  For
each of :data:`ROUNDS` rounds and every command it starts one child
process per checkout, alternating which goes first, that imports
``qlambert`` from that checkout's ``src/``, runs the command once untimed
and then :data:`CALLS` times through ``qlambert.cli.main`` in process, and
reports the fastest call.  Per command the script prints, for the baseline
(``--root``) and for this checkout, the best and the median over the rounds
of those fastest calls, and the ratio of this checkout's median to the
baseline's.  It uses the standard library alone and writes nothing.
"""

from __future__ import annotations

import argparse
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Timed calls per child, after one untimed call, as the table's "best of 3".
CALLS = 3
#: Rounds per command, as the table's "median of 5 rounds".
ROUNDS = 5

#: The commands of the timing table in ROADMAP.md, in its order.
TABLE = (
    "verify --all --trials 100 --digits 50",
    "eval lambert --method naive --q 1/2 --digits 1000",
    "recip-sum --m1 1 --m2 1 --method naive --digits 1000",
    "eval lambert --q 1/2 --digits 5000",
    "eval lambert --q 1/3 --digits 5000",
    "eval theta3 --q 2/7 --digits 5000",
    "recip-sum --m1 1 --m2 1 --digits 5000",
    "eval bilateral --x 1/3 --t 2/7 --q 1/11 --digits 1000",
    "eval lambert --q 0.7071067811865475244 --digits 5000",
    "recip-sum --m1 1 --m2 1 --method gosper --digits 5000",
    "recip-sum --m1 1 --m2 1 --method split --digits 5000",
    "recip-sum --m1 2 --m2 1 --digits 5000",
    "recip-sum --m1 1 --m2 1 --digits 1000",
    "recip-sum --m1 1 --m2 3 --digits 5000",
)

#: The child: argv is the source directory, the call count and the command.
CHILD = """
import contextlib, io, sys, time
from pathlib import Path
src, calls, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
sys.path.insert(0, str(src))
import qlambert.cli
if not Path(qlambert.cli.__file__).resolve().is_relative_to(src):
    raise SystemExit(f"qlambert imported from {qlambert.cli.__file__}, not {src}")
times = []
for _ in range(calls + 1):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        qlambert.cli.main(list(argv))
    times.append(time.perf_counter() - start)
print(min(times[1:]))
"""


def fastest_call(root: Path, argv: list[str], calls: int) -> float:
    """Seconds of the fastest of ``calls`` in-process runs of ``argv``, in a
    child process that imports ``qlambert`` from ``root``."""
    child = [sys.executable, "-c", CHILD, str(root / "src"), str(calls), *argv]
    done = subprocess.run(child, capture_output=True, text=True, check=True)
    return float(done.stdout)


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:10.2f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True, help="the baseline checkout")
    args = parser.parse_args()
    trees = {"base": args.root.resolve(), "this": ROOT}
    times = {(name, command): [] for name in trees for command in TABLE}
    for round_ in range(ROUNDS):
        # Alternate which tree runs first, so that drift hits both alike.
        order = list(trees) if round_ % 2 == 0 else list(reversed(trees))
        for command in TABLE:
            for name in order:
                seconds = fastest_call(trees[name], shlex.split(command), CALLS)
                times[name, command].append(seconds)
    print(f"{'base best':>10} {'base med':>10} {'this best':>10} {'this med':>10}"
          f" {'ratio':>6}  command (ms; ratio = this med / base med)")
    for command in TABLE:
        base, this = times["base", command], times["this", command]
        ratio = statistics.median(this) / statistics.median(base)
        print(_ms(min(base)), _ms(statistics.median(base)), _ms(min(this)),
              _ms(statistics.median(this)), f"{ratio:6.3f}", "", command)
    return 0


if __name__ == "__main__":
    sys.exit(main())
