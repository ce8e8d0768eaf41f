"""One SHA-256 per benchmark workload and seed over every output of a round.

Usage, from the root of a checkout::

    python3 tools/output_digest.py [--root CHECKOUT] SEED...

It builds the operation list of one round of each workload at each seed
from ``perfbench/workloads.py``, runs every operation in this process
through ``qlambert.cli.main``, imported from ``src/``, and prints one line
per workload and seed::

    <workload> seed <N> <sha256>

The digest covers, for each operation in order, its argv, its exit code and
everything it wrote to standard output and standard error.  Two trees that
print the same digests print the same bytes for every operation of those
rounds.  ``--root`` takes the operation lists and the package from another
checkout (the parent of a change, say); the default is the checkout this file
lives in.  The script reads ``perfbench/`` and changes nothing there, and it
uses the standard library alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import sys
from pathlib import Path
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent


def run(main: Callable[[list[str]], int], argv: tuple[str, ...]) -> tuple[str, str, str]:
    """The exit code, standard output and standard error of one in-process
    command; an escaping exception counts as output to standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = None
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return repr(code), out.getvalue(), err.getvalue()


def digest(main: Callable[[list[str]], int], argvs: Iterable[tuple[str, ...]]) -> str:
    """SHA-256 over the argv and the outcome of each command, in order."""
    sha = hashlib.sha256()
    for argv in argvs:
        for field in ("\0".join(argv), *run(main, argv)):
            data = field.encode()
            # Length-prefixed, so that no two sequences of fields collide.
            sha.update(len(data).to_bytes(8, "big") + data)
    return sha.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    parser.add_argument("--root", type=Path, default=ROOT)
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    workloads = importlib.import_module("workloads")
    cli = importlib.import_module("qlambert.cli")
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"qlambert imported from {cli.__file__}, not {root}/src")
    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            ops = workloads.build(name, seed)
            print(f"{name} seed {seed} {digest(cli.main, (op.argv for op in ops))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
