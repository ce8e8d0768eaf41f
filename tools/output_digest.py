"""One SHA-256 per benchmark workload and seed over every output of a round.

Usage, from the root of a checkout::

    python3 tools/output_digest.py [--root CHECKOUT] [--compare OTHER] SEED...

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
lives in.  ``--compare OTHER`` also digests the same seeds from the checkout
``OTHER``, in a child process, and exits 1 after naming each workload and seed
whose digest differs there::

    differs: <workload> seed <N>

The script reads ``perfbench/`` and changes nothing there, and it uses the
standard library alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import subprocess
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


def digests(root: Path, seeds: list[int]) -> dict[tuple[str, int], str]:
    """The digest of each workload and seed, from the checkout ``root``,
    in this process."""
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    workloads = importlib.import_module("workloads")
    cli = importlib.import_module("qlambert.cli")
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"qlambert imported from {cli.__file__}, not {root}/src")
    return {
        (name, seed): digest(cli.main, (op.argv for op in workloads.build(name, seed)))
        for name in workloads.WORKLOADS
        for seed in seeds
    }


def parse(lines: str) -> dict[tuple[str, int], str]:
    """The digests that lines ``<workload> seed <N> <sha256>`` print."""
    found = {}
    for line in lines.splitlines():
        name, _, seed, sha = line.split()
        found[name, int(seed)] = sha
    return found


def differences(ours: dict, theirs: dict) -> list[tuple[str, int]]:
    """Each workload and seed, of either side, whose digests are not equal."""
    return [key for key in {**ours, **theirs} if ours.get(key) != theirs.get(key)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--compare", type=Path, metavar="OTHER")
    args = parser.parse_args()
    ours = digests(args.root.resolve(), args.seeds)
    for (name, seed), sha in ours.items():
        print(f"{name} seed {seed} {sha}")
    if args.compare is None:
        return 0
    other = [sys.executable, __file__, "--root", str(args.compare.resolve())]
    child = subprocess.run(
        other + [str(seed) for seed in args.seeds], capture_output=True, text=True, check=True
    )
    different = differences(ours, parse(child.stdout))
    for name, seed in different:
        print(f"differs: {name} seed {seed}")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
