"""Pinned command outputs: the printed digits, ``terms_used`` and ``tail_bound``.

``golden_outputs.json`` holds the exit code and stdout of a fixed list of
commands: every ``eval`` route with short (one-digit) and long (full-length
rational) operands at 50 and 300 digits, every ``recip-sum`` route at 300
digits, and ``verify --all --trials 10 --digits 50 --report``.  A change to
the engine that keeps every summand and every stopping index leaves them
byte for byte as they are.  Regenerate the file only for a change that
alters them on purpose, and say why::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from qlambert.cli import main

FIXTURE = Path(__file__).with_name("golden_outputs.json")

#: (series, method, short operands, long operands) of every ``eval`` route.
#: Bilateral operands keep ``|q| < |t| < 1`` and ``|q| < |x| < 1``.
EVAL_ROUTES = (
    ("lambert", "theta", {"q": "1/2"}, {"q": "-52/103"}),
    ("lambert", "naive", {"q": "0.7"}, {"q": "-52/103"}),
    ("glambert", "theta", {"x": "0.6", "q": "-0.5"}, {"x": "-31/53", "q": "50/101"}),
    ("glambert", "naive", {"x": "0.6", "q": "-0.5"}, {"x": "-31/53", "q": "50/101"}),
    *(
        ("qxt", method, {"x": "0.6", "t": "0.5", "q": "0.7"},
         {"x": "-37/61", "t": "29/59", "q": "72/103"})
        for method in ("theta", "naive", "alt")
    ),
    *(
        ("bilateral", method, {"x": "0.6", "t": "-0.5", "q": "0.2"},
         {"x": "35/59", "t": "-31/61", "q": "21/103"})
        for method in ("theta", "direct", "form1", "form2")
    ),
    ("theta3", "theta", {"q": "0.7"}, {"q": "-71/101"}),
)

#: (m1, m2, method) of every ``recip-sum`` route.
RECIP_ROUTES = (
    *((m1, m2, method) for method in ("horadam", "naive")
      for m1, m2 in ((1, 1), (2, 1), (1, 2))),
    (1, 1, "gosper"),
    (1, 1, "split"),
)


def commands() -> list[tuple[str, ...]]:
    """The argument lists whose outputs the fixture pins."""
    found = []
    for digits in (50, 300):
        for series, method, *operand_sets in EVAL_ROUTES:
            for operands in operand_sets:
                argv = ["eval", series, "--method", method]
                # One token, so that argparse does not take "-3/7" for an option.
                argv += [f"--{name}={value}" for name, value in operands.items()]
                found.append((*argv, "--digits", str(digits), "--report"))
    for m1, m2, method in RECIP_ROUTES:
        found.append((
            "recip-sum", "--m1", str(m1), "--m2", str(m2), "--method", method,
            "--digits", "300", "--report",
        ))
    found.append(("verify", "--all", "--trials", "10", "--digits", "50", "--report"))
    return found


def run(argv: tuple[str, ...]) -> dict:
    """The exit code and stdout of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue()}


def _golden() -> dict[str, dict]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_output_matches_the_pinned_one(argv: tuple[str, ...]) -> None:
    assert run(argv) == _golden()[" ".join(argv)]


def test_the_fixture_pins_exactly_these_commands() -> None:
    assert list(_golden()) == [" ".join(argv) for argv in commands()]


if __name__ == "__main__":
    pinned = {" ".join(argv): run(argv) for argv in commands()}
    FIXTURE.write_text(json.dumps(pinned, indent=1) + "\n")
    failed = [name for name, result in pinned.items() if result["code"] != 0]
    print(f"wrote {len(pinned)} outputs to {FIXTURE}; nonzero exit: {failed}")
    sys.exit(1 if failed else 0)
