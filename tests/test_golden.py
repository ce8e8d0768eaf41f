"""Pinned command outputs: the printed digits, ``terms_used`` and ``tail_bound``.

``golden_outputs.json`` holds the exit code and stdout of a fixed list of
commands: every ``eval`` route with short (one-digit) and long (full-length
rational) operands at 50 and 300 digits, every ``recip-sum`` route at 300
and 1000 digits, the theta routes of ``lambert``, ``glambert``, ``qxt`` and
``theta3`` and the bilateral bracket routes ``form1`` and ``form2`` also at
1000 digits, sums at ``q = -80/89`` whose exact running powers outgrow
their int pairs mid-sum, theta sums with full-length ``Decimal`` operands,
the ``horadam``, ``split`` and ``gosper`` reciprocal sums at 5000 digits, and
``verify --all --trials 10 --digits 50 --report``.  A change to the engine
that keeps every summand and every stopping index leaves them byte for byte
as they are.  Regenerate the file
only for a change that alters them on purpose, and say why::

    PYTHONPATH=src python tests/test_golden.py

It prints each command whose output changes, with the old and the new
``value``, ``terms_used`` and ``tail_bound`` of every changed line, before
it writes the file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from itertools import zip_longest
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

#: The routes also pinned at 1000 digits, where long operands stay exact.
LONG_ROUTES = tuple(
    route for route in EVAL_ROUTES
    if route[1] == "theta" and route[0] != "bilateral"
    or route[0] == "bilateral" and route[1] in ("form1", "form2")
)

#: (m1, m2, method) of every ``recip-sum`` route, and the ``horadam`` route
#: at discriminants 13, 17 and 12, where ``m2 != 1`` and ``m2 < 0``.
RECIP_ROUTES = (
    *((m1, m2, method) for method in ("horadam", "naive")
      for m1, m2 in ((1, 1), (2, 1), (1, 2))),
    (1, 1, "gosper"),
    (1, 1, "split"),
    *((m1, m2, "horadam") for m1, m2 in ((1, 3), (3, 2), (4, -1))),
)

#: Exact sums whose running powers outgrow their int pairs mid-sum and go on
#: as ``Decimal`` values (at n = 90, 265, 141 and 90/91 for the two sides).
HANDOVER = (
    ("lambert", "theta", {"q": "-80/89"}, 1000),
    ("lambert", "theta", {"q": "-80/89"}, 5000),
    ("qxt", "alt", {"x": "35/59", "t": "-31/61", "q": "-80/89"}, 1000),
    ("bilateral", "theta", {"x": "92/97", "t": "-95/101", "q": "-80/89"}, 1000),
)

#: Theta sums whose operands are full-length ``Decimal`` values: the Lambert
#: series at ``q = 1/sqrt(2)`` and the generalized one at the golden ratio's
#: ``x = 1/phi``, ``q = -1/phi**2`` of the reciprocal Fibonacci sum.
FULL_LENGTH = (
    ("lambert", "theta", {"q": "0.7071067811865475244"}, 5000),
    (
        "glambert", "theta",
        {"x": "0.6180339887498948482", "q": "-0.3819660112501051518"}, 1000,
    ),
)

#: (m1, m2, method) of the ``recip-sum`` routes also pinned at 5000 digits.
LONG_RECIP_ROUTES = (
    (1, 1, "horadam"), (2, 1, "horadam"), (1, 1, "split"), (1, 1, "gosper"),
)


def _eval(series: str, method: str, operands: dict, digits: int) -> tuple[str, ...]:
    argv = ["eval", series, "--method", method]
    # One token, so that argparse does not take "-3/7" for an option.
    argv += [f"--{name}={value}" for name, value in operands.items()]
    return (*argv, "--digits", str(digits), "--report")


def commands() -> list[tuple[str, ...]]:
    """The argument lists whose outputs the fixture pins."""
    found = []
    for digits, routes in ((50, EVAL_ROUTES), (300, EVAL_ROUTES), (1000, LONG_ROUTES)):
        for series, method, *operand_sets in routes:
            for operands in operand_sets:
                found.append(_eval(series, method, operands, digits))
    found += [_eval(*route) for route in HANDOVER + FULL_LENGTH]
    recip = ((300, RECIP_ROUTES), (1000, RECIP_ROUTES), (5000, LONG_RECIP_ROUTES))
    for digits, routes in recip:
        for m1, m2, method in routes:
            found.append((
                "recip-sum", "--m1", str(m1), "--m2", str(m2), "--method", method,
                "--digits", str(digits), "--report",
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


#: The fields of an output line that a change report shows.
REPORTED = ("value", "terms_used", "tail_bound")


def _summary(line: str) -> str:
    """The reported fields of one output line, or the line itself."""
    try:
        fields = json.loads(line)
    except json.JSONDecodeError:
        return line
    if not isinstance(fields, dict) or not any(key in fields for key in REPORTED):
        return line
    return ", ".join(f"{key}={fields[key]}" for key in REPORTED if key in fields)


def changes(old: dict | None, new: dict) -> list[str]:
    """The report lines for one command whose pinned outcome was ``old``."""
    if old == new:
        return []
    if old is None:
        return ["  (not pinned before)"]
    report = []
    if old["code"] != new["code"]:
        report.append(f"  exit code {old['code']} -> {new['code']}")
    old_lines, new_lines = old["stdout"].splitlines(), new["stdout"].splitlines()
    for before, after in zip_longest(old_lines, new_lines, fillvalue=""):
        if before != after:
            report += [f"  old: {_summary(before)}", f"  new: {_summary(after)}"]
    return report


def test_a_change_report_shows_the_old_and_new_fields() -> None:
    line = '{{"series": "lambert", "value": "{}", "terms_used": {}, "tail_bound": "{}"}}'
    old = {"code": 0, "stdout": line.format("0.5", 9, "1E-60") + "\n"}
    new = {"code": 0, "stdout": line.format("0.6", 8, "2E-60") + "\n"}
    assert changes(old, old) == []
    assert changes(old, new) == [
        "  old: value=0.5, terms_used=9, tail_bound=1E-60",
        "  new: value=0.6, terms_used=8, tail_bound=2E-60",
    ]
    assert changes(None, new) == ["  (not pinned before)"]


if __name__ == "__main__":
    previous = _golden() if FIXTURE.exists() else {}
    pinned = {" ".join(argv): run(argv) for argv in commands()}
    changed = 0
    for name, outcome in pinned.items():
        report = changes(previous.get(name), outcome)
        if report:
            changed += 1
            print(f"changed: {name}", *report, sep="\n")
    print(f"{changed} of {len(pinned)} outputs changed")
    FIXTURE.write_text(json.dumps(pinned, indent=1) + "\n")
    failed = [name for name, result in pinned.items() if result["code"] != 0]
    print(f"wrote {len(pinned)} outputs to {FIXTURE}; nonzero exit: {failed}")
    sys.exit(1 if failed else 0)
