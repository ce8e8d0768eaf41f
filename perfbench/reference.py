"""Output checks that use mpmath and no ``qlambert`` code.

Every ``eval`` and ``recip-sum`` output is compared with a reference computed
by mpmath at :data:`EXTRA_DIGITS` more digits than the command printed: a
direct sum of the defining series, ``jtheta`` for ``theta3``, or a sum of
``1/f_n`` over exact Python integers.  An output is right when

    |printed value - reference| <= printed tail_bound + 1/2 unit in the last
    printed digit,

and its printed ``tail_bound`` is at most ``10^-digits * max(1, |value|)``,
the precision the command was asked for: an output that admits a larger
error is wrong even when the value lies within it.

A ``verify`` output is right when the command exits with 0 and reports
``"pass": true``: the identity held within 4 epsilon at the sampled point.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

#: Digits carried beyond the printed ones.
EXTRA_DIGITS = 25


def _real(text: str) -> mpf:
    """Exact value of a decimal or ``p/q`` literal at the current precision."""
    frac = Fraction(text)
    return mpf(frac.numerator) / frac.denominator


def _sum_until_small(terms, eps: mpf) -> mpf:
    """Sum an iterator of terms until two consecutive terms fall below eps."""
    total = mpf(0)
    small = 0
    for term in terms:
        total += term
        small = small + 1 if abs(term) < eps else 0
        if small >= 2:
            return total
    raise AssertionError("unreachable")


def qxt_sum(x: mpf, t: mpf, q: mpf, eps: mpf) -> mpf:
    """``sum_{n>=0} t^n / (1 - x q^n)``."""

    def terms():
        tn, qn = mpf(1), mpf(1)
        while True:
            yield tn / (1 - x * qn)
            tn *= t
            qn *= q

    return _sum_until_small(terms(), eps)


def glambert_sum(x: mpf, q: mpf, eps: mpf) -> mpf:
    """``sum_{n>=1} x q^n / (1 - x q^n)``; the Lambert series at ``x = 1``."""

    def terms():
        xqn = x * q
        while True:
            yield xqn / (1 - xqn)
            xqn *= q

    return _sum_until_small(terms(), eps)


def bilateral_sum(x: mpf, t: mpf, q: mpf, eps: mpf) -> mpf:
    """``sum_{n in Z} t^n / (1 - x q^n)``: the n >= 0 and n < 0 halves."""

    def negative():
        inv_t, inv_q = 1 / t, 1 / q
        tn, qn = inv_t, inv_q
        while True:
            yield tn / (1 - x * qn)
            tn *= inv_t
            qn *= inv_q

    return qxt_sum(x, t, q, eps) + _sum_until_small(negative(), eps)


def recip_sum(m1: int, m2: int, eps: mpf) -> mpf:
    """``sum_{n>=1} 1/f_n`` with ``f_0 = 0, f_1 = 1, f_n = m1 f_{n-1} + m2 f_{n-2}``."""

    def terms():
        previous, current = 0, 1
        while True:
            yield mpf(1) / current
            previous, current = current, m1 * current + m2 * previous

    return _sum_until_small(terms(), eps)


def _option(argv: list[str], name: str) -> str:
    """The value of ``name`` given as ``name VALUE`` or ``name=VALUE``."""
    for at, arg in enumerate(argv):
        if arg == name:
            return argv[at + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1 :]
    raise ValueError(f"{name} missing from {' '.join(argv)}")


def reference_value(argv: list[str]) -> mpf:
    """The reference for one ``eval`` or ``recip-sum`` command line.

    Computed at the command's ``--digits`` plus :data:`EXTRA_DIGITS`; the
    caller sets ``mp.dps``.
    """
    eps = mpf(10) ** (-mp.dps - 5)
    if argv[0] == "recip-sum":
        return recip_sum(int(_option(argv, "--m1")), int(_option(argv, "--m2")), eps)
    series = argv[1]
    q = _real(_option(argv, "--q"))
    if series == "lambert":
        return glambert_sum(mpf(1), q, eps)
    if series == "glambert":
        return glambert_sum(_real(_option(argv, "--x")), q, eps)
    if series == "theta3":
        return mpmath.jtheta(3, 0, q)
    x, t = _real(_option(argv, "--x")), _real(_option(argv, "--t"))
    if series == "qxt":
        return qxt_sum(x, t, q, eps)
    if series == "bilateral":
        return bilateral_sum(x, t, q, eps)
    raise ValueError(f"no reference for {' '.join(argv)}")


def _value_key(argv: list[str]) -> tuple[str, ...]:
    """``argv`` without the options that do not change the exact value."""
    key = list(argv)
    if "--method" in key:
        at = key.index("--method")
        del key[at : at + 2]
    return tuple(a for a in key if a != "--report")


def check_output(argv: list[str], code, stdout: str, cache: dict) -> str | None:
    """Why one outcome of ``argv`` is wrong, or ``None`` if it is right.

    ``cache`` maps a command's value-determining arguments to its reference
    within one check, so repeated commands are computed once.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return f"output is not one JSON object: {stdout[:80]!r}"
    if argv[0] == "verify":
        return None if report.get("pass") is True else f"identity failed: {stdout.strip()}"
    digits = int(_option(argv, "--digits"))
    value_text = report["value"]
    key = _value_key(argv)
    with mp.workdps(digits + EXTRA_DIGITS):
        if key not in cache:
            cache[key] = reference_value(argv)
        reference = cache[key]
        printed = mpf(value_text)
        tail = mpf(report["tail_bound"])
        ceiling = mpf(10) ** (-digits) * max(1, abs(printed))
        if tail > ceiling:
            return (
                f"tail_bound {report['tail_bound']} above the requested "
                f"{mpmath.nstr(ceiling, 5)}"
            )
        fraction_digits = len(value_text.partition(".")[2])
        half_unit = mpf(10) ** (-fraction_digits) / 2
        allowed = tail + half_unit
        deviation = abs(printed - reference)
        if deviation > allowed:
            return (
                f"value off by {mpmath.nstr(deviation, 5)}, "
                f"allowed {mpmath.nstr(allowed, 5)}"
            )
    return None
