"""Exact elements of Q(beta) and their term kernel (``qlambert.quadratic``)."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import qlambert
from qlambert import Factor, HoradamSequence, QTerm, make_context, qcore
from qlambert import quadratic, recurrences
from qlambert.lambert import _glambert_theta, _lambert_theta, _qxt_alt
from qlambert.quadratic import Quadratic, root

SHAPES = ("qxt bracket", "lambert ratio", "weight alone", "one denominator", "pochhammer")


def _draw_fields(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """``count`` pairs ``(m1, m2)``, ``|m2| <= 5``, whose discriminant is
    positive and not a square."""
    fields = []
    while len(fields) < count:
        m1, m2 = rng.randint(1, 6), rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        delta = m1 * m1 + 4 * m2
        if delta > 0 and math.isqrt(delta) ** 2 != delta and (m1, m2) not in fields:
            fields.append((m1, m2))
    return fields


FIELDS = _draw_fields(random.Random(20), 6)


def _shapes(field: tuple[int, int], exact: bool = True) -> dict:
    """The descriptions the routes sum, built under the current context from
    ``beta`` of ``field``: exact, or the ``Decimal`` values of the exact
    parameters."""
    beta = root(*field)
    b2 = beta * beta
    x, q = -beta / field[1], -b2 / field[1]
    if not exact:
        beta, b2, x, q = map(Decimal, (beta, b2, x, q))
    return {
        "qxt bracket": _glambert_theta(x, q),
        "lambert ratio": _lambert_theta(b2),
        "weight alone": QTerm(beta, start=beta, theta=(2, 1), first=1),
        "one denominator": QTerm(
            b2, start=b2, theta=(1, 1), factors=(Factor(1, power=-1),), first=1
        ),
        "pochhammer": _qxt_alt(x, beta, q),
    }


def _summands(d: QTerm, precisions: list[int], context) -> list[Decimal]:
    """The kernel's summands from ``first``, each at its precision."""
    with localcontext(context) as local:
        term = qcore._kernel(d)
        values = []
        for n, prec in enumerate(precisions, d.first):
            local.prec = prec
            values.append(term(n))
        return values


def _rounding(prec: int) -> Decimal:
    """``u(prec) = 10**(1 - prec) / 2``, one rounding at ``prec`` digits."""
    return Decimal(5).scaleb(-prec)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("digits", (300, 1000))
@pytest.mark.parametrize("tapered", (False, True), ids=("full", "tapered"))
def test_field_summands_are_within_the_rounding_count(field, shape, digits, tapered) -> None:
    """Summand ``j`` from the first is within ``7*(j + 2)`` roundings of the
    ``Decimal`` kernel's summand at 60 more digits (``quadratic`` docstring)."""
    ctx = make_context(digits)
    wide = make_context(digits, ctx.guard_digits + 60).dec
    count = 40
    if tapered:
        precisions = [max(100, ctx.working_digits - 23 * j) for j in range(count)]
    else:
        precisions = [ctx.working_digits] * count
    with localcontext(ctx.dec):
        d = _shapes(field)[shape]
    assert type(d.q) is Quadratic
    with localcontext(wide):
        reference = _shapes(field, exact=False)[shape]
    expected = _summands(reference, [wide.prec] * count, wide)
    got = _summands(d, precisions, ctx.dec)
    for j, (value, true, prec) in enumerate(zip(got, expected, precisions)):
        assert abs(value - true) <= 7 * (j + 2) * _rounding(prec) * abs(true), (j, prec)


def test_arithmetic_is_exact_in_the_field() -> None:
    with localcontext(make_context(300).dec):
        beta = root(1, 3)
        assert (beta * beta).coords == (3, 1, 1)  # beta**2 = m1*beta + m2
        # beta**K = f_K*beta + m2*f_{K-1}, the Horadam numbers of (1, 3).
        seq = HoradamSequence(1, 3)
        for k in range(2, 30):
            f_k, f_before = recurrences.horadam_term(seq, k), recurrences.horadam_term(seq, k - 1)
            assert (beta**k).coords == (3 * f_before, f_k, 1)
        x = (2 - 3 * beta) / Fraction(7, 5)
        assert type(x) is Quadratic
        one = x * (1 / x)
        g, h, d = one.coords
        assert h == 0 and g == d and one == 1
        assert type(beta + Decimal("0.5")) is Decimal
        assert -(-beta) == beta and type(-beta) is Quadratic


@pytest.mark.parametrize("field", FIELDS + [(1, 1)], ids=str)
@pytest.mark.parametrize("digits", (30, 301, 1062))
def test_values_are_rounded_to_the_current_precision(field, digits) -> None:
    """An element's ``Decimal`` value is within one rounding at the current
    precision of its exact value, and ``beta``'s is the nearest."""
    m1, m2 = field
    ctx = make_context(digits, 0)
    with localcontext(ctx.dec):
        beta = root(m1, m2)
        elements = [beta, beta**7, (1 - beta**3) / (2 + beta), -beta**2 / m2]
    exact = Decimal(m1 * m1 + 4 * m2)
    with localcontext(make_context(digits + 200, 0).dec):
        true_beta = (m1 - exact.sqrt()) / 2
        truths = [true_beta, true_beta**7, (1 - true_beta**3) / (2 + true_beta), -true_beta**2 / m2]
    for value, true in zip(elements, truths):
        assert len(value.as_tuple().digits) <= digits
        assert abs(Decimal(value) - true) <= _rounding(digits) * abs(true) * Decimal("1.0001")
    # beta itself is correctly rounded.
    with localcontext(ctx.dec):
        assert Decimal(beta) == +true_beta


def test_beta_is_rounded_once_to_each_precision(monkeypatch) -> None:
    """``beta`` at a precision is the nearest value of that length, whatever
    longer value was computed before, halfway cases included."""
    field = (1, 1)
    quadratic._beta(field, 5300)
    for digits in (1000, 1062, 5260):
        beta = quadratic._beta(field, digits)
        assert len(beta.as_tuple().digits) == digits
        assert beta == quadratic._nearest_beta(field, digits)
    # A longer value halfway between two 20-digit ones, below beta.
    halfway = Decimal("-0.618033988749894848205")
    monkeypatch.setitem(quadratic._LONGEST, field, (21, halfway))
    assert quadratic._beta(field, 20) == Decimal("-0.61803398874989484820")
    above = Decimal("-0.618033988749894848215")
    monkeypatch.setitem(quadratic._LONGEST, field, (21, above))
    assert quadratic._beta(field, 20) == Decimal("-0.61803398874989484820")


def test_a_square_discriminant_keeps_the_decimal_kernel(monkeypatch) -> None:
    ctx = make_context(1000)
    assert recurrences._exact_root(HoradamSequence(1, 2), ctx) is None
    short = make_context(recurrences.FIELD_FROM, 0)
    assert recurrences._exact_root(HoradamSequence(1, 1), short) is None
    longer = make_context(recurrences.FIELD_FROM + 1, 0)
    assert type(recurrences._exact_root(HoradamSequence(1, 1), longer)) is Quadratic
    kernels = []
    original = qcore._kernel

    def spy(d, coeff=None):
        kernels.append(type(d.q))
        return original(d, coeff)

    monkeypatch.setattr(qcore, "_kernel", spy)
    recurrences.recip_sum_fast(HoradamSequence(1, 2), ctx)
    assert kernels and Quadratic not in kernels
    kernels.clear()
    recurrences.recip_sum_fast(HoradamSequence(1, 1), ctx)
    assert kernels == [Quadratic]


CHILD = """
import contextlib, io, sys
from qlambert.cli import main
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv.split())
    print("qlambert.quadratic" in sys.modules)
"""


def test_only_the_exact_reciprocal_sums_import_the_field_module() -> None:
    """verify, eval and the naive reciprocal sum never compile the module."""
    src = Path(qlambert.__file__).resolve().parent.parent
    commands = [
        "verify --all --trials 1 --digits 30",
        "eval lambert --q 1/3 --digits 1000",
        "eval glambert --x 0.6 --q=-31/53 --digits 1000",
        "recip-sum --m1 1 --m2 1 --method naive --digits 300",
        "recip-sum --m1 1 --m2 1 --digits 600",
        "recip-sum --m1 1 --m2 2 --digits 1000",
        "recip-sum --m1 1 --m2 1 --digits 1000",
    ]
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *commands],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.split() == ["False"] * 6 + ["True"]
