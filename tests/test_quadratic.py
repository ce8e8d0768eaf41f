"""Exact elements of Q(beta) (``qlambert.quadratic``) and the exact kernel's
sums at them (``qlambert.exact``)."""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlambert
from qlambert import Factor, HoradamSequence, QTerm, make_context, qcore
from qlambert import exact, quadratic, recurrences
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


def _precisions(ctx, tapered: bool, count: int = 40) -> list[int]:
    """The working precision of each of ``count`` summands: flat, or
    falling by 23 digits an index down to 100."""
    if tapered:
        return [max(100, ctx.working_digits - 23 * j) for j in range(count)]
    return [ctx.working_digits] * count


def _rounding(prec: int) -> Decimal:
    """``u(prec) = 10**(1 - prec) / 2``, one rounding at ``prec`` digits."""
    return Decimal(5).scaleb(-prec)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("digits", (300, 1000))
@pytest.mark.parametrize("tapered", (False, True), ids=("full", "tapered"))
def test_field_summands_are_within_the_rounding_count(field, shape, digits, tapered) -> None:
    """Summand ``j`` from the first is within ``7*(j + 2)`` roundings of the
    ``Decimal`` kernel's summand at 60 more digits (``exact`` docstring)."""
    ctx = make_context(digits)
    wide = make_context(digits, ctx.guard_digits + 60).dec
    precisions = _precisions(ctx, tapered)
    count = len(precisions)
    with localcontext(ctx.dec):
        d = _shapes(field)[shape]
    assert type(d.q) is Quadratic
    with localcontext(wide):
        reference = _shapes(field, exact=False)[shape]
    expected = _summands(reference, [wide.prec] * count, wide)
    got = _summands(d, precisions, ctx.dec)
    for j, (value, true, prec) in enumerate(zip(got, expected, precisions)):
        assert abs(value - true) <= 7 * (j + 2) * _rounding(prec) * abs(true), (j, prec)


#: SHA-256 of the ``repr`` of the first 40 summands at 1000 digits, one per
#: line, where ``m2 = -1`` or ``1``, so that ``q = -beta**2/m2`` has
#: denominator 1.
FIELD_DIGESTS = {
    ((1, 1), "qxt bracket", "flat"):
        "5f01bb7427220b795f5c5abc9a52fdf85fcf5c31c510754250c3413b39413681",
    ((1, 1), "qxt bracket", "tapered"):
        "00f88e038272cd45778da659d48c10366118163d2ecffd0a0e021475033322ca",
    ((1, 1), "lambert ratio", "flat"):
        "6fed96de56f7aad819c9ef36d6ea37ef7552d10713856ec39a7161c929440718",
    ((1, 1), "lambert ratio", "tapered"):
        "6250afae1ff98d38cb0b9e20f214b2179277d2be2c5887ac5c60bb8d5c382cb6",
    ((1, 1), "weight alone", "flat"):
        "681ae5672cc0eaa16af2c9fd4f002c585791e97702fb96cfe63929189cc1cc46",
    ((1, 1), "weight alone", "tapered"):
        "96644b281e0b0f06287ac64b787cb556ed92c1c31adf45a8f93cb8be5a260025",
    ((1, 1), "one denominator", "flat"):
        "c162ead2b74f7aeddf9918d9e015a8e79707b637a12f6afa95cfc63409023702",
    ((1, 1), "one denominator", "tapered"):
        "c13f67fabbb417344d8609beede588b2e5b7eaa917ad9469ed57ffb6dce08923",
    ((1, 1), "pochhammer", "flat"):
        "84b869701578d8107dedbcee62b00a791fd3510c729be567cc6a6f22427532cf",
    ((1, 1), "pochhammer", "tapered"):
        "01c473b3e0c6263252b800354a54a408dd038a1eda7f59663db89f9e9664b62c",
    ((4, -1), "qxt bracket", "flat"):
        "5706e6dbdd6d115be1f29323b6995e59a28d2b66779b3d78ca0c4cc55b756c65",
    ((4, -1), "qxt bracket", "tapered"):
        "c5e1d221e083fb80446c358eb6f725cb4265865ab24334fbbf62662e729f58c7",
    ((4, -1), "lambert ratio", "flat"):
        "0037dcbeaf42d347623957498dc2268a03f8a8e0a7ce8c0768eff312c9b60008",
    ((4, -1), "lambert ratio", "tapered"):
        "4eac5cabe22b030b9fd4fb2559abea746d2995b0781524781e42fc361e4a2b83",
    ((4, -1), "weight alone", "flat"):
        "f60f8fbce0fb6f23d5a92e3ae4be1a90f5ee77c65b19d47ecb19f33878dd55c0",
    ((4, -1), "weight alone", "tapered"):
        "e25dfa12741aa87267e8066edaaf631c0b7e7987b182d19cd9136c167b19858f",
    ((4, -1), "one denominator", "flat"):
        "4c7f7bede90bd7972c8ae8f91a54324ed43d5095a508c83e8371f6908bc8f102",
    ((4, -1), "one denominator", "tapered"):
        "8b58a6bf1cb56895b5554e897f4b762f4c974683822224bf28d67552fd17b6cb",
    ((4, -1), "pochhammer", "flat"):
        "23605cef8496a8fc06a65a95a617e69dc975f1b40b312ddce4e88d303219b0e1",
    ((4, -1), "pochhammer", "tapered"):
        "ec0722aad2eeb01240c129629073f8023703ac26d6eb88a17c34dca4d51f1133",
}


@pytest.mark.parametrize("field", [(1, 1), (4, -1)], ids=str)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("tapered", (False, True), ids=("flat", "tapered"))
def test_field_summands_are_pinned(field, shape, tapered) -> None:
    """Every digit of every summand, also those that printed values round away."""
    ctx = make_context(1000)
    with localcontext(ctx.dec):
        d = _shapes(field)[shape]
    summands = _summands(d, _precisions(ctx, tapered), ctx.dec)
    digest = hashlib.sha256("\n".join(map(repr, summands)).encode()).hexdigest()
    assert digest == FIELD_DIGESTS[field, shape, "tapered" if tapered else "flat"]


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
        assert type(x) is Quadratic and x.coords == (10, -15, 7)
        # A rational divisor is inverted by swapping it in, its sign moved to
        # the numerator, not through its norm, which would square it.
        assert (-beta / 3).coords == (0, -1, 3)
        assert (-beta * beta / 3).coords == (-3, -1, 3)
        assert (beta / -3).coords == (0, -1, 3)
        assert (1 / Quadratic((1, 3), -2)).coords == (-1, 0, 2)
        one = x * (1 / x)
        g, h, d = one.coords
        assert h == 0 and g == d and one == 1
        assert type(beta + Decimal("0.5")) is Decimal
        assert -(-beta) == beta and type(-beta) is Quadratic


#: Fields of the model test, ``(m1, m2)`` with ``delta = m1**2 + 4*m2``.
MODEL_FIELDS = [(1, 1), (1, 3), (2, 1), (3, 2), (4, -1)]

#: ``(g, h, d)`` of an element ``(g + h*beta)/d``.
_elements = st.tuples(st.integers(-60, 60), st.integers(-60, 60), st.integers(1, 12))


def _model_times(x, y, delta: int):
    """The product of ``a1 + b1*sqrt(delta)`` and ``a2 + b2*sqrt(delta)``."""
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 + delta * b1 * b2, a1 * b2 + a2 * b1


def _model_power(x, k: int, delta: int):
    """``x**k``, for ``k < 0`` through ``1/(a + b*sqrt(delta)) = (a -
    b*sqrt(delta))/(a**2 - delta*b**2)``, by repeated products."""
    if k < 0:
        a, b = x
        norm = a * a - delta * b * b
        x, k = (a / norm, -b / norm), -k
    result = (Fraction(1), Fraction(0))
    for _ in range(k):
        result = _model_times(result, x, delta)
    return result


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from(MODEL_FIELDS),
    x=_elements,
    y=_elements,
    r=st.one_of(
        st.integers(-30, 30),
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
    ),
    k=st.integers(-3, 6),
)
def test_field_arithmetic_matches_an_independent_model(field, x, y, r, k) -> None:
    """``+ - * /``, ``**`` and negation, with elements, ints and ``Fraction``
    values on either side, against ``a + b*sqrt(delta)`` over ``Fraction``
    values, with ``beta = (m1 - sqrt(delta))/2``; each result is an element
    ``(g + h*beta)/d`` with ``d > 0``."""
    m1, m2 = field
    delta = m1 * m1 + 4 * m2
    model_beta = (Fraction(m1, 2), Fraction(-1, 2))

    def model(value):
        if type(value) is not Quadratic:
            return Fraction(value), Fraction(0)
        g, h, d = value.coords
        assert d > 0
        return Fraction(2 * g + h * m1, 2 * d), Fraction(-h, 2 * d)

    def plus(u, v):
        return u[0] + v[0], u[1] + v[1]

    def minus(u):
        return -u[0], -u[1]

    with localcontext(make_context(60).dec):
        beta = root(*field)
        a, b = ((g + h * beta) / d for g, h, d in (x, y))
        ma, mb, mr = model(a), model(b), model(r)
        for element, (g, h, d) in ((ma, x), (mb, y)):
            built = plus((Fraction(g), Fraction(0)), _model_times((h, 0), model_beta, delta))
            assert element == (built[0] / d, built[1] / d)
        cases = [
            (a + b, plus(ma, mb)),
            (a - b, plus(ma, minus(mb))),
            (a * b, _model_times(ma, mb, delta)),
            (a + r, plus(ma, mr)),
            (r + a, plus(mr, ma)),
            (a - r, plus(ma, minus(mr))),
            (r - a, plus(mr, minus(ma))),
            (a * r, _model_times(ma, mr, delta)),
            (r * a, _model_times(mr, ma, delta)),
            (-a, minus(ma)),
        ]
        if any(ma):
            cases.append((a**k, _model_power(ma, k, delta)))
            cases.append((r / a, _model_times(mr, _model_power(ma, -1, delta), delta)))
        if any(mb):
            cases.append((a / b, _model_times(ma, _model_power(mb, -1, delta), delta)))
        if r:
            cases.append((a / r, _model_times(ma, _model_power(mr, -1, delta), delta)))
        for got, want in cases:
            assert type(got) is Quadratic and got.field == field
            assert model(got) == want
        # A product whose beta cancels is an int: (2*beta - m1)**2 = delta.
        square = (2 * beta - m1) ** 2
        assert square.coords == (delta, 0, 1) and square == delta
        assert quadratic.Pair(-m1, 2, field) ** 2 == delta
        assert type(quadratic.Pair(-m1, 2, field) * quadratic.Pair(-m1, 2, field)) is int


def test_a_field_description_never_hands_over() -> None:
    """The rule that turns a rational kernel's running values into
    ``Decimal`` values (``exact._pair_limit``) does not apply in the field:
    at (1, 3) ``q`` has a denominator, whose powers pass that limit within
    these 200 tapered summands."""
    ctx = make_context(1000)
    precisions = _precisions(ctx, True, 200)
    with localcontext(ctx.dec) as local:
        d = _shapes((1, 3))["qxt bracket"]
        power = d.q.coords[2] ** (2 * len(precisions))
        assert power.bit_length() > exact._pair_limit(precisions[-1])
        term = qcore._kernel(d)
        for n, prec in enumerate(precisions, d.first):
            local.prec = prec
            term(n)
    assert term.switched_at() is None


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
