"""Bilateral Jordan-Kronecker sums: four routes, one value."""

from __future__ import annotations

from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlambert import (
    BilateralParams,
    DomainError,
    PoleError,
    jordan_direct,
    jordan_form1,
    jordan_form2,
    jordan_theta,
    make_context,
    parse_real,
    qcore,
)
from qlambert.bilateral import (
    _exact_sides,
    _form1_exact,
    _form1_minus,
    _form1_plus,
    _form2_exact,
    _form2_minus,
    _form2_plus,
    _minus_theta,
)
from qlambert.exact import _pair_limit
from qlambert.lambert import _qxt_theta
from qlambert.qcore import bracketed_terms

from _oracles import JORDAN_A, JORDAN_B
from test_qterm import ROUNDINGS_PER_INDEX, _amplifications

ALL_FORMS = (jordan_direct, jordan_theta, jordan_form1, jordan_form2)

#: Points inside the wedge |q| < |x|, |t| < 1, including negative q, values
#: hugging the wedge edges, and the x*t = q zero of the theta weights.
POINTS = (
    ("0.5", "0.6", "0.2"),
    ("0.4", "0.7", "0.15"),
    ("0.5", "0.5", "-0.3"),
    ("-0.6", "0.35", "0.3"),
    ("0.9", "0.85", "0.8"),
    ("0.5", "0.5", "0.25"),
)


class TestValues:
    def test_direct_route_matches_oracles(self, ctx30) -> None:
        a = jordan_direct(BilateralParams(Decimal("0.5"), Decimal("0.6"), Decimal("0.2")), ctx30)
        b = jordan_direct(BilateralParams(Decimal("0.4"), Decimal("0.7"), Decimal("0.15")), ctx30)
        assert abs(a.value - JORDAN_A) <= a.tail_bound
        assert abs(b.value - JORDAN_B) <= b.tail_bound

    @pytest.mark.parametrize(("x", "t", "q"), POINTS)
    def test_all_four_routes_agree(self, x: str, t: str, q: str, ctx30) -> None:
        params = BilateralParams(Decimal(x), Decimal(t), Decimal(q))
        results = [fn(params, ctx30) for fn in ALL_FORMS]
        for i, first in enumerate(results):
            for second in results[i + 1 :]:
                limit = first.tail_bound + second.tail_bound
                assert abs(first.value - second.value) <= limit

    @pytest.mark.parametrize(("x", "t", "q"), POINTS)
    def test_symmetry_in_x_and_t(self, x: str, t: str, q: str, ctx30) -> None:
        forward = jordan_direct(BilateralParams(Decimal(x), Decimal(t), Decimal(q)), ctx30)
        swapped = jordan_direct(BilateralParams(Decimal(t), Decimal(x), Decimal(q)), ctx30)
        limit = forward.tail_bound + swapped.tail_bound
        assert abs(forward.value - swapped.value) <= limit

    def test_theta_route_beats_direct_on_term_count(self, ctx50) -> None:
        params = BilateralParams(Decimal("0.9"), Decimal("0.85"), Decimal("0.8"))
        direct = jordan_direct(params, ctx50)
        theta = jordan_theta(params, ctx50)
        assert theta.terms_used < direct.terms_used / 4


class TestDomain:
    def test_zero_q_rejected(self, ctx30) -> None:
        with pytest.raises(DomainError):
            jordan_direct(
                BilateralParams(Decimal("0.5"), Decimal("0.5"), Decimal(0)), ctx30
            )

    def test_t_at_or_below_q_rejected(self, ctx30) -> None:
        with pytest.raises(DomainError):
            jordan_direct(
                BilateralParams(Decimal("0.5"), Decimal("0.2"), Decimal("0.2")), ctx30
            )

    def test_x_at_or_above_one_rejected(self, ctx30) -> None:
        with pytest.raises(DomainError):
            jordan_direct(
                BilateralParams(Decimal(1), Decimal("0.5"), Decimal("0.2")), ctx30
            )

    def test_x_within_tolerance_of_a_q_power_is_a_pole(self, ctx30) -> None:
        x = Decimal("0.2") + Decimal(1).scaleb(-21)
        with pytest.raises(PoleError):
            jordan_direct(
                BilateralParams(x, Decimal("0.5"), Decimal("0.2")), ctx30
            )

    @pytest.mark.parametrize(
        ("x", "t"),
        [
            # t at q**1 on the negative side, 1 - q/t.
            ("0.5", Decimal("0.2") + Decimal(1).scaleb(-21)),
            # x at q**0 on the nonnegative side, 1 - x.
            (1 - Decimal(1).scaleb(-25), "0.5"),
        ],
    )
    def test_parameters_within_tolerance_of_a_pole_are_rejected(
        self, x, t, ctx30
    ) -> None:
        params = BilateralParams(Decimal(x), Decimal(t), Decimal("0.2"))
        for route in ALL_FORMS:
            with pytest.raises(PoleError):
                route(params, ctx30)


# ---------------------------------------------------------------------------
# The bracket forms with exact parameters: int-ratio brackets until r**n
# passes the exact kernel's limit, then the Decimal brackets.

#: (Decimal brackets of the n >= 0 and n = -m sides, exact bracket) per form.
FORMS = {
    jordan_form1: ((_form1_plus, _form1_minus), _form1_exact),
    jordan_form2: ((_form2_plus, _form2_minus), _form2_exact),
}

#: Precisions of the summands of one side: working digits at 300 and 1000
#: digits, then two drops, so that most sides switch mid-sum.
BRACKET_PRECISIONS = [
    [make_context(300).working_digits] * 30 + [180] * 30 + [100] * 30,
    [make_context(1000).working_digits] * 30 + [500] * 30 + [100] * 30,
]

#: A long point whose r**n passes the limit mid-sum at 300 digits, after the
#: engine has tapered: |q| near 0.9, |x| and |t| near 0.95.  The mpmath
#: oracle file checks the value there.
SWITCH_POINT = ("91/97", "-96/101", "80/89")


#: The descriptions of the n >= 0 and n = -m sides of the bracket forms.
SIDES = (_qxt_theta, _minus_theta)


@st.composite
def exact_points(draw) -> tuple[Fraction, Fraction, Fraction]:
    """Short rationals with ``|q| + 1/50 <= |x|, |t| <= 0.96`` and ``|q| <= 0.9``:
    every difference of a bracket stays at least 1/50 of the larger term."""

    def ratio(low: Fraction, high: Fraction) -> Fraction:
        denominator = draw(st.integers(50, 2**20))
        numerator = draw(st.integers(
            int(low * denominator) + 1, int(high * denominator)
        ))
        return Fraction(numerator, denominator) * draw(st.sampled_from((1, -1)))

    q = ratio(Fraction(0), Fraction(9, 10))
    x, t = (ratio(abs(q) + Fraction(1, 50), Fraction(24, 25)) for _ in range(2))
    return x, t, q


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(exact_points(), st.sampled_from(list(FORMS)), st.sampled_from(BRACKET_PRECISIONS))
def test_exact_brackets_match_the_decimal_brackets(point, form, precisions) -> None:
    """Summand ``j`` of each side is within ``20*(j+2)`` roundings at its
    precision, amplified by the differences of the ``Decimal`` brackets (those
    of the factors), of the same summand from the ``Decimal`` brackets at 30
    more digits."""
    x, t, q = point
    brackets, exact = FORMS[form]
    wide = precisions[0] + 30
    with localcontext(Context(prec=precisions[0])):
        # x and t as the exact brackets' switch takes them, at working digits.
        x_work, t_work = (Decimal(v.numerator) / v.denominator for v in (x, t))
    with localcontext(Context(prec=wide)):
        x_dec, t_dec, q_dec = (Decimal(v.numerator) / v.denominator for v in point)
        references = [build(x_dec, t_dec, q_dec) for build in SIDES]
    for build, bracket, pair, reference_series in zip(
        SIDES, brackets, _exact_sides(exact, x, t), references
    ):
        series = build(x, t, q)
        with localcontext(Context(prec=precisions[0])):
            term = bracketed_terms(series, partial(bracket, x_work, t_work), pair)
        with localcontext(Context(prec=wide)):
            reference = bracketed_terms(reference_series, partial(bracket, x_dec, t_dec))
        amplifications = _amplifications(series, len(precisions))
        for j, prec in enumerate(precisions):
            n = series.first + j
            with localcontext(Context(prec=prec)):
                got = term(n)
            with localcontext(Context(prec=prec + 30)):
                want = reference(n)
            amplification = Decimal(amplifications[j])
            rounding = Decimal(10) ** (1 - prec) / 2
            allowed = ROUNDINGS_PER_INDEX * (j + 2) * (1 + amplification) * rounding
            with localcontext(Context(prec=prec + 60)):
                assert abs(got - want) <= allowed * abs(want), (n, prec, got, want)


@pytest.mark.parametrize("form", list(FORMS), ids=["form1", "form2"])
def test_exact_brackets_switch_where_the_rule_says(form, monkeypatch) -> None:
    """In a real sum each side switches mid-sum, at the first index whose
    ``r**n`` is longer than :func:`_pair_limit` of the precision the engine
    runs that index at."""
    runs = []

    def recorded(*args):
        term = bracketed_terms(*args)
        precisions = []

        def recording(n: int):
            precisions.append((n, getcontext().prec))
            return term(n)

        runs.append((args[0].q.denominator, term, precisions))
        return recording

    monkeypatch.setattr(qcore, "bracketed_terms", recorded)
    ctx = make_context(300)
    form(BilateralParams(*(parse_real(value, ctx) for value in SWITCH_POINT)), ctx)
    assert len(runs) == 2
    for r, term, precisions in runs:
        long = [n for n, prec in precisions if (r**n).bit_length() > _pair_limit(prec)]
        assert term.switched_at() == long[0]
        assert precisions[0][0] < long[0] < precisions[-1][0]
