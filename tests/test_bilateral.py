"""Bilateral Jordan-Kronecker sums: four routes, one value."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest

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
)

from _oracles import JORDAN_A, JORDAN_B

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
# The bracket forms with exact parameters sum the theta sides.

#: A long point whose r**n passes the exact kernel's pair limit mid-sum at
#: 300 digits, after the engine has tapered: |q| near 0.9, |x| and |t| near
#: 0.95.  The mpmath oracle file checks the value there.
SWITCH_POINT = ("91/97", "-96/101", "80/89")


@pytest.mark.parametrize("digits", [300, 1000])
@pytest.mark.parametrize("point", [SWITCH_POINT, ("35/59", "-31/61", "21/103")])
@pytest.mark.parametrize("form", [jordan_form1, jordan_form2], ids=["form1", "form2"])
def test_exact_bracket_forms_are_the_theta_route(form, point, digits: int) -> None:
    """With exact parameters each bracket is the exact rational that the
    theta kernel forms, so the bracket forms give the theta route's value,
    terms and bound, bit for bit, under their own tag."""
    ctx = make_context(digits)
    params = BilateralParams(*(parse_real(value, ctx) for value in point))
    assert all(type(value) is Fraction for value in (params.x, params.t, params.q))
    theta, got = jordan_theta(params, ctx), form(params, ctx)
    assert got.method_tag == form.__name__.removeprefix("jordan_")
    assert (repr(got.value), got.terms_used, repr(got.tail_bound)) == (
        repr(theta.value), theta.terms_used, repr(theta.tail_bound)
    )
