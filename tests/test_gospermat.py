"""Gosper's 2x2 matrix family: entries, exchange relation, products."""

from __future__ import annotations

import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from qlambert import (
    DomainError,
    Mat2,
    exchange_check,
    lambert_naive,
    make_context,
    matK,
    matN,
    product_factor_count,
    product_upper_right,
)
from qlambert.gospermat import LEFT, RIGHT
from qlambert.numerics import as_decimal

from _oracles import product_factor_count_walk


class TestMatrixEntries:
    def test_matK_small_point(self, ctx30) -> None:
        q = Decimal("0.1")
        mat = matK(1, 0, q, ctx30)
        with localcontext(ctx30.dec):
            expected_u = q * (1 - q**2) / ((1 - q) * (1 - q))
        assert mat.p == Decimal("0.001")
        assert abs(mat.u - expected_u) < Decimal("1e-38")

    def test_matN_small_point(self, ctx30) -> None:
        mat = matN(1, 1, Decimal("0.5"), ctx30)
        with localcontext(ctx30.dec):
            expected_u = Decimal("0.5") / (1 - Decimal("0.25"))
        assert mat.p == Decimal("0.5")
        assert abs(mat.u - expected_u) < Decimal("1e-38")

    def test_matK_limit_in_n(self, ctx30) -> None:
        q = Decimal("0.3")
        mat = matK(2, None, q, ctx30)
        with localcontext(ctx30.dec):
            expected_u = q / (1 - q**2)
        assert mat.p == 0
        assert abs(mat.u - expected_u) < Decimal("1e-38")

    def test_matN_limit_in_k(self, ctx30) -> None:
        q = Decimal("0.3")
        mat = matN(None, 5, q, ctx30)
        assert mat.p == 0
        assert mat.u == q

    def test_invalid_indices_rejected(self, ctx30) -> None:
        q = Decimal("0.3")
        with pytest.raises(DomainError):
            matK(0, 1, q, ctx30)
        with pytest.raises(DomainError):
            matN(1, -1, q, ctx30)

    def test_unit_q_rejected(self, ctx30) -> None:
        with pytest.raises(DomainError):
            matK(1, 1, Decimal(1), ctx30)


class TestMat2:
    def test_product_rule(self) -> None:
        a = Mat2(Decimal(2), Decimal(3))
        b = Mat2(Decimal(5), Decimal(7))
        ab = a.mul(b)
        assert (ab.p, ab.u) == (Decimal(10), Decimal(17))

    def test_multiplication_is_associative(self) -> None:
        a = Mat2(Decimal("0.5"), Decimal(1))
        b = Mat2(Decimal(3), Decimal("-2"))
        c = Mat2(Decimal("0.25"), Decimal(4))
        left = a.mul(b).mul(c)
        right = a.mul(b.mul(c))
        assert (left.p, left.u) == (right.p, right.u)


class TestExchangeRelation:
    @pytest.mark.parametrize("q_text", ["0.3", "-0.3", "0.7"])
    def test_residual_below_rounding_allowance(self, q_text: str, ctx30) -> None:
        q = Decimal(q_text)
        allowance = Decimal(1).scaleb(-(ctx30.working_digits - 6))
        for k in range(1, 11):
            for n in range(0, 11):
                assert exchange_check(k, n, q, ctx30) <= allowance

    def test_zero_q_residual_is_zero(self, ctx30) -> None:
        assert exchange_check(3, 2, Decimal(0), ctx30) == 0


class TestProducts:
    def test_left_product_matches_closed_form(self, ctx40) -> None:
        q = Decimal("0.3")
        count = 20
        value = product_upper_right(LEFT, count, q, ctx40)
        with localcontext(ctx40.dec):
            expected = q ** (count + 1) / (1 - q)
            power = Decimal(1)
            for m in range(1, count + 1):
                power *= q
                expected += power / (1 - power)
        assert abs(value - expected) < Decimal(1).scaleb(-(ctx40.working_digits - 8))

    def test_right_product_matches_closed_form(self, ctx40) -> None:
        q = Decimal("0.3")
        count = 20
        value = product_upper_right(RIGHT, count, q, ctx40)
        with localcontext(ctx40.dec):
            expected = q ** ((count + 1) ** 2)
            for k in range(1, count + 1):
                qk = q**k
                expected += q ** (k * k) * (1 + qk) / (1 - qk)
        assert abs(value - expected) < Decimal(1).scaleb(-(ctx40.working_digits - 8))

    def test_long_products_converge_to_lambert(self, ctx40) -> None:
        q = Decimal("0.3")
        oracle = lambert_naive(q, ctx40)
        for side in (LEFT, RIGHT):
            value = product_upper_right(side, 50, q, ctx40)
            assert abs(value - oracle.value) < Decimal("1e-30")

    def test_factor_count_clears_epsilon(self, ctx40) -> None:
        q = Decimal("0.3")
        count = product_factor_count(q, ctx40)
        assert count == 85
        with localcontext(ctx40.dec):
            assert abs(q) ** (count - 8) < ctx40.epsilon

    def test_invalid_product_arguments_rejected(self, ctx30) -> None:
        with pytest.raises(DomainError):
            product_upper_right("middle", 10, Decimal("0.3"), ctx30)
        with pytest.raises(DomainError):
            product_upper_right(LEFT, 0, Decimal("0.3"), ctx30)
        with pytest.raises(DomainError):
            product_upper_right(LEFT, 10, Decimal(0), ctx30)


@pytest.mark.parametrize(
    "call",
    [
        lambda q, ctx: exchange_check(2, 3, q, ctx),
        lambda q, ctx: product_upper_right(LEFT, 12, q, ctx),
        lambda q, ctx: product_upper_right(RIGHT, 12, q, ctx),
        product_factor_count,
    ],
    ids=["exchange_check", "left", "right", "product_factor_count"],
)
def test_a_fraction_q_acts_as_its_decimal_value(call, ctx30) -> None:
    q = Fraction(-5, 13)
    assert call(q, ctx30) == call(as_decimal(q, ctx30), ctx30)


def test_environment_uses_distinct_side_labels() -> None:
    assert LEFT != RIGHT


def test_products_at_fifty_digits() -> None:
    ctx = make_context(50)
    q = Decimal("0.5")
    count = product_factor_count(q, ctx)
    left = product_upper_right(LEFT, count, q, ctx)
    right = product_upper_right(RIGHT, count, q, ctx)
    with localcontext(ctx.dec):
        assert abs(left - right) < Decimal(1).scaleb(-(ctx.working_digits - 10))

class TestFactorCount:
    """``product_factor_count`` from :func:`~qlambert.qcore.crossing`,
    against the walk that multiplies ``|q|`` down one step at a time."""

    @pytest.mark.parametrize("digits", [10, 30, 50, 200])
    def test_counts_as_the_walk_does(self, digits: int) -> None:
        ctx = make_context(digits)
        rng = random.Random(digits)
        points = ["0.3", "0.5", "-0.3", "0.1", "0.7", "0.000001", "0.0000000000000000001"]
        points += [str(round(rng.uniform(-0.99, 0.99), rng.randint(1, 30))) for _ in range(30)]
        for text in points:
            q = Decimal(text)
            if q:
                assert product_factor_count(q, ctx) == product_factor_count_walk(q, ctx), text

    def test_counts_as_the_walk_does_next_to_the_cap(self) -> None:
        """At 10 digits a count past 20 000 is refused: M + 8 = 20 000 is
        near q = 0.998849."""
        ctx = make_context(10)
        for step in range(-20, 21):
            q = Decimal("0.998849") + step * Decimal("0.0000001")
            walked = product_factor_count_walk(q, ctx)
            if walked <= 20_000:
                assert product_factor_count(q, ctx) == walked
            else:
                with pytest.raises(DomainError, match="more than 20000 factors"):
                    product_factor_count(q, ctx)

    @pytest.mark.parametrize("q", ["0.999", "0." + "9" * 30, "0." + "9" * 61])
    def test_a_count_past_the_cap_is_refused_at_once(self, q: str) -> None:
        """The walk took 115 080 steps at q = 0.999, and about 10**32 at
        q = 1 - 10**-30."""
        started = time.perf_counter()
        with pytest.raises(DomainError, match="more than 37200 factors"):
            product_factor_count(Decimal(q), make_context(50))
        assert time.perf_counter() - started < 1


@pytest.mark.parametrize("q", ["0." + "9" * 60, "-0." + "9" * 60])
def test_a_q_that_rounds_to_one_is_refused_past_the_cap(q: str) -> None:
    """``|q| < 1``, but it rounds to 1 at the 20 working digits of a 10-digit
    context: its count is past the cap, not a division by zero."""
    with pytest.raises(DomainError, match="more than 20000 factors"):
        product_factor_count(Decimal(q), make_context(10))
