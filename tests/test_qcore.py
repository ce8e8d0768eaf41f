"""Certified summation engine, q-Pochhammer products, and theta3."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import pytest

from qlambert import (
    DivergenceError,
    DomainError,
    QTerm,
    SeriesValue,
    TermGenerator,
    make_context,
    qpochhammer_inf,
    qpochhammer_n,
    sqrt,
    sum_series,
    theta3,
)
from qlambert.qcore import MIN_TERMS, ipow

from _oracles import (
    POCH_HALF_INF,
    POCH_NEG_Q_INF,
    THETA3_1_10,
    THETA3_BETA,
    THETA3_M2_5,
)


def geometric_series(q: Decimal, ctx) -> SeriesValue:
    """sum over n >= 1 of q**n, whose value is exactly q/(1-q)."""
    return QTerm(q, start=q, z=q, first=1).sum(ctx, "series")


def geometric_decay(ratio: Decimal):
    """The majorant of a plain geometric series with the given ratio."""
    return QTerm(Decimal(0), z=ratio).generator().decay


class TestIpow:
    def test_zero_to_the_zero_is_one(self) -> None:
        assert ipow(Decimal(0), 0) == 1

    def test_matches_builtin_power_on_negative_base(self) -> None:
        assert ipow(Decimal("-0.5"), 3) == Decimal("-0.125")


class TestSumSeries:
    def test_geometric_sum_hits_closed_form(self, ctx30) -> None:
        q = Decimal("0.5")
        sv = geometric_series(q, ctx30)
        assert abs(sv.value - 1) <= sv.tail_bound
        assert sv.tail_bound < 2 * ctx30.epsilon

    def test_tail_bound_is_honest_across_ratios(self, ctx30, ctx50) -> None:
        for text in ("0.1", "0.5", "-0.85", "0.85"):
            q = Decimal(text)
            exact = q / (1 - q)
            for ctx in (ctx30, ctx50):
                sv = geometric_series(q, ctx)
                assert abs(sv.value - exact) <= sv.tail_bound

    def test_minimum_term_count_enforced(self, ctx30) -> None:
        sv = geometric_series(Decimal("1e-60"), ctx30)
        assert sv.terms_used >= MIN_TERMS

    def test_geometric_term_count_tracks_digits(self) -> None:
        # Terms scale like digits * ln 10 / ln(1/q); checked for q <= 0.6
        # where the engine's stopping rule is within a small additive band.
        for digits in (20, 50, 100):
            ctx = make_context(digits)
            for text in ("0.3", "0.5", "0.6"):
                q = Decimal(text)
                predicted = digits * math.log(10) / math.log(1 / float(q))
                sv = geometric_series(q, ctx)
                assert sv.terms_used <= predicted + 12
                assert sv.terms_used >= predicted - 12

    def test_explicit_epsilon_override(self, ctx30) -> None:
        q = Decimal("0.5")
        coarse = sum_series(
            TermGenerator(_power_term(q), geometric_decay(q)), 1, ctx30,
            eps=Decimal("1e-10"),
        )
        fine = geometric_series(q, ctx30)
        assert coarse.terms_used < fine.terms_used

    def test_divergent_series_raises_after_guard(self, ctx30) -> None:
        state = {"power": Decimal(1)}

        def growing(n: int) -> Decimal:
            state["power"] *= 2
            return state["power"]

        with pytest.raises(DivergenceError):
            sum_series(
                TermGenerator(growing, geometric_decay(Decimal("0.5"))), 0, ctx30
            )

    def test_theta_decay_term_count_scales_with_sqrt_digits(self) -> None:
        for digits in (50, 200):
            ctx = make_context(digits)
            q = Decimal("0.5")
            sv = QTerm(q, start=q, theta=(2, 1), first=1).sum(ctx, "series")
            predicted = math.sqrt(digits / math.log10(2))
            assert sv.terms_used <= predicted + 6


def _power_term(q: Decimal):
    state = {"power": q}

    def term(n: int) -> Decimal:
        value = state["power"]
        state["power"] *= q
        return value

    return term


class TestQPochhammer:
    def test_finite_product_base_cases(self, ctx30) -> None:
        a, q = Decimal("0.3"), Decimal("0.5")
        assert qpochhammer_n(a, q, 0, ctx30) == 1
        expected = (1 - a) * (1 - a * q)
        assert abs(qpochhammer_n(a, q, 2, ctx30) - expected) < Decimal("1e-38")

    def test_finite_product_rejects_negative_count(self, ctx30) -> None:
        with pytest.raises(DomainError):
            qpochhammer_n(Decimal("0.3"), Decimal("0.5"), -1, ctx30)

    def test_infinite_product_at_zero_argument_is_one(self, ctx30) -> None:
        assert qpochhammer_inf(Decimal(0), Decimal("0.5"), ctx30).value == 1

    def test_infinite_product_matches_oracle(self, ctx30) -> None:
        sv = qpochhammer_inf(Decimal("0.5"), Decimal("0.5"), ctx30)
        assert abs(sv.value - POCH_HALF_INF) <= sv.tail_bound

    def test_infinite_product_with_negative_q(self, ctx30) -> None:
        sv = qpochhammer_inf(Decimal("0.3"), Decimal("-0.5"), ctx30)
        assert abs(sv.value - POCH_NEG_Q_INF) <= sv.tail_bound

    def test_infinite_product_rejects_unit_q(self, ctx30) -> None:
        with pytest.raises(DomainError):
            qpochhammer_inf(Decimal("0.5"), Decimal(1), ctx30)


class TestTheta3:
    def test_value_at_one_tenth(self, ctx30) -> None:
        sv = theta3(Decimal("0.1"), ctx30)
        assert abs(sv.value - THETA3_1_10) <= sv.tail_bound
        assert sv.tail_bound < 2 * ctx30.epsilon

    def test_negative_argument(self, ctx30) -> None:
        sv = theta3(Decimal("-0.4"), ctx30)
        assert abs(sv.value - THETA3_M2_5) <= sv.tail_bound

    def test_negative_golden_conjugate_argument(self, ctx30) -> None:
        with localcontext(ctx30.dec):
            beta = (1 - sqrt(Decimal(5), ctx30)) / 2
        sv = theta3(beta, ctx30)
        assert abs(sv.value - THETA3_BETA) < Decimal("1e-29")

    def test_zero_argument_is_exactly_one(self, ctx30) -> None:
        assert theta3(Decimal(0), ctx30).value == 1

    def test_unit_argument_rejected(self, ctx30) -> None:
        with pytest.raises(DomainError):
            theta3(Decimal(1), ctx30)
