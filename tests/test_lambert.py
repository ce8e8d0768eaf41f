"""Lambert-type series: naive and theta routes, domains, and poles."""

from __future__ import annotations

import json
from decimal import Decimal, localcontext

import pytest

from qlambert import (
    DomainError,
    PoleError,
    QxtParams,
    fine_F,
    glambert_lhs,
    glambert_theta,
    lambert_naive,
    lambert_theta,
    make_context,
    series_qxt_alt,
    series_qxt_lhs,
    series_qxt_rhs,
)
from qlambert.cli import main

from _oracles import (
    FINE_GENERIC,
    FINE_TELESCOPED,
    GLAMBERT_A,
    GLAMBERT_B,
    LAMBERT_1_10,
    LAMBERT_3_10,
    LAMBERT_HALF,
    LAMBERT_MINUS_HALF,
    QXT_POINT,
)

LAMBERT_ORACLES = {
    "0.5": LAMBERT_HALF,
    "0.3": LAMBERT_3_10,
    "0.1": LAMBERT_1_10,
    "-0.5": LAMBERT_MINUS_HALF,
}


class TestLambert:
    @pytest.mark.parametrize("q_text", sorted(LAMBERT_ORACLES))
    def test_both_routes_match_oracles(self, q_text: str, ctx30) -> None:
        q = Decimal(q_text)
        expected = LAMBERT_ORACLES[q_text]
        for fn in (lambert_naive, lambert_theta):
            sv = fn(q, ctx30)
            assert abs(sv.value - expected) <= sv.tail_bound
            assert sv.tail_bound < 2 * ctx30.epsilon

    def test_routes_agree_at_fifty_digits(self, ctx50) -> None:
        q = Decimal("0.77")
        naive = lambert_naive(q, ctx50)
        theta = lambert_theta(q, ctx50)
        assert abs(naive.value - theta.value) <= naive.tail_bound + theta.tail_bound

    def test_theta_route_needs_far_fewer_terms(self, ctx30) -> None:
        q = Decimal("0.5")
        naive = lambert_naive(q, ctx30)
        theta = lambert_theta(q, ctx30)
        assert naive.terms_used > 90
        assert theta.terms_used < 20

    @pytest.mark.parametrize("q_text", ["0.99", "-0.99"])
    def test_theta_route_certifies_near_unit_q_in_few_terms(
        self, q_text: str, ctx30
    ) -> None:
        q = Decimal(q_text)
        naive = lambert_naive(q, ctx30)
        theta = lambert_theta(q, ctx30)
        assert abs(naive.value - theta.value) <= naive.tail_bound + theta.tail_bound
        assert theta.terms_used < 150

    def test_cli_certifies_q_one_ten_thousandth_below_one(self, capsys) -> None:
        code = main(["eval", "lambert", "--q", "0.9999", "--report"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert float(payload["tail_bound"]) <= 1e-30

    @pytest.mark.parametrize("fn", [lambert_naive, lambert_theta])
    def test_zero_and_unit_arguments_rejected(self, fn, ctx30) -> None:
        with pytest.raises(DomainError):
            fn(Decimal(0), ctx30)
        with pytest.raises(DomainError):
            fn(Decimal("1.5"), ctx30)
        with pytest.raises(DomainError):
            fn(Decimal(-1), ctx30)


class TestGLambert:
    @pytest.mark.parametrize(
        ("x_text", "q_text", "oracle"),
        [("0.3", "0.5", GLAMBERT_A), ("-0.7", "0.6", GLAMBERT_B)],
    )
    def test_both_routes_match_oracles(
        self, x_text: str, q_text: str, oracle: Decimal, ctx30
    ) -> None:
        x, q = Decimal(x_text), Decimal(q_text)
        for fn in (glambert_lhs, glambert_theta):
            sv = fn(x, q, ctx30)
            assert abs(sv.value - oracle) <= sv.tail_bound

    def test_zero_x_sums_to_zero(self, ctx30) -> None:
        assert glambert_lhs(Decimal(0), Decimal("0.5"), ctx30).value == 0
        assert glambert_theta(Decimal(0), Decimal("0.5"), ctx30).value == 0

    def test_unit_x_reproduces_lambert(self, ctx30) -> None:
        q = Decimal("0.4")
        sv = glambert_theta(Decimal(1), q, ctx30)
        oracle = lambert_naive(q, ctx30)
        assert abs(sv.value - oracle.value) <= sv.tail_bound + oracle.tail_bound

    def test_x_above_one_allowed_while_xq_stays_inside(self, ctx30) -> None:
        x, q = Decimal("1.2"), Decimal("0.5")
        naive = glambert_lhs(x, q, ctx30)
        theta = glambert_theta(x, q, ctx30)
        assert abs(naive.value - theta.value) <= naive.tail_bound + theta.tail_bound

    def test_xq_product_outside_unit_interval_rejected(self, ctx30) -> None:
        with pytest.raises(DomainError):
            glambert_lhs(Decimal("2.5"), Decimal("0.5"), ctx30)

    def test_zero_q_sums_to_zero(self, ctx30) -> None:
        assert glambert_lhs(Decimal("0.7"), Decimal(0), ctx30).value == 0
        assert glambert_theta(Decimal("0.7"), Decimal(0), ctx30).value == 0


class TestQxt:
    POINT = QxtParams(Decimal("0.3"), Decimal("0.2"), Decimal("0.5"))

    @pytest.mark.parametrize("fn", [series_qxt_lhs, series_qxt_rhs, series_qxt_alt])
    def test_all_three_routes_match_oracle(self, fn, ctx30) -> None:
        sv = fn(self.POINT, ctx30)
        assert abs(sv.value - QXT_POINT) <= sv.tail_bound

    def test_zero_x_gives_plain_geometric_sum(self, ctx50) -> None:
        p = QxtParams(Decimal(0), Decimal("0.5"), Decimal("0.5"))
        for fn in (series_qxt_lhs, series_qxt_rhs, series_qxt_alt):
            sv = fn(p, ctx50)
            assert abs(sv.value - 2) <= sv.tail_bound

    def test_zero_q_collapses_to_two_fractions(self, ctx30) -> None:
        x, t = Decimal("0.3"), Decimal("0.2")
        p = QxtParams(x, t, Decimal(0))
        with localcontext(ctx30.dec):
            expected = 1 / (1 - x) + t / (1 - t)
        for fn in (series_qxt_lhs, series_qxt_rhs, series_qxt_alt):
            sv = fn(p, ctx30)
            assert abs(sv.value - expected) <= sv.tail_bound + ctx30.epsilon

    @pytest.mark.parametrize("field", ["x", "t", "q"])
    def test_unit_parameters_rejected(self, field: str, ctx30) -> None:
        values = {"x": Decimal("0.3"), "t": Decimal("0.2"), "q": Decimal("0.5")}
        values[field] = Decimal("1.0")
        with pytest.raises(DomainError):
            series_qxt_lhs(QxtParams(values["x"], values["t"], values["q"]), ctx30)

    def test_x_within_pole_tolerance_of_one_detected(self, ctx30) -> None:
        x = 1 - Decimal(1).scaleb(-21)  # inside the 10**-20 pole tolerance
        p = QxtParams(x, Decimal("0.2"), Decimal("0.5"))
        with pytest.raises(PoleError):
            series_qxt_lhs(p, ctx30)


class TestFineF:
    def test_telescoping_point_is_exactly_rational(self, ctx30) -> None:
        # At b = a/q the Pochhammer quotient collapses and (1-t)*F = 71/68.
        a, b, t, q = (Decimal("0.2"), Decimal("0.4"), Decimal("0.3"), Decimal("0.5"))
        sv = fine_F(a, b, t, q, ctx30)
        with localcontext(ctx30.dec):
            scaled = (1 - t) * sv.value
        assert abs(scaled - FINE_TELESCOPED) <= 2 * sv.tail_bound

    def test_generic_point_matches_oracle(self, ctx30) -> None:
        a, b, t, q = (Decimal("0.2"), Decimal("0.35"), Decimal("0.3"), Decimal("0.5"))
        sv = fine_F(a, b, t, q, ctx30)
        with localcontext(ctx30.dec):
            scaled = (1 - t) * sv.value
        assert abs(scaled - FINE_GENERIC) <= 2 * sv.tail_bound

    def test_zero_b_is_accepted(self, ctx30) -> None:
        sv = fine_F(Decimal("0.2"), Decimal(0), Decimal("0.3"), Decimal("0.5"), ctx30)
        assert sv.tail_bound < 2 * ctx30.epsilon

    def test_pole_beyond_the_first_sixty_four_indices_detected(self) -> None:
        # b*q**70 = 1 exactly: the scan must reach every index with |b q^j| >= 1/2.
        with pytest.raises(PoleError):
            fine_F(
                Decimal("0.2"), Decimal(2**70), Decimal("0.3"), Decimal("0.5"),
                make_context(50),
            )

    def test_unit_t_rejected(self, ctx30) -> None:
        with pytest.raises(DomainError):
            fine_F(Decimal("0.2"), Decimal("0.4"), Decimal(1), Decimal("0.5"), ctx30)
