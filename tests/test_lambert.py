"""Lambert-type series: naive and theta routes, domains, and poles."""

from __future__ import annotations

import json
import random
import time
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
from qlambert import lambert
from qlambert.cli import main
from qlambert.lambert import _lambert_theta, _pole_scan

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
    pole_scan_distances,
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

    def test_theta_factors_share_one_running_power(self) -> None:
        """``(1+q^n)/(1-q^n)`` is written with both factors on ``q^n``."""
        factors = _lambert_theta(Decimal("0.5")).factors
        assert len({(f.c1, f.s, f.k) for f in factors}) == 1

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
        with localcontext(prec=300):
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


#: 1 - 10**-23, inside the 10**-20 pole tolerance of 30 digits.
NEAR_ONE = 1 - Decimal(1).scaleb(-23)


def _scan_finds_pole(x, q, ctx, first: int) -> bool:
    try:
        _pole_scan("x", x, q, ctx, first)
    except PoleError:
        return True
    return False


def _scan_points(rng: random.Random, ctx, first: int, count: int):
    """``count`` points ``(x, q)``, ``|q| <= 0.99``: a third drawn at random
    with ``|x| <= 1000``, the rest with ``x*q**m`` at ``1 + e`` for an ``m``
    from ``first`` to ``first + 40``, ``e`` up to three pole tolerances or
    within ``10**-2`` to ``10**-5`` of one, either sign."""
    tol = ctx.pole_tolerance()
    with localcontext(ctx.dec):
        for i in range(count):
            q = +Decimal(rng.uniform(-0.99, 0.99))
            if i % 3 == 0:
                yield +Decimal(rng.uniform(-1000, 1000)), q
                continue
            if i % 3 == 1:
                scale = Decimal(rng.uniform(0, 3))
            else:
                scale = 1 + rng.choice((-1, 1)) * Decimal(1).scaleb(-rng.randint(2, 5))
            e = rng.choice((-1, 1)) * tol * scale
            yield (1 + e) / q ** rng.randint(first, first + 40), q


class TestPoleScan:
    """``_pole_scan`` tests four indices around where ``|x*q**n|`` crosses 1;
    the reference walks every index from ``first`` on."""

    @pytest.mark.parametrize("digits", [10, 30, 50])
    @pytest.mark.parametrize("first", [0, 1])
    def test_decides_as_the_index_by_index_walk(self, digits: int, first: int) -> None:
        ctx, count = make_context(digits), 600
        tol = ctx.pole_tolerance()
        edge = tol * Decimal("1e-6")
        rng = random.Random(digits * 10 + first)
        decided = poles = 0
        for x, q in _scan_points(rng, ctx, first, count):
            distances = pole_scan_distances(x, q, ctx, first)
            # Where a distance sits at the tolerance, a direct power and the
            # walk's rounded product may fall on either side of it.
            if any(abs(d - tol) <= edge for d in distances):
                continue
            expected = any(d <= tol for d in distances)
            assert _scan_finds_pole(x, q, ctx, first) == expected, (x, q)
            decided += 1
            poles += expected
        assert decided > 0.99 * count
        assert 0.2 * count < poles < 0.6 * count

    @pytest.mark.parametrize(
        ("x", "q", "digits", "first"),
        [
            (1 - Decimal(1).scaleb(-21), Decimal("0.5"), 30, 0),
            (Decimal(2**70), Decimal("0.5"), 50, 1),
            (1 / (Decimal("0.2") + Decimal(1).scaleb(-21)), Decimal("0.2"), 30, 1),
            (1 - Decimal(1).scaleb(-25), Decimal("0.2"), 30, 0),
            (-NEAR_ONE, -NEAR_ONE, 30, 0),
            (NEAR_ONE, -NEAR_ONE, 30, 1),
        ],
    )
    def test_finds_the_pole_tests_poles_as_the_walk_does(self, x, q, digits, first) -> None:
        ctx = make_context(digits)
        assert pole_scan_distances(x, q, ctx, first)[-1] <= ctx.pole_tolerance()
        assert _scan_finds_pole(x, q, ctx, first)

    def test_qxt_pole_one_past_the_first_index(self, capsys, ctx30) -> None:
        # x*q**0 is near -1, x*q**1 near +1.
        with pytest.raises(PoleError, match=r"1 - x\*q\*\*1 "):
            series_qxt_lhs(QxtParams(-NEAR_ONE, Decimal("0.5"), -NEAR_ONE), ctx30)
        code = main([
            "eval", "qxt", f"--x=-{NEAR_ONE}", "--t=0.5", f"--q=-{NEAR_ONE}",
            "--digits", "30",
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "qlambert: denominator 1 - x*q**1 vanishes at working tolerance\n"
        )

    def test_glambert_pole_one_past_the_first_index(self, capsys, ctx30) -> None:
        # x*q**1 is near -1, x*q**2 near +1.
        for fn in (glambert_lhs, glambert_theta):
            with pytest.raises(PoleError, match=r"1 - x\*q\*\*2 "):
                fn(NEAR_ONE, -NEAR_ONE, ctx30)
        code = main([
            "eval", "glambert", f"--x={NEAR_ONE}", f"--q=-{NEAR_ONE}", "--digits", "30",
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "qlambert: denominator 1 - x*q**2 vanishes at working tolerance\n"
        )

    @pytest.mark.parametrize(
        "command",
        [
            "eval glambert --method naive --x=4194303/4194304 --q=33554431/33554432",
            "eval qxt --method theta --x=-0.99999999 --t=-2/3 --q=0.9999999999999999999",
        ],
    )
    def test_near_unit_q_ends_within_a_second(self, capsys, command: str) -> None:
        """The index-by-index walk took millions of steps here, and about
        7*10**18 for the second command."""
        started = time.perf_counter()
        code = main([*command.split(), "--digits", "5"])
        elapsed = time.perf_counter() - started
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("qlambert: ") and err.count("\n") == 1
        assert elapsed < 1


class TestLambertAsGLambertAtOne:
    """The Lambert series is ``L(1, q)``: its domain and its poles are those
    of the generalized series at ``x = 1``."""

    @pytest.mark.parametrize(
        "flags, index",
        [
            (("--q", "0.999999999999"), 1),
            (("--method", "naive", "--q", "0.999999999999"), 1),
            (("--q=-0.999999999999",), 2),
            (("--method", "naive", "--q=-0.999999999999"), 2),
        ],
    )
    def test_a_pole_is_refused_before_the_first_term(
        self, capsys, monkeypatch, flags, index
    ) -> None:
        """1 - q**n within the tolerance once ran to the term cap and exited 2."""
        monkeypatch.setattr(lambert, "sum_qterm", lambda *args: pytest.fail("summed"))
        message = f"qlambert: denominator 1 - x*q**{index} vanishes at working tolerance\n"
        assert main(["eval", "lambert", *flags, "--digits", "10"]) == 3
        assert capsys.readouterr().err == message
        assert main(["eval", "glambert", "--x", "1", *flags, "--digits", "10"]) == 3
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("fn", [lambert_naive, lambert_theta])
    def test_the_unit_interval_test_is_glambert_s(self, fn, ctx30) -> None:
        with pytest.raises(DomainError) as lambert_error:
            fn(Decimal("1.5"), ctx30)
        with pytest.raises(DomainError) as glambert_error:
            glambert_lhs(Decimal(1), Decimal("1.5"), ctx30)
        assert str(lambert_error.value) == str(glambert_error.value)


#: 1 - 10**-30: its abs() rounds to 1 at 28 digits, the interpreter's default.
NEAR_UNIT_Q = "0." + "9" * 30


@pytest.mark.parametrize(
    "command",
    ["eval lambert", "eval glambert --x 0.5", "eval qxt --x 0.5 --t 0.5", "eval theta3"],
)
def test_q_within_the_default_context_of_one_is_inside(capsys, command: str) -> None:
    """At the interpreter's 28 digits ``abs(q)`` is 1; the domain test is exact."""
    with localcontext(prec=28):
        code = main([*command.split(), "--q", NEAR_UNIT_Q, "--digits", "50"])
    err = capsys.readouterr().err
    assert code == 2 and "outside" not in err
