"""Certified summation engine, q-Pochhammer products, and theta3."""

from __future__ import annotations

import ast
import math
import time
from collections import Counter
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlambert
from qlambert import (
    DivergenceError,
    DomainError,
    HoradamSequence,
    QlambertError,
    QTerm,
    SeriesValue,
    TermGenerator,
    make_context,
    qcore,
    qpochhammer_inf,
    qpochhammer_n,
    recip_sum_naive,
    sqrt,
    sum_series,
    theta3,
)
from qlambert.qcore import (
    GUARD_BURN_IN,
    GUARD_VIOLATION_LIMIT,
    MIN_TERMS,
    TAPER_FROM,
    TAPER_MIN_PREC,
    _kernel,
    _Majorant,
    ball,
    combine,
    ipow,
    product,
)
from qlambert.cli import main
from qlambert.lambert import _glambert_naive, _qxt_alt
from qlambert.numerics import as_decimal

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
    return _Majorant(QTerm(Decimal(0), z=ratio))


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
            for ctx in (ctx30, ctx50):
                sv = geometric_series(q, ctx)
                with localcontext(prec=300):
                    assert abs(sv.value - q / (1 - q)) <= sv.tail_bound

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

    def test_guard_catches_terms_above_twice_the_declared_ratio(self, ctx30) -> None:
        # True ratio 0.9 under a declared 0.4: every term after the burn-in
        # exceeds 2 * 0.4, long before the tail test or the term cap acts.
        seen = []

        def term(n: int) -> Decimal:
            seen.append(n)
            return Decimal("0.9") ** n

        with pytest.raises(DivergenceError, match="violated the declared decay"):
            sum_series(TermGenerator(term, geometric_decay(Decimal("0.4"))), 0, ctx30)
        assert seen[-1] == GUARD_BURN_IN + GUARD_VIOLATION_LIMIT - 1

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


def _precisions(series: QTerm, digits: int) -> tuple[int, list[int], SeriesValue]:
    """The working digits, the precision of each call of ``term``, and the sum."""
    ctx = make_context(digits)
    with localcontext(ctx.dec):
        kernel = _kernel(series)
    seen = []

    def term(n: int) -> Decimal:
        seen.append(getcontext().prec)
        return kernel(n)

    sv = series.sum(ctx, "series", term=lambda _: term)
    return ctx.working_digits, seen, sv


def _long(numerator: int, denominator: int, digits: int) -> Decimal:
    """``numerator/denominator`` at the working precision of ``digits``."""
    with localcontext(make_context(digits).dec):
        return Decimal(numerator) / denominator


class TestPrecisionTaper:
    """The summands' precision, seen from inside ``term``."""

    @staticmethod
    def series(digits: int) -> list[QTerm]:
        q = _long(2, 7, digits)
        return [
            QTerm(q, start=q, theta=(2, 1), first=1),  # theta3's sum
            _glambert_naive(_long(-3, 7, digits), q),
            _qxt_alt(_long(3, 5, digits), _long(-5, 9, digits), q),
        ]

    @pytest.mark.parametrize("digits", (300, 1000))
    def test_late_summands_taper_without_rising(self, digits) -> None:
        for series in self.series(digits):
            wd, seen, _ = _precisions(series, digits)
            assert seen[:MIN_TERMS] == [wd] * MIN_TERMS
            assert all(a >= b for a, b in zip(seen, seen[1:]))
            assert TAPER_MIN_PREC <= min(seen) < wd

    # 181 digits work at 200, the floor itself.
    @pytest.mark.parametrize("digits", (50, 181))
    def test_no_taper_at_or_below_the_floor(self, digits) -> None:
        for series in self.series(digits):
            wd, seen, _ = _precisions(series, digits)
            assert wd <= TAPER_FROM
            assert set(seen) == {wd}

    def test_past_the_multiply_cliff_the_first_drop_halves_the_digits(self) -> None:
        q = _long(2, 7, 5000)
        wd, seen, sv = _precisions(QTerm(q, start=q, theta=(2, 1), first=1), 5000)
        assert wd > 4864
        assert min(seen) < wd
        assert all(p == wd or 2 * p <= wd for p in seen)
        assert sv.tail_bound <= make_context(5000).epsilon


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

    def test_fraction_arguments_act_as_their_decimal_values(self, ctx30) -> None:
        a, q = Fraction(1, 3), Fraction(-2, 7)
        a_dec, q_dec = (as_decimal(value, ctx30) for value in (a, q))
        assert qpochhammer_n(a, q, 5, ctx30) == qpochhammer_n(a_dec, q_dec, 5, ctx30)
        assert qpochhammer_inf(a, q, ctx30) == qpochhammer_inf(a_dec, q_dec, ctx30)

    def test_infinite_product_rejects_unit_q(self, ctx30) -> None:
        with pytest.raises(DomainError):
            qpochhammer_inf(Decimal("0.5"), Decimal(1), ctx30)

    @pytest.mark.parametrize("q", ["0.9999", "0.99999"])
    def test_infinite_product_refuses_q_past_the_digit_budget_at_once(
        self, ctx30, q
    ) -> None:
        started = time.perf_counter()
        with pytest.raises(DomainError, match="extra digits"):
            qpochhammer_inf(Decimal("0.5"), Decimal(q), ctx30)
        assert time.perf_counter() - started < 0.1

    def test_infinite_product_with_a_long_head_certifies(self) -> None:
        ctx = make_context(300)
        sv = qpochhammer_inf(Decimal(10) ** 6, Decimal("0.9"), ctx)
        assert sv.tail_bound <= ctx.epsilon * max(1, abs(sv.value))

    def test_infinite_product_past_the_exponent_range_is_a_library_error(
        self, ctx50
    ) -> None:
        with pytest.raises(QlambertError):
            qpochhammer_inf(Decimal(10) ** 400, Decimal("0.99"), ctx50)


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


# ---------------------------------------------------------------------------
# Ball arithmetic: combine and product.

BALL_CTX = make_context(20)


@st.composite
def balls(draw) -> tuple[SeriesValue, Fraction]:
    """A part ``(m, r)`` and a true value drawn exactly within its radius.

    Midpoints include ones near 0; radii are absolute, or a share of the
    midpoint up to 1.5 times it; true values include the ends of the ball.
    """
    mid = Decimal(draw(st.one_of(st.integers(-10**6, 10**6), st.integers(-3, 3))))
    mid = mid.scaleb(-draw(st.integers(0, 8)))
    radius = draw(
        st.one_of(
            st.integers(0, 10**4).map(lambda r: Decimal(r).scaleb(-8)),
            st.integers(0, 150).map(lambda share: abs(mid) * share / 100),
        )
    )
    ends = st.sampled_from([-1000, 1000])
    theta = Fraction(draw(st.one_of(st.integers(-1000, 1000), ends)), 1000)
    part = SeriesValue(mid, draw(st.integers(0, 50)), radius, "part")
    return part, Fraction(mid) + theta * Fraction(radius)


#: Exact coefficients of combine, two decimals.
coefficients = st.integers(-(10**4), 10**4).map(lambda c: Decimal(c) / 100)


def _inside(result: SeriesValue, exact: Fraction) -> bool:
    return abs(exact - Fraction(result.value)) <= Fraction(result.tail_bound)


class TestBallArithmetic:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(balls(), st.integers(-2, 2)), min_size=1, max_size=4))
    def test_product_contains_the_product_of_the_true_values(self, parts) -> None:
        exact = Fraction(1)
        touches_zero = False
        for (part, true), exponent in parts:
            if exponent < 0 and part.tail_bound >= abs(part.value):
                touches_zero = True
            elif exponent != 0:
                exact *= true**exponent
        pairs = [(part, exponent) for (part, _), exponent in parts]
        if touches_zero:
            with pytest.raises(DivergenceError):
                product(pairs, BALL_CTX, "product")
            return
        result = product(pairs, BALL_CTX, "product")
        assert _inside(result, exact)
        assert result.terms_used == sum(part.terms_used for part, _ in pairs)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(coefficients, balls()), min_size=1, max_size=4))
    def test_combine_contains_the_sum_of_the_true_values(self, parts) -> None:
        exact = sum(Fraction(c) * true for c, (_, true) in parts)
        result = combine([(c, part) for c, (part, _) in parts], BALL_CTX, "sum")
        assert _inside(result, exact)

    def test_a_divisor_whose_ball_touches_zero_raises(self) -> None:
        with pytest.raises(DivergenceError):
            product(((ball(Decimal("0.5"), Decimal("0.5")), -1),), BALL_CTX, "p")

    def test_a_square_keeps_its_second_order_term(self) -> None:
        # (1 +- 0.1)^2 reaches 1.21: the radius is 2*0.1 + 0.1^2, not 2*0.1.
        square = product(((ball(Decimal(1), Decimal("0.1")), 2),), BALL_CTX, "p")
        assert square.tail_bound >= Decimal("0.21")


def test_only_qcore_and_the_gosper_sum_build_series_values() -> None:
    """Every tail bound but the Gosper sum's is derived in qcore, by the
    engine and the ball arithmetic alone."""
    source_dir = Path(qlambert.__file__).parent
    builders = set()
    for path in sorted(source_dir.glob("*.py")):
        source = path.read_text()
        for node in ast.parse(source).body:
            if "SeriesValue(" in ast.get_source_segment(source, node):
                builders.add((path.stem, getattr(node, "name", None)))
    outside = {found for found in builders if found[0] != "qcore"}
    assert outside == {("recurrences", "fib_recip_gosper")}
    inside = {name for module, name in builders if module == "qcore"}
    assert inside == {"sum_series", "ball", "combine", "product"}


def test_only_sum_series_sets_a_context_precision() -> None:
    """The taper has one place: no other code changes the precision that a
    summand, or anything else, runs at; ``make_context`` builds the contexts."""
    source_dir = Path(qlambert.__file__).parent
    setters, builders = set(), set()
    for path in sorted(source_dir.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    if node.attr == "prec":
                        setters.add(where)
                elif isinstance(node, ast.keyword) and node.arg == "prec":
                    builders.add(where)
    assert setters == {("qcore", "sum_series")}
    assert builders == {("numerics", "make_context")}


def test_only_qterm_sum_pairs_summands_with_a_certificate() -> None:
    """``QTerm.sum`` is the engine's one entry point: no other code builds a
    ``TermGenerator`` or calls ``sum_series``."""
    source_dir = Path(qlambert.__file__).parent
    callers = set()
    for path in sorted(source_dir.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                scopes = [(f"{top.name}.{getattr(m, 'name', None)}", m) for m in top.body]
            else:
                scopes = [(getattr(top, "name", None), top)]
            for name, scope in scopes:
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        func = node.func
                        called = getattr(func, "id", None) or getattr(func, "attr", None)
                        if called in ("TermGenerator", "sum_series"):
                            callers.add((path.stem, name, called))
    assert callers == {
        ("qcore", "QTerm.sum", "TermGenerator"),
        ("qcore", "QTerm.sum", "sum_series"),
    }


@pytest.fixture
def builds(monkeypatch) -> Counter:
    """Counts of the majorants and kernels built and of the sums run."""
    counts = Counter()

    def counted(name: str):
        original = getattr(qcore, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("_Majorant", "_kernel", "sum_series"):
        monkeypatch.setattr(qcore, name, counted(name))
    return counts


def test_every_sum_builds_one_majorant_and_one_kernel(builds, capsys) -> None:
    assert main(["verify", "--all", "--trials", "2", "--digits", "50"]) == 0
    assert builds["sum_series"] > 0
    assert builds["_Majorant"] == builds["_kernel"] == builds["sum_series"]


def test_a_naive_reciprocal_sum_builds_no_kernel(builds) -> None:
    recip_sum_naive(HoradamSequence(1, 1), make_context(50))
    assert builds == {"_Majorant": 1, "sum_series": 1}
