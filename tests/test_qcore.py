"""Certified summation engine, q-Pochhammer products, and theta3."""

from __future__ import annotations

import ast
import math
import time
from collections import Counter
from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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
    _less,
    _pow2_floor,
    ball,
    combine,
    crossing,
    ipow,
    product,
)
from qlambert.cli import main
from qlambert.lambert import _glambert_naive, _qxt_alt, _qxt_naive, _qxt_theta
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

    @pytest.mark.parametrize("ratio, violated", [("1.3", True), ("1.15", False)])
    def test_guard_shortcut_counts_the_same_violations(self, ctx30, ratio, violated) -> None:
        """Declared ratio 0.6: ``|t| <= 1.2 * |t_prev|`` is proved no
        violation without the mantissas.  Terms growing 1.3-fold still
        violate after the burn-in, 1.15-fold ones never do and run to the
        term cap, as they do when the engine reads every ratio."""
        decay = geometric_decay(Decimal("0.6"))
        assert 1 < 2 * _pow2_floor(decay.const) < 1.3
        outcomes = []
        for declared in (decay, SimpleNamespace(ratio_at=decay.ratio_at)):
            seen = []

            def term(n: int) -> Decimal:
                seen.append(n)
                return Decimal(ratio) ** n

            with pytest.raises(DivergenceError) as caught:
                sum_series(TermGenerator(term, declared), 0, ctx30)
            outcomes.append((str(caught.value), len(seen)))
        assert outcomes[0] == outcomes[1]
        assert ("violated the declared decay" in outcomes[0][0]) == violated
        if violated:
            assert outcomes[0][1] == GUARD_BURN_IN + GUARD_VIOLATION_LIMIT

    def test_a_zero_term_stops_the_sum_whatever_its_exponent(self, ctx30) -> None:
        # The exponent of 0E+50 lies far past where a nonzero term could stop it.
        terms = [Decimal(1), Decimal("0E+50")]
        gen = TermGenerator(terms.__getitem__, geometric_decay(Decimal("0.5")))
        sv = sum_series(gen, 0, ctx30)
        assert (sv.value, sv.terms_used) == (1, 2)

    @pytest.mark.parametrize(
        "digits, point, terms, share",
        [
            (50, ("0.6", "-0.825", "0.95"), (550, 650), 0.15),
            # Tapered from 325 digits: the taper reads ratio_at until it falls below 1.
            (300, ("0.6", "0.5", "0.7"), (950, 1050), 0.05),
        ],
        ids=["62-digits", "325-digits"],
    )
    def test_a_long_geometric_sum_reads_the_majorant_at_few_indices(
        self, digits, point, terms, share
    ) -> None:
        """About 600 terms at 62 digits, or 1000 at 325: the tail test, the
        guard and the taper need ``ratio_at`` at few of them."""
        ctx = make_context(digits)
        series = _qxt_naive(*map(Decimal, point))
        with localcontext(ctx.dec):
            decay, term = _Majorant(series), _kernel(series)
        calls = []
        counted = SimpleNamespace(
            log2_floor=decay.log2_floor,
            ratio_at=lambda n: calls.append(n) or decay.ratio_at(n),
        )
        sv = sum_series(TermGenerator(term, counted), 0, ctx, "series")
        assert terms[0] <= sv.terms_used <= terms[1]
        assert len(calls) <= share * sv.terms_used
        assert sv == series.sum(ctx, "series")

    def test_a_theta_sum_reads_the_majorant_at_few_indices(self) -> None:
        """79 terms at 1000 digits: the floor of a theta weight falls along a
        line, so the tail test and the guard read ``ratio_at`` at a handful
        of indices, the taper's up to the first ``rho < 1`` included."""
        ctx = make_context(1000)
        series = _qxt_theta(Decimal("0.6"), Decimal("0.5"), Decimal("0.7"))
        with localcontext(ctx.dec):
            decay, term = _Majorant(series), _kernel(series)
        calls = []
        counted = SimpleNamespace(
            log2_floor=decay.log2_floor,
            ratio_at=lambda n: calls.append(n) or decay.ratio_at(n),
        )
        sv = sum_series(TermGenerator(term, counted), 0, ctx, "series")
        assert sv.terms_used == 79
        assert len(calls) <= 8, calls
        assert sv == series.sum(ctx, "series")

    def test_theta_decay_term_count_scales_with_sqrt_digits(self) -> None:
        for digits in (50, 200):
            ctx = make_context(digits)
            q = Decimal("0.5")
            sv = QTerm(q, start=q, theta=(2, 1), first=1).sum(ctx, "series")
            predicted = math.sqrt(digits / math.log10(2))
            assert sv.terms_used <= predicted + 6


#: Floats at the edges of their range, and mantissas (0 and 17 digits).
EDGE_FLOATS = [0.0, math.ulp(0.0), 2.0**-1022, 1e-300, 1.0, 1e300, 1.7976931348623157e308, math.inf]
MANTISSAS = [0, 10**16, 10**17 - 1, 5e16]


@pytest.mark.parametrize("k", [-2000, -1001, -650, -342, -341, -325, -324, -301, 301, 309, 310, 400, 1001])
def test_less_decides_past_the_float_range_as_exactly_as_decimal(k) -> None:
    """Beyond the band where ``b * 10**k`` can meet a finite float, ``_less``
    answers from the operands alone; it agrees with a 2000-digit comparison."""
    for a in EDGE_FLOATS + [math.nan]:
        for b in MANTISSAS + EDGE_FLOATS[:-1]:
            with localcontext(Context(prec=2000, Emin=-(10**6), Emax=10**6)):
                want = a == a and Decimal(a) < Decimal(b).scaleb(k)
            assert _less(a, b, k) == want, (a, b, k)


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

    def test_no_taper_before_the_first_ratio_below_one(self) -> None:
        """Terms that dip to ``10**-200`` and rise again while ``ratio_at`` is
        2: they could grow past any tapered precision, so every summand up to
        the first ``rho < 1``, at index 40, runs at the working precision."""
        ctx = make_context(300)
        seen = []

        def term(n: int) -> Decimal:
            seen.append(getcontext().prec)
            return Decimal(1) if n == 0 else Decimal("1e-200") if n < 40 else Decimal(2) ** (40 - n)

        decay = SimpleNamespace(ratio_at=lambda n: 2.0 if n < 40 else 0.5)
        sv = sum_series(TermGenerator(term, decay), 0, ctx)
        assert seen[:41] == [ctx.working_digits] * 41 and min(seen) < ctx.working_digits
        with localcontext(ctx.dec):
            assert abs(sv.value - 3 - Decimal("39e-200")) <= sv.tail_bound <= ctx.epsilon

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

    @pytest.mark.parametrize("nines", [17, 30])
    def test_infinite_product_takes_q_that_rounds_to_one_in_floats(
        self, ctx50, nines: int
    ) -> None:
        """``float(q)`` is 1 here, and ``1 - float(q)`` was a division by 0."""
        with localcontext(prec=28):
            with pytest.raises(DomainError, match="extra digits"):
                qpochhammer_inf(Decimal("0.5"), Decimal("0." + "9" * nines), ctx50)

    def test_infinite_product_with_a_long_head_certifies(self) -> None:
        ctx = make_context(300)
        sv = qpochhammer_inf(Decimal(10) ** 6, Decimal("0.9"), ctx)
        assert sv.tail_bound <= ctx.epsilon * max(1, abs(sv.value))

    def test_infinite_product_past_the_exponent_range_is_a_library_error(
        self, ctx50
    ) -> None:
        with pytest.raises(QlambertError):
            qpochhammer_inf(Decimal(10) ** 400, Decimal("0.99"), ctx50)

    def test_a_head_past_the_exponent_range_overflows_as_a_library_error(
        self, ctx50
    ) -> None:
        with pytest.raises(DomainError, match=r"\(a;q\)_21855 overflows"):
            qpochhammer_inf(Decimal(10) ** 1000, Decimal("0.9"), ctx50)

    def test_infinite_product_refuses_a_head_past_the_term_cap_at_once(
        self, ctx30
    ) -> None:
        # The head has 138 155 099 factors |a*q**i| > 1.
        started = time.perf_counter()
        with pytest.raises(DomainError, match="138155099 head factors"):
            qpochhammer_inf(Decimal(10) ** 6, Decimal("0.9999999"), ctx30)
        assert time.perf_counter() - started < 1


class TestCrossing:
    """``crossing(a, q, first)``: the least ``n >= first`` with ``|a*q**n| <= 1``."""

    @pytest.mark.parametrize(
        ("a", "q", "first", "expected"),
        [
            (0, "0.5", 0, 0),
            (5, "0", 0, 1),
            (5, "0", 1, 1),
            (2**70, "0.5", 0, 70),
            (-(2**70), "-0.5", 1, 70),
            (2**70, "0.5", 71, 71),
            (10**6, "0.9999999", 0, 138155099),
            (10**400, "0.99", 0, 91643),
        ],
    )
    def test_known_indices(self, a, q, first, expected, ctx30) -> None:
        with localcontext(ctx30.dec):
            assert crossing(Decimal(a), Decimal(q), first) == expected

    def test_quotient_below_the_crossing_by_over_one(self, ctx30) -> None:
        # a*q**1000 is about 1 + 10**-40: nu is just above 1000, but its rounded
        # logarithms give a quotient at or below 1000.
        with localcontext(ctx30.dec):
            a = 2**1000 * (1 + Decimal(1).scaleb(-40))
            assert a.ln() / -Decimal("0.5").ln() <= 1000
            assert crossing(a, Decimal("0.5")) == 1001

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-1e6, 1e6),
        st.floats(-0.999, 0.999),
        st.integers(0, 2),
        st.sampled_from([10, 30, 50]),
    )
    def test_matches_direct_powers(self, a, q, first, digits) -> None:
        a, q = Decimal(a), Decimal(q)
        with localcontext(make_context(digits).dec):
            n = crossing(a, q, first)
            assert n >= first and abs(a * ipow(q, n)) <= 1
            assert n == first or abs(a * ipow(q, n - 1)) > 1


class TestCrossingAtManyDigits:
    """``crossing`` takes its logarithms at the digits that ``nu`` needs, not
    at the working precision: exact and cheap at thousands of digits."""

    @staticmethod
    def least_by_direct_powers(a: Decimal, q: Decimal) -> int:
        """The least ``n`` with ``|a*q**n| <= 1``, by doubling and bisection
        over direct powers under the current context."""

        def above(n: int) -> bool:
            return abs(a * ipow(q, n)) > 1

        if not above(0):
            return 0
        low, high = 0, 1
        while above(high):
            low, high = high, 2 * high
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if above(mid) else (low, mid)
        return high

    @pytest.mark.parametrize(
        ("digits", "a", "q"),
        [
            *(
                (digits, a, q)
                for digits in (1000, 5000)
                for a, q in (("2", "0.5"), ("10**d", "0.9999"), ("3", "-0.7"))
            ),
            # nu is about 2.3 * 10**23: 10-digit logarithms are off by far more than 1.
            (1000, "10**d", "0." + "9" * 20),
        ],
    )
    def test_matches_direct_powers(self, digits: int, a: str, q: str) -> None:
        with localcontext(make_context(digits).dec):
            a = Decimal(10) ** digits if a == "10**d" else Decimal(a)
            assert crossing(a, Decimal(q)) == self.least_by_direct_powers(a, Decimal(q))

    def test_infinite_product_with_a_head_is_fast_at_5000_digits(self) -> None:
        """Its head count's logarithms at the working precision took 3.7 s."""
        ctx = make_context(5000)
        started = time.perf_counter()
        qpochhammer_inf(Decimal(2), Decimal("0.5"), ctx)
        assert time.perf_counter() - started < 0.5

    def test_a_q_that_rounds_to_one_is_taken_exactly(self) -> None:
        """``|q| < 1`` with 60 nines, which round to 1 at the 20 working
        digits: the head count is past the cap, not a division by zero."""
        with pytest.raises(DomainError, match="head factors, past the cap of 20000"):
            qpochhammer_inf(Decimal(2), Decimal("0." + "9" * 60), make_context(10))


def test_only_crossing_takes_a_logarithm() -> None:
    """Where ``|a*q**n|`` crosses a bound has one rule: no code but
    ``qcore.crossing`` calls ``Decimal.ln``, and ``gospermat`` imports no
    ``math`` logarithm to count its factors on its own."""
    source_dir = Path(qlambert.__file__).parent
    callers = set()
    for path in sorted(source_dir.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "ln":
                    callers.add((path.stem, getattr(top, "name", None)))
    assert callers == {("qcore", "crossing")}
    imported = set()
    for node in ast.walk(ast.parse((source_dir / "gospermat.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert "math" not in imported
    assert not [name for name in imported if name.startswith("log")]


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


def test_only_the_engine_branches_on_exact_parameters() -> None:
    """Exactness is the engine's business: no module but ``qcore``,
    ``exact``, ``quadratic`` and ``numerics`` names ``Fraction`` or calls
    ``is_quadratic`` in code, so no route can branch on exact parameters."""

    def name(node: ast.AST | None) -> str | None:
        # A name, an attribute or an imported name.
        return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)

    source_dir = Path(qlambert.__file__).parent
    found = set()
    for path in sorted(source_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if name(node) == "Fraction" or name(getattr(node, "func", None)) == "is_quadratic":
                found.add(path.stem)
    assert "qcore" in found
    assert found <= {"qcore", "exact", "quadratic", "numerics"}


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


def test_every_import_in_the_package_is_used() -> None:
    """No module imports a name it never reads, but on a ``# noqa: F401``
    line; a package's ``__all__`` counts as reading its names."""
    source_dir = Path(qlambert.__file__).parent
    unused = []
    for path in sorted(source_dir.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                if "# noqa: F401" in lines[node.end_lineno - 1]:
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                read |= set(ast.literal_eval(node.value))
        unused += [(path.name, line, name) for name, line in imported.items() if name not in read]
    assert unused == []


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
