"""Property tests of the q-term descriptions and the majorants derived from them.

Three properties, at sample points biased toward |q|, |x|, |t| -> 1:

* ``ratio_at(n)`` majorises every later term ratio: for every computed
  term, ``|T_{m+1}| <= ratio_at(n) * |T_m|`` for all ``m >= n``;
* each ``tail_bound`` covers the gap to a recomputation at 20 more digits;
* the float peak bound from which a sum takes its digits covers every
  partial sum the engine forms, recomputed at 20 more digits.

They are checked on the descriptions that the evaluators build through
module-level builders, and on random descriptions, which combine theta
weights, evaluated and Pochhammer factors in ways no builder does and
include folded factors ``(c0 - c1 q^i)`` with ``c0 != 1``.

Two more hold bit for bit on random descriptions: the term kernel's
summands equal those of a running value per factor, in the summand form
that the kernel's rule picks (the qxt bracket, a shared ratio or the
product; look-alikes whose ``c1`` is only a rounded product keep the
product), also when the precision drops mid-sum and also in the kernel
that an exact sum hands over to; and a sum that reads the majorant lazily,
by its floor, returns what one that reads it at every index returns, with a
theta weight too.  The engine, which runs its decay guard over blocks of
indices and its taper on an integer gate, stops or raises where a loop that
runs both at every index does, on random descriptions and on hand-written
streams of violations, with every term call at the same precision.
With exact rational parameters the kernel's summands agree with those of
the same description in ``Decimal`` at 30 more digits, within the kernel's
rounding count, and its running values become ``Decimal`` values at the index
its rule gives, and every digit of its summands across that switch is
pinned by a digest.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import replace
from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlambert import (
    DivergenceError,
    DomainError,
    Factor,
    PoleError,
    QTerm,
    TermGenerator,
    make_context,
    sum_series,
)
from qlambert.bilateral import _minus_naive, _minus_theta
from qlambert.identities import (
    _chain_geo,
    _fine_122_rhs,
    _fine_163_series,
    _gosper_poch_rhs,
    _osler_single,
    _poch_series,
    _rogers_fine_rhs,
    _wrench_lhs,
    _xq_swap_rhs,
)
from qlambert.lambert import (
    _fine,
    _glambert_naive,
    _glambert_theta,
    _lambert_theta,
    _qxt_alt,
    _qxt_naive,
    _qxt_theta,
)
from _oracles import sum_series_per_index
from qlambert.exact import _pair_limit
from qlambert.qcore import (
    GUARD_BURN_IN,
    GUARD_VIOLATION_LIMIT,
    TAPER_FROM,
    _kernel,
    _log2_bounds,
    _Majorant,
    _peak_log2,
    _pow2_floor,
    ipow,
    sum_qterm,
)

DIGITS = 12
#: Terms whose ratios are checked per sample.
CHECKED_TERMS = 200
#: ratio_at's value while some denominator bound is not yet positive.
NOT_YET = 2.0


def floor_at(decay: _Majorant, n: int) -> float:
    """The floor of ``decay.ratio_at(n)`` that lazy certification reads."""
    const, slope = decay.log2_floor
    return _pow2_floor(const + n * slope)


def _signed(magnitude: float, negative: bool) -> Decimal:
    value = Decimal(repr(magnitude)).quantize(Decimal("1e-6"))
    return -value if negative else value


def unit(top: float = 0.98) -> st.SearchStrategy[Decimal]:
    """A value in (-1, 1), half the time with magnitude in [0.9, top]."""
    magnitude = st.one_of(
        st.floats(0, 0.9), st.floats(0.9, top), st.sampled_from([0.95, top])
    )
    return st.builds(_signed, magnitude, st.booleans())


@st.composite
def wedge(draw) -> tuple[Decimal, Decimal, Decimal]:
    """``(x, t, q)`` in the bilateral domain, ``|q|`` up to ``0.95*min(|x|, |t|)``."""
    nonzero = unit().filter(lambda v: abs(v) >= Decimal("0.01"))
    x, t = draw(nonzero), draw(nonzero)
    fraction = draw(st.one_of(st.floats(0.01, 0.95), st.just(0.95)))
    return x, t, _signed(float(min(abs(x), abs(t))) * fraction, draw(st.booleans()))


#: (builder, strategy of its arguments)
PORTED = [
    (_qxt_naive, st.tuples(unit(), unit(), unit())),
    (_qxt_theta, st.tuples(unit(), unit(), unit())),
    (partial(_qxt_theta, first=1), st.tuples(unit(), unit(), unit())),
    (_qxt_alt, st.tuples(unit(), unit(), unit())),
    (_lambert_theta, st.tuples(unit().filter(bool))),
    (_glambert_naive, st.tuples(unit(), unit())),
    (partial(_glambert_naive, first=0), st.tuples(unit(), unit())),
    (_glambert_theta, st.tuples(unit(), unit())),
    (_fine, st.tuples(unit(), unit(), unit(), unit())),
    (_rogers_fine_rhs, st.tuples(unit(), unit(), unit(), unit())),
    (_fine_122_rhs, st.tuples(unit(), unit(), unit(), unit())),
    (_fine_163_series, st.tuples(unit(), unit(), unit(), unit())),
    (_poch_series, st.tuples(unit(), unit(), unit())),
    (_gosper_poch_rhs, st.tuples(unit(), unit(), unit())),
    (
        _osler_single,
        st.tuples(
            unit(), unit(), unit(),
            *(st.integers(low, 4).map(Decimal) for low in (1, 0, 1, 0)),
        ),
    ),
    (_chain_geo, st.tuples(unit(), unit(), unit(), unit())),
    (_wrench_lhs, st.tuples(unit(), unit().filter(bool))),
    (_xq_swap_rhs, st.tuples(unit(), unit().filter(bool))),
    (_minus_naive, wedge()),
    (_minus_theta, wedge()),
]


def _rational(magnitude: float, negative: bool, denominator: int) -> Fraction:
    # Rounding may reach the denominator itself: keep |value| < 1.
    value = Fraction(min(round(magnitude * denominator), denominator - 1), denominator)
    return -value if negative else value


def rational_unit(top: float = 0.98) -> st.SearchStrategy[Fraction]:
    """A rational in (-1, 1) with a numerator and a denominator of one to
    four digits, half the time with magnitude in [0.9, top]."""
    magnitude = st.one_of(
        st.floats(0, 0.9), st.floats(0.9, top), st.sampled_from([0.95, top])
    )
    denominator = st.one_of(st.integers(1, 99), st.integers(100, 9999))
    return st.builds(_rational, magnitude, st.booleans(), denominator)


@st.composite
def random_series(draw, shared: bool = False, rational: bool = False) -> tuple:
    """A random convergent description, as a builder plus its arguments;
    with ``shared``, all factors share one running value ``c1*q**(s*i + k)``,
    and with ``rational``, every parameter is an exact ``Fraction``."""
    real = rational_unit if rational else unit
    number = Fraction if rational else Decimal
    factors = []
    if shared:
        value = draw(real()), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 3))):
        power = draw(st.sampled_from([1, -1]))
        pochhammer = draw(st.booleans())
        if pochhammer and power > 0:
            c0 = draw(st.sampled_from([number(1), draw(real())]))
        else:
            # |c0| >= 1 > |c1| keeps denominators away from zero, lets the
            # bounds of evaluated factors certify, and keeps the summands of
            # Pochhammer denominators from growing.
            c0 = draw(st.sampled_from([number(1), number("1.25"), number("1.5")]))
        if not shared:
            value = draw(real()), draw(st.integers(1, 2)), draw(st.integers(0, 2))
        c1, s, k = value
        factors.append(
            Factor(
                c1,
                s=s,
                k=k,
                power=power,
                pochhammer=pochhammer,
                c0=c0 * draw(st.sampled_from([1, -1])),
            )
        )
    theta = draw(st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(0, 2))))
    z = draw(real(0.95))
    first = draw(st.integers(0, 2))

    def build(q: Decimal) -> QTerm:
        return QTerm(q, z=z, theta=theta, factors=tuple(factors), first=first)

    return build, (draw(real()),)


def _check_majorant(build, params) -> None:
    ctx = make_context(DIGITS)
    with localcontext(ctx.dec):
        series = build(*params)
        term, decay = _kernel(series), _Majorant(series)
        terms, ratios = [], []
        for n in range(series.first, series.first + CHECKED_TERMS):
            terms.append(abs(term(n)))
            ratios.append(Decimal(decay.ratio_at(n)))
        slack = 1 + Decimal(1).scaleb(-(ctx.working_digits - 5))
        # worst[i]: the largest |T_{m+1}/T_m| over m >= i.
        worst = [Decimal(0)] * len(terms)
        for i in range(len(terms) - 2, -1, -1):
            if terms[i]:
                ratio = terms[i + 1] / terms[i]
            else:
                ratio = Decimal(0) if not terms[i + 1] else Decimal("Infinity")
            worst[i] = max(ratio, worst[i + 1])
        for i, rho in enumerate(ratios[:-1]):
            if rho != NOT_YET:
                assert worst[i] <= rho * slack, (i + series.first, worst[i], rho)


def _check_tail(build, params, digits: int = DIGITS, extra: int = 20) -> None:
    """Each ``tail_bound`` covers the gap to the same sum at ``extra`` more
    digits; ``params`` must be exact at both precisions."""
    try:
        coarse = sum_qterm(build, params, make_context(digits), "coarse")
        fine = sum_qterm(build, params, make_context(digits + extra), "fine")
    except DivergenceError:
        # Slow series near |q| = 1 can exhaust the engine's term budget;
        # they report no tail bound to check.
        return
    with localcontext(make_context(digits + 2 * extra).dec):
        assert abs(coarse.value - fine.value) <= coarse.tail_bound + fine.tail_bound


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ported_majorants_bound_every_later_ratio(data) -> None:
    for build, args in PORTED:
        params = data.draw(args)
        _check_majorant(build, params)
        _check_tail(build, params)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_series())
def test_random_majorants_bound_every_later_ratio(series) -> None:
    build, params = series
    _check_majorant(build, params)
    _check_tail(build, params)


# ---------------------------------------------------------------------------
# The peak bound from which a sum takes its digits before its first term.

#: Partial sums recomputed per peak check.
PEAK_TERMS = 2000


def _check_peak(series: QTerm, digits: int = DIGITS) -> float:
    """``2**_peak_log2`` is at least every partial sum the engine forms (the
    first :data:`PEAK_TERMS` of a slower sum), recomputed at 20 more
    digits; returns the bound."""
    ctx = make_context(digits)
    try:
        with localcontext(ctx.dec):
            bound = _peak_log2(series, _Majorant(series), ctx, ctx.epsilon)
    except DivergenceError:
        # ratio_at stays at 1 or more for the engine's whole term budget
        # (z = 1 can be drawn), or stops falling past the digit budget: the
        # engine refuses it too.
        with pytest.raises(DivergenceError):
            series.sum(ctx, "peak")
        return math.inf
    assert math.isfinite(bound)
    try:
        terms = min(series.sum(ctx, "peak").terms_used, PEAK_TERMS)
    except DomainError:
        # Refused past the digit budget before its first term.
        return bound
    except DivergenceError:
        terms = PEAK_TERMS
    with localcontext(make_context(digits + 20).dec):
        term, total, peak = _kernel(series), Decimal(0), Decimal(0)
        for n in range(series.first, series.first + terms):
            total += term(n)
            peak = max(peak, abs(total))
        assert peak <= Decimal(2) ** Decimal(repr(bound)), (peak, bound)
    return bound


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(random_series(), random_series(rational=True)))
def test_peak_bound_covers_every_partial_sum(series) -> None:
    build, params = series
    _check_peak(build(*params))


def test_a_majorant_that_never_falls_below_one_is_refused_as_divergent() -> None:
    """``z = 1``: ``ratio_at`` stays above 1 for the engine's whole term
    budget, and both the peak bound and the sum raise ``DivergenceError``."""
    assert _check_peak(QTerm(Fraction(1, 2), z=Fraction(1))) == math.inf


def test_growing_terms_are_refused_before_any_term_at_once() -> None:
    """Terms that grow 3.6-fold per index, ``|q| = 1`` under a theta weight,
    and 3-fold by ``z = 3``: the peak bound refuses each sum as divergent,
    not as short of digits, before its first term."""
    series = QTerm(
        Fraction(1),
        z=Fraction(3595, 3969),
        theta=(3, 0),
        factors=(Factor(Fraction(1), power=-1, pochhammer=True, c0=Fraction(5, 4)),),
    )
    for description in (series, QTerm(Fraction(1, 2), z=Fraction(3))):
        streams = []
        started = time.perf_counter()
        with pytest.raises(DivergenceError, match="do not shrink"):
            description.sum(make_context(DIGITS), "growing", term=streams.append)
        assert time.perf_counter() - started < 0.1
        assert streams == []


def test_a_denominator_no_float_resolves_still_gets_a_sound_peak_bound() -> None:
    """``1 - x`` is 10**-19: 1.0 in floats, but past the pole scan's
    tolerance 10**-20 at 30 digits.  The bound is that of the summand
    ``1/(1 - x) = 10**19``, from a ``Decimal`` difference, and the sum
    certifies at the digits it asks for."""
    ctx = make_context(30)
    x = 1 - Decimal("1e-19")
    assert float(x) == 1.0 and 1 - x > ctx.pole_tolerance()
    series = QTerm(Decimal("0.5"), z=Decimal("0.5"), factors=(Factor(x, power=-1),))
    bound = _check_peak(series, 30)
    assert 19 * math.log2(10) < bound < 19 * math.log2(10) + 2
    sv = series.sum(ctx, "pole")
    assert sv.tail_bound <= ctx.epsilon
    assert abs(sv.value - Decimal("1e19")) < 2


@pytest.mark.parametrize("q", [Decimal("0.5"), Fraction(1, 2)])
def test_a_vanishing_denominator_is_a_pole_before_any_term(q) -> None:
    """``1 - 2*q**n`` is 0 at n = 1 for q = 1/2: the peak bound raises
    ``PoleError`` there, and the sum with it, before its first term."""
    one = type(q)(1)
    series = QTerm(q, start=one, z=q, factors=(Factor(2, power=-1, c0=one),))
    ctx = make_context(DIGITS)
    with pytest.raises(PoleError, match="vanishes at index 1"):
        _peak_log2(series, _Majorant(series), ctx, ctx.epsilon)
    streams = []
    with pytest.raises(PoleError):
        series.sum(ctx, "pole", term=streams.append)
    assert streams == []


def test_a_default_c0_with_a_rational_q_is_a_pole() -> None:
    """With a ``Fraction`` q, a factor's default ``c0``, the ``Decimal`` 1,
    is taken exactly where the peak bound forms ``1 - 2*q``: it is 0, a
    ``PoleError``, not a ``TypeError`` from mixing the two types."""
    series = QTerm(Fraction(1, 2), z=Fraction(1, 2), factors=(Factor(2, power=-1),))
    with pytest.raises(PoleError, match="vanishes at index 1"):
        series.sum(make_context(50), "t")


@pytest.mark.parametrize("q", [Decimal("0.5"), Fraction(1, 2)])
def test_a_denominator_bound_not_yet_positive_defers_the_ratio(q) -> None:
    """``1 - 3*q**n`` at q = 1/2: the bound ``1 - 3*q**(n+1)`` on the later
    denominators is negative at n = 0, so ``ratio_at(0)`` is ``NOT_YET``;
    from n = 1 on it is a ratio, and the sum certifies its value against an
    exact partial sum."""
    one = type(q)(1)
    series = QTerm(q, start=one, z=q, factors=(Factor(3, power=-1, c0=one),))
    decay = _Majorant(series)
    assert [decay.ratio_at(n) == NOT_YET for n in range(4)] == [True, False, False, False]
    assert decay.ratio_at(3) < 1
    ctx = make_context(50)
    sv = series.sum(ctx, "deferred")
    half = Fraction(1, 2)
    exact = sum(half**n / (1 - 3 * half**n) for n in range(sv.terms_used + 200))
    assert sv.tail_bound <= ctx.epsilon
    assert abs(Fraction(sv.value) - exact) <= sv.tail_bound


# ---------------------------------------------------------------------------
# The majorant at the edges of the float range.

#: Working context of the exact recomputation below.
EXACT = Context(prec=60, Emin=-10**7, Emax=10**7)


def _running_product_bound(series: QTerm, n: int) -> Decimal | None:
    """The majorant's per-factor bounds at ``n`` (``qcore`` module
    docstring), multiplied at 60 digits; None where a denominator bound is
    not positive."""
    with localcontext(EXACT):
        q = abs(series.q)

        def h(f: Factor, i: int) -> Decimal:
            return abs(f.c1) * ipow(q, f.s * i + f.k)

        rho = abs(series.z)
        if series.theta is not None:
            step, shift = series.theta
            rho *= ipow(q, step * n + shift)
        dens = []
        for f in series.factors:
            c0 = abs(f.c0)
            if f.pochhammer and f.power > 0:
                rho *= c0 + h(f, n)
            elif f.pochhammer:
                dens.append(c0 - h(f, n))
            elif f.power < 0:
                rho *= c0 + h(f, n)
                dens.append(c0 - h(f, n + 1))
            else:
                rho *= c0 + h(f, n + 1)
                dens.append(c0 - h(f, n))
        if any(den <= 0 for den in dens):
            return None
        for den in dens:
            rho /= den
        return rho


def _tiny(k: int) -> Decimal:
    return Decimal(1).scaleb(-k)


#: (description, indices): q = 0, |q| = 10^-400, c0 = -xt ~ 10^-400 with
#: z = 10^400, a huge z whose ratio lands in range, and indices where
#: |q|^(s*n+k) underflows a double.
EDGES = [
    (
        QTerm(
            Decimal(0),
            z=Decimal("0.5"),
            theta=(2, 1),
            factors=(
                Factor(Decimal("0.5"), power=-1),
                Factor(Decimal("-0.3"), pochhammer=True),
            ),
        ),
        range(4),
    ),
    (QTerm(Decimal(0), theta=(1, 0), factors=(Factor(Decimal("0.5"), s=2),)), range(4)),
    (_lambert_theta(_tiny(400)), range(1, 6)),
    (_glambert_naive(Decimal("0.5"), -_tiny(400)), range(1, 6)),
    (_minus_theta(_tiny(200), _tiny(200), _tiny(450)), range(1, 6)),
    (_minus_naive(_tiny(200), -_tiny(200), _tiny(450)), range(1, 6)),
    (
        QTerm(
            _tiny(100),
            z=Decimal(10) ** 400,
            theta=(2, 0),
            factors=(Factor(Decimal("0.5"), power=-1),),
        ),
        range(1, 5),
    ),
    (_glambert_naive(Decimal("0.5"), Decimal("0.5")), (1074, 1100, 2000, 5000)),
    (_lambert_theta(Decimal("-0.5")), (500, 540, 1100)),
    (
        QTerm(
            Decimal("0.9"),
            z=Decimal("0.99"),
            factors=(Factor(Decimal("0.7"), s=2, k=3, power=-1, pochhammer=True),),
        ),
        (3000, 3400, 10**5),
    ),
]

#: Denominator bounds 10^-12 above 0, at n = 0.
NEAR_POLES = [
    (
        QTerm(
            _tiny(20),
            theta=(2, 1),
            factors=(Factor(1 - _tiny(12), power=-1, pochhammer=True),),
        ),
        range(3),
    ),
    (QTerm(Decimal("0.5"), z=Decimal("0.5"), factors=(Factor(1 - _tiny(12)),)), range(3)),
]


@pytest.mark.parametrize(
    "series, indices, tight",
    [(*edge, True) for edge in EDGES] + [(*edge, False) for edge in NEAR_POLES],
)
def test_ratio_at_bounds_the_running_product_at_the_float_edges(
    series, indices, tight
) -> None:
    with localcontext(make_context(30).dec):
        decay = _Majorant(series)
    # ratio_at is a closed form: it needs no calls in index order.
    for n in reversed(indices):
        rho = decay.ratio_at(n)
        assert rho >= min(floor_at(decay, n), NOT_YET), (n, rho, floor_at(decay, n))
        exact = _running_product_bound(series, n)
        if exact is None:
            assert rho == NOT_YET, n
            continue
        assert Decimal(rho) >= exact, (n, rho, exact)
        if exact < Decimal(2) ** -1022:
            assert rho <= 2.0**-1022, (n, rho, exact)
        elif tight:
            # Away from poles, no looser than the float allowances make it.
            assert Decimal(rho) <= exact * (1 + _tiny(10)), (n, rho, exact)


# ---------------------------------------------------------------------------
# Precision tapering: the late summands of a sum above 200 working digits are
# computed at fewer digits, within the floor of the peak partial sum.

@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data(), digits=st.sampled_from((300, 1000)))
def test_tapered_sums_stay_within_their_bounds(data, digits) -> None:
    """Ported builders at long operands: each drawn parameter times
    ``1 - 1/33333333``, whose expansion never ends, rounded to the working
    precision, so that every operation rounds."""
    build, args = data.draw(st.sampled_from(PORTED))
    with localcontext(make_context(digits).dec):
        factor = 1 - Decimal(1) / 33333333
        params = tuple(value * factor for value in data.draw(args))
        series = build(*params)
        rho = _Majorant(series).ratio_at(series.first + 10**6)
    # Keep the sample fast: at most about 3 * 10**6 / digits terms.
    assume(rho < 1 and (digits + 30) * digits <= -3e6 * math.log10(rho))
    _check_tail(build, params, digits, 30)


def test_tapered_sum_that_grows_then_cancels_stays_within_its_bound() -> None:
    """``t^n/(x;q)_{n+1}`` rises to about 10**26 before it cancels to 0.98."""
    params = (Decimal("-0.99"), Decimal("0.95"), Decimal("0.976943"))
    _check_tail(_poch_series, params, 300, 30)


# ---------------------------------------------------------------------------
# Lazy certification: the engine reads ratio_at only where a test can use it.


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(random_series(), random_series(rational=True)))
def test_lowest_is_at_most_every_ratio_around_the_flat_index(series) -> None:
    """``ratio_at(n) >= min(floor(n), 2)`` on both sides of the last index at
    which some bound's exponent ``a + n*b`` falls past -55, where its factor
    becomes exactly 1.0; the floor is ``2**(const + n*slope)`` less its
    margin, with a theta weight too."""
    build, params = series
    with localcontext(make_context(DIGITS).dec):
        decay = _Majorant(build(*params))
    crossings = [(-55 - a) / b for a, b, _, _ in decay.bounds if b < 0]
    flat = math.ceil(min(max(crossings, default=50), 2**53))
    indices = [n for n in range(flat - 5, flat + 6) if n >= 0] + [0, 1, 2, 10**6]
    for n in indices:
        floor = floor_at(decay, n)
        assert decay.ratio_at(n) >= min(floor, NOT_YET), (n, floor)
        x = decay.const + n * decay.slope
        if -1000 < x < 1000:
            assert 1 - 2.0**-47 < floor / 2**x < 1, (n, floor)


@pytest.mark.parametrize(
    "series",
    [
        _lambert_theta(Decimal("0.5")),
        _lambert_theta(Decimal("-0.9")),
        _qxt_theta(Decimal("0.6"), Decimal("0.5"), Decimal("0.7")),
        QTerm(Decimal("0.3"), z=Decimal(10) ** 300, theta=(1, 0), factors=(Factor(Decimal("0.9")),)),
    ],
    ids=["lambert-0.5", "lambert-0.9", "qxt", "large-z"],
)
def test_the_floor_holds_where_it_leaves_the_normal_floats(series) -> None:
    """Around the index where ``const + n*slope`` falls past the normal
    floats the floor drops from a normal float to 0, and every
    ``ratio_at(n)`` stays at least it."""
    with localcontext(make_context(30).dec):
        decay = _Majorant(series)
    const, slope = decay.log2_floor
    assert slope < 0
    edge = math.ceil((-1022 - const) / slope)
    indices = [n for n in range(edge - 4, edge + 4) if n >= series.first]
    for n in indices + [series.first, 2 * edge, 10 * edge]:
        floor = floor_at(decay, n)
        assert decay.ratio_at(n) >= min(floor, NOT_YET), (n, floor)
    assert floor_at(decay, edge - 2) >= 2.0**-1022
    assert floor_at(decay, edge + 1) == 0


def _outcome(series: QTerm, decay, ctx) -> tuple:
    """The sum of ``series`` under ``decay`` at ``ctx``, bit for bit, or the
    message it fails with."""
    with localcontext(ctx.dec):
        gen = TermGenerator(_kernel(series), decay)
    try:
        sv = sum_series(gen, series.first, ctx, "lazy")
    except DivergenceError as exc:
        return (str(exc),)
    return sv.value.as_tuple(), sv.terms_used, sv.tail_bound.as_tuple()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(random_series(), random_series(rational=True)),
    st.sampled_from((DIGITS, 50, 250)),
    st.booleans(),
)
def test_lazy_certification_returns_what_the_eager_engine_returns(
    series, digits, weightless
) -> None:
    """Half the descriptions lose their theta weight, if any, so that most
    have a floor that does not fall with ``n``."""
    build, params = series
    description, ctx = build(*params), make_context(digits)
    if weightless:
        description = replace(description, theta=None)
    with localcontext(ctx.dec):
        decay = _Majorant(description)
    # Keep the sample fast: at most about 4000 terms.
    assume(decay.ratio_at(description.first + 2000) < 1 - 2.3 * digits / 4000)
    # Without its floor the engine reads ratio_at at every index.
    eager = SimpleNamespace(ratio_at=decay.ratio_at)
    assert _outcome(description, decay, ctx) == _outcome(description, eager, ctx)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(random_series(), random_series(rational=True)),
    st.tuples(st.integers(1, 4), st.integers(0, 2)),
    st.sampled_from((DIGITS, 50, 250)),
)
def test_lazy_theta_certification_returns_what_the_eager_engine_returns(
    series, theta, digits
) -> None:
    """With a theta weight the floor falls along a line, and so does the
    reach of the tail test rise: the lazy engine returns bit for bit what
    one that reads ``ratio_at`` at every index returns, guard included, and
    past the guard's burn-in it reads fewer."""
    build, params = series
    description, ctx = build(*params), make_context(digits)
    description = replace(description, theta=description.theta or theta)
    with localcontext(ctx.dec):
        decay = _Majorant(description)
    calls = {"lazy": 0, "eager": 0}

    def counted(kind: str, n: int) -> float:
        calls[kind] += 1
        return decay.ratio_at(n)

    lazy = SimpleNamespace(log2_floor=decay.log2_floor, ratio_at=partial(counted, "lazy"))
    eager = SimpleNamespace(ratio_at=partial(counted, "eager"))
    outcome = _outcome(description, lazy, ctx)
    assert outcome == _outcome(description, eager, ctx)
    assert calls["lazy"] <= calls["eager"]
    if len(outcome) > 1 and outcome[1] > GUARD_BURN_IN + 2:
        assert calls["lazy"] < calls["eager"], (outcome[1], calls)


# ---------------------------------------------------------------------------
# The composed term kernel: each summand bit for bit as a running product
# per factor gives it, under a precision that drops mid-sum.


def _reference_form(series: QTerm) -> tuple | None:
    """The summand's cheaper form by the rule of the ``qcore`` module
    docstring, decided in ``Fraction`` arithmetic: ``("bracket", i, j)``
    where the evaluated factors are ``1 - c1_a*c1_b*q**((s_a + s_b)*n + k_a
    + k_b)`` over the denominators ``i`` and ``j`` (factor indices, in
    order) ``1 - c1_a*q**(s_a*n + k_a)`` and ``1 - c1_b*q**(s_b*n + k_b)``;
    ``("ratio", delta, j)`` where they are one numerator ``c0' - u`` and the
    denominator ``j``, ``c0 - u``, with ``delta = c0' - c0`` an int; else None."""
    evaluated = [i for i, f in enumerate(series.factors) if not f.pochhammer]
    nums = [i for i in evaluated if series.factors[i].power > 0]
    dens = [i for i in evaluated if series.factors[i].power < 0]
    if len(nums) == 1 and len(dens) in (1, 2):
        top = series.factors[nums[0]]
        parts = [series.factors[i] for i in dens]
        if len(dens) == 2:
            a, b = parts
            if (
                all(Fraction(f.c0) == 1 for f in (top, a, b))
                and Fraction(top.c1) == Fraction(a.c1) * Fraction(b.c1)
                and (top.s, top.k) == (a.s + b.s, a.k + b.k)
            ):
                return ("bracket", *dens)
        else:
            (bottom,) = parts
            delta = Fraction(top.c0) - Fraction(bottom.c0)
            same = Fraction(top.c1) == Fraction(bottom.c1) and (top.s, top.k) == (
                bottom.s, bottom.k
            )
            if same and delta.denominator == 1:
                return ("ratio", int(delta), dens[0])
    return None


def _rounded_once(value) -> Decimal:
    """An exact rational rounded once to the current precision."""
    value = Fraction(value)
    return Decimal(value.numerator) / Decimal(value.denominator)


def _reference_terms(
    series: QTerm, precisions: list[int], coeff: Decimal | None = None, form="rule"
) -> list[Decimal]:
    """``T_first, T_first+1, ...``, one at each of ``precisions``, from a
    running value per factor (``qcore`` module docstring): the summand in the
    form :func:`_reference_form` gives, or in ``form``; with a theta weight
    and ``z != 1``, the coefficient times one running ``z*q**(step*n +
    shift)``; the constants rounded to the precision of the summand whenever
    it changed.  With a running coefficient ``coeff`` and an exact ``q =
    p/r``, the kernel that takes over an exact sum: each running value and
    each ``c0`` rounded once, steps by ``* p**s`` and then ``/ r**s``, ``z``
    by its numerator and then its denominator, and no constant rounded."""
    q, first, factors = series.q, series.first, series.factors
    form = _reference_form(series) if form == "rule" else form
    exact = coeff is not None
    built_at = precisions[0]
    with localcontext(Context(prec=built_at)):
        w = w_step = None
        if exact:
            p, r = q.numerator, q.denominator
            z_top, z_bottom = Fraction(series.z).as_integer_ratio()
            c0s = [_rounded_once(f.c0) for f in factors]
            u = [_rounded_once(f.c1 * q ** (f.s * first + f.k)) for f in factors]
            if series.theta is not None:
                step, shift = series.theta
                w = _rounded_once(q ** (step * first + shift))
        else:
            coeff = +series.start
            c0s = [f.c0 for f in factors]
            u = [f.c1 * ipow(q, f.s * first + f.k) for f in factors]
            if series.theta is not None:
                step, shift = series.theta
                w, w_step = ipow(q, step * first + shift), ipow(q, step)
                if series.z != 1:
                    w = series.z * w
        full = series.z, w_step, [ipow(q, f.s) for f in factors]
    folded = not exact and w is not None
    z, w_step, u_step = full
    tapers, rounded_to = built_at > TAPER_FROM and not exact, built_at
    kinds = [(f.pochhammer, f.power < 0) for f in factors]
    terms = []
    for prec in precisions:
        with localcontext(Context(prec=prec)):
            if tapers and prec != rounded_to:
                z = +full[0]
                w_step = None if full[1] is None else +full[1]
                u_step = [+x for x in full[2]]
                rounded_to = prec
            diffs = [c0 - value for c0, value in zip(c0s, u)]
            if form is not None and form[0] == "bracket":
                value = coeff / diffs[form[1]] + coeff / diffs[form[2]] - coeff
            elif form is not None:
                value = coeff * form[1] / diffs[form[2]] + coeff
            else:
                value = coeff
                for diff, kind in zip(diffs, kinds):
                    if kind == (False, False):
                        value *= diff
                divisor = None
                for diff, kind in zip(diffs, kinds):
                    if kind == (False, True):
                        divisor = diff if divisor is None else divisor * diff
                if divisor is not None:
                    value /= divisor
            terms.append(value)
            if exact:
                if z_top != 1:
                    coeff *= z_top
                if z_bottom != 1:
                    coeff /= z_bottom
            elif series.z != 1 and not folded:
                coeff *= z
            if w is not None:
                coeff *= w
                w = w * p**step / r**step if exact else w * w_step
            for diff, kind in zip(diffs, kinds):
                if kind == (True, False):
                    coeff *= diff
            divisor = None
            for diff, kind in zip(diffs, kinds):
                if kind == (True, True):
                    divisor = diff if divisor is None else divisor * diff
            if divisor is not None:
                coeff /= divisor
            if exact:
                u = [value * p**f.s / r**f.s for value, f in zip(u, factors)]
            else:
                u = [running * step for running, step in zip(u, u_step)]
    return terms


@st.composite
def shaped_series(draw, rational: bool = False, lookalike: bool = False) -> tuple:
    """A random description, as a builder plus its arguments, whose
    evaluated factors have one of the kernel's cheaper forms: the ``qxt``
    bracket ``(1 - c1_a*c1_b*q**((s_a + s_b)*n + k_a + k_b)) / ((1 -
    c1_a*q**(s_a*n + k_a)) (1 - c1_b*q**(s_b*n + k_b)))``, or a numerator
    and a denominator ``(c0' - u) / (c0 - u)`` on one running value ``u``
    with an int ``c0' - c0``, in random factor order, beside up to one
    Pochhammer factor.  A ``lookalike`` has the shape but not the rule: the
    bracket's ``c1`` is the product moved in its ninth digit, or ``c0' -
    c0`` is not an int."""
    real = rational_unit if rational else unit
    number = Fraction if rational else Decimal
    if draw(st.booleans()):
        (a, s_a, k_a), (b, s_b, k_b) = (
            (draw(real()), draw(st.integers(1, 2)), draw(st.integers(0, 2))) for _ in "ab"
        )
        top = a * b
        if lookalike:
            top += number(1) / 10**9
        evaluated = [
            Factor(top, s=s_a + s_b, k=k_a + k_b),
            Factor(a, s=s_a, k=k_a, power=-1),
            Factor(b, s=s_b, k=k_b, power=-1),
        ]
    else:
        c1, s, k = draw(real()), draw(st.integers(1, 2)), draw(st.integers(0, 2))
        # |c0| >= 1 > |c1| keeps the denominator away from zero.
        c0 = number(draw(st.sampled_from([1, -1, 2, -2])))
        other = c0 + draw(st.sampled_from([-3, -2, -1, 0, 1, 2]))
        if lookalike:
            other += number(1) / 4
        evaluated = [Factor(c1, s=s, k=k, c0=other), Factor(c1, s=s, k=k, power=-1, c0=c0)]
    factors = draw(st.permutations(evaluated))
    if draw(st.booleans()):
        c1, k = draw(real()), draw(st.integers(0, 2))
        power = draw(st.sampled_from([1, -1]))
        factors.append(Factor(c1, k=k, power=power, pochhammer=True))
    theta = draw(st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(0, 2))))
    z = draw(st.one_of(st.just(number(1)), real(0.95)))
    first = draw(st.integers(0, 2))

    def build(q: Decimal) -> QTerm:
        return QTerm(q, z=z, theta=theta, factors=tuple(factors), first=first)

    return build, (draw(real()),)


@st.composite
def geometric_series(draw, rational: bool = False) -> tuple:
    """A random description in the shape of the naive geometric routes: one
    evaluated denominator ``c0 - c1*q**(s*n + k)``, no numerator, no theta
    weight and no Pochhammer factor, with ``z != 1``."""
    real = rational_unit if rational else unit
    number = Fraction if rational else Decimal
    c1, s, k = draw(real()), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    # |c0| >= 1 > |c1| keeps the denominator away from zero.
    c0 = number(draw(st.sampled_from([1, -1, 2, -2])))
    start, z, first = draw(real()), draw(real(0.95)), draw(st.integers(0, 2))

    def build(q: Decimal) -> QTerm:
        factors = (Factor(c1, s=s, k=k, power=-1, c0=c0),)
        return QTerm(q, start=start, z=z, factors=factors, first=first)

    return build, (draw(real()),)


#: Working precisions at 50 digits, and at 300 digits dropping twice mid-sum.
KERNEL_PRECISIONS = [
    [make_context(50).working_digits] * 120,
    [make_context(300).working_digits] * 40 + [180] * 40 + [100] * 40,
]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        random_series(),
        random_series(shared=True),
        shaped_series(),
        shaped_series(lookalike=True),
        geometric_series(),
    ),
    st.sampled_from(KERNEL_PRECISIONS),
)
def test_term_kernel_matches_a_running_product_bit_for_bit(series, precisions) -> None:
    """``q`` times ``1 - 1/33333333``, whose expansion never ends, so that its
    powers are full-length constants that change when rounded."""
    build, (q,) = series
    with localcontext(Context(prec=precisions[0])):
        description = build(q * (1 - Decimal(1) / 33333333))
        term = _kernel(description)
    expected = _reference_terms(description, precisions)
    for n, (prec, want) in enumerate(zip(precisions, expected), description.first):
        with localcontext(Context(prec=prec)):
            got = term(n)
        assert got.as_tuple() == want.as_tuple(), (n, prec, got, want)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        random_series(rational=True),
        random_series(shared=True, rational=True),
        shaped_series(rational=True),
        shaped_series(rational=True, lookalike=True),
        geometric_series(rational=True),
    ),
    st.sampled_from(KERNEL_PRECISIONS),
)
def test_handed_over_exact_kernel_matches_a_running_product_bit_for_bit(
    series, precisions
) -> None:
    """The kernel that an exact sum hands its running coefficient to, from
    the first index on."""
    build, (q,) = series
    description = build(q)
    with localcontext(Context(prec=precisions[0])):
        coeff = Decimal(2) / 3
        term = _kernel(description, coeff)
    expected = _reference_terms(description, precisions, coeff)
    for n, (prec, want) in enumerate(zip(precisions, expected), description.first):
        with localcontext(Context(prec=prec)):
            got = term(n)
        assert got.as_tuple() == want.as_tuple(), (n, prec, got, want)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(geometric_series(), geometric_series(rational=True))
def test_the_naive_geometric_shape_gets_its_own_form(series, exact_series) -> None:
    """The ``Decimal`` kernel and the one that an exact sum hands over to
    take the geometric form for that shape, and the product form once the
    shape gains a numerator or, with ``Decimal`` parameters, has ``z = 1``."""
    (build, (q,)), (exact_build, (exact_q,)) = series, exact_series
    description, exact = build(q), exact_build(exact_q)
    with localcontext(Context(prec=60)):
        assert _kernel(description).__name__ == "geometric"
        assert _kernel(exact, Decimal(1)).__name__ == "geometric"
        assert _kernel(replace(description, z=Decimal(1))).__name__ == "term"
        wider = replace(description, factors=description.factors + (Factor(q),))
        assert _kernel(wider).__name__ == "term"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(shaped_series(lookalike=True), st.sampled_from(KERNEL_PRECISIONS))
def test_a_lookalike_of_a_cheaper_form_takes_the_product_path(series, precisions) -> None:
    """A bracket whose ``c1`` is not the exact product, or a ratio whose
    ``c0' - c0`` is not an int, is summed as the product of its factors,
    and the summands tell the two paths apart where the running values are
    not 0."""
    build, (q,) = series
    assume(q and all(f.c1 for f in build(q).factors))
    with localcontext(Context(prec=precisions[0])):
        description = build(q * (1 - Decimal(1) / 33333333))
        term = _kernel(description)
    assert _reference_form(description) is None
    got = []
    for n, prec in enumerate(precisions, description.first):
        with localcontext(Context(prec=prec)):
            got.append(term(n).as_tuple())
    product = _reference_terms(description, precisions, form=None)
    assert got == [value.as_tuple() for value in product]
    factors = description.factors
    dens = [i for i, f in enumerate(factors) if f.power < 0 and not f.pochhammer]
    if len(dens) == 2:
        cheaper = ("bracket", *dens)
    else:
        (top,) = (f for f in factors if f.power > 0 and not f.pochhammer)
        cheaper = ("ratio", top.c0 - factors[dens[0]].c0, dens[0])
    other = _reference_terms(description, precisions, form=cheaper)
    assert got != [value.as_tuple() for value in other]


# ---------------------------------------------------------------------------
# The engine against its per-index reference loop (tests/_oracles.py).


def _engine_outcome(engine, term, decay, first: int, ctx) -> tuple:
    """What ``engine`` returns for ``term`` under ``decay`` at ``ctx``, bit for
    bit, or the message it raises, with the index and the precision of every
    call of ``term``."""
    calls = []

    def traced(n: int) -> Decimal:
        calls.append((n, getcontext().prec))
        return term(n)

    try:
        sv = engine(TermGenerator(traced, decay), first, ctx, "blocks")
    except DivergenceError as exc:
        return (str(exc),), calls
    return (sv.value.as_tuple(), sv.terms_used, sv.tail_bound.as_tuple(), sv.method_tag), calls


def _same_as_per_index(make_term, decay, first: int, ctx) -> tuple:
    """The outcome of :func:`sum_series`, asserted equal to that of the
    per-index reference loop; each takes a fresh ``make_term()``."""
    outcome = _engine_outcome(sum_series, make_term(), decay, first, ctx)
    reference = _engine_outcome(sum_series_per_index, make_term(), decay, first, ctx)
    assert outcome == reference
    return outcome


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        random_series(),
        random_series(rational=True),
        shaped_series(),
        geometric_series(),
        geometric_series(rational=True),
    ),
    st.sampled_from((30, 50, 250)),
    st.booleans(),
)
def test_sums_match_the_per_index_loop(series, digits, weightless) -> None:
    """The guard checked in blocks and the taper's gate change no summand,
    precision, stop, bound or guard decision of a description's sum."""
    build, params = series
    description, ctx = build(*params), make_context(digits)
    if weightless:
        description = replace(description, theta=None)
    with localcontext(ctx.dec):
        decay = _Majorant(description)
    # Keep the sample fast: at most about 4000 terms.
    assume(decay.ratio_at(description.first + 2000) < 1 - 2.3 * digits / 4000)

    def make_term():
        with localcontext(ctx.dec):
            return _kernel(description)

    _same_as_per_index(make_term, decay, description.first, ctx)


def _stream(rho: float, segments: list[tuple[str, int]], repeat: bool):
    """A term factory for a hand-written summand stream under the declared
    ratio ``rho``: from 1, each index multiplies the term before by its
    segment's ratio, ``rho/2`` where ``"clean"``, ``-rho/2`` where
    ``"turn"`` and ``3*rho``, a violation, where ``"violate"``; a ``"zero"``
    index returns 0 and keeps the term before.  Past the segments the stream
    repeats them, or falls by ``rho/2``."""
    ratio = Decimal(repr(rho))
    steps = {"clean": ratio / 2, "turn": -ratio / 2, "violate": 3 * ratio, "zero": None}
    pattern = [steps[kind] for kind, length in segments for _ in range(length)]

    def make_term():
        value, i = Decimal(1), 0

        def term(n: int) -> Decimal:
            nonlocal value, i
            past = not repeat and i >= len(pattern)
            step = steps["clean"] if past else pattern[i % len(pattern)]
            i += 1
            if step is None:
                return Decimal(0)
            value *= step
            return value

        return term

    return make_term


def _declared(rho: float, slope: float, lazy: bool) -> SimpleNamespace:
    """``ratio_at(n) = rho * 2**(n*slope)``, with its floor if ``lazy``."""

    def ratio_at(n: int) -> float:
        return rho * 2.0 ** (n * slope)

    if not lazy:
        return SimpleNamespace(ratio_at=ratio_at)
    return SimpleNamespace(ratio_at=ratio_at, log2_floor=(math.log2(rho) - 2.0**-20, slope))


@st.composite
def streams(draw) -> tuple:
    """A hand-written stream's segments, its declared ratio, slope and
    laziness."""
    kinds = st.sampled_from(["clean", "turn", "violate", "zero"])
    lengths = st.one_of(st.integers(1, 40), st.sampled_from([31, 32, 33, 63, 64, 65]))
    segments = draw(st.lists(st.tuples(kinds, lengths), min_size=1, max_size=8))
    rho = draw(st.sampled_from([0.5, 0.9, 0.99]))
    slope = draw(st.sampled_from([0.0, 0.0, -1 / 64]))
    return segments, rho, slope, draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(streams(), st.sampled_from((30, 50, 250)))
def test_streams_match_the_per_index_loop(stream, digits) -> None:
    """Violations that start at any offset from a check, runs of every
    length about the block's and the limit, and zeros: the engine stops or
    raises at the index, with the message, after the term calls of the
    per-index loop."""
    segments, rho, slope, lazy = stream
    ctx = make_context(digits)
    _same_as_per_index(_stream(rho, segments, False), _declared(rho, slope, lazy), 0, ctx)


@pytest.mark.parametrize(
    "segments, raises_at",
    [
        # A run of the limit that starts mid-block, after a clean stretch.
        ([("clean", 40), ("violate", 64)], 103),
        # One short of the limit, a clean index, then the limit.
        ([("clean", 47), ("violate", 63), ("clean", 1), ("violate", 64)], 174),
        # A run from the first index: the burn-in's violations do not count.
        ([("violate", 90)], GUARD_BURN_IN + GUARD_VIOLATION_LIMIT - 1),
        # A failed check ends a run of 32, and the next one another 32.
        ([("clean", 16), ("violate", 32), ("turn", 1), ("violate", 64)], 112),
        # One short of the limit: the sum certifies.
        ([("clean", 50), ("violate", 63), ("turn", 1), ("clean", 200)], None),
    ],
)
@pytest.mark.parametrize("lazy", [True, False])
def test_handwritten_streams_raise_where_the_per_index_loop_raises(
    segments, raises_at, lazy
) -> None:
    ctx = make_context(30)
    stream, decay = _stream(0.9, segments, False), _declared(0.9, 0, lazy)
    outcome, calls = _same_as_per_index(stream, decay, 0, ctx)
    if raises_at is None:
        assert len(outcome) > 1
    else:
        assert outcome == (f"terms violated the declared decay near index {raises_at}",)
        assert calls[-1][0] == raises_at


@pytest.mark.parametrize("digits", [30, 250])
def test_a_stream_that_never_certifies_runs_to_the_term_cap(digits) -> None:
    """A declared ratio above 1 never certifies, and runs of 63 violations
    after clean stretches never raise: both loops call every term to the
    cap, at the same precisions."""
    segments = [("clean", 40), ("violate", 63), ("clean", 64), ("violate", 17)]
    ctx = make_context(digits)
    stream, decay = _stream(1.5, segments, True), _declared(1.5, 0, True)
    outcome, calls = _same_as_per_index(stream, decay, 0, ctx)
    assert outcome[0].startswith("series failed to certify within")
    assert len(calls) == int(outcome[0].split()[-2]) + 1


# ---------------------------------------------------------------------------
# The exact kernel: short rational parameters advanced by int steps.

#: Roundings per index of the exact kernel, as counted in ``qcore``.
ROUNDINGS_PER_INDEX = 20

#: Working precisions at 50 digits, and at 300 and 1000 digits dropping twice
#: mid-sum, so that running values become Decimals at a drop.
EXACT_PRECISIONS = [
    [make_context(50).working_digits] * 120,
    [make_context(300).working_digits] * 40 + [180] * 40 + [100] * 40,
    [make_context(1000).working_digits] * 40 + [500] * 40 + [100] * 40,
]


def _in_decimal(series: QTerm, prec: int) -> QTerm:
    """``series`` with every ``Fraction`` rounded to a ``prec``-digit ``Decimal``."""

    def real(value):
        if isinstance(value, Fraction):
            return Decimal(value.numerator) / Decimal(value.denominator)
        return value

    with localcontext(Context(prec=prec)):
        factors = tuple(replace(f, c0=real(f.c0), c1=real(f.c1)) for f in series.factors)
        return replace(
            series, q=real(series.q), start=real(series.start), z=real(series.z),
            factors=factors,
        )


def _amplifications(series: QTerm, count: int) -> list[float]:
    """For each of the first ``count`` indices ``n``, the largest
    ``|c1*q**(s*i + k)| / |c0 - c1*q**(s*i + k)|`` over the factors and
    ``first <= i <= n``: how much a difference amplifies the relative error
    of its running value (``qcore`` module docstring)."""
    q, worst, found = Fraction(series.q), 0.0, []
    for i in range(series.first, series.first + count):
        for f in series.factors:
            h = Fraction(f.c1) * q ** (f.s * i + f.k)
            gap = abs(Fraction(f.c0) - h)
            worst = max(worst, math.inf if gap == 0 else float(abs(h) / gap))
        found.append(worst)
    return found


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(random_series(rational=True), random_series(shared=True, rational=True)),
    st.sampled_from(EXACT_PRECISIONS),
)
def test_exact_kernel_matches_the_decimal_description(series, precisions) -> None:
    """Each summand ``j`` is within ``20*(j+2)`` roundings at its precision
    (``j + 1`` indices, the start and the switch to ``Decimal`` values),
    amplified by the differences, of the summand of the same description in
    ``Decimal`` at 30 more digits."""
    build, (q,) = series
    description = build(q)
    with localcontext(Context(prec=precisions[0])):
        term = _kernel(description)
    with localcontext(Context(prec=precisions[0] + 30)):
        reference = _kernel(_in_decimal(description, precisions[0] + 30))
    amplifications = _amplifications(description, len(precisions))
    for j, prec in enumerate(precisions):
        n = description.first + j
        with localcontext(Context(prec=prec)):
            got = term(n)
        with localcontext(Context(prec=prec + 30)):
            want = reference(n)
        amplification = amplifications[j]
        assume(amplification < 1e6)
        rounding = Decimal(10) ** (1 - prec) / 2
        allowed = ROUNDINGS_PER_INDEX * (j + 2) * (1 + Decimal(amplification)) * rounding
        with localcontext(Context(prec=prec + 60)):
            assert abs(got - want) <= allowed * abs(want), (n, prec, got, want)


def _first_long_index(series: QTerm, precisions: list[int]) -> int | None:
    """The index at which the rule turns the running values into Decimals:
    the first at which some ``r**(s*n + k)`` is longer than ``_pair_limit``
    of that index's precision."""
    r = Fraction(series.q).denominator
    keys = {(f.s, f.k) for f in series.factors}
    if series.theta is not None:
        keys.add(series.theta)
    for j, prec in enumerate(precisions):
        n = series.first + j
        longest = max(((r ** (s * n + k)).bit_length() for s, k in keys), default=0)
        if longest > _pair_limit(prec):
            return n
    return None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(random_series(rational=True), random_series(shared=True, rational=True)),
    st.sampled_from(EXACT_PRECISIONS),
)
def test_exact_kernel_switches_where_its_rule_says(series, precisions) -> None:
    build, (q,) = series
    description = build(q)
    with localcontext(Context(prec=precisions[0])):
        term = _kernel(description)
    for j, prec in enumerate(precisions):
        with localcontext(Context(prec=prec)):
            term(description.first + j)
    assert term.switched_at() == _first_long_index(description, precisions)


def test_exact_kernel_switches_at_the_precision_drop() -> None:
    """``q = 7/9973``: ``9973**40`` has 531 bits, below the limit at 325
    digits and above it at 180, so the switch comes exactly at the drop."""
    description = QTerm(Fraction(7, 9973), factors=(Factor(Fraction(1, 2), power=-1),))
    precisions = [325] * 40 + [180] * 10
    assert _pair_limit(180) < (9973**40).bit_length() <= _pair_limit(325)
    with localcontext(Context(prec=precisions[0])):
        term = _kernel(description)
    for n, prec in enumerate(precisions):
        with localcontext(Context(prec=prec)):
            term(n)
    assert term.switched_at() == 40


def test_only_an_exact_description_takes_a_running_coefficient() -> None:
    """The handover's coefficient has no meaning for a ``Decimal`` ``q``:
    the kernel refuses it instead of starting from ``start``."""
    description = QTerm(Decimal("0.5"), factors=(Factor(1, power=-1),))
    with pytest.raises(AssertionError):
        _kernel(description, Decimal(3))


#: Exact descriptions whose running powers outgrow their int pairs mid-sum,
#: at ``q = -80/89``: evaluated factors, Pochhammer factors, a theta weight
#: alone (the weight of a bracketed sum) and one with factors.
HANDOVER_Q = Fraction(-80, 89)
HANDOVER_SERIES = {
    "evaluated": QTerm(
        HANDOVER_Q,
        start=Fraction(2, 3),
        z=Fraction(-3, 7),
        factors=(
            Factor(Fraction(35, 59)),
            Factor(Fraction(-31, 61), power=-1, c0=Fraction(5, 4)),
            Factor(Fraction(35, 59), s=2, k=1, power=-1),
            Factor(Fraction(35, 59), power=-1),
        ),
        first=1,
    ),
    "pochhammer": QTerm(
        HANDOVER_Q,
        z=Fraction(9, 10),
        factors=(
            Factor(Fraction(35, 59), pochhammer=True),
            Factor(Fraction(-31, 61), s=2, pochhammer=True, power=-1),
            Factor(Fraction(1, 3), power=-1, c0=Fraction(-3, 2)),
        ),
    ),
    "theta weight": QTerm(HANDOVER_Q, z=Fraction(-1), theta=(1, 1)),
    "theta with factors": QTerm(
        HANDOVER_Q,
        z=Fraction(5, 6),
        theta=(2, 0),
        factors=(
            Factor(Fraction(92, 97), power=-1),
            Factor(Fraction(-95, 101), k=1, pochhammer=True),
        ),
    ),
}
#: Working precisions of 160 summands: constant, where the switch comes at
#: n = 42 or 43 (84 for the weight alone); dropping twice after it; and
#: dropping after 30 summands to where pairs of exponent 2n + 1 are too long
#: at once (the weight alone switches at 51, and drops again at 80).
HANDOVER_PRECISIONS = {
    "flat": [330] * 160,
    "drop after": [330] * 100 + [200] * 30 + [120] * 30,
    "drop before": [330] * 30 + [200] * 50 + [120] * 80,
}
#: SHA-256 of the ``repr`` of every summand, one per line.
HANDOVER_DIGESTS = {
    ("evaluated", "flat"):
        "a8a3abba95c392a89ef20f6a5f57a6c26217c0cca6709a5531ce6d0e7c88b292",
    ("evaluated", "drop after"):
        "c4cd4fa3333d7525d4c2a63e9d3eade1c448ab65b013640098de0e662f80d02b",
    ("evaluated", "drop before"):
        "2e54414e27e6422ed3eb697231e4df90bca03cf00bc3fbda878038a75c8d2abf",
    ("pochhammer", "flat"):
        "3431805586cf89204e5f0de18cbc4147406ce7aae3865a3006ed8f0f2f5aae9a",
    ("pochhammer", "drop after"):
        "5e151e96c2071038e042b8e51bbbb7bc0070dd0e730de549285ece6fdaebfa34",
    ("pochhammer", "drop before"):
        "03d851883c9a196fbef16c0ac2145ccee1d09dbdf0276715e9da6e31ab06eaae",
    ("theta weight", "flat"):
        "5c265b2746cb766b5d13e41035732a8824d70dc991d171ae9694da297e137758",
    ("theta weight", "drop after"):
        "6c96faa40f741119d7210f1cc0693e02862dcfb7817446d737ee80588a6cb5ca",
    ("theta weight", "drop before"):
        "e110c2769a1db973e879eccabfe5b3fd19b42ccdf478a948bfb6877422b6058d",
    ("theta with factors", "flat"):
        "6b8988321e8a7a65ae9f0a5ff4218c2ebf26a4ea535a70b8cd0d67d228840d55",
    ("theta with factors", "drop after"):
        "e26475dc87799dac29a809641738f45a53ceae8271b7b6e351f52c40ef196190",
    ("theta with factors", "drop before"):
        "4a3f9af597281e4126baf9f18bd081e73e2a80f0d101695a57831027c23a2aa1",
}


@pytest.mark.parametrize("schedule", HANDOVER_PRECISIONS)
@pytest.mark.parametrize("name", HANDOVER_SERIES)
def test_exact_summands_are_pinned_across_the_switch(name, schedule) -> None:
    """Every digit of every summand, also those that printed values round
    away, across the switch to ``Decimal`` running values."""
    description, precisions = HANDOVER_SERIES[name], HANDOVER_PRECISIONS[schedule]
    with localcontext(Context(prec=precisions[0])):
        term = _kernel(description)
    summands = []
    for n, prec in enumerate(precisions, description.first):
        with localcontext(Context(prec=prec)):
            summands.append(repr(term(n)))
    assert term.switched_at() is not None
    digest = hashlib.sha256("\n".join(summands).encode()).hexdigest()
    assert digest == HANDOVER_DIGESTS[name, schedule]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 2**200),
    st.integers(1, 2**200),
    st.sampled_from([1, 2**53, 2**64, 2**199]),
)
def test_log2_bounds_of_a_fraction_bracket_the_logarithm(p, r, scale) -> None:
    value = Fraction(p * scale, r) if p % 2 else Fraction(p, r * scale)
    low, high = _log2_bounds(value)
    with localcontext(Context(prec=60)):
        exact = Decimal(value.numerator).ln() - Decimal(value.denominator).ln()
        exact /= Decimal(2).ln()
        assert Decimal(low) <= exact <= Decimal(high), (value, low, high)
