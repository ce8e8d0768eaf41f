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

Two more hold bit for bit on random descriptions: in the flat regime,
``ratio_at`` equals the plain bounds loop, and the term kernel's summands
equal a running product per factor, also when the precision drops mid-sum.
With exact rational parameters the kernel's summands agree with those of
the same description in ``Decimal`` at 30 more digits, within the kernel's
rounding count, and its running values become ``Decimal`` values at the index
its rule gives.
"""

from __future__ import annotations

import math
from dataclasses import replace
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlambert import DivergenceError, DomainError, Factor, QTerm, make_context
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
from qlambert.exact import _pair_limit
from qlambert.qcore import (
    TAPER_FROM,
    _flat_from,
    _kernel,
    _log2_bounds,
    _Majorant,
    _peak_log2,
    ipow,
    sum_qterm,
)

DIGITS = 12
#: Terms whose ratios are checked per sample.
CHECKED_TERMS = 200
#: ratio_at's value while some denominator bound is not yet positive.
NOT_YET = 2.0


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
    value = Fraction(round(magnitude * denominator), denominator)
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
        # (z = 1 can be drawn): the engine refuses it too.
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
# The flat regime of the majorant: from its index on, every bound's factor
# is exactly 1.0, and ratio_at skips the bounds.


def _plain_ratio_at(decay, n: int) -> float:
    """The majorant at ``n`` by the bounds loop alone (``qcore`` module
    docstring), with no flat regime."""
    log_rho, ratio = decay.const + n * decay.slope, decay.allowance
    for a, b, nums, dens in decay.bounds:
        g = a + n * b
        if g <= 0:
            h = math.exp2(g)
            if dens:
                factor = 1 - h * (1 + 4 * 2.0**-52)
                if factor <= 0:
                    return NOT_YET
                ratio /= factor**dens
            ratio *= (1 + h) ** nums
        elif dens:
            return NOT_YET
        else:
            log_rho += nums * g
            ratio *= (1 + math.exp2(-g)) ** nums
    whole = math.floor(log_rho)
    try:
        rho = math.ldexp(math.exp2(log_rho - whole) * ratio, whole)
    except OverflowError:
        return math.inf
    return rho if rho >= 2.0**-1022 else rho + math.ulp(0.0)


def _assert_flat_regime_is_exact(series: QTerm, shuffle) -> None:
    with localcontext(make_context(DIGITS).dec):
        decay = _Majorant(series)
    flat = decay.flat
    if all(b < 0 for _, b, _, _ in decay.bounds):
        assert flat < math.inf
        # The least such index: one step before it, some bound is not flat.
        assert all(a + flat * b <= -55 for a, b, _, _ in decay.bounds)
        assert flat == 0 or any(a + (flat - 1) * b > -55 for a, b, _, _ in decay.bounds)
        around = [flat + step for step in range(-3, 4)]
        far = [flat + 10**k for k in (2, 4, 6, 9)]
    else:
        assert flat == math.inf
        around, far = list(range(6)), [10**k for k in (2, 4, 6, 9)]
    indices = shuffle([n for n in around + far if n >= 0])
    for n in indices:
        rho = decay.ratio_at(n)
        assert rho.hex() == _plain_ratio_at(decay, n).hex(), (n, flat)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_series(), st.randoms(use_true_random=False))
def test_flat_regime_matches_the_bounds_loop_bit_for_bit(series, rng) -> None:
    build, params = series

    def shuffle(indices: list[int]) -> list[int]:
        rng.shuffle(indices)
        return indices

    _assert_flat_regime_is_exact(build(*params), shuffle)


@pytest.mark.parametrize(
    "q", ["0.99999999999999999999", "-0.999999999999999999999999", "1"]
)
def test_no_flat_regime_within_the_log_margin_of_one(q) -> None:
    """``|q|`` so close to 1 that ``log2 |q|`` rounded up is not negative:
    the bound exponents never fall, and ratio_at always runs the loop."""
    series = QTerm(
        Decimal(q),
        z=Decimal("0.5"),
        factors=(Factor(Decimal("0.5"), power=-1), Factor(Decimal("0.25"), s=2)),
    )
    with localcontext(make_context(DIGITS).dec):
        decay = _Majorant(series)
    assert decay.bounds and all(b >= 0 for _, b, _, _ in decay.bounds)
    _assert_flat_regime_is_exact(series, list)


# ---------------------------------------------------------------------------
# The composed term kernel: each summand bit for bit as a running product
# per factor gives it, under a precision that drops mid-sum.


def _reference_terms(series: QTerm, precisions: list[int]) -> list[Decimal]:
    """``T_first, T_first+1, ...``, one at each of ``precisions``, from a
    running value per factor and the constants rounded to the precision of
    the summand whenever it changed (``qcore`` module docstring)."""
    q, first, factors = series.q, series.first, series.factors
    built_at = precisions[0]
    with localcontext(Context(prec=built_at)):
        coeff = +series.start
        w = w_step = None
        if series.theta is not None:
            step, shift = series.theta
            w, w_step = ipow(q, step * first + shift), ipow(q, step)
        u = [f.c1 * ipow(q, f.s * first + f.k) for f in factors]
        full = series.z, w_step, [ipow(q, f.s) for f in factors]
    z, w_step, u_step = full
    tapers, rounded_to = built_at > TAPER_FROM, built_at
    kinds = [(f.pochhammer, f.power < 0) for f in factors]
    terms = []
    for prec in precisions:
        with localcontext(Context(prec=prec)):
            if tapers and prec != rounded_to:
                z = +full[0]
                w_step = None if full[1] is None else +full[1]
                u_step = [+x for x in full[2]]
                rounded_to = prec
            diffs = [f.c0 - value for f, value in zip(factors, u)]
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
            if series.z != 1:
                coeff *= z
            if w is not None:
                coeff *= w
                w *= w_step
            for diff, kind in zip(diffs, kinds):
                if kind == (True, False):
                    coeff *= diff
            divisor = None
            for diff, kind in zip(diffs, kinds):
                if kind == (True, True):
                    divisor = diff if divisor is None else divisor * diff
            if divisor is not None:
                coeff /= divisor
            u = [running * step for running, step in zip(u, u_step)]
    return terms


#: Working precisions at 50 digits, and at 300 digits dropping twice mid-sum.
KERNEL_PRECISIONS = [
    [make_context(50).working_digits] * 120,
    [make_context(300).working_digits] * 40 + [180] * 40 + [100] * 40,
]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(random_series(), random_series(shared=True)),
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


@pytest.mark.parametrize(
    "a, b",
    [
        (-60.0, -1.0),
        (10.0, -0.5),
        (-54.0, -2.0**-40),
        # Exponents whose rounded root misses the index by one or two.
        (-54.99999999999741, -2.7075696473803266e-15),
        (-54.99999998978808, -2.3191294425272733e-15),
    ],
)
def test_flat_index_is_the_least_flat_one(a, b) -> None:
    n = _flat_from(a, b)
    assert a + n * b <= -55
    assert n == 0 or a + (n - 1) * b > -55


@pytest.mark.parametrize(
    "a, b", [(-60.0, 0.0), (-54.0, 1e-3), (math.inf, -1.0), (0.0, -1e-20)]
)
def test_no_flat_index_without_a_falling_exponent(a, b) -> None:
    assert _flat_from(a, b) == math.inf


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
