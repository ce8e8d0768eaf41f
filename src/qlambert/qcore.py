"""The certified summation engine, ball arithmetic (:func:`combine`, :func:`product`),
and sums built on them: Euler's expansion of ``(a;q)_inf``, the theta constant.

A unilateral q-series is described once, by a :class:`QTerm`.  Its summands
are

    ``T_n = start * z**(n - first) * W_n * prod_j (c0_j - c1_j*q**(s_j*i + k_j))**e_j``

for ``n >= first``, where the optional theta weight has ``W_first = 1`` and
``W_{n+1} / W_n = q**(step*n + shift)`` (``q**(n**2)``-type decay), and each
:class:`Factor`, a numerator (``e_j = 1``) or a denominator (``e_j = -1``),
is either evaluated at ``i = n`` or accumulated as a q-Pochhammer product
over ``first <= i < n``.

:meth:`QTerm.generator` builds the ``TermGenerator(term, decay)`` that
:func:`sum_series` sums.  ``term`` keeps every power of ``q`` and every
product as a running value, one multiply per index.  ``decay.ratio_at(n)`` is
the product of per-factor bounds on ``|T_{m+1} / T_m|`` over all ``m >= n``:

* ``|z|`` and, with a theta weight, ``|q|**(step*n + shift)``;
* an evaluated numerator factor,
  ``(|c0| + |c1||q|**(s*(n+1)+k)) / (|c0| - |c1||q|**(s*n+k))``, and an
  evaluated denominator, ``(|c0| + |c1||q|**(s*n+k)) / (|c0| - |c1||q|**(s*(n+1)+k))``;
* a Pochhammer numerator, ``|c0| + |c1||q|**(s*n+k)``, and a Pochhammer
  denominator, ``1 / (|c0| - |c1||q|**(s*n+k))``.

For ``|q| <= 1`` every bound is non-increasing in ``n``, so ``ratio_at(n)``
majorises every later term ratio, and the geometric tail bound
``|T_n| * rho / (1 - rho)`` with ``rho = ratio_at(n)`` is a true upper bound
on the discarded remainder.  While some denominator bound is not positive,
``ratio_at`` returns 2 and the engine keeps summing.

The majorant is computed in Python floats, in closed form, for any ``n``
(``s*n + k >= 0`` and ``step*n + shift >= 0``); the summands stay in
``Decimal``.  With ``u = 2**-53``, and libm's ``exp2``, ``log2`` and ``pow``
within one unit in the last place:

* Every parameter ``x`` (``|z|``, ``|q|``, ``|c0|``, ``|c1|``) enters once, as
  bounds ``lo <= log2|x| <= hi``: from the 17-digit mantissa and the decimal
  exponent of ``x``, so that no parameter under- or overflows, rounded
  outward by ``|v| * 2**-46 + 2**-48``.  That is at least ``64u*|v|`` more
  than the conversion error of ``v``.  For ``x = 0``, ``hi = -2**60`` and
  ``lo = -inf``.
* ``log2(|c1||q|**(s*n+k) / |c0|) <= g = a + n*b``, the float sum of
  ``hi(c1) + k*hi(q) - lo(c0)`` and ``n*s*hi(q)``: its at most six roundings
  cost ``6u`` times the magnitudes summed, within the reserve of ``64u``.
  Then ``|c0| + h <= 2**hi(c0) * (1 + 2**g)`` and
  ``|c0| - h >= 2**lo(c0) * (1 - 2**g)``; the latter is rounded down, with
  ``exp2(g)`` rounded up, before the test ``1 - 2**g > 0``.
* ``log2 rho`` gathers ``hi(z)``, the theta weight, the ``hi`` and ``lo`` of
  the ``c0`` and, where ``g > 0``, ``g`` itself, as
  ``2**hi(c0) * (1 + 2**g) = 2**(hi(c0) + g) * (1 + 2**-g)``; the rest is a
  float product of factors ``(1 + 2**g)``, ``(1 + 2**-g)`` and
  ``1 / (1 - 2**g)``, each in range.  ``rho`` is ``2**log2 rho`` times
  that product times one relative allowance ``1 + K * 2**-52``,
  ``K = 3 * (number of bounds) + 4``, which covers at most
  ``(2 * bounds + 4) u`` of rounding in the product, ``exp2`` and the final
  multiply.  ``ldexp`` scales the result, so a ratio below the float range
  comes out as at most the smallest subnormal, not 0, and one above it as
  ``inf``.

The flat regime.  Where a bound's exponent is ``g <= -55``, ``exp2(g)`` is
at most ``2**-55 * (1 + 2**-52)``, so ``1 + 2**g`` rounds to exactly 1.0,
and so does ``1 - 2**g * _EXP2_UP``: the product is below ``2**-54``, half
the spacing of the floats below 1.  The bound multiplies the product by
exactly 1 and adds nothing to ``log2 rho``.  For ``b < 0`` the float
``a + n*b`` is non-increasing in ``n``, since every rounding is monotone.
So from the least index at which every bound has ``g <= -55``,
``ratio_at(n)`` is ``2**(const + n*slope)`` times the allowance, bit for bit
what the bounds give; without a theta weight (``slope = 0``) it is one
number, computed once.  Where some ``b >= 0``, as for ``|q|`` within the
log margin of 1, there is no flat regime and every call runs the bounds.

The term kernel.  :meth:`QTerm.generator`'s ``term`` is one closure,
composed once per description, that keeps its running values in locals and
at index ``n``, under the current context:

1. multiplies the coefficient ``C_n`` by the numerator differences
   ``c0 - u`` of the evaluated factors, in factor order, and divides the
   result by the product of their denominator differences, formed from the
   first one in factor order: that is ``T_n``;
2. multiplies ``C_n`` by ``z`` and by ``W_n`` (and ``W_n`` by
   ``q**step``), then by the Pochhammer numerator differences in order,
   and divides it by the product of their denominator differences: that
   is ``C_{n+1}``;
3. multiplies each distinct running value ``u = c1*q**(s*i + k)`` by
   ``q**s``.

The operations and their order depend on the description alone, so a
summand is a fixed function of the description and of the precisions the
calls ran at.  When the precision of a call differs from the one before,
the constants ``z``, ``q**step`` and ``q**s`` are first rounded to it from
their full-length values, once per change.

The engine sums the terms in increasing index order and stops as soon as
that tail bound drops below ``epsilon / 2``; the other half of the epsilon
budget is left for rounding accumulation.  The test runs in floats on the
17-digit mantissa ``m`` and decimal exponent ``e`` of each term:
``|T_n| <= m * (1 + 10**-16) * 10**(e - 16)``, and the float tail
``m * rho / (1 - rho)``, rounded up by ``1 + 8 * 2**-52``, is compared with
``eps/2`` rounded down by the same factor; beyond ``10**300`` the comparison
is made exactly in ``Decimal``.  An empirical guard cross-checks the
majorant on the same mantissas: once past a burn-in of 16 terms, a term
exceeding twice the declared ratio times the term before counts as a
violation, and 64 consecutive violations abort the summation.

Precision tapering.  The running sum, its peak, the tests above and
:func:`combine` and :func:`product` work at the working precision ``wd``;
the late summands need fewer digits (Brent and Zimmermann, *Modern Computer
Arithmetic*, ch. 4).  After an index ``n`` with ``rho = ratio_at(n) < 1`` and
``T_n != 0``, every later ``|T_m| <= rho**(m-n) * |T_n| < 10**(e+1)``,
``e = T_n.adjusted()``.  With ``P`` the exponent of the running peak, the
terms after ``n`` are computed at ``max(TAPER_MIN_PREC, wd - d)`` digits,
``d = P - (e+1) - r``, and the precision never rises again.  The reserve is
``r = 2*D - 1``, ``D`` the number of digits of the term cap ``hard_cap``.
Let ``u(p) = 10**(1-p) / 2``, and let ``j`` count the summands from the
first, ``j < M <= hard_cap + 1``, so ``M*(M+1) <= 10**(2*D)`` (``hard_cap``
is a multiple of 200).

1. *The floor.*  Summand ``j`` comes from running values updated ``j``
   times, each update at most ``c`` roundings at a precision ``>= p_j`` (the
   precision never rises): the products, the constants rounded to the
   current precision, the differences ``c0 - c1*q**i``.  A difference
   amplifies the relative error of ``c1*q**i`` by ``h / (|c0| - h)``, finite
   while ``rho < 1``.  So the computed summand is within ``kappa*(j+1)*u(p_j)``
   of the true one, relative to the majorant's bound ``2 * 10**(e+1)`` on it,
   with ``kappa = c * (1 + max h / (|c0| - h))``.  As ``p_j >= wd - d`` and
   ``10**P <= peak``, that is at most ``10*kappa*(j+1) * 10**-r * peak *
   10**-wd``, and over all summands at most ``5*kappa*10**(2*D-r) * peak *
   10**-wd``.  For ``kappa <= 10**4`` (at most 20 roundings per index and
   ``h <= 0.998*|c0|`` at tapered indices) this is within ``10**5 * peak *
   10**-wd``, half of the ``10**6`` slack of ``tail_floor(peak)``.
2. *The tests.*  The tail test and the decay guard read a summand's
   17-digit mantissa; ``_TAIL_UP`` leaves about ``2**-49`` above the float
   roundings.  The summand's relative error is at most ``kappa*M*u(p)
   <= 5 * 10**(4 + D - TAPER_MIN_PREC)``, below ``10**-80`` for any
   ``hard_cap < 10**15``.  A product of 100 digits or fewer costs about as
   much as the interpreter's dispatch of it (0.2 us, against 18 us at 1000
   digits), so a lower minimum would save nothing.

Tapering runs only at ``wd > TAPER_FROM = 2 * TAPER_MIN_PREC``: below it a
summand could lose at most half of digits that cost under a microsecond a
product, and the rule on every term cost 4% of ``verify --all --trials 100
--digits 50`` (1.71 s against 1.65 s).  Multiplication in CPython's
``decimal`` is not monotone in precision: libmpdec uses Karatsuba while the
shorter operand has at most 256 words of 19 digits, and a number-theoretic
transform above it.  Two 4864-digit operands take 440 us and two of 4865
digits 118 us; the Karatsuba product costs no more than the
transform at ``wd`` only once it is about ``wd/2`` digits long (124 us at
2600 digits against 130 us at 5260).  So at ``wd > _MUL_CLIFF = 4864`` the
precision is lowered only once the new one is at most ``wd/2``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import ROUND_CEILING, Decimal, Overflow, getcontext, localcontext
from math import ceil, exp2, floor, inf, ldexp, log2, prod, ulp
from operator import mul
from typing import Callable, Iterable, Protocol, Sequence

from .errors import DivergenceError, DomainError
from .numerics import BigReal, RealContext, make_context

_ONE = Decimal(1)


def ipow(base: BigReal, exponent: int) -> BigReal:
    """``base ** exponent`` for integer exponents, with ``0 ** 0 == 1``."""
    if exponent == 0:
        return Decimal(1)
    return Decimal(base) ** exponent

#: Number of leading terms exempt from the decay guard.
GUARD_BURN_IN = 16
#: Consecutive decay violations after which the engine aborts.
GUARD_VIOLATION_LIMIT = 64
#: Minimum number of summand evaluations before the engine may stop.
MIN_TERMS = 2
#: Fewest digits a tapered summand is computed at (module docstring).
TAPER_MIN_PREC = 100
#: Working precisions at or below this one compute every summand at full length.
TAPER_FROM = 2 * TAPER_MIN_PREC
#: Digits (256 words of 19) past which both operands make libmpdec use a transform.
_MUL_CLIFF = 4864

#: One unit of the float error allowances: 2**-52, two roundings to nearest.
_UNIT = 2.0**-52
#: ``ratio_at``'s value while some denominator bound is not yet positive.
_NOT_YET = 2.0
#: Stand-in for ``log2 0``: every exponent it enters stays below -2**59.
_LOG2_ZERO = -(2.0**60)
_LOG2_10 = log2(10)
#: Outward margin of a log2 constant ``v``: ``|v| * 2**-46 + 2**-48``.
_LOG_MARGIN = 2.0**-46
_LOG_MARGIN_ABS = 2.0**-48
#: Factors that cover libm's one-ulp ``exp2``, and the tail test's roundings.
_EXP2_UP = 1 + 4 * _UNIT
_TAIL_UP = 1 + 8 * _UNIT
_TARGET_DOWN = 1 - 8 * _UNIT
#: A bound exponent ``g`` at or below this one makes ``1 + 2**g`` and
#: ``1 - 2**g * _EXP2_UP`` round to exactly 1.0 (the flat regime).
_FLAT_G = -55.0
#: Indices from this one on are never searched for the flat regime.
_FLAT_CAP = 2**53
#: The smallest normal and subnormal floats.
_MIN_NORMAL = 2.0**-1022
_MIN_SUBNORMAL = ulp(0.0)
#: Largest power of ten the tail test and the guard form in floats.
_MAX_POW10 = 300
#: Most extra digits :func:`qpochhammer_inf` sums at; ``log10(e)``, rounded up.
POCH_DIGIT_BUDGET = 1000
_LOG10_E = Decimal("0.4342944819032518277")


@dataclass(frozen=True)
class SeriesValue:
    """Result of a truncated summation.

    Attributes:
        value: The accumulated sum at working precision.
        terms_used: Number of summand evaluations actually performed.
        tail_bound: Certified upper bound on the absolute truncation error
            (plus the rounding floor of the context).
        method_tag: Label of the evaluation route ("naive", "theta", ...).
    """

    value: BigReal
    terms_used: int
    tail_bound: BigReal
    method_tag: str


class Decay(Protocol):
    """Majorant of the term ratios, a function of the index alone."""

    def ratio_at(self, n: int) -> float:
        """A bound on ``|T_{m+1} / T_m|`` for every ``m >= n``."""


@dataclass(frozen=True)
class TermGenerator:
    """A summand stream with a declared decay majorant.

    The engine calls ``term`` and ``decay.ratio_at`` once per index, in
    increasing order from its ``start_index``.  ``term`` may keep
    running-product state keyed to that order; ``ratio_at`` may be called
    at any index, in any order.

    ``term`` runs under the engine's current ``decimal`` context, whose
    precision may be below the working precision and never rises during a
    sum (precision tapering, module docstring).  It must compute at that
    precision and must not open a context of its own.
    """

    term: Callable[[int], BigReal]
    decay: Decay


@dataclass(frozen=True)
class Factor:
    """The factor ``(c0 - c1*q**(s*i + k)) ** power`` of a series term.

    ``power`` is 1 for a numerator and -1 for a denominator, and ``s >= 1``.
    An evaluated factor takes ``i = n``, the summand's own index; a
    ``pochhammer`` factor is the product over ``first <= i < n``.
    """

    c1: BigReal
    s: int = 1
    k: int = 0
    power: int = 1
    pochhammer: bool = False
    c0: BigReal = _ONE


@dataclass(frozen=True)
class QTerm:
    """One unilateral series: ``T_n`` for ``n >= first``, as in the module docstring.

    ``theta`` is ``(step, shift)`` for the weight with
    ``W_{n+1} / W_n = q**(step*n + shift)``, or None for no weight.
    """

    q: BigReal
    start: BigReal = _ONE
    z: BigReal = _ONE
    theta: tuple[int, int] | None = None
    factors: tuple[Factor, ...] = ()
    first: int = 0

    def generator(self) -> TermGenerator:
        """The summands and their majorant; call under the working context."""
        return TermGenerator(_kernel(self), _Majorant(self))

    def sum(
        self, ctx: RealContext, method_tag: str, eps: BigReal | None = None
    ) -> SeriesValue:
        """:func:`sum_series` of this series from ``first``, to ``eps``."""
        with localcontext(ctx.dec):
            gen = self.generator()
        return sum_series(gen, self.first, ctx, method_tag, eps)


def sum_qterm(
    build: Callable[..., QTerm],
    params: Iterable[BigReal],
    ctx: RealContext,
    method_tag: str,
) -> SeriesValue:
    """Sum the series ``build(*params)``, built under the working context
    from the parameters rounded to working precision."""
    with localcontext(ctx.dec):
        series = build(*(+Decimal(value) for value in params))
    return series.sum(ctx, method_tag)


def _kernel(d: QTerm) -> Callable[[int], BigReal]:
    """``d``'s summands, one per call in increasing index order from ``first``:
    the term kernel, composed once from the description (module docstring).

    Its running values are locals of the closure: the coefficient
    ``start * z**(n - first) * W_n`` times the Pochhammer products, the
    theta weight, and each distinct ``c1*q**(s*i + k)``, which the factors
    that have it share.
    """
    q = d.q
    coeff = +d.start
    z = None if d.z == 1 else d.z
    w = w_step = None
    if d.theta is not None:
        step, shift = d.theta
        w, w_step = ipow(q, step * d.first + shift), ipow(q, step)
    # Factors share the running value c1*q**(s*i + k) of the summands.
    values: dict[tuple[BigReal, int, int], int] = {}
    num, den, pnum, pden = groups = [], [], [], []
    for f in d.factors:
        j = values.setdefault((f.c1, f.s, f.k), len(values))
        groups[2 * f.pochhammer + (f.power < 0)].append((f.c0, j))
    u = [c1 * ipow(q, s * d.first + k) for c1, s, k in values]
    # The constants at full length, and as rounded to the precision of the
    # last call; only sums above TAPER_FROM digits taper.
    constants = z, w_step, [ipow(q, s) for _, s, _ in values]
    u_step = constants[2]
    rounded_to = getcontext().prec
    tapers = rounded_to > TAPER_FROM
    # One shared value advances in place; several advance as a list.
    shared = len(u) == 1
    # A product of denominators starts from its first difference.
    den_first, den_rest = (den[0], den[1:]) if den else (None, ())
    pden_first, pden_rest = (pden[0], pden[1:]) if pden else (None, ())

    def term(n: int) -> BigReal:
        nonlocal coeff, z, w, w_step, u_step, rounded_to
        if tapers and getcontext().prec != rounded_to:
            # Once per change of precision, not per term: a 200-digit product
            # with a 1060-digit constant costs 4.5 times one with it rounded.
            full_z, full_w_step, full_u_step = constants
            z = full_z if full_z is None else +full_z
            w_step = full_w_step if full_w_step is None else +full_w_step
            u_step = [+value for value in full_u_step]
            rounded_to = getcontext().prec
        value = coeff
        for c0, j in num:
            value *= c0 - u[j]
        if den_first is not None:
            c0, j = den_first
            divisor = c0 - u[j]
            for c0, j in den_rest:
                divisor *= c0 - u[j]
            value /= divisor
        if z is not None:
            coeff *= z
        if w is not None:
            coeff *= w
            w *= w_step
        for c0, j in pnum:
            coeff *= c0 - u[j]
        if pden_first is not None:
            c0, j = pden_first
            divisor = c0 - u[j]
            for c0, j in pden_rest:
                divisor *= c0 - u[j]
            coeff /= divisor
        if shared:
            u[0] *= u_step[0]
        elif u:
            u[:] = map(mul, u, u_step)
        return value

    return term


class _Majorant:
    """A :class:`QTerm`'s decay majorant ``ratio_at``, in closed form."""

    def __init__(self, d: QTerm) -> None:
        # log2 rho(n) <= const + n*slope plus the share of the bounds
        # |c0| +- h, h = |c1|*|q|**(s*i + k) at i = n or n + 1, from log2
        # magnitudes rounded outward.  Bounds are counted per (log2 |c0| low
        # and high, log2 |c1| high, s, k at i = n).  Equal parameters, such
        # as c0 = 1 in every factor, are converted once.
        q = d.q
        params = {q, d.z, *(f.c0 for f in d.factors), *(f.c1 for f in d.factors)}
        logs = {x: _log2_bounds(x) for x in params}
        log_q = logs[q][1]
        const, slope = logs[d.z][1], 0.0
        if d.theta is not None:
            step, shift = d.theta
            const += shift * log_q
            slope += step * log_q
        counts: dict[tuple[float, float, float, int, int], list[int]] = {}
        for f in d.factors:
            c0_low, c0_high = logs[f.c0]
            c1_high = logs[f.c1][1]
            if f.pochhammer:
                taken = ((0, f.power < 0),)
            else:
                # An evaluated factor's numerator bound is taken at n + 1,
                # its denominator bound at n, or the reverse.
                taken = ((f.power > 0, False), (f.power < 0, True))
            for later, denominator in taken:
                key = (c0_low, c0_high, c1_high, f.s, f.k + f.s * later)
                counts.setdefault(key, [0, 0])[denominator] += 1
        # (a, b, numerators, denominators) with a + n*b >= log2(h / |c0|).
        self.bounds = []
        for (c0_low, c0_high, c1_high, s, k), (nums, dens) in counts.items():
            log_h = c1_high + k * log_q
            if c0_low == -inf and not dens:
                # A numerator 0 + h is the power h itself.
                const += nums * log_h
                slope += nums * s * log_q
            else:
                const += nums * c0_high - dens * c0_low
                self.bounds.append((log_h - c0_low, s * log_q, nums, dens))
        self.const, self.slope = const, slope
        self.allowance = 1 + (3 * sum(map(sum, counts.values())) + 4) * _UNIT
        # The flat regime (module docstring): from index flat on, every
        # bound's factor is exactly 1.0; without a theta weight rho is then
        # one number.
        self.flat = max((_flat_from(a, b) for a, b, _, _ in self.bounds), default=0)
        self.flat_rho = None
        if slope == 0 and self.flat < inf:
            self.flat_rho = self.ratio_at(self.flat)

    def ratio_at(self, n: int) -> float:
        if n >= self.flat and self.flat_rho is not None:
            return self.flat_rho
        log_rho = self.const + n * self.slope
        ratio = self.allowance
        if n < self.flat:
            for a, b, nums, dens in self.bounds:
                g = a + n * b
                if g <= 0:
                    h = exp2(g)
                    if dens:
                        factor = 1 - h * _EXP2_UP
                        if factor <= 0:
                            return _NOT_YET
                        ratio /= factor**dens
                    ratio *= (1 + h) ** nums
                elif dens:
                    return _NOT_YET
                else:
                    log_rho += nums * g
                    ratio *= (1 + exp2(-g)) ** nums
        whole = floor(log_rho)
        try:
            rho = ldexp(exp2(log_rho - whole) * ratio, whole)
        except OverflowError:
            return inf
        return rho if rho >= _MIN_NORMAL else rho + _MIN_SUBNORMAL


def _flat_from(a: float, b: float) -> float:
    """The least index ``n >= 0`` with ``a + n*b <= _FLAT_G`` in floats, or
    ``inf`` if there is none up to ``_FLAT_CAP``.

    For ``b < 0`` the float ``a + n*b`` is non-increasing in ``n`` (each
    rounding is monotone), so the test holds at every later index too.  The
    rounded root ``(_FLAT_G - a) / b`` nearly always gives the index; where
    the roundings move it, a bisection does.
    """
    if not (b < 0 and a + _FLAT_CAP * b <= _FLAT_G):
        return inf
    n = max(ceil((_FLAT_G - a) / b), 0)
    if a + n * b <= _FLAT_G and (n == 0 or a + (n - 1) * b > _FLAT_G):
        return n
    low, high = 0, _FLAT_CAP
    while low < high:
        mid = (low + high) // 2
        if a + mid * b <= _FLAT_G:
            high = mid
        else:
            low = mid + 1
    return low


def _log2_bounds(x: BigReal) -> tuple[float, float]:
    """Lower and upper bounds on ``log2|x|``; for ``x = 0``, ``-inf`` and
    :data:`_LOG2_ZERO`."""
    if not x:
        return -inf, _LOG2_ZERO
    x = Decimal(x)
    e = x.adjusted()
    # m <= |x| * 10**(16 - e) < m + 1 < 2**57.
    m = abs(int(x.scaleb(16 - e)))
    value = log2(m / 1e16) + e * _LOG2_10
    margin = abs(value) * _LOG_MARGIN + _LOG_MARGIN_ABS
    return value - margin, value + margin


def _less(a: float, b: float, k: int) -> bool:
    """``a < b * 10**k`` for ``a, b >= 0``, exactly; False when ``a`` is NaN."""
    return a == a and Decimal(a) < Decimal(b).scaleb(k)


def sum_series(
    gen: TermGenerator,
    start_index: int,
    ctx: RealContext,
    method_tag: str = "series",
    eps: BigReal | None = None,
) -> SeriesValue:
    """Sum ``gen`` from ``start_index`` with a certified truncation bound.

    Stops at the first index (after at least :data:`MIN_TERMS` evaluations)
    where ``|T_n| * rho / (1 - rho) < eps / 2`` with ``rho = ratio_at(n) < 1``.
    The test and the decay guard run in floats on the 17-digit mantissa
    ``m`` and decimal exponent ``e`` of ``|T_n| ~ m * 10**(e - 16)`` (see
    the module docstring); the returned bound is the float tail, converted
    exactly, plus the rounding floor of the largest partial sum (when the
    terms cancel, the rounding error scales with the sums they passed
    through).

    Raises:
        DivergenceError: if terms repeatedly exceed the declared decay, or
            the certification never triggers within the iteration budget.
    """
    target = (ctx.epsilon if eps is None else eps) / 2
    wd = ctx.working_digits
    hard_cap = max(20_000, 600 * wd)
    # Precision tapering (module docstring): the summands' digits, the reserve.
    taper = wd > TAPER_FROM
    prec, reserve = wd, 2 * len(str(hard_cap)) - 1
    with localcontext(ctx.dec) as local:
        # target >= limit * 10**(target_e - 16).
        target_e = target.adjusted()
        limit = int(target.scaleb(16 - target_e)) * _TARGET_DOWN
        total = peak = Decimal(0)
        terms_used = 0
        violations = 0
        previous_m = previous_e = 0
        previous_rho = 0.0
        n = start_index
        term, ratio_at = gen.term, gen.decay.ratio_at
        while True:
            if prec < wd:
                local.prec = prec
                t = term(n)
                local.prec = wd
            else:
                t = term(n)
            total += t
            size = abs(total)
            if size > peak:
                peak = size
            terms_used += 1
            rho = ratio_at(n)
            # m <= |t| * 10**(16 - e) < m + 1, and m >= 10**16 unless t = 0.
            # Both tests below compare in floats inline (a call per term
            # would cost as much as the test) and call _less only past 10**300.
            e = t.adjusted()
            m = abs(int(t.scaleb(16 - e)))
            if terms_used > GUARD_BURN_IN:
                # |t| > 2 * rho_prev * |t_prev|, on the mantissas.
                allowed, k = 2 * previous_rho * previous_m, e - previous_e
                if (
                    allowed < m * 10.0**k
                    if -_MAX_POW10 <= k <= _MAX_POW10
                    else _less(allowed, m, k)
                ):
                    violations += 1
                    if violations >= GUARD_VIOLATION_LIMIT:
                        raise DivergenceError(
                            f"terms violated the declared decay near index {n}"
                        )
                else:
                    violations = 0
            if terms_used >= MIN_TERMS and rho < 1:
                tail, k = m * rho / (1 - rho) * _TAIL_UP, target_e - e
                if (
                    tail < limit * 10.0**k
                    if -_MAX_POW10 <= k <= _MAX_POW10
                    else _less(tail, limit, k)
                ):
                    return SeriesValue(
                        value=total,
                        terms_used=terms_used,
                        tail_bound=Decimal(tail).scaleb(e - 16) + ctx.tail_floor(peak),
                        method_tag=method_tag,
                    )
            if taper and rho < 1 and m:
                # Every later |T| < 10**(e+1): d = P - (e+1) - r digits of
                # them lie below the floor's share.
                lower = max(TAPER_MIN_PREC, wd + e + 1 + reserve - peak.adjusted())
                if lower < prec and (wd <= _MUL_CLIFF or 2 * lower <= wd):
                    prec = lower
            previous_m, previous_e, previous_rho = m, e, rho
            n += 1
            if terms_used > hard_cap:
                raise DivergenceError(
                    f"series failed to certify within {hard_cap} terms"
                )


def ball(value: BigReal, radius: BigReal = 0) -> SeriesValue:
    """The value ``value`` known to within ``radius``, from no summation.

    With ``radius = 0`` it is an exact constant, a part of :func:`combine`
    or :func:`product` like any certified sum.
    """
    return SeriesValue(value, 0, Decimal(radius), "ball")


def combine(
    parts: Sequence[tuple[BigReal, SeriesValue]], ctx: RealContext, method_tag: str
) -> SeriesValue:
    """The certified sum ``sum_i c_i * S_i`` of ``parts``, pairs ``(c_i, S_i)``.

    The coefficients are exact; a constant term enters as a part (see
    :func:`ball`).  The tail bound is ``sum_i |c_i| * tail_i`` plus the rounding floor of the
    largest addend ``|c_i * S_i|``; ``terms_used`` is the sum over the parts.
    """
    with localcontext(ctx.dec):
        addends = [c * part.value for c, part in parts]
        value = sum(addends)
        tail = sum(abs(c) * part.tail_bound for c, part in parts)
        tail += ctx.tail_floor(max(map(abs, addends)))
    terms = sum(part.terms_used for _, part in parts)
    return SeriesValue(value, terms, tail, method_tag)


def product(
    parts: Sequence[tuple[SeriesValue, int]], ctx: RealContext, method_tag: str
) -> SeriesValue:
    """The certified product ``prod_i S_i ** k_i`` of ``parts``, pairs ``(S_i, k_i)``.

    Midpoint-radius ("ball") arithmetic, valid to all orders: with ``e`` the
    tail of a factor ``v``, a product ``(m, r)`` becomes
    ``(m*v, |m|*e + r*(|v| + e))``, and a divisor is first the ball
    ``(1/v, e/(|v|*(|v| - e)))``.  The rounding floor of the result is added
    once at the end; ``terms_used`` is the sum over the parts.

    Raises:
        DivergenceError: if a divisor's ball contains 0 (``e >= |v|``).
    """
    with localcontext(ctx.dec):
        value, tail = _ONE, Decimal(0)
        for part, exponent in parts:
            v, e = part.value, part.tail_bound
            if exponent < 0:
                size = abs(v)
                if e >= size:
                    raise DivergenceError(
                        f"divisor {v:E} is not certified away from 0 (tail {e:E})"
                    )
                v, e = 1 / v, e / (size * (size - e))
            for _ in range(abs(exponent)):
                value, tail = value * v, abs(value) * e + tail * (abs(v) + e)
        tail += ctx.tail_floor(value)
    terms = sum(part.terms_used for part, _ in parts)
    return SeriesValue(value, terms, tail, method_tag)


def sum_bracketed(
    series: QTerm,
    bracket: Callable[[BigReal], BigReal],
    ctx: RealContext,
    method_tag: str,
    eps: BigReal | None = None,
) -> SeriesValue:
    """:func:`sum_series` of the theta weight of ``series`` times ``bracket(q**n)``.

    ``bracket(q**n)`` must equal the product of the factors of ``series`` at
    ``n``, so that the summands are those of ``series`` and are certified by
    its majorant.  ``bracket`` is called once per index, in increasing order.
    """
    q = series.q
    with localcontext(ctx.dec):
        weight = replace(series, factors=()).generator()
        q_pow = ipow(q, series.first)

        def term(n: int) -> BigReal:
            nonlocal q_pow
            value = weight.term(n) * bracket(q_pow)
            q_pow *= q
            return value

        gen = TermGenerator(term, series.generator().decay)
    return sum_series(gen, series.first, ctx, method_tag, eps)


def qpochhammer_n(a: BigReal, q: BigReal, n: int, ctx: RealContext) -> BigReal:
    """Finite q-Pochhammer product ``(a;q)_n = (1-a)(1-aq)...(1-aq^(n-1))``,
    exactly 1 for ``n = 0``; each factor is rounded on its own."""
    if n < 0:
        raise DomainError("qpochhammer_n requires n >= 0")
    a = Decimal(a)
    with localcontext(ctx.dec):
        return prod((1 - a * ipow(q, i) for i in range(n)), start=_ONE)


def qpochhammer_inf(a: BigReal, q: BigReal, ctx: RealContext) -> SeriesValue:
    """Infinite q-Pochhammer product ``(a;q)_inf`` for ``|q| < 1``: the head
    ``(a;q)_K`` of the ``K`` leading factors with ``|a*q**i| > 1`` times Euler's
    expansion ``(b;q)_inf = sum_{n>=0} (-b)**n * q**(n*(n-1)/2) / (q;q)_n``,
    ``b = a*q**K``.  As ``|1 - q**i| >= 1 - |q|**i``, its partial sums are at
    most ``(-|b|;|q|)_inf <= exp(1/(1-|q|)) <= 10**E``, ``E = ceil(log10(e)/(1-|q|))``,
    so it is summed at ``E`` more digits, to ``10**-E * epsilon / max(1, |head|)``.
    Its work grows faster than ``E**2`` (terms times digits), so past
    :data:`POCH_DIGIT_BUDGET` (``|q| > 0.99956``) the call is refused at once.
    The head's roundings, a few per factor and relative to the value, are
    within the floor that :func:`product` adds.

    Raises:
        DomainError: unless ``|q| < 1``, past the budget, or if the head overflows.
    """
    q, a = Decimal(q), Decimal(a)
    if abs(q) >= 1:
        raise DomainError("qpochhammer_inf requires |q| < 1")
    with localcontext(ctx.dec):
        extra = int((_LOG10_E / (1 - abs(q))).to_integral_value(ROUND_CEILING))
    if extra > POCH_DIGIT_BUDGET:
        raise DomainError(f"(a;q)_inf needs {extra} extra digits at |q| = {abs(q):E}")
    rest_ctx = make_context(ctx.target_digits + extra)
    with localcontext(rest_ctx.dec):
        b, count = +a, 0
        while abs(b) > 1:
            b *= q
            count += 1
        try:
            head = qpochhammer_n(a, q, count, ctx)
        except Overflow as exc:
            raise DomainError(f"(a;q)_{count} overflows at a = {a:E}") from exc
        eps = rest_ctx.epsilon / max(_ONE, abs(head))
        inverse_qq = Factor(1, k=1, power=-1, pochhammer=True)  # 1 / (q;q)_n
        euler = QTerm(q, z=-b, theta=(1, 0), factors=(inverse_qq,))
    rest = euler.sum(rest_ctx, "euler", eps)
    return product(((ball(head), 1), (rest, 1)), ctx, "euler")


def theta3(q: BigReal, ctx: RealContext) -> SeriesValue:
    """Jacobi theta constant ``Theta_3(q) = 1 + 2 * sum_{n>=1} q**(n**2)``.

    The sum is certified to ``epsilon/4``, so the doubled tail stays within
    ``epsilon/2``.

    Raises:
        DomainError: unless ``|q| < 1``.
    """
    q = Decimal(q)
    if abs(q) >= 1:
        raise DomainError("theta3 requires |q| < 1")
    series = QTerm(q, start=q, theta=(2, 1), first=1)
    sv = series.sum(ctx, "theta", eps=ctx.epsilon / 2)
    return combine(((1, ball(_ONE)), (2, sv)), ctx, "theta")
