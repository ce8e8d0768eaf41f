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

:meth:`QTerm.sum` is the engine's one entry point, the only code that pairs
summands with their certificate: the ``TermGenerator(term, decay)`` that
:func:`sum_series` sums.  ``term`` is the term kernel, which keeps every power
of ``q`` and every product as a running value, or a hand-written stream of
the same summands (:func:`sum_bracketed`, the Horadam reciprocals).
``decay.ratio_at(n)`` is the product of per-factor bounds on
``|T_{m+1} / T_m|`` over all ``m >= n``:

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

The term kernel is one closure, composed once per description, that keeps
its running values in locals and at index ``n``, under the current context:

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

Exact parameters.  A description whose parameters are exact rationals,
marked by a ``Fraction`` ``q`` (:func:`~qlambert.numerics.series_parameters`
keeps short rationals exact above 200 working digits), gets the kernel
of :func:`qlambert.exact._exact_kernel` instead, chosen when the kernel is
built, so a description with ``Decimal`` parameters runs the kernel above
with no per-term test.  It advances the powers of ``q = p/r`` as int pairs
and multiplies and divides by ints (:mod:`qlambert.exact`); so do the
summands of :func:`sum_bracketed`, whose brackets then return exact ratios
of ints.

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

Precision from magnitude.  The rounding floor ``max(1, peak) * 10**-(W - 6)``
of a ``tail_bound`` grows with the largest partial sum, which can pass far
above the value where terms cancel.  So before the first term
:meth:`QTerm.sum` bounds ``sum_n |T_n|``, and so the peak, by ``B`` in
floats (:func:`_peak_log2`), and sums at the fewest working digits ``W``,
never fewer than the context's, with ``max(1, B) * 10**-(W - 6) <= eps/4``.
The floor is taken at the computed peak, which exceeds the true one by its
roundings alone, a relative ``10**(5-W)`` (taper proof below), so it stays
within ``eps/4`` but for that, and with the tail test's ``eps/2`` the bound
stays below ``eps``.  Past :data:`DIGIT_BUDGET` more digits it raises
``DomainError`` before any term.

``B`` bounds each summand from its factors' own signed values over the
indices with ``ratio_at(n) >= 1``, and on while ``rho`` falls by more than a
relative ``2**-10`` and exceeds ``1/2`` and the bound still asks for more
digits, then adds ``|T_N| / (1 - rho_N)``.  A factor is ``|c0|`` times
``1 + x`` or ``|1 - x|``, by the exact sign of ``c1*q**m / c0``, with ``x``
between the outward-rounded ``exp2`` of the majorant's log bounds on
``|c1*q**m / c0|`` (:func:`_factor_log2`).  Where that interval holds 0 or
spans over a factor 2 (within about ``2**-45`` of a pole, which a float
cannot resolve but which may pass the pole scans' ``10**-(W/2)``), the
factor is a ``Decimal`` difference at the context's digits, exact for
``Fraction`` parameters and otherwise within
``(|c0| + |c1*q**m|) * 10**(3 - W)``, above the roundings of the power,
product and difference; one that cannot be told from 0 raises ``PoleError``.
Each float ``log2`` and sum of logs moves outward by ``2**-40`` and a
relative ``2**-46``.  A description built again at ``W`` (:func:`sum_qterm`)
keeps the majorant: its parameters move by a relative ``10**-W``, far
inside the ``2**-46`` margin.

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
   The exact kernel stays within the same count.  While its powers are int
   pairs, an index costs four roundings (a product and a quotient for the
   summand and for the coefficient) and no difference amplifies anything.
   After the switch a running value takes two roundings per step where a
   ``Decimal`` step took one product and carried the rounding of its
   constant, and a ``Fraction`` ``c0`` is rounded once, like a constant.
   The exact descriptions of this package then cost at most 17 roundings
   per index (the theta forms of the ``qxt`` and bilateral series: three
   running values and the weight ratio at two each, three differences,
   three for the summand, three for ``z`` and the weight).  The switch
   itself rounds each running value and each ``c0`` once, at most 7
   roundings, fewer than one index's 20; so summand ``j`` carries at most
   ``20*(j+2)`` of them.  The sum over ``j < M`` of ``j + 2`` is at most
   ``(M+1)*(M+2)/2 <= 10**(2*D)/2``, as ``hard_cap + 3 < 10**D``, the same
   bound as that of ``j + 1`` above: the constants still hold.
   A bracketed summand (:func:`sum_bracketed`) with an exact ``q`` is the
   weight's kernel value times the int ratio ``N / D`` of its bracket,
   which is exact: it costs the weight's roundings and two more, the
   product by ``N`` and the quotient by ``D``, and nothing amplifies them.
   The theta weights of this package cost two per index (the coefficient's
   product and quotient), so such a summand takes 4 per index.  After its
   switch it is the weight times a ``Decimal`` bracket at ``q**n``, and
   ``q**n`` takes two roundings per step: with the bilateral forms'
   brackets at most 8 (their differences ``1 - x*q**n`` amplify as the
   factors' do), the weight's 5, the product and the roundings of ``x`` and
   ``t`` as constants, 18 per index.  The switch rounds ``q**n`` once,
   within the 7 above.
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
from decimal import Decimal, Overflow, getcontext, localcontext
from fractions import Fraction
from math import ceil, exp2, floor, inf, ldexp, log, log2, prod, ulp
from operator import mul
from typing import Callable, Iterable, Protocol, Sequence

from .errors import DivergenceError, DomainError, PoleError
from .numerics import (
    BigReal,
    Real,
    RealContext,
    _require_int,
    _require_unit,
    as_decimal,
    make_context,
    series_parameters,
)

_ONE = Decimal(1)


def ipow(base: Real, exponent: int) -> Real:
    """``base ** exponent`` for integer exponents, with ``0 ** 0 == 1``; exact
    for a ``Fraction``."""
    if type(base) is Fraction:
        return base**exponent
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
#: Most digits a sum or a product may take beyond its context's (module docstring).
DIGIT_BUDGET = 1000
#: A ratio ``|c1*q**m / c0|`` beyond ``2**60`` leaves ``c0 - c1*q**m`` within
#: a relative ``2**-59`` of ``-c1*q**m``.
_FAR = 60.0
_FAR_LOG = 2.0**-55
#: Absolute margin of a float ``log2`` in the peak bound.
_PEAK_MARGIN = 2.0**-40


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
    ``W_{n+1} / W_n = q**(step*n + shift)``, or None for no weight.  The
    parameters are ``Decimal`` values and ints or, when ``q`` is a
    ``Fraction``, exact rationals and ints
    (:func:`~qlambert.numerics.series_parameters`).
    """

    q: BigReal
    start: BigReal = _ONE
    z: BigReal = _ONE
    theta: tuple[int, int] | None = None
    factors: tuple[Factor, ...] = ()
    first: int = 0

    def sum(
        self,
        ctx: RealContext,
        method_tag: str,
        eps: BigReal | None = None,
        term: Callable[[QTerm], Callable[[int], BigReal]] | None = None,
        rebuild: Callable[[RealContext], QTerm] | None = None,
    ) -> SeriesValue:
        """:func:`sum_series` of this series from ``first``, to ``eps``, at the
        digits its magnitude asks for (module docstring).

        ``rebuild(work)`` is this description built again under the wider
        context ``work``; without it the parameters are the exact values
        summed.  The summands are the term kernel's or ``term(series)``, a
        hand-written stream of the same summands certified by this
        majorant; either is built under the working context.
        """
        eps = ctx.epsilon if eps is None else eps
        with localcontext(ctx.dec):
            # Its float bounds hold for the description at any digits.
            decay = _Majorant(self)
        work = _working_context(ctx, eps, _peak_log2(self, decay, ctx, eps))
        series = self if work is ctx or rebuild is None else rebuild(work)
        with localcontext(work.dec):
            gen = TermGenerator(_kernel(series) if term is None else term(series), decay)
        return sum_series(gen, series.first, work, method_tag, eps)


def sum_qterm(
    build: Callable[..., QTerm],
    params: Iterable[Real],
    ctx: RealContext,
    method_tag: str,
    eps: BigReal | None = None,
    term: Callable[[QTerm], Callable[[int], BigReal]] | None = None,
) -> SeriesValue:
    """:meth:`QTerm.sum` of ``build(*params)``, built under the working
    context from :func:`~qlambert.numerics.series_parameters` of ``params``,
    and built again there if the sum takes more digits."""
    params = list(params)

    def rebuild(work: RealContext) -> QTerm:
        with localcontext(work.dec):
            return build(*series_parameters(params, work))

    return rebuild(ctx).sum(ctx, method_tag, eps, term, rebuild)


def _kernel(d: QTerm) -> Callable[[int], BigReal]:
    """``d``'s summands, one per call in increasing index order from ``first``:
    the term kernel, composed once from the description (module docstring).

    Its running values are locals of the closure: the coefficient
    ``start * z**(n - first) * W_n`` times the Pochhammer products, the
    theta weight, and each distinct ``c1*q**(s*i + k)``, which the factors
    that have it share.  A description with an exact ``q`` gets the
    kernel of :func:`_exact_kernel`.
    """
    if type(d.q) is Fraction:
        # Imported on first use: only descriptions with exact parameters,
        # above 200 digits, need it.
        from .exact import _exact_kernel

        return _exact_kernel(d)
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
        self.logs = logs = {x: _log2_bounds(x) for x in params}
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


def _log2_bounds(x: Real) -> tuple[float, float]:
    """Lower and upper bounds on ``log2|x|``; for ``x = 0``, ``-inf`` and
    :data:`_LOG2_ZERO`.

    For a ``Fraction`` ``p/r`` the value is ``log2|p| - log2 r``, from the
    exact ints, rounded outward by ``(log2|p| + log2 r) * 2**-46 + 2**-48``.
    Each logarithm is within one ulp, ``2u`` of its magnitude, plus
    ``u/ln 2`` where the int is rounded to a float, and the difference within
    ``u`` of its magnitude: at most ``3u*(log2|p| + log2 r) + 3u`` in all,
    so the margin exceeds the error by more than ``64u*|value|``, as for a
    ``Decimal`` (module docstring).
    """
    if not x:
        return -inf, _LOG2_ZERO
    if type(x) is Fraction:
        log_p, log_r = log2(abs(x.numerator)), log2(x.denominator)
        value = log_p - log_r
        margin = (log_p + log_r) * _LOG_MARGIN + _LOG_MARGIN_ABS
        return value - margin, value + margin
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


def _term_cap(working_digits: int) -> int:
    """The most terms a sum at ``working_digits`` digits takes before it fails."""
    return max(20_000, 600 * working_digits)


def _digits_for(eps: BigReal, log2_bound: float) -> float:
    """The ``W`` at which ``max(1, 2**log2_bound) * 10**-(W - 6)`` is ``eps/4``."""
    return 6 + (2 + max(log2_bound, 0) - _log2_bounds(eps)[0]) / _LOG2_10


def _working_context(ctx: RealContext, eps: BigReal, log2_bound: float) -> RealContext:
    """``ctx``, or the context of the fewest working digits at which
    ``tail_floor(2**log2_bound) <= eps/4``; past :data:`DIGIT_BUDGET` more
    digits, ``DomainError``."""
    extra = ceil(_digits_for(eps, log2_bound)) - ctx.working_digits
    if extra <= 0:
        return ctx
    if extra > DIGIT_BUDGET:
        raise DomainError(
            f"the sum needs at least {extra} extra digits, past the budget of {DIGIT_BUDGET}"
        )
    return make_context(ctx.target_digits, ctx.guard_digits + extra)


def _log_add(a: float, b: float) -> float:
    """An upper bound on ``log2(2**a + 2**b)``."""
    if a < b:
        a, b = b, a
    if b == -inf:
        return a
    return a + log2(1 + exp2(b - a)) + abs(a) * _LOG_MARGIN + _PEAK_MARGIN


def _peak_log2(d: QTerm, decay: _Majorant, ctx: RealContext, eps: BigReal) -> float:
    """``log2 B`` with ``B >= sum_n |T_n|`` (module docstring), or a value
    past the digit budget's once the bound is past it.

    Raises:
        DivergenceError: if ``ratio_at`` stays at 1 or more for as many terms
            as :func:`sum_series` takes at ``ctx``.
        PoleError: if a denominator cannot be told from 0 at ``ctx``.
    """
    logs, step, shift = decay.logs, *(d.theta or (0, 0))
    (q_low, q_high), q_negative = logs[d.q], d.q < 0
    # Each factor with the log2 bounds of |c0| and |c1|, and the sign of c1/c0.
    factors = [(f, logs[f.c0], logs[f.c1], (f.c0 < 0) != (f.c1 < 0)) for f in d.factors]
    # Bounds below free take no extra digits; those above limit, too many.
    free = (ctx.working_digits - _digits_for(eps, 0)) * _LOG2_10
    limit = free + DIGIT_BUDGET * _LOG2_10
    coeff, total, previous, n = _log2_bounds(d.start)[1], -inf, inf, d.first
    while True:
        # log2|T_n| <= term, and log2|C_{n+1} / C_n| <= advance.
        term, advance = coeff, logs[d.z][1] + (step * n + shift) * q_high
        for f, c0_log, (c1_low, c1_high), negative in factors:
            m = f.s * n + f.k
            low, high = _factor_log2(
                f, d.q, m, c0_log,
                (c1_low + m * q_low, c1_high + m * q_high) if m else (c1_low, c1_high),
                negative != (q_negative and m % 2 == 1),
                ctx,
            )
            if f.power < 0 and low == -inf:
                raise PoleError(f"a denominator of the series vanishes at index {n}")
            if f.pochhammer:
                advance += high if f.power > 0 else -low
            else:
                term += high if f.power > 0 else -low
        rho = decay.ratio_at(n)
        if rho < 1:
            closed = _log_add(total, term - log2(1 - rho) + _PEAK_MARGIN)
            if closed <= free or not 0.5 < rho < previous * (1 - 2**-10):
                return closed
        total = _log_add(total, term)
        if total > limit:
            return total
        if rho >= 1 and n - d.first >= _term_cap(ctx.working_digits):
            raise DivergenceError(
                f"series failed to certify within {_term_cap(ctx.working_digits)} terms"
            )
        coeff += advance + abs(coeff) * _LOG_MARGIN + _PEAK_MARGIN
        previous, n = rho, n + 1


def _factor_log2(
    f: Factor,
    q: Real,
    m: int,
    c0_log: tuple[float, float],
    u_log: tuple[float, float],
    negative: bool,
    ctx: RealContext,
) -> tuple[float, float]:
    """Bounds ``low <= log2|c0 - c1*q**m| <= high`` of the factor ``f``, with
    ``low = -inf`` if it cannot be told from 0 (module docstring), from log2
    bounds on ``|c0|`` and ``|c1*q**m|`` and the sign of ``c1*q**m / c0``."""
    (c0_low, c0_high), (u_low, u_high) = c0_log, u_log
    if c0_low == -inf or u_low - c0_high > _FAR:
        return u_low - _FAR_LOG, u_high + _FAR_LOG
    x_low, x_high = exp2(u_low - c0_high) / _EXP2_UP, exp2(u_high - c0_low) * _EXP2_UP
    if negative:
        low, high = 1 + x_low, 1 + x_high
    elif x_high < 1:
        low, high = 1 - x_high, 1 - x_low
    else:
        low, high = x_low - 1, x_high - 1
    low, high = low * (1 - 2 * _UNIT), high * (1 + 2 * _UNIT)
    if 0 < low and high < 2 * low:
        return c0_low + log2(low) - _PEAK_MARGIN, c0_high + log2(high) + _PEAK_MARGIN
    with localcontext(ctx.dec):
        u = f.c1 * ipow(q, m)
        size = abs(f.c0 - u)
        error = 0 if type(q) is Fraction else (abs(f.c0) + abs(u)).scaleb(3 - ctx.working_digits)
        high = _log2_bounds(size + error)[1]
        return (_log2_bounds(size - error)[0] if size > error else -inf), high


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
    hard_cap = _term_cap(wd)
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
    build: Callable[..., QTerm],
    params: Iterable[Real],
    bracket: Callable[[BigReal], BigReal],
    ctx: RealContext,
    method_tag: str,
    eps: BigReal | None = None,
    exact: Callable[[int, int], tuple[int, int]] | None = None,
) -> SeriesValue:
    """:func:`sum_qterm` of ``build(*params)`` with the summands the theta
    weight of the series times ``bracket(q**n)``.

    ``bracket(q**n)`` must equal the product of the factors of the series at
    ``n``, so that the summands are those of the series and are certified by
    its majorant.  ``bracket`` is called once per index, in increasing order.

    With an exact ``q = p/r`` (a ``Fraction``), ``exact`` is required:
    ``exact(P, R)`` is the same bracket at ``q**n = P/R``, ``(P, R) =
    (p**n, r**n)``, as an int pair ``(N, D)`` with ``N / D`` its exact value,
    and the summand is ``weight(n) * N / D``: the weight's roundings and two
    more, inside the 20 per index of the module docstring's taper proof.
    ``D`` is never 0: it is a nonzero int times the product of the
    description's denominator factors at ``q**n`` (``b*d*R**2`` times
    ``(1 - x q^n)(1 - t q^n)`` on the bilateral forms' ``n >= 0`` side,
    ``x = a/b`` and ``t = c/d``), which the caller's pole scan has kept away
    from 0.  Once ``R`` is too long the summands are ``weight(n) *
    bracket(q**n)`` again (:func:`qlambert.exact._exact_bracketed`).  A
    ``Decimal`` ``q`` takes ``bracket`` alone.
    """

    def term(series: QTerm) -> Callable[[int], BigReal]:
        return bracketed_terms(series, bracket, exact)

    return sum_qterm(build, params, ctx, method_tag, eps, term)


def bracketed_terms(
    series: QTerm,
    bracket: Callable[[BigReal], BigReal],
    exact: Callable[[int, int], tuple[int, int]] | None = None,
) -> Callable[[int], BigReal]:
    """The summands of :func:`sum_bracketed`, one per call from ``series.first``
    under the current context."""
    q = series.q
    weight = _kernel(replace(series, factors=()))
    if type(q) is Fraction:
        from .exact import _exact_bracketed

        return _exact_bracketed(weight, q, series.first, bracket, exact)
    q_pow = ipow(q, series.first)

    def term(n: int) -> BigReal:
        nonlocal q_pow
        value = weight(n) * bracket(q_pow)
        q_pow *= q
        return value

    return term


def qpochhammer_n(a: BigReal, q: BigReal, n: int, ctx: RealContext) -> BigReal:
    """Finite q-Pochhammer product ``(a;q)_n = (1-a)(1-aq)...(1-aq^(n-1))``,
    exactly 1 for ``n = 0``; each factor is rounded on its own."""
    _require_int("n", n, 0)
    a, q = as_decimal(a, ctx), as_decimal(q, ctx)
    with localcontext(ctx.dec):
        return prod((1 - a * ipow(q, i) for i in range(n)), start=_ONE)


def qpochhammer_inf(
    a: BigReal, q: BigReal, ctx: RealContext, eps: BigReal | None = None
) -> SeriesValue:
    """Infinite q-Pochhammer product ``(a;q)_inf`` for ``|q| < 1``: the head
    ``(a;q)_K`` of the ``K`` leading factors with ``|a*q**i| > 1`` times
    Euler's expansion ``(b;q)_inf = sum_{n>=0} (-b)**n * q**(n*(n-1)/2) / (q;q)_n``,
    ``b = a*q**K``, to ``eps``: by default ``epsilon * max(1, V)``, ``V``
    the head times :func:`_poch_log2_bounds`' lower bound on ``|(b;q)_inf|``.

    The sum is certified to ``eps / (2 * max(1, |head|))``, and the product
    runs at the digits that ``|head|`` times the sum's value and tail asks
    for (module docstring), with the head computed again there; its
    roundings, a few per factor and relative to the value, are within the
    floor that :func:`product` adds.

    Raises:
        DomainError: unless ``|q| < 1``, past :data:`DIGIT_BUDGET` more digits
            (``|q|`` near 1) before any term, or if the head overflows.
    """
    q, a = as_decimal(q, ctx), as_decimal(a, ctx)
    _require_unit("q", q)
    with localcontext(ctx.dec):
        b, count = +a, 0
        while abs(b) > 1:
            b *= q
            count += 1

    def head(work: RealContext) -> BigReal:
        try:
            return qpochhammer_n(a, q, count, work)
        except Overflow as exc:
            raise DomainError(f"(a;q)_{count} overflows at a = {a:E}") from exc

    value = head(ctx)
    with localcontext(ctx.dec):
        scale = abs(value)
        if eps is None:
            low = _log2_bounds(scale)[0] + _poch_log2_bounds(b, q)[0]
            eps = ctx.epsilon * Decimal(2) ** floor(max(0.0, low))
        rest_eps = eps / (2 * max(_ONE, scale))
    rest = sum_qterm(_euler, (a, q, count), ctx, "euler", rest_eps)
    with localcontext(ctx.dec):
        size = _log2_bounds(scale * (abs(rest.value) + rest.tail_bound))[1]
    work = _working_context(ctx, eps, size)
    if work is not ctx:
        value = head(work)
    return product(((ball(value), 1), (rest, 1)), work, "euler")


def _euler(a: BigReal, q: BigReal, count: BigReal) -> QTerm:
    """Euler's expansion of ``(b;q)_inf``, ``b = a*q**count``."""
    inverse_qq = Factor(1, k=1, power=-1, pochhammer=True)  # 1 / (q;q)_n
    return QTerm(q, z=-a * ipow(q, int(count)), theta=(1, 0), factors=(inverse_qq,))


def _poch_log2_bounds(a: BigReal, q: BigReal) -> tuple[float, float]:
    """Bounds ``low <= log2|(a;q)_inf| <= high`` for ``|a| <= 1``, ``|q| < 1``.

    The factors ``1 - x_i``, ``x_i = a*q**i``, with ``|x_i| > 2**-10`` (at
    most ``2**12``) enter at their float values, each within ``|x_i| *
    (i + 2) * 2**-50``; the rest add between ``-x/((1 - x)(1 - |q|))`` and
    ``x/(1 - |q|)`` to the log, ``x = |x_N|`` the first left out.  ``low``
    is ``-inf`` if a factor cannot be told from 0.
    """
    x, r = float(a), float(q)
    low = high = 0.0
    for i in range(2**12):
        if abs(x) <= 2**-10:
            break
        size, error = abs(1 - x), abs(x) * (i + 2) * 2**-50
        low = low + log2(size - error) if size > 2 * error else -inf
        high += log2(size + error)
        x *= r
    x = abs(x)
    high += x / ((1 - abs(r)) * log(2))
    low -= x / ((1 - x) * (1 - abs(r)) * log(2))
    margin = (abs(low) + abs(high)) * 2**-40 + _PEAK_MARGIN
    return low - margin, high + margin


def poch_product(
    q: BigReal,
    pochs: Sequence[tuple[BigReal, int]],
    build: Callable[..., QTerm],
    params: Iterable[Real],
    ctx: RealContext,
    method_tag: str,
) -> SeriesValue:
    """``prod_i (a_i;q)_inf**k_i`` (pairs ``(a_i, k_i)``, ``|a_i| < 1``,
    ``k_i = +-1``) times the sum of ``build(*params)``, to ``epsilon``.

    :func:`product`'s radius is at most each part's tail times bounds ``M_j``
    on the others: ``|v| + tail`` for a factor, ``1 / (|v| - tail)`` for a
    divisor, whose tail counts as ``tail / (|v| (|v| - tail))``.  Each of the
    ``P`` parts gets ``epsilon / (2P)`` of it, its digits from float bounds
    on the others known before it is summed: the series first, under
    :func:`_poch_log2_bounds` of the products, then the products, under the
    series' value and tail.  Each product's tail is also held within
    ``2**-10`` of its bound, so ``M_j`` exceeds that by at most ``1 + 2**-9``.
    The product runs at the digits that ``prod M_j`` asks for.
    """
    share = ctx.epsilon / (2 * (len(pochs) + 1))
    slack = log2(1 + 2**-9)
    # (a, k, log2 M, log2 of the tail's weight, log2 of the tail's ceiling)
    parts = []
    for a, k in pochs:
        low, high = _poch_log2_bounds(a, q)
        if k > 0:
            parts.append((a, k, high + slack, 0.0, high - 10))
        else:
            parts.append((a, k, slack - low, slack - 2 * low, low - 10))
    sizes = sum(size for _, _, size, _, _ in parts)

    def budget(others: float, ceiling: float = inf) -> BigReal:
        with localcontext(ctx.dec):
            return share * Decimal(2) ** -ceil(max(others, -ceiling))

    series = sum_qterm(build, params, ctx, method_tag, budget(sizes))
    with localcontext(ctx.dec):
        sizes += _log2_bounds(abs(series.value) + series.tail_bound)[1]
    values = [(series, 1)] + [
        (qpochhammer_inf(a, q, ctx, budget(sizes - size + weight, ceiling)), k)
        for a, k, size, weight, ceiling in parts
    ]
    return product(values, _working_context(ctx, ctx.epsilon, sizes), method_tag)


def theta3(q: Real, ctx: RealContext) -> SeriesValue:
    """Jacobi theta constant ``Theta_3(q) = 1 + 2 * sum_{n>=1} q**(n**2)``.

    The sum is certified to ``epsilon/4``, so the doubled tail stays within
    ``epsilon/2``.

    Raises:
        DomainError: unless ``|q| < 1``.
    """
    _require_unit("q", as_decimal(q, ctx))
    (q,) = series_parameters((q,), ctx)
    series = QTerm(q, start=q, theta=(2, 1), first=1)
    sv = series.sum(ctx, "theta", eps=ctx.epsilon / 2)
    return combine(((1, ball(_ONE)), (2, sv)), ctx, "theta")
