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

The term kernel is one closure, composed once per description, that keeps
its running values in locals and at index ``n``, under the current context:

1. forms ``T_n`` from the coefficient ``C_n`` and the evaluated factors,
   in the first of these forms that the description has:

   * *the qxt bracket*, where the evaluated factors are one numerator
     ``1 - c1_a*c1_b*q**((s_a + s_b)*n + k_a + k_b)`` and two denominators
     ``1 - u_a`` and ``1 - u_b``, ``u_a = c1_a*q**(s_a*n + k_a)``, in
     factor order, every ``c0`` exactly 1 and the numerator's ``c1`` the
     exact product ``c1_a*c1_b``, not a rounded one: ``T_n = C_n/(1 - u_a)
     + C_n/(1 - u_b) - C_n``, left to right, which is the same number.  Two
     quotients replace two products, a quotient and a third difference, and
     the numerator's running value is not kept;
   * *a shared ratio*, where they are one numerator ``c0' - u`` and one
     denominator ``c0 - u`` on the same running value, and ``d = c0' - c0``
     is an int: ``T_n = C_n*d/(c0 - u) + C_n``, a short product in place of
     a full one;
   * *the product*: ``C_n`` times the numerator differences ``c0 - u``, in
     factor order, divided by the product of the denominator differences,
     formed from the first one in factor order;
2. multiplies ``C_n`` by ``z`` and by ``W_n`` (and ``W_n`` by ``q**step``),
   then by the Pochhammer numerator differences in order, and divides it
   by the product of their denominator differences: that is ``C_{n+1}``.
   With ``Decimal`` parameters, a theta weight and ``z != 1``, ``z`` is
   folded into the weight: ``C_n`` is multiplied by the one running value
   ``z*q**(step*n + shift)``, the product ``z*W_first`` rounded once and
   then advanced by ``q**step``;
3. multiplies each distinct running value ``u = c1*q**(s*i + k)`` that a
   factor evaluates or accumulates by ``q**s``.

A description of the naive geometric shape, one evaluated denominator
``c0 - u`` and no numerator, theta weight or Pochhammer factor, gets a
closure of its own, with ``z != 1`` for ``Decimal`` parameters: ``T_n = C_n
/ (c0 - u)``, then ``C_n * z`` and ``u * q**s``.  It runs the product
form's operations in the same order, and no test for the parts it lacks.

The forms and the operations and their order depend on the description
alone, so a summand is a fixed function of the description and of the
precisions the calls ran at.  When the precision of a call differs from the
one before, the constants ``z``, ``q**step`` and ``q**s`` are first rounded
to it from their full-length values, once per change.

Exact parameters.  A description whose ``q`` is exact, a ``Fraction`` (short
rationals, which :func:`~qlambert.numerics.series_parameters` keeps exact
above 200 working digits) or an element of a quadratic field ``Q(beta)``
(the Horadam reciprocal sums'), gets the kernel of
:func:`qlambert.exact._exact_kernel`, chosen when the kernel is built.
``C_n`` stays a ``Decimal`` and every other running value is exact, so
that the summand and the step are each ``C_n`` times one exact multiplier
``(g + h*beta)/N``: 2 roundings where ``h = 0`` (a product and a quotient
by ints), and 7 otherwise, from the index's one full-length product
``C_n*beta`` at the digits that the coordinates cancel
(:mod:`qlambert.exact`).  Once the powers of a rational ``q = p/r`` grow
too long, at index ``m``, that kernel hands its running coefficient
``C_m`` to the kernel above, composed for the same description from
``m``: the weight ratio ``q**(step*m + shift)`` and each ``c1*q**(s*m +
k)`` are their exact values rounded once, each ``c0`` is rounded once, and
the constants are ints, ``p**s``, ``p**step`` and the numerator of ``z``,
each product followed by a quotient by ``r**s``, ``r**step`` or the
denominator of ``z``, which is not folded into the weight.  Ints need no
rounding when the precision changes.  The summand takes the same forms.
A description with ``Decimal`` parameters pays one ``None`` test per step
that could divide.  :func:`sum_bracketed` sums a description with exact
parameters with that description's own kernel: a hand-written bracket is
then the exact product of the factors, which the exact kernel forms.  The
majorant and the pole scans read the parameters' ``Decimal`` values alone,
and so does the peak bound but for a factor near a pole, whose size it forms
exactly for a ``Fraction`` ``q``.

The engine sums the terms in increasing index order and stops as soon as
that tail bound drops below ``epsilon / 2``; the other half of the epsilon
budget is left for rounding accumulation.  The test runs in floats on the
17-digit mantissa ``m`` and decimal exponent ``e`` of each term:
``|T_n| <= m * (1 + 10**-16) * 10**(e - 16)``, and the float tail
``m * rho / (1 - rho)``, rounded up by ``1 + 8 * 2**-52``, is compared with
``eps/2`` rounded down by the same factor; beyond ``10**300`` the comparison
is made exactly (:func:`_less`).  An empirical guard cross-checks the
majorant on the same mantissas: once past a burn-in of 16 terms, a term
exceeding twice the declared ratio times the term before counts as a
violation, and 64 consecutive violations abort the summation.

Lazy certification.  At every precision the tail test and the guard read
``ratio_at(n)`` and the mantissa only where they can use them, and every
summand, stop, bound and guard decision is that of tests that read both at
every index (as they do for a ``Decay`` with no ``log2_floor``):

1. *The floor.*  ``ratio_at(n)`` starts from the float ``x = const +
   n*slope``, then only adds ``g > 0`` to it or multiplies by factors of 1
   or more, and the allowance, at least ``1 + 8u``, covers ``exp2`` and the
   product.  So every ``ratio_at(n)`` but ``_NOT_YET`` is at least
   ``floor(n) = 2**x * (1 - 2**-48)``, with a theta weight too; below the
   normal floats the floor is 0 (:func:`_pow2_floor`).  Without a theta
   weight (``slope = 0``) it is one number, ``lowest``.
2. *The reach.*  The tail test can pass only at ``t = 0`` or ``e <=
   reach(n) = target_e + 2 - log10(low / (1 - low))``, ``low =
   min(floor(n), 1 - 2**-40)``: a ``rho < 1`` is at least ``low``, so the
   float tail is at least ``10**16 * low / (1 - low)``, while ``limit <
   10**17``; past ``reach`` it fails by a factor 10.  Without a theta weight
   ``reach`` is one number.  With one the loop takes ``target_e + 2 - x /
   log2(10)``, which grows linearly in ``n`` and is at least ``reach(n)``
   less ``10**-14``: where ``floor(n) <= 1``, ``low / (1 - low) >=
   floor(n)``, whose ``log10`` is ``x / log2(10) + log10(1 - 2**-48)``, and
   where ``floor(n) > 1`` no ``rho >= floor(n)`` passes.  That and the
   float errors are far inside the spare factor 10.  Where ``x <= -1021``,
   and the floor may be 0, ``reach`` is ``inf``.
3. *The guard.*  With ``lo = min(lowest, 2)``, and 0 with a theta weight,
   ``|t| <= shrink * |t_prev|``, ``shrink = 2*lo*(1 - 2**-30)`` rounded down
   to a multiple of ``2**-20``, gives ``m * 10**k < (m_prev + 1) * shrink *
   (1 + 5*10**-10)`` (the product rounds at ``W >= 10`` digits) and
   ``rho_prev >= lo``: the guard's float test fails, and so it does for
   ``|t| <= |t_prev|`` where ``shrink >= 1``.  Otherwise the loop reads the
   mantissas and first runs the test with ``min(floor(n - 1), 2)`` in place
   of ``rho_prev``.  Float products are monotone, so where ``2 * floor *
   m_prev`` is at least ``m * 10**k`` (in floats, or exactly past
   ``10**300``) so is ``2 * rho_prev * m_prev``, and there is no violation;
   only where it is not does the loop read ``ratio_at(n - 1)`` and run the
   test itself.  The test at ``n`` reads ``T_{n-1}`` and ``T_n`` alone, so
   it need not run at every index.  From the last index of the burn-in,
   while checks pass, the loop checks every 32nd index and keeps the terms
   since the last passed check ``c``.  A check that passes at ``c + 32``
   leaves the count at 0 whatever the indices between did: a run among
   those 31 is shorter than 64.  One that fails re-runs the test at ``c +
   1, ..., c + 32`` in order, counting the run that ends there (at most 32),
   and the loop then tests every index until one passes.  So every run of
   64 violations holds a checked index, and the guard raises at the index,
   with the message, of a test at every index.  A sum that stops between
   checks needs no re-scan: no run among the unchecked indices reaches 64.

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
``DomainError`` before any term, or ``DivergenceError`` where ``rho >= 1``
(not ``_NOT_YET``) has not fallen since the index before.

``B`` is first ``|T_first| * (1 + rho_0 + rho_0*rho_1 + ...)``, the
majorant's ratios alone, closed at the first ``rho_N < 1`` by
``1 / (1 - rho_N)``; if that asks for no more digits, it is the bound.
Otherwise it bounds each summand from its factors' own signed values over the
indices with ``ratio_at(n) >= 1``, and on while ``rho`` falls by more than a
relative ``2**-10`` and exceeds ``1/2`` and the bound still asks for more
digits, then adds ``|T_N| / (1 - rho_N)``.  A factor is ``|c0|`` times
``1 + x`` or ``|1 - x|``, by the exact sign of ``c1*q**m / c0``, with ``x``
between the outward-rounded ``exp2`` of the majorant's log bounds on
``|c1*q**m / c0|`` (:func:`_factor_log2`).  Where that interval holds 0 or
spans over a factor 2 (within about ``2**-45`` of a pole, which a float
cannot resolve but which may pass the pole scans' ``10**-(W/2)``), the
factor is a difference at the context's digits: for a ``Fraction`` ``q``
the exact rational, its ``c0`` and ``c1`` taken exactly even where one is a
``Decimal``, and otherwise a ``Decimal`` within
``(|c0| + |c1*q**m|) * 10**(3 - W)``, above the roundings of the power,
product and difference; one that cannot be told from 0 raises ``PoleError``.
Each float ``log2`` and sum of logs moves outward by ``2**-40`` and a
relative ``2**-46``.  A description built again at ``W`` (:func:`sum_qterm`)
keeps the majorant: its parameters move by a relative ``10**-W``, far
inside the ``2**-46`` margin.

Precision tapering.  The running sum, its peak, the tests above and
:func:`combine` and :func:`product` work at the working precision ``wd``;
the late summands need fewer digits (Brent and Zimmermann, *Modern Computer
Arithmetic*, ch. 4).  At the first index ``n0`` with ``rho_0 = ratio_at(n0)
< 1``, ``rho_0`` bounds every later ``|T_{m+1} / T_m|``: the taper reads
``ratio_at`` up to ``n0`` alone.  At or after ``n0``, after an index ``n``
with ``T_n != 0``, every later ``|T_m| <= |T_n| < 10**(e+1)``, ``e =
T_n.adjusted()``.  With ``P`` the exponent of the running peak, the terms
after ``n`` are computed at ``max(TAPER_MIN_PREC, wd - d)`` digits,
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
   from ``n0`` on.  So the computed summand is within ``kappa*(j+1)*u(p_j)``
   of the true one, relative to the majorant's bound ``2 * 10**(e+1)`` on it,
   with ``kappa = c * (1 + max h / (|c0| - h))``.  As ``p_j >= wd - d`` and
   ``10**P <= peak``, that is at most ``10*kappa*(j+1) * 10**-r * peak *
   10**-wd``, and over all summands at most ``5*kappa*10**(2*D-r) * peak *
   10**-wd``.  For ``kappa <= 10**4`` (at most 20 roundings per index and
   ``h <= 0.998*|c0|`` at tapered indices) this is within ``5 * 10**5 *
   peak * 10**-wd``, half of the ``10**6`` slack of ``tail_floor(peak)``.
   The count assumes that each update multiplies by a value whose error is
   the same at every step.  A theta weight breaks that: ``C_{n+1}`` takes
   the running ``W_n``, whose error grows linearly in ``n`` (the rounded
   ``q**step`` enters every step), so ``C_n``'s grows like ``n**2``.
   ``QTerm(1 - 1/77777, theta=(2, 1))`` at 50 digits measured ``0.045*n**2``
   roundings for ``n`` from 10 to 3000, 134 per index at ``n = 3000``
   against the 20 counted here.  The floor held wherever it was measured,
   as a theta sum's late summands are tiny against the peak, but for a
   theta weight this count is not a proof.  The exact kernel has exact
   multipliers and no such growth: summand ``j`` carries at most ``7*(j +
   2)`` roundings (:mod:`qlambert.exact`).
   The cheaper forms of step 1 stay within that ``kappa``.  In both, the
   error of ``C_n`` is common to every addend, and so relative to ``T_n``
   as it is to ``C_n``.  In the qxt bracket, with ``v = u_a*u_b`` and
   ``|u_a|, |u_b| <= 0.998`` (so ``|v| <= 0.996``), the summand is
   ``C_n*(1 - v)/((1 - u_a)(1 - u_b))``.  The six roundings of the two
   differences, the two quotients, the sum and the difference are at most
   ``3*(|1 - u_a| + |1 - u_b|)/|1 - v| + 1 <= 12/(1 - |v|) + 1 <= 3001``
   of ``T_n``'s: the cancellation is at most ``8/(1 - |v|)`` of
   ``|T_n|``, where the product's numerator difference amplifies by
   ``|v|/(1 - |v|)``, but ``C_n``'s share of it cancels exactly.  The error
   of ``u_a`` is amplified by ``|u_a||1 - u_b| / (|1 - u_a||1 - v|)``:
   at most ``1/(1 - u_a) <= 500`` where ``u_a >= 0``, as ``1 - v >=
   u_a*(1 - u_b)``, and at most ``2/(1 - |v|) <= 500`` where ``u_a < 0``.
   So ``kappa <= c_C + 500*(c_a + c_b) + 3001``, with ``c_C``, ``c_a``
   and ``c_b`` the roundings per index of ``C_n``, ``u_a`` and ``u_b``: 3, 2
   and 2 with ``Decimal`` parameters (the product by the folded weight, its
   product and its constant; a product and a constant each), 5, 2 and 2
   after an exact sum's switch, at most 5006 in all.  In a shared ratio the
   quotient ``C_n*d/(c0 - u)`` carries three roundings and the sum one,
   ``3*|d|/|c0' - u| + 1`` of ``T_n``'s, and the error of ``u`` is
   amplified by ``|d||u| / (|c0 - u||c0' - u|)``, at most the product
   form's ``|u|/|c0 - u| + |u|/|c0' - u|`` as ``|d| <= |c0' - u| + |c0 -
   u|``.  For the Lambert theta form (``c0' = -1``, ``c0 = 1``) that is
   ``kappa <= 3 + 500*2 + 3001 = 4004``.
   The exact kernel stays within the same count.  While its powers are int
   pairs, an index costs four roundings (a product and a quotient for the
   summand and for the coefficient) and no difference amplifies anything.
   After the switch, in the kernel above, a running value takes two
   roundings per step (``* p**s``, ``/ r**s``) where a ``Decimal`` step took
   one product and carried the rounding of its constant, and a ``Fraction``
   ``c0`` is rounded once, like a constant.
   The exact descriptions of this package then cost at most 17 roundings
   per index (the bilateral theta form: three running values and the
   weight ratio at two each, three differences, three for the summand,
   three for ``z`` and the weight; the ``qxt`` theta form's bracket keeps
   two running values and takes six for its summand, 15 in all).  The switch
   itself rounds each running value and each ``c0`` once, at most 7
   roundings, fewer than one index's 20; so summand ``j`` carries at most
   ``20*(j+2)`` of them, the theta weight's growth above aside.  The sum
   over ``j < M`` of ``j + 2`` is at most ``(M+1)*(M+2)/2 <= 10**(2*D)/2``, as ``hard_cap + 3 < 10**D``, the same
   bound as that of ``j + 1`` above: the constants still hold.
   A bracketed summand (:func:`sum_bracketed`) is the weight's kernel
   value times a ``Decimal`` bracket at the running ``q**n``: with the
   bilateral forms' brackets at most 8 (their differences ``1 - x*q**n``
   amplify as the factors' do), the weight's 3 (the product by the folded
   weight, its product and its constant), the product, and one for the
   step of ``q**n``, 13 per index.
2. *The tests.*  The tail test and the decay guard read a summand's
   17-digit mantissa; ``_TAIL_UP`` leaves about ``2**-49`` above the float
   roundings.  The summand's relative error is at most ``kappa*M*u(p)
   <= 5 * 10**(4 + D - TAPER_MIN_PREC)``, below ``10**-80`` for any
   ``hard_cap < 10**15``.  A product of 100 digits or fewer costs about as
   much as the interpreter's dispatch of it (0.2 us, against 18 us at 1000
   digits), so a lower minimum would save nothing.

The loop tests the rule on an integer gate.  While ``prec > TAPER_MIN_PREC``
and after the latch, ``lower = max(TAPER_MIN_PREC, wd - d) < prec`` exactly
where ``e < prec - wd - 1 - r + P``; that bound changes only with ``prec``
or ``P``, and the loop recomputes it then (at each rise of the peak) and
forms ``lower`` only where ``e`` is below it.

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
from functools import partial
from math import ceil, exp2, floor, inf, ldexp, log, log2, log10, prod, ulp
from operator import mul
from typing import Callable, Iterable, Protocol, Sequence

from .errors import DivergenceError, DomainError, PoleError
from .numerics import (
    BigReal,
    Real,
    RealContext,
    _context,
    _require_int,
    _require_unit,
    as_decimal,
    is_quadratic,
    make_context,
    series_parameters,
)

_ONE = Decimal(1)


def _is_exact(x: Real) -> bool:
    """Whether ``x`` is exact: a ``Fraction`` or an element of a quadratic field."""
    return type(x) is Fraction or is_quadratic(x)


def ipow(base: Real, exponent: int) -> Real:
    """``base ** exponent`` for integer exponents, with ``0 ** 0 == 1``; exact
    for a ``Fraction`` and for an element of a quadratic field."""
    if _is_exact(base):
        return base**exponent
    if exponent == 0:
        return Decimal(1)
    return Decimal(base) ** exponent


def crossing(a: BigReal, q: BigReal, first: int = 0) -> int:
    """The least ``n >= first`` with ``|a*q**n| <= 1``, for ``Decimal`` ``a``
    and ``|q| < 1``, both exact, under the current context of ``W`` digits.

    Past ``first`` it is the least integer ``n >= nu = ln|a| / -ln|q| < b =
    3 * (E + 1) / (1 - |q|)``, ``E`` the adjusted exponent of ``|a|``.  At
    ``P = max(10, adjusted(b) + 3)`` digits the correctly rounded ``ln`` give
    a quotient within ``2 * 10**(1 - P) * nu < 1`` of ``nu``: ``n`` is its
    ceiling less one or one of the two integers above, and direct powers at
    the first two, each within a relative ``10**(1 - W)``, settle which.
    Where ``-ln|q|`` is below that they may not; the result is within 2 of
    ``n``, ``|ln(a*q**n)| < 3 * -ln|q|``, inside the pole tolerance ``10**-(W // 2)``.
    """
    a, q = a.copy_abs(), q.copy_abs()
    if a * ipow(q, first) <= 1:
        return first
    logs = _context(max(10, (3 * (a.adjusted() + 1) / (1 - q)).adjusted() + 3))
    n = max(first + 1, -1 - floor(logs.divide(a.ln(logs), q.ln(logs))))
    return n + (a * ipow(q, n) > 1) + (a * ipow(q, n + 1) > 1)


#: Number of leading terms exempt from the decay guard.
GUARD_BURN_IN = 16
#: Consecutive decay violations after which the engine aborts.
GUARD_VIOLATION_LIMIT = 64
#: Stride of the guard's checks while they pass (module docstring).
_GUARD_BLOCK = 32
#: The taper's gate before the latch and at the fewest digits: no exponent is below it.
_NEVER = -(2**63)
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
#: The smallest normal and subnormal floats.
_MIN_NORMAL = 2.0**-1022
_MIN_SUBNORMAL = ulp(0.0)
#: Largest power of ten the tail test and the guard form in floats.
_MAX_POW10 = 300
#: Margins of lazy certification (module docstring): of the floor, low, shrink.
_FLOOR_DOWN, _LOW_CAP, _SHRINK_DOWN = 1 - 2.0**-48, 1 - 2.0**-40, 1 - 2.0**-30
#: Where ``log2`` of the floor is at most this, the floor may be 0 (reach is inf).
_FLOOR_LOG2_MIN = -1021.0
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
    """Majorant of the term ratios, a function of the index alone.

    A ``log2_floor`` ``(c, s)``, if it has one, declares every
    ``ratio_at(n)`` but 2 at least ``floor(n) = 2**(c + n*s) * (1 - 2**-48)``
    (0 below the normal floats, :func:`_pow2_floor`).  The engine then reads
    ``ratio_at`` only where its tests need it: the tail test where the
    term's exponent is within the reach that the floor leaves it, the guard
    where ``2 * floor(n - 1)`` times the last mantissa does not prove it
    passes (module docstring).  Without one it reads every index."""

    def ratio_at(self, n: int) -> float:
        """A bound on ``|T_{m+1} / T_m|`` for every ``m >= n``."""


@dataclass(frozen=True)
class TermGenerator:
    """A summand stream with a declared decay majorant.

    The engine calls ``term`` once per index, in increasing order from its
    ``start_index``, and ``term`` may keep running-product state keyed to
    that order; it calls ``decay.ratio_at`` where its tests need it, at any
    index, in any order.

    ``term`` runs under the engine's current ``decimal`` context, whose
    precision may be below the working precision and never rises during a
    sum (precision tapering, module docstring).  It must compute at that
    precision and must not open a context of its own or change the current
    one; it may carry intermediates at more digits, through the methods of
    contexts that :func:`~qlambert.numerics.make_context` builds
    (:mod:`qlambert.quadratic`).
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
    ``Fraction``, exact rationals and ints, or, when ``q`` is an exact
    element of a quadratic field, elements of that field, rationals and ints
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


def _kernel(d: QTerm, coeff: BigReal | None = None) -> Callable[[int], BigReal]:
    """``d``'s summands, one per call in increasing index order from ``first``:
    the term kernel, composed once from the description (module docstring).

    Its running values are locals of the closure: the coefficient
    ``start * z**(n - first) * W_n`` times the Pochhammer products, the
    theta weight (with ``z`` folded into it, for ``Decimal`` parameters),
    and each distinct ``c1*q**(s*i + k)``, which the factors that have it
    share.  The summand's form, the qxt bracket (:func:`_bracket`), a
    shared ratio (:func:`_ratio`) or the product, is chosen here.  A
    description with an exact ``q``, a ``Fraction`` or an element of a
    quadratic field, gets the kernel of :func:`_exact_kernel`, which calls
    this one with its running coefficient ``coeff`` at the index where the
    powers of a rational ``q = p/r`` grow too long for int pairs.  Then each
    running value is a ``Decimal``, its exact value rounded once, that
    advances by ``* p**s`` and then ``/ r**s``, the coefficient by
    ``* z.numerator`` and then ``/ z.denominator``, and each ``c0`` is
    rounded once.  The naive geometric shape, one evaluated denominator and
    nothing else, gets a closure of its own, for ``Decimal`` parameters with
    ``z != 1`` and after an exact sum's handover (module docstring).
    """
    q = d.q
    # A running coefficient comes from the exact kernel's handover alone.
    exact = coeff is not None
    if not exact and _is_exact(q):
        # Imported on first use: only descriptions with exact parameters,
        # above 200 digits, need it.
        from .exact import _exact_kernel

        return _exact_kernel(d)
    assert not exact or type(q) is Fraction, "a running coefficient needs an exact q"
    # The summand's form: a bracket's numerator is not evaluated, and only
    # the factors evaluated or accumulated get a running value.
    nums, dens = _evaluated(d.factors)
    bracket = _bracket(nums, dens)
    ratio = None if bracket else _ratio(nums, dens)
    factors = [f for f in d.factors if f is not bracket[0]] if bracket else d.factors
    # Factors share the running value c1*q**(s*i + k) of the summands.
    values: dict[tuple[BigReal, int, int], int] = {}
    num, den, pnum, pden = groups = [], [], [], []
    for f in factors:
        j = values.setdefault((f.c1, f.s, f.k), len(values))
        c0 = _rounded(f.c0) if exact else f.c0
        groups[2 * f.pochhammer + (f.power < 0)].append((c0, j))
    plain = not bracket and ratio is None
    if bracket:
        ja, jb = (values[f.c1, f.s, f.k] for f in bracket[1:])
    elif ratio is not None:
        delta, (ratio_c0, ratio_j) = ratio, den[0]
    # The steps' multipliers, and the divisors that exact descriptions add.
    w = w_step = w_div = None
    if exact:
        p, r = q.numerator, q.denominator
        z, z_div = (None if v == 1 else v for v in d.z.as_integer_ratio())
        u = [_rounded(c1, q, s * d.first + k) for c1, s, k in values]
        u_step, u_div = [p**s for _, s, _ in values], [r**s for _, s, _ in values]
        if d.theta is not None:
            step, shift = d.theta
            w, w_step, w_div = _rounded(1, q, step * d.first + shift), p**step, r**step
    else:
        coeff = +d.start
        z, z_div, u_div = None if d.z == 1 else d.z, None, None
        u = [c1 * ipow(q, s * d.first + k) for c1, s, k in values]
        u_step = [ipow(q, s) for _, s, _ in values]
        if d.theta is not None:
            step, shift = d.theta
            w, w_step = ipow(q, step * d.first + shift), ipow(q, step)
            if z is not None:
                # z folds into the weight ratio: C_{n+1} = C_n * z*q**(step*n + shift).
                w, z = z * w, None
    # The constants at full length, and as rounded to the precision of the
    # last call; only sums above TAPER_FROM digits taper, and those of an
    # exact description are ints, which no precision rounds.
    constants = z, w_step, u_step
    rounded_to = getcontext().prec
    tapers = rounded_to > TAPER_FROM and not exact
    if len(den) == 1 and not (num or pnum or pden) and w is None and (exact or z is not None):
        # The naive geometric form: the same operations as the product's,
        # with no test for the parts it lacks.
        ((c0, _),), v, v_step = den, u[0], u_step[0]
        if exact:
            v_div = u_div[0]

            def geometric(n: int) -> BigReal:
                nonlocal coeff, v
                value = coeff / (c0 - v)
                if z is not None:
                    coeff *= z
                if z_div is not None:
                    coeff /= z_div
                v = v * v_step / v_div
                return value

            return geometric

        def geometric(n: int) -> BigReal:
            nonlocal coeff, v, z, v_step, rounded_to
            if tapers and getcontext().prec != rounded_to:
                z, v_step, rounded_to = +constants[0], +constants[2][0], getcontext().prec
            value = coeff / (c0 - v)
            coeff *= z
            v *= v_step
            return value

        return geometric
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
        if plain:
            value = coeff
            for c0, j in num:
                value *= c0 - u[j]
            if den_first is not None:
                c0, j = den_first
                divisor = c0 - u[j]
                for c0, j in den_rest:
                    divisor *= c0 - u[j]
                value /= divisor
        elif bracket:
            value = coeff / (_ONE - u[ja]) + coeff / (_ONE - u[jb]) - coeff
        else:
            value = coeff * delta / (ratio_c0 - u[ratio_j]) + coeff
        if z is not None:
            coeff *= z
        if z_div is not None:
            coeff /= z_div
        if w is not None:
            coeff *= w
            w *= w_step
            if w_div is not None:
                w /= w_div
        for c0, j in pnum:
            coeff *= c0 - u[j]
        if pden_first is not None:
            c0, j = pden_first
            divisor = c0 - u[j]
            for c0, j in pden_rest:
                divisor *= c0 - u[j]
            coeff /= divisor
        if u_div is not None:
            for j, step_r in enumerate(u_div):
                u[j] = u[j] * u_step[j] / step_r
        elif shared:
            u[0] *= u_step[0]
        elif u:
            u[:] = map(mul, u, u_step)
        return value

    return term


def _evaluated(factors: Sequence[Factor]) -> tuple[list[Factor], list[Factor]]:
    """The evaluated numerator and denominator factors, each in factor order."""
    nums, dens = [], []
    for f in factors:
        if not f.pochhammer:
            (dens if f.power < 0 else nums).append(f)
    return nums, dens


def _bracket(nums: list[Factor], dens: list[Factor]) -> tuple[Factor, ...]:
    """``(N, A, B)`` where the evaluated factors are the numerator
    ``N = 1 - c1_a*c1_b*q**((s_a + s_b)*n + k_a + k_b)`` and the denominators
    ``A = 1 - c1_a*q**(s_a*n + k_a)`` and ``B``, in factor order, with every
    ``c0`` exactly 1 and ``c1`` of ``N`` the exact product; otherwise
    ``()``.  Then ``N / (A*B) = 1/A + 1/B - 1``, whatever the running
    values."""
    if len(nums) != 1 or len(dens) != 2:
        return ()
    (top,), (a, b) = nums, dens
    if (
        top.s == a.s + b.s
        and top.k == a.k + b.k
        and top.c0 == a.c0 == b.c0 == 1
        and Fraction(top.c1) == Fraction(a.c1) * Fraction(b.c1)
    ):
        return top, a, b
    return ()


def _ratio(nums: list[Factor], dens: list[Factor]) -> int | None:
    """``c0' - c0`` where the evaluated factors are one numerator ``c0' - u``
    and one denominator ``c0 - u`` on the same running value ``u``, and the
    difference is an int; otherwise None.  Then
    ``(c0' - u) / (c0 - u) = 1 + (c0' - c0) / (c0 - u)``."""
    if len(nums) != 1 or len(dens) != 1:
        return None
    (top,), (bottom,) = nums, dens
    if (top.c1, top.s, top.k) != (bottom.c1, bottom.s, bottom.k):
        return None
    delta = Fraction(top.c0) - Fraction(bottom.c0)
    return int(delta) if delta.denominator == 1 else None


def _rounded(x: Real, q: Real = 1, e: int = 0) -> BigReal:
    """The exact value of ``x * q**e`` rounded once to the current precision."""
    numerator, denominator = x.as_integer_ratio()
    return Decimal(numerator * q.numerator**e) / Decimal(denominator * q.denominator**e)


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

    @property
    def log2_floor(self) -> tuple[float, float]:
        """``(const, slope)``: every ``ratio_at(n)`` but :data:`_NOT_YET` is at
        least ``_pow2_floor(const + n*slope)`` (lazy certification, module
        docstring)."""
        return self.const, self.slope

    def ratio_at(self, n: int) -> float:
        log_rho = self.const + n * self.slope
        ratio = self.allowance
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


def _pow2_floor(x: float) -> float:
    """``2**x * (1 - 2**-48)``, the floor of a ``ratio_at`` that starts from
    ``log2 rho = x``; 0 below the normal floats and ``inf`` above them."""
    if x >= 1024:
        return inf
    low = ldexp(exp2(x % 1) * _FLOOR_DOWN, floor(x))
    return low if low >= _MIN_NORMAL else 0.0


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
    """``a < b * 10**k`` for ``a >= 0`` and a finite ``b >= 0``, exactly;
    False when ``a`` is NaN.  Beyond ``[10**-324, 10**309]``, outside
    ``[2**-1074, 2**1024)``, ``b * 10**k`` is below every positive float or
    above every finite one; ``Decimal`` decides only within."""
    if not b or a != a:
        return False
    magnitude = k + log10(b)
    if magnitude > 309:
        return a < inf
    if magnitude < -324:
        return not a
    return Decimal(a) < Decimal(b).scaleb(k)


def _below(a: float, b: float, k: int) -> bool:
    """``a < b * 10**k`` as the tail test and the guard compare: in floats
    within ``10**300``, exactly past it (:func:`_less`)."""
    return a < b * 10.0**k if -_MAX_POW10 <= k <= _MAX_POW10 else _less(a, b, k)


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
            as :func:`sum_series` takes at ``ctx``, or has not fallen where
            the bound passes the digit budget's.
        PoleError: if a denominator cannot be told from 0 at ``ctx``.
    """
    logs, step, shift = decay.logs, *(d.theta or (0, 0))
    (q_low, q_high), q_negative = logs[d.q], d.q < 0
    # Each factor with the log2 bounds of |c0| and |c1|, and the sign of c1/c0.
    factors = [(f, logs[f.c0], logs[f.c1], (f.c0 < 0) != (f.c1 < 0)) for f in d.factors]
    # Bounds below free take no extra digits; those above limit, too many.
    free = (ctx.working_digits - _digits_for(eps, 0)) * _LOG2_10
    limit, cap = free + DIGIT_BUDGET * _LOG2_10, _term_cap(ctx.working_digits)
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
        # The majorant's ratios alone often show that W is the context's.
        if n == d.first and (quick := _ratio_bound(decay, n, term, free, cap)) <= free:
            return quick
        rho = decay.ratio_at(n)
        if rho < 1:
            closed = _log_add(total, term - log2(1 - rho) + _PEAK_MARGIN)
            if closed <= free or not 0.5 < rho < previous * (1 - 2**-10):
                return closed
        total = _log_add(total, term)
        if total > limit:
            if max(1, previous) <= rho < inf and rho != _NOT_YET:
                raise DivergenceError(f"series terms do not shrink from index {n}")
            return total
        if rho >= 1 and n - d.first >= cap:
            raise DivergenceError(f"series failed to certify within {cap} terms")
        coeff += advance + abs(coeff) * _LOG_MARGIN + _PEAK_MARGIN
        previous, n = rho, n + 1


def _ratio_bound(decay: _Majorant, n: int, term: float, free: float, count: int) -> float:
    """``log2`` of a bound on ``sum_{m >= n} |T_m|`` from ``log2|T_n| <= term``
    and ``ratio_at`` alone; ``inf`` once past ``free``, or where ``ratio_at``
    is :data:`_NOT_YET`, stops falling or stays at 1 or more for ``count`` terms."""
    total, previous = -inf, inf
    for n in range(n, n + count):
        rho = decay.ratio_at(n)
        if rho < 1:
            return _log_add(total, term - log2(1 - rho) + _PEAK_MARGIN)
        total = _log_add(total, term)
        if total > free or rho == _NOT_YET or rho >= previous:
            return inf
        term, previous = term + log2(rho) + abs(term) * _LOG_MARGIN + _PEAK_MARGIN, rho
    return inf


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
    exact = type(q) is Fraction
    # A Decimal c0 or c1, such as the default c0, is a rational too.
    c0, c1 = (Fraction(f.c0), Fraction(f.c1)) if exact else (f.c0, f.c1)
    with localcontext(ctx.dec):
        u = c1 * ipow(q, m)
        size = abs(c0 - u)
        error = 0 if exact else (abs(c0) + abs(u)).scaleb(3 - ctx.working_digits)
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
    wd = ctx.working_digits
    hard_cap = _term_cap(wd)
    # Precision tapering (module docstring): the summands' digits, their
    # fewest, the reserve.  The taper reads rho at every index until the first
    # rho < 1 latches it; at or below TAPER_FROM it never tapers.
    fewest = TAPER_MIN_PREC if wd > TAPER_FROM else wd
    prec, reserve = wd, 2 * len(str(hard_cap)) - 1
    latched = fewest == wd
    term, ratio_at = gen.term, gen.decay.ratio_at
    # Lazy certification (module docstring): the floor's line, or a floor 0.
    # Without a theta weight the floor is one number, lowest.
    const, slope = getattr(gen.decay, "log2_floor", (_LOG2_ZERO, 0.0))
    lowest = 0.0 if slope else min(_pow2_floor(const), _NOT_YET)
    low = min(lowest, _LOW_CAP)
    with localcontext(ctx.dec) as local:
        target = (ctx.epsilon if eps is None else eps) / 2
        # target >= limit * 10**(target_e - 16).
        target_e = target.adjusted()
        limit = int(target.scaleb(16 - target_e)) * _TARGET_DOWN
        reach = target_e + 2 - log10(low / (1 - low)) if low else inf
        shrink = Decimal(ldexp(floor(ldexp(2 * lowest * _SHRINK_DOWN, 20)), -20))
        unit = shrink >= 1

        def violated(n: int, before: BigReal, t: BigReal, rho_prev: float | None) -> bool:
            """|T_n| > 2 * rho_prev * |T_{n-1}| on the mantissas: first with
            the floor of rho_prev, which proves no violation or reads it."""
            size, size_prev = t.copy_abs(), before.copy_abs()
            if (unit and size <= size_prev) or (shrink and size <= shrink * size_prev):
                return False
            e, e_prev = t.adjusted(), before.adjusted()
            m, m_prev = int(size.scaleb(16 - e)), int(size_prev.scaleb(16 - e_prev))
            if rho_prev is None:
                floor_prev = min(_pow2_floor(const + (n - 1) * slope), _NOT_YET)
                if not _below(2 * floor_prev * m_prev, m, e - e_prev):
                    return False
                rho_prev = ratio_at(n - 1)
            return _below(2 * rho_prev * m_prev, m, e - e_prev)

        total = peak = Decimal(0)
        terms_used = violations = 0
        # The guard's terms since its last check, T_c first, and its stride.
        kept, block, rho = [], _GUARD_BLOCK, None
        # The taper's gate: lower < prec exactly where e < gate; _NEVER before
        # the latch and at the fewest digits.
        cut, gate = wd + 1 + reserve, _NEVER
        n = start_index
        while True:
            if prec < wd:
                local.prec = prec
                t = term(n)
                local.prec = wd
            else:
                t = term(n)
            total += t
            partial = total.copy_abs()
            if partial > peak:
                peak = partial
                if gate > _NEVER:
                    gate = prec - cut + peak.adjusted()
            terms_used += 1
            rho_prev = rho
            if latched:
                rho = None
            else:
                rho = ratio_at(n)
                if rho < 1:
                    latched, gate = True, prec - cut + peak.adjusted()
            e = t.adjusted()
            if terms_used >= GUARD_BURN_IN:
                kept.append(t)
                if len(kept) > block:
                    if not violated(n, kept[-2], t, rho_prev):
                        violations, block = 0, _GUARD_BLOCK
                    else:
                        # A failed check after a passed one re-scans the block
                        # in order for the run of violations it ends.
                        pairs = zip(kept, kept[1:-1])
                        for i, (before, after) in enumerate(pairs, n - block + 1):
                            hit = violated(i, before, after, None)
                            violations = violations + 1 if hit else 0
                        violations, block = violations + 1, 1
                        if violations >= GUARD_VIOLATION_LIMIT:
                            raise DivergenceError(
                                f"terms violated the declared decay near index {n}"
                            )
                    kept = [t]
            if slope:
                # reach(n) rises along the floor's line (module docstring).
                x = const + n * slope
                reach = target_e + 2 - x / _LOG2_10 if x > _FLOOR_LOG2_MIN else inf
            if terms_used >= MIN_TERMS and (e <= reach or not t):
                if rho is None:
                    rho = ratio_at(n)
                if rho < 1:
                    # m <= |t| * 10**(16 - e) < m + 1, m >= 10**16 unless t = 0.
                    m = int(t.copy_abs().scaleb(16 - e))
                    tail = m * rho / (1 - rho) * _TAIL_UP
                    if _below(tail, limit, target_e - e):
                        return SeriesValue(
                            value=total,
                            terms_used=terms_used,
                            tail_bound=Decimal(tail).scaleb(e - 16) + ctx.tail_floor(peak),
                            method_tag=method_tag,
                        )
            if e < gate and t:
                # Every later |T| < 10**(e+1): d = P - (e+1) - r digits of
                # them lie below the floor's share.
                lower = max(fewest, e + cut - peak.adjusted())
                if wd <= _MUL_CLIFF or 2 * lower <= wd:
                    prec = lower
                    gate = prec - cut + peak.adjusted() if prec > fewest else _NEVER
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
) -> SeriesValue:
    """:func:`sum_qterm` of ``build(*params)`` with the summands the theta
    weight of the series times ``bracket(q**n)``.

    ``bracket(q**n)`` must equal the product of the factors of the series at
    ``n``, so that the summands are those of the series and are certified by
    its majorant.  ``bracket`` is called once per index, in increasing order,
    under the current context.  With exact parameters the bracket is the
    exact product of the factors, which the series' own kernel forms, so the
    series is summed with that kernel and ``bracket`` is not called.
    """

    def term(series: QTerm) -> Callable[[int], BigReal]:
        q = series.q
        if _is_exact(q):
            return _kernel(series)
        weight = _kernel(replace(series, factors=()))
        q_pow = ipow(q, series.first)

        def summand(n: int) -> BigReal:
            nonlocal q_pow
            value = weight(n) * bracket(q_pow)
            q_pow *= q
            return value

        return summand

    return sum_qterm(build, params, ctx, method_tag, eps, term)


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
            (``|q|`` near 1) before any term, if the head has more factors
            than a sum may have terms (:func:`_term_cap`), or if it overflows.
    """
    q, a = _require_unit("q", q, ctx), as_decimal(a, ctx)
    with localcontext(ctx.dec):
        count = crossing(a, q)
        if count > (cap := _term_cap(ctx.working_digits)):
            raise DomainError(f"(a;q)_inf has {count} head factors, past the cap of {cap}")

    def head(work: RealContext) -> BigReal:
        try:
            return qpochhammer_n(a, q, count, work)
        except Overflow as exc:
            raise DomainError(f"(a;q)_{count} overflows at a = {a:E}") from exc

    value = head(ctx)
    with localcontext(ctx.dec):
        scale = abs(value)
        if eps is None:
            low = _log2_bounds(scale)[0] + _poch_log2_bounds(a * ipow(q, count), q)[0]
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
    is ``-inf`` if a factor cannot be told from 0.  ``1 - |q|`` is rounded
    once from its exact value, so it is not 0 where ``|q|`` rounds to 1.
    """
    x, r, gap = float(a), float(q), float(1 - abs(Fraction(q)))
    low = high = 0.0
    for i in range(2**12):
        if abs(x) <= 2**-10:
            break
        size, error = abs(1 - x), abs(x) * (i + 2) * 2**-50
        low = low + log2(size - error) if size > 2 * error else -inf
        high += log2(size + error)
        x *= r
    x = abs(x)
    high += x / (gap * log(2))
    low -= x / ((1 - x) * gap * log(2))
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
    share = ctx.dec.divide(ctx.epsilon, 2 * (len(pochs) + 1))
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

    The sum, ``QTerm(q, start=q, theta=(2, 1), first=1)``, is certified to
    ``epsilon/4``, so the doubled tail stays within ``epsilon/2``.

    Raises:
        DomainError: unless ``|q| < 1``.
    """
    _require_unit("q", q, ctx)
    sv = sum_qterm(partial(QTerm, theta=(2, 1), first=1), (q, q), ctx, "theta", ctx.epsilon / 2)
    return combine(((1, ball(_ONE)), (2, sv)), ctx, "theta")
