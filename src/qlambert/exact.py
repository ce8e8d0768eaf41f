"""The term kernel of a q-series description with exact parameters: short
rationals, or elements of a real quadratic field ``Q(beta)``.

:func:`qlambert.numerics.series_parameters` keeps short rationals exact
above 200 working digits, the Horadam reciprocal sums keep theirs in
``Q(beta)`` (:mod:`qlambert.quadratic`), and :func:`qlambert.qcore._kernel`
hands a description with a ``Fraction`` or a ``Quadratic`` ``q`` to
:func:`_exact_kernel`.  Its running coefficient ``C_n`` is a ``Decimal``;
every other value is exact, a numerator ``g + h*beta`` over an int
denominator: an int where ``h = 0``, as for every rational, and otherwise a
:class:`~qlambert.quadratic.Pair`.  That is the one form of an element of
``Q(beta)``, and :func:`_split` reads every parameter in it, a rational
through its ``as_integer_ratio()`` and an element through its numerator and
denominator, so that a rational sum never imports :mod:`qlambert.quadratic`.
With ``q = p/r``, each running power ``q**e``, ``e = s*i + k``, is the pair
``(p**e, r**e)``, advanced by ``p**s`` and ``r**s``, and with ``c0 = a0/b0``
and ``c1 = a1/b1`` a difference ``c0 - c1*q**e`` is ``(a*r**e - b*p**e) /
(c*r**e)``, ``a = a0*b1``, ``b = b0*a1``, ``c = b0*b1``.  At index ``n`` the
summand's multiplier ``S_n``, the product of the evaluated factors, and the
step's ``R_n``, ``z``, the weight ratio and the Pochhammer factors, are each
one numerator over one int: the powers of ``r`` cancel down to one net
power, and a product of denominators with ``h != 0`` is inverted through its
norm, ``1/(g + h*beta) = ((g + m1*h) - h*beta)/N``.  ``T_n = C_n*S_n`` and
``C_{n+1} = C_n*R_n`` are then each one combination: with ``h = 0`` a
product and a quotient by ints, two roundings; otherwise ``(g*C_n +
h*E)/N``, seven roundings, from the index's one full-length product ``E =
C_n*beta`` at ``p + L`` digits, ``L`` the larger cancellation of the two
numerators (:mod:`qlambert.quadratic`).  Only the step multipliers are in
the field, never ``q**(n**2)``, so ``L`` grows linearly in ``n``: about 81
digits at ``n = 48`` for the Fibonacci sum at 1000 digits.  As the
multipliers are exact, ``C_n``'s error grows by at most 7 roundings per
index, at the precisions the calls ran at, and summand ``j`` from the first
is within ``7*(j + 2)`` roundings of its true value, inside the count of the
taper proof in :mod:`qlambert.qcore`.

A rational ``q`` keeps int pairs while every ``r**e`` has at most
``_PAIR_SHARE = 1/2`` of the bits of the current precision: a product and a
quotient by an int half as long as the precision cost about as much as the
full-length product and the two word-sized steps that replace them (40 us
against 35 us at 1060 digits).  Past that length :func:`_exact_kernel` hands
its running coefficient to :func:`qlambert.qcore._kernel`, the one kernel of
``Decimal`` running values, for the same description restarted at that
index: every running value becomes a ``Decimal``, rounded once, and advances
by ``* p**s`` and then ``/ r**s``, two word-sized steps in place of one
full-length product.  A description in ``Q(beta)`` never hands over.  The
operations depend on the description and on the precisions of the calls
alone, as in the ``Decimal`` kernel, and :mod:`qlambert.qcore` counts their
roundings in its proof of precision tapering.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import getcontext
from fractions import Fraction
from math import log2
from typing import TYPE_CHECKING, Callable

from .numerics import BigReal, Real, _context, is_quadratic
from .qcore import QTerm, _kernel, _rounded

if TYPE_CHECKING:
    from .quadratic import Pair

#: An exact running power stays a pair of ints while its denominator has at
#: most this share of the current precision's bits (module docstring).
_PAIR_SHARE = 0.5
_LOG2_10 = log2(10)


def _pair_limit(prec: int) -> int:
    """Bits past which exact running powers become ``Decimal`` values at
    ``prec`` digits."""
    return int(prec * _PAIR_SHARE * _LOG2_10)


def _split(x: Real) -> tuple[int | Pair, int]:
    """``x``, a rational or an element of ``Q(beta)``, as a numerator over a
    positive int: a rational's ``as_integer_ratio()``, an element's
    ``numerator``, an int or a :class:`~qlambert.quadratic.Pair`, and
    ``denominator``."""
    return (x.numerator, x.denominator) if is_quadratic(x) else x.as_integer_ratio()


def _exact_kernel(d: QTerm) -> Callable[[int], BigReal]:
    """The term kernel of a description ``d`` with exact parameters (module
    docstring), whose running powers, one pair ``(p**e, r**e)`` per key
    ``(s, k)``, are shared by the factors and the theta weight that have it.
    Its ``switched_at()`` is the index at which it handed over, or None.
    """
    field = None if type(d.q) is Fraction else d.q.field
    if field is None:
        coeff = _rounded(d.start)
    else:
        # Imported on first use: only the Horadam reciprocal sums need it.
        from .quadratic import _beta, _lost_digits, _value

        coeff = _value(*_split(d.start), getcontext())
    p, r = _split(d.q)
    keys: dict[tuple[int, int], int] = {}
    factors = [(_split(f.c0), _split(f.c1), f) for f in d.factors]

    def ratio_parts(pochhammer: bool, numerator, denominator: int):
        # The ratio of the factors of one kind: (a, b, key, up) for each, and
        # the numerator and denominator it starts from, with the c = b0*b1.
        parts = []
        for (a0, b0), (a1, b1), f in factors:
            if f.pochhammer == pochhammer:
                j = keys.setdefault((f.s, f.k), len(keys))
                up = f.power > 0
                parts.append((a0 * b1, b0 * a1, j, up))
                if up:
                    denominator *= b0 * b1
                else:
                    numerator *= b0 * b1
        return parts, numerator, denominator

    value_ratio = ratio_parts(False, 1, 1)
    coeff_ratio = ratio_parts(True, *_split(d.z))
    w_key = None if d.theta is None else keys.setdefault(d.theta, len(keys))
    exponents = [s * d.first + k for s, k in keys]
    powers = [[p**e, r**e] for e in exponents]
    steps = [(p**s, r**s) for s, _ in keys]
    strides = [s for s, _ in keys]
    rounded_to = getcontext().prec
    limit = _pair_limit(rounded_to)

    def multiplier(ratio, top=1, net: int = 0):
        """``C_n`` times ``ratio`` times ``top / r**net`` where the multiplier's
        numerator is an int; otherwise the multiplier, a numerator over an int."""
        parts, numerator, denominator = ratio
        numerator *= top
        for a, b, j, up in parts:
            power_p, power_r = powers[j]
            if up:
                numerator *= a * power_r - b * power_p
                net += exponents[j]
            else:
                denominator *= a * power_r - b * power_p
                net -= exponents[j]
        if net > 0:
            denominator *= r**net
        elif net < 0:
            numerator *= r**-net
        if type(denominator) is not int:
            inverse, denominator = denominator.inverse()
            numerator *= inverse
        if type(numerator) is int:
            # coeff*top/bottom: one product and one quotient by ints.
            x = coeff if numerator == 1 else coeff * numerator
            return x if denominator == 1 else x / denominator
        return numerator, denominator

    def pair_term(n: int) -> BigReal:
        nonlocal coeff
        weight, net = (1, 0) if w_key is None else (powers[w_key][0], exponents[w_key])
        value, step = multiplier(value_ratio), multiplier(coeff_ratio, weight, net)
        if field is not None and (type(value) is tuple or type(step) is tuple):
            # One full-length product E = C*beta, at the digits that the
            # numerators g + h*beta with h != 0 lose (module docstring).
            pairs = [t for t in (value, step) if type(t) is tuple]
            digits = getcontext().prec + max(_lost_digits(t) for t, _ in pairs)
            wide = _context(digits)
            e = wide.multiply(coeff, _beta(field, digits))
            products = []
            for t in (value, step):
                if type(t) is tuple:
                    top, bottom = t
                    x = wide.add(wide.multiply(coeff, top.g), wide.multiply(e, top.h))
                    t = +x if bottom == 1 else x / bottom
                products.append(t)
            value, step = products
        coeff = step
        for j, (step_p, step_r) in enumerate(steps):
            pair = powers[j]
            pair[0] *= step_p
            pair[1] *= step_r
            exponents[j] += strides[j]
        return value

    kernel = pair_term
    switched_at = None

    def term(n: int) -> BigReal:
        nonlocal kernel, rounded_to, limit, switched_at
        if kernel is pair_term and field is None:
            if getcontext().prec != rounded_to:
                rounded_to = getcontext().prec
                limit = _pair_limit(rounded_to)
            # Every running denominator is r**e, e = exponents[j]: the one of
            # the largest exponent is the longest.
            if powers and powers[exponents.index(max(exponents))][1].bit_length() > limit:
                kernel = _kernel(replace(d, first=n), coeff)
                switched_at = n
        return kernel(n)

    # Not a reference from term to itself, which only the cyclic garbage
    # collector would free.
    term.switched_at = lambda: switched_at
    return term
