"""The int-pair phase of the term kernel of a q-series description with
exact rational parameters.

:func:`qlambert.numerics.series_parameters` keeps short rationals exact
above 200 working digits, and :func:`qlambert.qcore._kernel` hands a
description with a ``Fraction`` ``q`` to :func:`_exact_kernel`.  With
``q = p/r``, each running power ``q**(s*i + k)`` is the int pair
``(p**e, r**e)`` while every such ``r**e`` has at most ``_PAIR_SHARE = 1/2``
of the bits of the current precision: a product and a quotient by an int
half as long as the precision cost about as much as the full-length product
and the two word-sized steps that replace them (40 us against 35 us at 1060
digits).  The differences ``c0 - c1*q**e`` are then exact ratios of ints, and the
summand and the coefficient's step (``z``, the weight ratio, the Pochhammer
factors) are each one product and one quotient of the running ``Decimal``
coefficient by ints.  Past that length :func:`_exact_kernel` hands its
running coefficient to :func:`qlambert.qcore._kernel`, the one kernel of
``Decimal`` running values, for the same description restarted at that
index: every running value becomes a ``Decimal``, rounded once, and
advances by ``* p**s`` and then ``/ r**s``, two word-sized steps in place of
one full-length product.  The operations depend on the description and on
the precisions of the calls alone, as in the ``Decimal`` kernel, and
:mod:`qlambert.qcore` counts their roundings in its proof of precision
tapering.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import getcontext
from fractions import Fraction
from math import log2
from typing import Callable

from .numerics import BigReal
from .qcore import QTerm, _kernel, _rounded

#: An exact running power stays a pair of ints while its denominator has at
#: most this share of the current precision's bits (module docstring).
_PAIR_SHARE = 0.5
_LOG2_10 = log2(10)


def _pair_limit(prec: int) -> int:
    """Bits past which exact running powers become ``Decimal`` values at
    ``prec`` digits."""
    return int(prec * _PAIR_SHARE * _LOG2_10)


def _exact_kernel(d: QTerm) -> Callable[[int], BigReal]:
    """The term kernel of a description ``d`` with exact parameters.

    With ``q = p/r``, each running power ``q**e``, ``e = s*i + k``, is first
    the int pair ``(p**e, r**e)``, one per key ``(s, k)``, shared by the
    factors and the theta weight that have it.  A factor ``c0 - c1*q**e``
    with ``c0 = a0/b0`` and ``c1 = a1/b1`` is then
    ``(alpha*r**e - beta*p**e) / (gamma*r**e)``, ``alpha = a0*b1``,
    ``beta = b0*a1``, ``gamma = b0*b1``: its numerator is formed exactly, the
    powers of ``r`` of all factors cancel down to one net power, and the
    summand is the running ``Decimal`` coefficient times one int divided by
    another; so is the coefficient's step, with ``z``, the weight and the
    Pochhammer factors.  Once some ``r**e`` is longer than
    :func:`_pair_limit` of the current precision, at index ``n``, the
    summands are those of :func:`qlambert.qcore._kernel` for the description
    restarted at ``n`` with the running coefficient: each running value
    becomes a ``Decimal``, rounded once, that advances by ``* p**s`` and then
    ``/ r**s``.  The returned function's ``switched_at()`` is that index, or
    None.
    """
    q, z, start = Fraction(d.q), Fraction(d.z), Fraction(d.start)
    p, r = q.numerator, q.denominator
    keys: dict[tuple[int, int], int] = {}
    factors = [(Fraction(f.c0), Fraction(f.c1), f) for f in d.factors]

    def ratio_parts(pochhammer: bool, numerator: int, denominator: int):
        # The ratio of the factors of one kind: (alpha, beta, key, up) for
        # each, and the ints it starts from, with the gammas.
        parts = []
        for c0, c1, f in factors:
            if f.pochhammer == pochhammer:
                j = keys.setdefault((f.s, f.k), len(keys))
                up = f.power > 0
                alpha = c0.numerator * c1.denominator
                beta = c0.denominator * c1.numerator
                parts.append((alpha, beta, j, up))
                gamma = c0.denominator * c1.denominator
                if up:
                    denominator *= gamma
                else:
                    numerator *= gamma
        return parts, numerator, denominator

    value_ratio = ratio_parts(False, 1, 1)
    coeff_ratio = ratio_parts(True, z.numerator, z.denominator)
    w_key = None if d.theta is None else keys.setdefault(d.theta, len(keys))
    exponents = [s * d.first + k for s, k in keys]
    powers = [[p**e, r**e] for e in exponents]
    steps = [(p**s, r**s) for s, _ in keys]
    strides = [s for s, _ in keys]
    coeff = _rounded(start)
    rounded_to = getcontext().prec
    limit = _pair_limit(rounded_to)

    def times(c: BigReal, ratio, top: int = 1, net: int = 0) -> BigReal:
        """``c`` times ``ratio``, times ``top / r**net``: one product and one
        quotient by ints."""
        parts, numerator, denominator = ratio
        numerator *= top
        for alpha, beta, j, up in parts:
            power_p, power_r = powers[j]
            if up:
                numerator *= alpha * power_r - beta * power_p
                net += exponents[j]
            else:
                denominator *= alpha * power_r - beta * power_p
                net -= exponents[j]
        if net > 0:
            denominator *= r**net
        elif net < 0:
            numerator *= r**-net
        if numerator != 1:
            c *= numerator
        if denominator != 1:
            c /= denominator
        return c

    advances = bool(coeff_ratio[0]) or z != 1

    def pair_term(n: int) -> BigReal:
        nonlocal coeff
        value = times(coeff, value_ratio)
        if w_key is not None:
            coeff = times(coeff, coeff_ratio, powers[w_key][0], exponents[w_key])
        elif advances:
            coeff = times(coeff, coeff_ratio)
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
        if kernel is pair_term:
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

