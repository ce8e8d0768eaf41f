"""Exact elements of a real quadratic field.

The Horadam reciprocal sums (:mod:`qlambert.recurrences`) evaluate theta-form
series at parameters in ``Q(beta)``, where ``beta = (m1 - sqrt(delta))/2`` is
the smaller root of ``z**2 = m1*z + m2`` and ``delta = m1**2 + 4*m2`` is
positive and not a square: ``x = 1/alpha = -beta/m2`` and ``q = beta/alpha =
-beta**2/m2`` on the fast route, ``beta``, ``beta**2`` and ``beta**4`` on the
Fibonacci splits.  A :class:`Quadratic` is the element ``(g + h*beta)/d``
with ints ``g``, ``h`` and ``d > 0``.  Its arithmetic with ints, ``Fraction``
values and elements of its field is exact.  As ``beta**2 = m1*beta + m2``,
the powers of ``beta`` have the Horadam numbers as coordinates, ``beta**K =
f_K*beta + m2*f_{K-1}``, and the norm ``N = g**2 + m1*g*h - m2*h**2 = (g +
h*beta)*(g + h*alpha)`` inverts: ``1/(g + h*beta) = ((g + m1*h) - h*beta)/N``.
The exact kernel (:mod:`qlambert.exact`) carries numerators ``g + h*beta``
as a :class:`Pair`.  As a ``Decimal`` an element is its value rounded to
the precision current when it was made, and that is all that the majorant,
the peak bound and the pole scans read of it, as they read a ``Fraction``'s
value.

The value of ``g + h*beta`` costs digits: a tiny ``beta**K`` has coordinates
near ``alpha**K``, which cancel.  The combination loses at most ``L =
log10((|g| + |h|*|beta|) / |g + h*beta|)`` digits, and as ``|g + h*beta| =
|N| / |g + h*alpha| >= |N| / (|g| + |h|*alpha)``, the exact norm bounds
``L`` (:func:`_lost_digits`, from bit lengths).  At ``p``
digits a combination ``(g*C + h*C*beta)/N`` runs at ``P = p + L`` digits,
with ``beta`` rounded to nearest at ``P``, and is divided at ``p``.  Each
error at ``P``, at most ``u(P) = 10**(1-P)/2`` of ``|g*C|``,
``|h*C*beta|`` or the sum, is amplified by at most ``10**L`` against
``|C*(g + h*beta)|``, so it is at most ``u(p)`` of the result.  The
roundings of ``beta``, of the product ``C*beta``, of the products by ``g``
and ``h``, of the sum and of the division are six, and with their
second-order terms a combination is within 7 roundings ``u(p)`` of
``C*(g + h*beta)/N``; with ``h = 0`` it takes two.
"""

from __future__ import annotations

from decimal import Context, Decimal, getcontext
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, isqrt, log2, log10, sqrt
from typing import Callable

from .numerics import BigReal, Real, make_context

#: ``(g, h, d)``: the element ``(g + h*beta)/d``, ``d > 0``.
Coords = tuple[int, int, int]
#: ``(m1, m2)``: the field of the roots of ``z**2 = m1*z + m2``.
Field = tuple[int, int]

_ONE: Coords = (1, 0, 1)
_LOG2_10 = log2(10)
#: Upward margin of the float bounds on ``L``, far past their roundings.
_MARGIN = 2.0**-30
#: For each field, ``beta`` at the most digits asked for so far, and those digits.
_LONGEST: dict[Field, tuple[int, Decimal]] = {}


def root(m1: int, m2: int) -> Quadratic:
    """``beta``, the smaller root of ``z**2 = m1*z + m2``, as an exact
    element of its field, for ``m1**2 + 4*m2`` positive and not a square
    (:func:`qlambert.recurrences._exact_root` decides)."""
    return Quadratic((m1, m2), 0, 1)


class Quadratic(Decimal):
    """The exact element ``(g + h*beta)/d`` of ``Q(beta)`` (module
    docstring), which as a ``Decimal`` is its value rounded to the precision
    of ``context``, by default the current one."""

    __slots__ = ("field", "coords")

    def __new__(
        cls, field: Field, g: int, h: int = 0, d: int = 1, context: Context | None = None
    ) -> Quadratic:
        context = getcontext() if context is None else context
        self = Decimal.__new__(cls, _value(field, (g, h, d), context))
        self.field, self.coords = field, (g, h, d)
        return self

    def rounded(self, context: Context) -> Quadratic:
        """The same element, as a ``Decimal`` rounded to ``context``'s precision."""
        return Quadratic(self.field, *self.coords, context)

    def __repr__(self) -> str:
        g, h, d = self.coords
        return f"Quadratic({self.field}, {g}, {h}, {d})"

    def _exact(self, other: object) -> Coords | None:
        """``other``'s coordinates if it is exact in this field, else None."""
        exact = type(other) is Quadratic and other.field == self.field
        return _coords(other) if exact or type(other) in (int, Fraction) else None

    def __neg__(self) -> Quadratic:
        g, h, d = self.coords
        return Quadratic(self.field, -g, -h, d)

    def __pow__(self, exponent: object, modulo: object = None) -> BigReal:
        if type(exponent) is not int or modulo is not None:
            return Decimal.__pow__(self, exponent, modulo)
        x = self.coords if exponent >= 0 else _inverse(self.coords, self.field)
        return Quadratic(self.field, *_pow(x, abs(exponent), self.field))


def _coords(x: Real) -> Coords:
    """The coordinates of ``x``, a :class:`Quadratic`, an int or a ``Fraction``."""
    if type(x) is Quadratic:
        return x.coords
    numerator, denominator = x.as_integer_ratio()
    return numerator, 0, denominator


def _split(x: Real, field: Field) -> tuple[int | Pair, int]:
    """``x``, exact in ``field``, as a numerator ``g + h*beta`` (:func:`_pair`)
    over an int denominator."""
    g, h, d = _coords(x)
    return _pair(g, h, field), d


def _pair(g: int, h: int, field: Field) -> int | Pair:
    """``g + h*beta``: the int ``g`` where ``h = 0``, else a :class:`Pair`."""
    return Pair(g, h, field) if h else g


class Pair:
    """``g + h*beta`` with ints ``g`` and ``h != 0``: a numerator of the exact
    kernel (:mod:`qlambert.exact`).  Its products with ints and with pairs of
    its field, and its differences from ints, are exact, and one that lies in
    ``Z`` is an int, so that rationals never take the product of two pairs."""

    __slots__ = ("g", "h", "field")

    def __init__(self, g: int, h: int, field: Field) -> None:
        self.g, self.h, self.field = g, h, field

    def __mul__(self, other: int | Pair) -> int | Pair:
        g, h, field = self.g, self.h, self.field
        if type(other) is int:
            # Times 1 is the pair itself, and times 0 the int 0.
            return self if other == 1 else Pair(g * other, h * other, field) if other else 0
        # The product of _mul, written out: a pair's product is the exact
        # kernel's most frequent step in the field.
        m1, m2 = field
        hh = h * other.h
        g, h = g * other.g + m2 * hh, g * other.h + h * other.g + m1 * hh
        return Pair(g, h, field) if h else g

    __rmul__ = __mul__

    def __rsub__(self, other: int) -> Pair:
        return Pair(other - self.g, -self.h, self.field)

    def __pow__(self, exponent: int) -> int | Pair:
        g, h, _ = _pow((self.g, self.h, 1), exponent, self.field)
        return _pair(g, h, self.field)

    def inverse(self) -> tuple[Pair, int]:
        """``(c, N)`` with ``1/self = c/N`` and ``N > 0`` (:func:`_inverse`)."""
        g, h, norm = _inverse((self.g, self.h, 1), self.field)
        return Pair(g, h, self.field), norm


def _exact_op(name: str, combine: Callable[[Coords, Coords, Field], Coords]) -> Callable:
    """The operator ``name`` of :class:`Quadratic`: exact with an operand
    exact in the field, ``Decimal``'s otherwise."""
    fallback = getattr(Decimal, name)

    def op(self: Quadratic, other: object) -> BigReal:
        y = self._exact(other)
        if y is None:
            return fallback(self, other)
        return Quadratic(self.field, *combine(self.coords, y, self.field))

    op.__name__ = name
    return op


Quadratic.__add__ = _exact_op("__add__", lambda x, y, f: _add(x, y))
Quadratic.__radd__ = _exact_op("__radd__", lambda x, y, f: _add(y, x))
Quadratic.__sub__ = _exact_op("__sub__", lambda x, y, f: _add(x, _neg(y)))
Quadratic.__rsub__ = _exact_op("__rsub__", lambda x, y, f: _add(y, _neg(x)))
Quadratic.__mul__ = _exact_op("__mul__", lambda x, y, f: _mul(x, y, f))
Quadratic.__rmul__ = _exact_op("__rmul__", lambda x, y, f: _mul(y, x, f))
Quadratic.__truediv__ = _exact_op("__truediv__", lambda x, y, f: _mul(x, _inverse(y, f), f))
Quadratic.__rtruediv__ = _exact_op("__rtruediv__", lambda x, y, f: _mul(y, _inverse(x, f), f))


def _neg(x: Coords) -> Coords:
    g, h, d = x
    return -g, -h, d


def _add(x: Coords, y: Coords) -> Coords:
    (g1, h1, d1), (g2, h2, d2) = x, y
    if d1 == d2:
        return g1 + g2, h1 + h2, d1
    return g1 * d2 + g2 * d1, h1 * d2 + h2 * d1, d1 * d2


def _mul(x: Coords, y: Coords, field: Field) -> Coords:
    """``x*y``, with ``beta**2 = m1*beta + m2``."""
    (g1, h1, d1), (g2, h2, d2), (m1, m2) = x, y, field
    hh = h1 * h2
    return g1 * g2 + m2 * hh, g1 * h2 + h1 * g2 + m1 * hh, d1 * d2


def _norm(g: int, h: int, field: Field) -> int:
    """``(g + h*beta)*(g + h*alpha)``."""
    m1, m2 = field
    return g * g + m1 * g * h - m2 * h * h


def _inverse(x: Coords, field: Field) -> Coords:
    """``1/x = d*((g + m1*h) - h*beta)/N``, with ``N`` the norm of ``g + h*beta``;
    ``d/g`` where ``h = 0``.  The denominator is positive."""
    g, h, d = x
    if not h:
        return (d, 0, g) if g > 0 else (-d, 0, -g)
    norm = _norm(g, h, field)
    if norm < 0:
        d, norm = -d, -norm
    return d * (g + field[0] * h), -d * h, norm


def _pow(x: Coords, exponent: int, field: Field) -> Coords:
    """``x**exponent`` for ``exponent >= 0``, by squaring."""
    result = _ONE
    while exponent:
        if exponent & 1:
            result = _mul(result, x, field)
        exponent >>= 1
        if exponent:
            x = _mul(x, x, field)
    return result


@lru_cache(maxsize=16)
def _log2_roots(field: Field) -> tuple[float, float]:
    """Upper bounds on ``log2|beta|`` and ``log2 alpha``, each float within
    a few roundings, moved up by :data:`_MARGIN`."""
    m1, m2 = field
    top = m1 + sqrt(m1 * m1 + 4 * m2)
    return log2(2 * abs(m2) / top) + _MARGIN, log2(top / 2) + _MARGIN


def _lost_digits(g: int, h: int, field: Field) -> int:
    """An int ``L >= log10((|g| + |h|*|beta|) / |g + h*beta|)`` for ``h != 0``,
    from ``|g + h*beta| >= |N| / (|g| + |h|*alpha)`` (module docstring).

    With ``b(x)`` the bit length of an int, ``|g| + |h|*|beta| < 2 *
    2**max(b(g), b(h) + log2|beta|)``, likewise with ``alpha``, and ``|N| >=
    2**(b(N) - 1)``; the sum of those exponents, divided by ``log2(10)``,
    moves up by :data:`_MARGIN` before it is rounded up.
    """
    log_beta, log_alpha = _log2_roots(field)
    bits_g, bits_h = g.bit_length(), h.bit_length()
    bits = max(bits_g, bits_h + log_beta) + max(bits_g, bits_h + log_alpha) + 3
    return max(0, ceil((bits - _norm(g, h, field).bit_length()) / _LOG2_10 + _MARGIN))


@lru_cache(maxsize=512)
def _context(digits: int) -> Context:
    """The ``decimal`` context of ``digits`` working digits."""
    return make_context(10, digits - 10).dec


def _beta(field: Field, digits: int) -> Decimal:
    """``beta`` rounded to nearest at ``digits`` digits, from its longest
    value so far, which is computed again, a quarter longer, once it is too
    short.

    Rounding that value again gives the nearest only where it does not lie
    halfway between two neighbours at ``digits``, so that the result never
    depends on which longer value was at hand; halfway, ``beta`` is computed
    at ``digits`` itself.
    """
    longest_digits, longest = _LONGEST.get(field, (0, None))
    if longest_digits < digits:
        longest_digits = digits + digits // 4 + 32
        longest = _nearest_beta(field, longest_digits)
        _LONGEST[field] = longest_digits, longest
    beta = _context(digits).plus(longest)
    half = Decimal(5).scaleb(longest.adjusted() - digits)
    if abs(_context(longest_digits).subtract(longest, beta)) == half:
        return _nearest_beta(field, digits)
    return beta


def _nearest_beta(field: Field, digits: int) -> Decimal:
    """``beta`` rounded to nearest at ``digits`` significant digits.

    With ``s = sqrt(delta)*10**k`` irrational and ``R = isqrt(delta*10**(2k))``,
    ``s`` lies in ``(R, R + 1)``, so ``beta*10**k = (m1*10**k - s)/2`` lies in
    ``((D - 1)/2, D/2)``, ``D = m1*10**k - R``, whose nearest int is
    ``D >> 1``, never a tie."""
    m1, m2 = field
    delta = m1 * m1 + 4 * m2
    k = digits - 1 - floor(log10(2 * abs(m2) / (m1 + sqrt(delta))))
    while True:
        scale = 10**k
        nearest = (m1 * scale - isqrt(delta * scale * scale)) >> 1
        if abs(nearest) >= 10**digits:
            k -= 1
        elif abs(nearest) < 10 ** (digits - 1):
            k += 1
        else:
            return Decimal(nearest).scaleb(-k, _context(digits))


def _value(field: Field, x: Coords, context: Context) -> Decimal:
    """``x`` rounded to ``context``'s precision: formed at ``p + L`` digits
    and divided at ``p`` (module docstring)."""
    g, h, d = x
    if not h:
        return context.divide(g, d)
    digits = context.prec + _lost_digits(g, h, field)
    wide = _context(digits)
    return context.divide(wide.add(g, wide.multiply(h, _beta(field, digits))), d)

