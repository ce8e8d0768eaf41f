"""Exact elements of a real quadratic field.

The Horadam reciprocal sums (:mod:`qlambert.recurrences`) evaluate theta-form
series at parameters in ``Q(beta)``, where ``beta = (m1 - sqrt(delta))/2`` is
the smaller root of ``z**2 = m1*z + m2`` and ``delta = m1**2 + 4*m2`` is
positive and not a square: ``x = 1/alpha = -beta/m2`` and ``q = beta/alpha =
-beta**2/m2`` on the fast route, ``beta``, ``beta**2`` and ``beta**4`` on the
Fibonacci splits.  An element has one form, a numerator ``g + h*beta``
over an int ``d > 0``, with ints ``g`` and ``h``: the numerator is the int
``g`` where ``h = 0`` and otherwise a :class:`Pair`, which holds the
field's arithmetic.  A :class:`Quadratic` is such an element, and the exact
kernel (:mod:`qlambert.exact`) carries its values in the same form.
Arithmetic with ints, ``Fraction`` values and elements of the field is
exact.  As ``beta**2 = m1*beta + m2``, the powers of ``beta`` have the
Horadam numbers as coordinates, ``beta**K = f_K*beta + m2*f_{K-1}``, and the
norm ``N = g**2 + m1*g*h - m2*h**2 = (g + h*beta)*(g + h*alpha)`` inverts:
``1/(g + h*beta) = ((g + m1*h) - h*beta)/N``.  As a ``Decimal`` an element
is its value rounded to the precision current when it was made, and that is
all that the majorant, the peak bound and the pole scans read of it, as
they read a ``Fraction``'s value.

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

from .numerics import BigReal, _context

#: ``(m1, m2)``: the field of the roots of ``z**2 = m1*z + m2``.
Field = tuple[int, int]
#: ``(numerator, denominator)``: the element ``numerator/denominator``.
Split = tuple["int | Pair", int]

_LOG2_10 = log2(10)
#: Upward margin of the float bounds on ``L``, far past their roundings.
_MARGIN = 2.0**-30
#: For each field, ``beta`` at the most digits asked for so far, and those digits.
_LONGEST: dict[Field, tuple[int, Decimal]] = {}


def root(m1: int, m2: int) -> Quadratic:
    """``beta``, the smaller root of ``z**2 = m1*z + m2``, as an exact
    element of its field, for ``m1**2 + 4*m2`` positive and not a square
    (:func:`qlambert.recurrences._exact_root` decides)."""
    return Quadratic((m1, m2), Pair(0, 1, (m1, m2)))


class Quadratic(Decimal):
    """The exact element ``numerator/denominator`` of ``Q(beta)``, with an
    int or a :class:`Pair` over an int ``denominator > 0`` (module
    docstring), which as a ``Decimal`` is its value rounded to the precision
    of ``context``, by default the current one."""

    __slots__ = ("field", "numerator", "denominator")

    def __new__(
        cls, field: Field, n: int | Pair, d: int = 1, context: Context | None = None
    ) -> Quadratic:
        self = Decimal.__new__(cls, _value(n, d, getcontext() if context is None else context))
        self.field, self.numerator, self.denominator = field, n, d
        return self

    @property
    def coords(self) -> tuple[int, int, int]:
        """``(g, h, d)`` with ``self = (g + h*beta)/d``."""
        n = self.numerator
        return (n, 0, self.denominator) if type(n) is int else (n.g, n.h, self.denominator)

    def rounded(self, context: Context) -> Quadratic:
        """The same element, as a ``Decimal`` rounded to ``context``'s precision."""
        return Quadratic(self.field, self.numerator, self.denominator, context)

    def __repr__(self) -> str:
        g, h, d = self.coords
        return f"Quadratic({self.field}, {g}, {h}, {d})"

    def __neg__(self) -> Quadratic:
        return Quadratic(self.field, -self.numerator, self.denominator)

    def __pow__(self, exponent: object, modulo: object = None) -> BigReal:
        if type(exponent) is not int or modulo is not None:
            return Decimal.__pow__(self, exponent, modulo)
        x = self.numerator, self.denominator
        n, d = x if exponent >= 0 else _inverse(x)
        return Quadratic(self.field, n ** abs(exponent), d ** abs(exponent))


class Pair:
    """``g + h*beta`` with ints ``g`` and ``h != 0``: the numerator of an
    element of ``Q(beta)``, in a :class:`Quadratic` and in the exact kernel
    (:mod:`qlambert.exact`).  Its sums and products with ints and with pairs
    of its field, its differences from ints, its negation, powers and norm
    inverse are exact, and one that lies in ``Z`` is an int, so that
    rationals never take the product of two pairs."""

    __slots__ = ("g", "h", "field")

    def __init__(self, g: int, h: int, field: Field) -> None:
        self.g, self.h, self.field = g, h, field

    def __neg__(self) -> Pair:
        return Pair(-self.g, -self.h, self.field)

    def __add__(self, other: int | Pair) -> int | Pair:
        if type(other) is int:
            return Pair(self.g + other, self.h, self.field)
        h = self.h + other.h
        return Pair(self.g + other.g, h, self.field) if h else self.g + other.g

    __radd__ = __add__

    def __rsub__(self, other: int) -> Pair:
        return Pair(other - self.g, -self.h, self.field)

    def __mul__(self, other: int | Pair) -> int | Pair:
        """The product, with ``beta**2 = m1*beta + m2``."""
        g, h, field = self.g, self.h, self.field
        if type(other) is int:
            # Times 1 is the pair itself, and times 0 the int 0.
            return self if other == 1 else Pair(g * other, h * other, field) if other else 0
        m1, m2 = field
        hh = h * other.h
        g, h = g * other.g + m2 * hh, g * other.h + h * other.g + m1 * hh
        return Pair(g, h, field) if h else g

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> int | Pair:
        """``self**exponent`` for ``exponent >= 0``, by squaring."""
        result, x = 1, self
        while exponent:
            if exponent & 1:
                result = x * result
            exponent >>= 1
            if exponent:
                x = x * x
        return result

    def norm(self) -> int:
        """``(g + h*beta)*(g + h*alpha)``."""
        m1, m2 = self.field
        return self.g * self.g + m1 * self.g * self.h - m2 * self.h * self.h

    def inverse(self) -> tuple[Pair, int]:
        """``(c, N)`` with ``1/self = c/N`` and ``N > 0``: ``c = (g + m1*h) -
        h*beta`` over the norm, both negated where the norm is negative."""
        g, h, norm = self.g + self.field[0] * self.h, -self.h, self.norm()
        if norm < 0:
            g, h, norm = -g, -h, -norm
        return Pair(g, h, self.field), norm


def _exact_op(name: str, combine: Callable[[Split, Split], Split]) -> Callable:
    """The operator ``name`` of :class:`Quadratic`: exact with an int, a
    ``Fraction`` or an element of its field, ``Decimal``'s otherwise."""
    fallback = getattr(Decimal, name)

    def op(self: Quadratic, other: object) -> BigReal:
        if type(other) is Quadratic and other.field == self.field:
            y = other.numerator, other.denominator
        elif type(other) in (int, Fraction):
            y = other.as_integer_ratio()
        else:
            return fallback(self, other)
        return Quadratic(self.field, *combine((self.numerator, self.denominator), y))

    op.__name__ = name
    return op


def _add(x: Split, y: Split) -> Split:
    (n1, d1), (n2, d2) = x, y
    return (n1 + n2, d1) if d1 == d2 else (n1 * d2 + n2 * d1, d1 * d2)


def _mul(x: Split, y: Split) -> Split:
    return x[0] * y[0], x[1] * y[1]


def _inverse(x: Split) -> Split:
    """``1/x``, over a positive denominator: ``d*c/N`` with ``1/n = c/N``
    (:meth:`Pair.inverse`), or ``d/n`` for an int ``n``."""
    n, d = x
    if type(n) is int:
        return (d, n) if n > 0 else (-d, -n)
    c, norm = n.inverse()
    return c * d, norm


# A sum and a product have the same coordinates in either order, and
# Decimal's are commutative too: each operator is its own reflection.
Quadratic.__add__ = Quadratic.__radd__ = _exact_op("__add__", _add)
Quadratic.__sub__ = _exact_op("__sub__", lambda x, y: _add(x, (-y[0], y[1])))
Quadratic.__rsub__ = _exact_op("__rsub__", lambda x, y: _add(y, (-x[0], x[1])))
Quadratic.__mul__ = Quadratic.__rmul__ = _exact_op("__mul__", _mul)
Quadratic.__truediv__ = _exact_op("__truediv__", lambda x, y: _mul(x, _inverse(y)))
Quadratic.__rtruediv__ = _exact_op("__rtruediv__", lambda x, y: _mul(y, _inverse(x)))


@lru_cache(maxsize=16)
def _log2_roots(field: Field) -> tuple[float, float]:
    """Upper bounds on ``log2|beta|`` and ``log2 alpha``, each float within
    a few roundings, moved up by :data:`_MARGIN`."""
    m1, m2 = field
    top = m1 + sqrt(m1 * m1 + 4 * m2)
    return log2(2 * abs(m2) / top) + _MARGIN, log2(top / 2) + _MARGIN


def _lost_digits(x: Pair) -> int:
    """An int ``L >= log10((|g| + |h|*|beta|) / |g + h*beta|)`` for the pair
    ``x = g + h*beta``, from ``|g + h*beta| >= |N| / (|g| + |h|*alpha)``
    (module docstring).

    With ``b(x)`` the bit length of an int, ``|g| + |h|*|beta| < 2 *
    2**max(b(g), b(h) + log2|beta|)``, likewise with ``alpha``, and ``|N| >=
    2**(b(N) - 1)``; the sum of those exponents, divided by ``log2(10)``,
    moves up by :data:`_MARGIN` before it is rounded up.
    """
    log_beta, log_alpha = _log2_roots(x.field)
    bits_g, bits_h = x.g.bit_length(), x.h.bit_length()
    bits = max(bits_g, bits_h + log_beta) + max(bits_g, bits_h + log_alpha) + 3
    return max(0, ceil((bits - x.norm().bit_length()) / _LOG2_10 + _MARGIN))


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


def _value(numerator: int | Pair, denominator: int, context: Context) -> Decimal:
    """``numerator/denominator`` rounded to ``context``'s precision: formed at
    ``p + L`` digits and divided at ``p`` (module docstring)."""
    if type(numerator) is int:
        return context.divide(numerator, denominator)
    digits = context.prec + _lost_digits(numerator)
    wide = _context(digits)
    beta = _beta(numerator.field, digits)
    return context.divide(wide.add(numerator.g, wide.multiply(numerator.h, beta)), denominator)
