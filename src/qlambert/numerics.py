"""Precision contract: contexts, parsing, formatting, and exact constants.

Every computation in this package runs under a :class:`RealContext`, which
fixes the number of requested decimal digits (``target_digits``), the extra
working digits that absorb cancellation and rounding (``guard_digits``), and
the derived accuracy goal ``epsilon = 10**(-target_digits)``.

Numbers are :class:`decimal.Decimal` values ("BigReal"): decimal-denominated
arbitrary precision with round-to-nearest, ties-to-even rounding, and a
correctly rounded square root.  Negative bases are only ever raised to
integer powers, which ``Decimal`` handles exactly sign-wise.  A parameter may
also be an exact :class:`fractions.Fraction` with a short numerator and
denominator (a ``Real``, see :func:`parse_real`); the series evaluators keep
it exact down to their term kernel.
"""

from __future__ import annotations

import decimal
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterable

from .errors import DomainError

BigReal = Decimal
#: A parameter: a ``Decimal``, or an exact short rational (:func:`parse_real`).
#: The code tests ``type(value) is Fraction``: ``isinstance`` with the
#: ``Fraction`` class, an abstract base class's subclass, costs a lookup in
#: ``abc`` for every ``Decimal`` it is asked about.
Real = Decimal | Fraction

_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")
_RATIONAL_RE = re.compile(r"^([+-]?\d+)/([+-]?\d+)$")

#: Smallest accepted number of target digits; below this, identity checks
#: cannot be distinguished from rounding noise.
MIN_TARGET_DIGITS = 10

#: Longest numerator or denominator, in bits, of a rational that stays exact
#: (:func:`parse_real`, :func:`short_rational`): one 64-bit word.  At 300
#: digits the exact summands of 64-bit rationals cost about what rounded
#: ones do, and those of 96-bit or longer ones take up to 20% longer.
EXACT_BITS = 64
#: Working precisions at or below this one round exact parameters
#: (:func:`series_parameters`): there a word-sized step costs about as much as
#: a full-length one.  With 8-bit rationals, exact and rounded summands cost
#: the same near 200 digits.
EXACT_FROM = 200


@dataclass(frozen=True)
class RealContext:
    """Precision policy shared by all evaluators.

    Attributes:
        target_digits: Requested significant decimal digits of final answers.
        guard_digits: Extra working digits carried by intermediate arithmetic.
        working_digits: ``target_digits + guard_digits``.
        epsilon: Exactly ``10**(-target_digits)``.
        dec: The ``decimal`` arithmetic context (precision ``working_digits``,
            round-half-even).
    """

    target_digits: int
    guard_digits: int
    working_digits: int
    epsilon: BigReal
    dec: decimal.Context

    def pole_tolerance(self) -> BigReal:
        """Distance below which a denominator counts as an actual pole."""
        return Decimal(1).scaleb(-(self.working_digits // 2), self.dec)

    def tail_floor(self, value: BigReal) -> BigReal:
        """Lower bound applied to reported tail bounds.

        Covers the rounding error accumulated while summing at working
        precision, so that a reported ``tail_bound`` also dominates the
        round-off component of the total error.
        """
        scale = abs(value)
        if scale < 1:
            scale = Decimal(1)
        return scale.scaleb(6 - self.working_digits, self.dec)


def _require_unit(name: str, value: Real | int, ctx: RealContext) -> BigReal:
    """``value`` as a ``Decimal`` (:func:`as_decimal`) if its magnitude is
    below 1, else :class:`DomainError`.  The test is exact: it reads no
    ``decimal`` context."""
    checked = as_decimal(value, ctx)
    if checked.copy_abs() >= 1:
        raise DomainError(f"{name} outside (-1,1): {checked}")
    return checked


def _require_int(name: str, value: int, minimum: int) -> None:
    """Raise :class:`DomainError` unless ``value`` is an int ``>= minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")


def make_context(target_digits: int, guard_digits: int | None = None) -> RealContext:
    """Create the precision context for ``target_digits`` requested digits.

    The guard digit count is ``max(10, target_digits // 20 + 10)``: ten base
    digits plus one extra per twenty requested digits, growing with the
    target because longer sums accumulate more rounding.  A sum whose
    magnitude asks for more takes ``guard_digits`` (:mod:`qlambert.qcore`).

    Its powers of ten are formed in the context's own exponent range.

    Raises:
        DomainError: if ``target_digits`` is below ``MIN_TARGET_DIGITS``, or
            the working digits pass that range's ``-Emin``.
    """
    _require_int("target_digits", target_digits, MIN_TARGET_DIGITS)
    guard = max(10, target_digits // 20 + 10) if guard_digits is None else guard_digits
    working = target_digits + guard
    dec = decimal.Context(
        prec=working,
        rounding=decimal.ROUND_HALF_EVEN,
        Emin=-10_000_000,
        Emax=10_000_000,
    )
    if working > -dec.Emin:
        raise DomainError(
            f"{target_digits} digits take {working} working digits, past the limit of {-dec.Emin}"
        )
    return RealContext(
        target_digits=target_digits,
        guard_digits=guard,
        working_digits=working,
        epsilon=Decimal(1).scaleb(-target_digits, dec),
        dec=dec,
    )


@lru_cache(maxsize=512)
def _context(digits: int) -> decimal.Context:
    """The ``decimal`` context of ``digits >= 10`` working digits, shared."""
    return make_context(10, digits - 10).dec


def parse_real(text: str, ctx: RealContext) -> Real:
    """Parse a signed decimal literal or a rational ``p/q``.

    A rational whose reduced denominator has a prime factor other than 2 or
    5, and whose reduced numerator and denominator are at most
    :data:`EXACT_BITS` bits long, is returned as an exact ``Fraction``: its
    decimal expansion never ends, and the evaluators advance their summands
    by word-sized integer steps with it.  Every other literal is a
    ``Decimal`` at working precision: a decimal literal exactly, a rational
    by one division.  So ``0.6``, ``1/2`` and ``7/10`` are ``Decimal`` values,
    and so is a rational too long to be short.  The ASCII hyphen and the
    Unicode minus sign are both accepted.

    Raises:
        DomainError: on malformed input or a zero denominator.
    """
    if not isinstance(text, str):
        raise DomainError("expected a string literal")
    cleaned = text.strip().replace("−", "-")
    match = _RATIONAL_RE.match(cleaned)
    if match:
        numerator = int(match.group(1))
        denominator = int(match.group(2))
        if denominator == 0:
            raise DomainError(f"zero denominator in rational literal {text!r}")
        value = Fraction(numerator, denominator)
        if not _terminates(value.denominator) and short_rational(value) is not None:
            return value
        with localcontext(ctx.dec):
            return Decimal(numerator) / Decimal(denominator)
    if _DECIMAL_RE.match(cleaned):
        with localcontext(ctx.dec):
            return +Decimal(cleaned)
    raise DomainError(f"malformed number literal {text!r}")


def _terminates(denominator: int) -> bool:
    """Whether ``1/denominator`` has a finite decimal expansion."""
    for prime in (2, 5):
        while denominator % prime == 0:
            denominator //= prime
    return denominator == 1


def short_rational(value: Real | int) -> Fraction | None:
    """``value`` as a ``Fraction`` if its numerator and denominator are at
    most :data:`EXACT_BITS` bits long, else None.  A terminating ``Decimal``
    such as ``0.6`` is the short rational ``3/5``."""
    if isinstance(value, Decimal) and not value.is_finite():
        return None
    exact = Fraction(value)
    if max(abs(exact.numerator), exact.denominator).bit_length() > EXACT_BITS:
        return None
    return exact


def as_decimal(value: Real | int, ctx: RealContext) -> Decimal:
    """``value`` as a ``Decimal``: a ``Fraction`` divided out at working
    precision, which is what :func:`parse_real` returns for a long rational,
    and any other value unchanged."""
    if type(value) is Fraction:
        return ctx.dec.divide(Decimal(value.numerator), Decimal(value.denominator))
    return Decimal(value)


def series_parameters(values: Iterable[Real | int], ctx: RealContext) -> list:
    """The parameters of one series, never a mix of exact values and ``Decimal``.

    Exact elements of a quadratic field (:func:`is_quadratic`), which only
    the reciprocal sums make and only where they keep them exact, are
    returned exact if every one is such an element, each as a ``Decimal``
    rounded to working precision.  If one of ``values`` is a ``Fraction``,
    every one is a short rational (:func:`short_rational`, so ``0.6`` counts
    as ``3/5``) and the working precision is above :data:`EXACT_FROM`, all
    are returned as ``Fraction`` values, and the builders derive the other
    parameters of the description exactly.  Otherwise each is a ``Decimal``
    rounded to working precision, a ``Fraction`` divided out as
    :func:`as_decimal` does.
    """
    values = list(values)
    if all(map(is_quadratic, values)):
        return [value.rounded(ctx.dec) for value in values]
    if ctx.working_digits > EXACT_FROM and any(type(value) is Fraction for value in values):
        exact = [short_rational(value) for value in values]
        if None not in exact:
            return exact
    return [ctx.dec.plus(as_decimal(value, ctx)) for value in values]


def is_quadratic(value: object) -> bool:
    """Whether ``value`` is an exact element of a real quadratic field, a
    :class:`qlambert.quadratic.Quadratic`: the one subclass of ``Decimal``
    that the package makes, in a module that only the reciprocal sums import."""
    return isinstance(value, Decimal) and type(value) is not Decimal


def format_real(value: BigReal, ctx: RealContext, digits: int | None = None) -> str:
    """Render ``value`` with ``digits`` significant digits, none below ``10**-digits``.

    The evaluators certify an absolute error of ``10**-digits``, so a value
    below 0.1 in magnitude gets ``digits`` decimals instead.  ``digits``
    defaults to ``ctx.target_digits`` and may be set lower (the command line
    computes at full precision but can print short answers).
    Rounds to nearest with ties to even, and always uses plain positional
    notation (no exponent), so equal inputs format identically.
    """
    if digits is None:
        digits = ctx.target_digits
    if digits < 1:
        raise DomainError(f"format digits must be positive, got {digits}")
    with localcontext(ctx.dec):
        dec_value = +Decimal(value)
        if dec_value == 0:
            quantum = Decimal(1).scaleb(-(digits - 1))
        else:
            exponent = max(dec_value.adjusted(), -1)
            quantum = Decimal(1).scaleb(exponent - (digits - 1))
        rounded = dec_value.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN)
    return format(rounded, "f")


def sqrt(value: BigReal, ctx: RealContext) -> BigReal:
    """Correctly rounded square root at working precision, in value and in
    representation that of ``ctx.dec.sqrt(value)``, from an integer root
    (Brent and Zimmermann, *Modern Computer Arithmetic*, section 1.5).

    At ``p`` digits, ``value = V * 10**(2E)`` with ``E = floor(adj/2) - p +
    1``, ``adj`` its adjusted exponent, so that ``10**(2p-2) <= V <
    10**(2p)`` and ``r = isqrt(floor(V))`` has ``p`` digits.  The root
    ``sqrt(V)`` lies in ``[r, r + 1)`` and exceeds ``r + 1/2`` exactly when
    ``V > r**2 + r + 1/4``.  For an integer ``V`` that is ``V - r**2 > r``,
    with no tie.  A ``value`` of more than ``2p - 1`` digits can leave a
    fraction ``f`` in ``V``, which decides where ``floor(V) - r**2 = r``:
    up for ``f > 1/4``, and for ``f = 1/4``, a tie, to the even neighbour.
    The root is ``(r or r + 1) * 10**E``, rounded once more where ``r + 1 =
    10**p``.  An exact root (``V = r**2``) drops its trailing zeros down to
    the ideal exponent ``floor(exp/2)``, ``exp`` the exponent of ``value``,
    as ``Decimal`` does: ``sqrt(4)`` is ``2`` and ``sqrt(0.25)`` is ``0.5``.

    Raises:
        DomainError: for negative or non-finite input.
    """
    value = Decimal(value)
    if not value.is_finite():
        raise DomainError(f"square root of the non-finite value {value}")
    if value < 0:
        raise DomainError("square root of a negative value")
    if not value:
        sign, _, exponent = value.as_tuple()
        return Decimal((sign, (0,), exponent >> 1))
    # V = top / bottom = N + rest / bottom.
    top, bottom = value.as_integer_ratio()
    E = (value.adjusted() >> 1) - ctx.dec.prec + 1
    if E <= 0:
        top *= 10 ** (-2 * E)
    else:
        bottom *= 10 ** (2 * E)
    N, rest = divmod(top, bottom)
    r = isqrt(N)
    excess = N - r * r
    if rest and excess == r:
        up = 4 * rest > bottom or (4 * rest == bottom and r % 2 == 1)
    elif not (rest or excess):
        ideal = value.as_tuple().exponent >> 1
        if E < ideal:
            r //= 10 ** (ideal - E)
            E = ideal
        up = False
    else:
        up = excess > r
    return Decimal(r + up).scaleb(E, ctx.dec)
