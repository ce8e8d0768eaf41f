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
        return Decimal(1).scaleb(-(self.working_digits // 2))

    def tail_floor(self, value: BigReal) -> BigReal:
        """Lower bound applied to reported tail bounds.

        Covers the rounding error accumulated while summing at working
        precision, so that a reported ``tail_bound`` also dominates the
        round-off component of the total error.
        """
        scale = abs(value)
        if scale < 1:
            scale = Decimal(1)
        return scale * Decimal(1).scaleb(-(self.working_digits - 6))


def _require_unit(name: str, value: BigReal) -> None:
    """Raise :class:`DomainError` unless ``|value| < 1``."""
    if abs(value) >= 1:
        raise DomainError(f"{name} outside (-1,1): {value}")


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

    Raises:
        DomainError: if ``target_digits`` is below ``MIN_TARGET_DIGITS``.
    """
    if not isinstance(target_digits, int) or isinstance(target_digits, bool):
        raise DomainError("target_digits must be an integer")
    if target_digits < MIN_TARGET_DIGITS:
        raise DomainError(
            f"target_digits must be at least {MIN_TARGET_DIGITS}, got {target_digits}"
        )
    guard = max(10, target_digits // 20 + 10) if guard_digits is None else guard_digits
    working = target_digits + guard
    dec = decimal.Context(
        prec=working,
        rounding=decimal.ROUND_HALF_EVEN,
        Emin=-10_000_000,
        Emax=10_000_000,
    )
    return RealContext(
        target_digits=target_digits,
        guard_digits=guard,
        working_digits=working,
        epsilon=Decimal(1).scaleb(-target_digits),
        dec=dec,
    )


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
    """The parameters of one series, never a mix of ``Fraction`` and ``Decimal``.

    If one of ``values`` is a ``Fraction``, every one is a short rational
    (:func:`short_rational`, so ``0.6`` counts as ``3/5``) and the working
    precision is above :data:`EXACT_FROM`, all are returned as ``Fraction``
    values, and the builders derive the other parameters of the description
    exactly.  Otherwise each is a ``Decimal`` rounded to working precision,
    a ``Fraction`` divided out as :func:`as_decimal` does.
    """
    values = list(values)
    if ctx.working_digits > EXACT_FROM and any(
        type(value) is Fraction for value in values
    ):
        exact = [short_rational(value) for value in values]
        if None not in exact:
            return exact
    return [ctx.dec.plus(as_decimal(value, ctx)) for value in values]


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
    """Correctly rounded square root at working precision.

    Raises:
        DomainError: for negative input.
    """
    if value < 0:
        raise DomainError("square root of a negative value")
    return ctx.dec.sqrt(Decimal(value))
