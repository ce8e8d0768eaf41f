"""Precision contract: contexts, parsing, formatting, and exact constants.

Every computation in this package runs under a :class:`RealContext`, which
fixes the number of requested decimal digits (``target_digits``), the extra
working digits that absorb cancellation and rounding (``guard_digits``), and
the derived accuracy goal ``epsilon = 10**(-target_digits)``.

Numbers are :class:`decimal.Decimal` values ("BigReal"): decimal-denominated
arbitrary precision with round-to-nearest, ties-to-even rounding, and a
correctly rounded square root.  Negative bases are only ever raised to
integer powers, which ``Decimal`` handles exactly sign-wise.
"""

from __future__ import annotations

import decimal
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext

from .errors import DomainError

BigReal = Decimal

_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")
_RATIONAL_RE = re.compile(r"^([+-]?\d+)/([+-]?\d+)$")

#: Smallest accepted number of target digits; below this, identity checks
#: cannot be distinguished from rounding noise.
MIN_TARGET_DIGITS = 10


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


def make_context(target_digits: int) -> RealContext:
    """Create the precision context for ``target_digits`` requested digits.

    The guard digit count is ``max(10, target_digits // 20 + 10)``: ten base
    digits plus one extra per twenty requested digits, growing with the
    target because longer sums accumulate more rounding.

    Raises:
        DomainError: if ``target_digits`` is below ``MIN_TARGET_DIGITS``.
    """
    if not isinstance(target_digits, int) or isinstance(target_digits, bool):
        raise DomainError("target_digits must be an integer")
    if target_digits < MIN_TARGET_DIGITS:
        raise DomainError(
            f"target_digits must be at least {MIN_TARGET_DIGITS}, got {target_digits}"
        )
    guard = max(10, target_digits // 20 + 10)
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


def parse_real(text: str, ctx: RealContext) -> BigReal:
    """Parse a signed decimal literal or an exact rational ``p/q``.

    Rational inputs are evaluated by exact integer division at working
    precision.  The ASCII hyphen and the Unicode minus sign are both accepted.

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
        with localcontext(ctx.dec):
            return Decimal(numerator) / Decimal(denominator)
    if _DECIMAL_RE.match(cleaned):
        with localcontext(ctx.dec):
            return +Decimal(cleaned)
    raise DomainError(f"malformed number literal {text!r}")


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
