"""The Jordan-Kronecker bilateral function and its theta-convergent forms.

The central object is

    ``f(x,t) = sum_{n=-inf}^{+inf} t^n / (1 - x*q^n)``

summed over all integers in the interleaved order ``0, +1, -1, +2, -2, ...``.
Convergence requires ``0 < |q| < |t| < 1`` and ``0 < |q| < |x| < 1``: the
positive tail behaves like ``t^n`` and the negative tail like ``(q/t)^n``.

Three equivalent expansions are provided, all theta-convergent
(``q^(n^2)`` decay on both sides):

* ``jordan_theta``:
  ``sum_n (1 - x t q^(2n)) / ((1-x q^n)(1-t q^n)) * x^n t^n q^(n^2)``,
* ``jordan_form1``:
  ``sum_n q^(n^2) x^n t^n * (1 + x q^n/(1-x q^n) + t q^n/(1-t q^n))``,
* ``jordan_form2``:
  ``sum_n q^(n^2) x^n t^n * (-1 + 1/(1-x q^n) + 1/(1-t q^n))``.

Truncation is certified with analytic per-side majorants rather than the
magnitude of the last computed summand: on the negative side the summand
itself can vanish (``1 - x t q^(2n)`` may cross zero), so only a majorant of
the *pure* theta weight ``q^(m^2)/(x t)^m`` gives a sound bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable

from .errors import DivergenceError, DomainError, PoleError
from .numerics import BigReal, RealContext
from .qcore import SeriesValue, ipow

__all__ = [
    "BilateralParams",
    "jordan_direct",
    "jordan_form1",
    "jordan_form2",
    "jordan_theta",
]

#: Pole-proximity check covers q^k for integer |k| up to this bound.
POLE_SCAN_RADIUS = 64

#: Minimum number of +/- index pairs before the stop test may fire.
MIN_PAIRS = 2


@dataclass(frozen=True)
class BilateralParams:
    """Arguments ``(x, t, q)`` of the bilateral series.

    Attributes:
        x: Pole parameter, ``|q| < |x| < 1``.
        t: Expansion parameter, ``|q| < |t| < 1``.
        q: Base, ``0 < |q|``.
    """

    x: BigReal
    t: BigReal
    q: BigReal

    def validate(self, ctx: RealContext) -> None:
        """Check the two-sided convergence domain and scan for poles.

        Raises:
            DomainError: if ``0 < |q| < |t| < 1`` or ``0 < |q| < |x| < 1``
                fails.
            PoleError: if ``x`` or ``t`` is within working tolerance of some
                ``q^k`` with ``|k| <= 64``.
        """
        with localcontext(ctx.dec):
            x_hat, t_hat, q_hat = abs(self.x), abs(self.t), abs(self.q)
            if q_hat == 0:
                raise DomainError("q must be nonzero")
            if not q_hat < t_hat < 1:
                raise DomainError(
                    f"need |q| < |t| < 1, got |q|={q_hat}, |t|={t_hat}"
                )
            if not q_hat < x_hat < 1:
                raise DomainError(
                    f"need |q| < |x| < 1, got |q|={q_hat}, |x|={x_hat}"
                )
            tol = ctx.pole_tolerance()
            for name, value in (("x", Decimal(self.x)), ("t", Decimal(self.t))):
                power = 1 / ipow(Decimal(self.q), POLE_SCAN_RADIUS)
                for k in range(-POLE_SCAN_RADIUS, POLE_SCAN_RADIUS + 1):
                    if abs(value - power) <= tol:
                        raise PoleError(
                            f"{name} coincides with q**{k} at working tolerance"
                        )
                    power *= self.q


def _sum_bilateral(
    first_term: BigReal,
    plus_term: Callable[[int], BigReal],
    minus_term: Callable[[int], BigReal],
    plus_tail: Callable[[int], BigReal],
    minus_tail: Callable[[int], BigReal],
    ctx: RealContext,
    method_tag: str,
) -> SeriesValue:
    """Interleaved two-sided summation with analytic per-side tails.

    ``plus_term(m)``/``minus_term(m)`` give the summands at indices ``+m``
    and ``-m`` (``m >= 1``, called in increasing order).  ``plus_tail(m)``
    bounds the sum of all ``+n, n >= m`` summand magnitudes, and
    ``minus_tail(m)`` the ``-n, n >= m`` ones.  The loop stops once both
    bounds fall below ``epsilon/4``.
    """
    with localcontext(ctx.dec):
        target = ctx.epsilon / 4
        hard_cap = max(20000, 600 * ctx.working_digits)
        total = +first_term
        terms = 1
        m = 0
        while True:
            m += 1
            total += plus_term(m)
            total += minus_term(m)
            terms += 2
            tail_plus = plus_tail(m + 1)
            tail_minus = minus_tail(m + 1)
            if m >= MIN_PAIRS and tail_plus < target and tail_minus < target:
                tail = tail_plus + tail_minus + ctx.tail_floor(total)
                return SeriesValue(
                    value=+total,
                    terms_used=terms,
                    tail_bound=+tail,
                    method_tag=method_tag,
                )
            if terms >= hard_cap:
                raise DivergenceError(
                    f"bilateral series exceeded {hard_cap} terms without "
                    "certification"
                )


def jordan_direct(p: BilateralParams, ctx: RealContext) -> SeriesValue:
    """Defining bilateral sum ``sum_{n in Z} t^n/(1 - x*q^n)``.

    Negative indices are evaluated in the rearranged form
    ``(q/t)^m / (q^m - x)``, which avoids large intermediate powers; both
    sides then carry plain geometric tails (ratios ``|t|`` and ``|q/t|``).
    """
    p.validate(ctx)
    with localcontext(ctx.dec):
        x, t, q = (+Decimal(p.x), +Decimal(p.t), +Decimal(p.q))
        x_hat, t_hat, q_hat = abs(x), abs(t), abs(q)
        ratio_minus = q_hat / t_hat
        plus_const = 1 / (1 - x_hat * q_hat)
        minus_const = 1 / (x_hat - q_hat)
        state = {
            "t_pow": Decimal(1),   # t^m
            "q_pow": Decimal(1),   # q^m
            "qt_pow": Decimal(1),  # (q/t)^m
        }

        def advance() -> None:
            state["t_pow"] *= t
            state["q_pow"] *= q
            state["qt_pow"] *= q / t

        def plus_term(m: int) -> BigReal:
            advance()
            return state["t_pow"] / (1 - x * state["q_pow"])

        def minus_term(m: int) -> BigReal:
            return state["qt_pow"] / (state["q_pow"] - x)

        def plus_tail(m: int) -> BigReal:
            return plus_const * t_hat**m / (1 - t_hat)

        def minus_tail(m: int) -> BigReal:
            return minus_const * ratio_minus**m / (1 - ratio_minus)

        first = 1 / (1 - x)
        return _sum_bilateral(
            first, plus_term, minus_term, plus_tail, minus_tail, ctx, "direct"
        )


def _theta_weights(
    x: BigReal, t: BigReal, q: BigReal
) -> tuple[dict[str, Decimal], Callable[[], None]]:
    """Running bilateral theta weights ``(xt)^(+-m) q^(m^2)``.

    Returns the state dict and an ``advance`` callback stepping ``m`` by one;
    ``w_plus`` tracks ``(xt)^m q^(m^2)``, ``w_minus`` tracks
    ``q^(m^2)/(xt)^m``, and ``q_pow = q^m`` serves the bracket factors.
    """
    xt = x * t
    state = {
        "w_plus": Decimal(1),
        "w_minus": Decimal(1),
        "q_pow": Decimal(1),
        "q_odd": q,  # q^(2m+1) stepping the square
    }

    def advance() -> None:
        state["w_plus"] *= xt * state["q_odd"]
        state["w_minus"] *= state["q_odd"] / xt
        state["q_pow"] *= q
        state["q_odd"] *= q * q

    return state, advance


def _theta_tails(
    x_hat: BigReal,
    t_hat: BigReal,
    q_hat: BigReal,
    plus_const: BigReal,
    minus_const: BigReal,
) -> tuple[Callable[[int], BigReal], Callable[[int], BigReal]]:
    """Majorant tails for bilateral theta-class sums.

    ``plus_const``/``minus_const`` bound the non-theta factor of the summand
    on each side; the theta weights are majorized by geometric series with
    ratios ``(x t q^(2m+1))`` and ``q^(2m+1)/(x t)`` frozen at the first
    omitted index.
    """
    xt_hat = x_hat * t_hat

    def plus_tail(m: int) -> BigReal:
        w = xt_hat**m * q_hat ** (m * m)
        rho = xt_hat * q_hat ** (2 * m + 1)
        return plus_const * w / (1 - rho)

    def minus_tail(m: int) -> BigReal:
        w = q_hat ** (m * m) / xt_hat**m
        rho = q_hat ** (2 * m + 1) / xt_hat
        if rho >= 1:
            # q^(2m+1) < q^2 <= xt can only fail at m = 0, never reached.
            raise DivergenceError("negative-side theta ratio not contracting")
        return minus_const * w / (1 - rho)

    return plus_tail, minus_tail


def jordan_theta(p: BilateralParams, ctx: RealContext) -> SeriesValue:
    """Theta-convergent form of the Jordan-Kronecker function.

    ``sum_{n in Z} (1 - x t q^(2n)) / ((1-x q^n)(1-t q^n)) * x^n t^n q^(n^2)``
    with negative indices rearranged to
    ``(q^(2m) - x t) / ((q^m - x)(q^m - t)) * q^(m^2)/(x t)^m``.
    """
    p.validate(ctx)
    with localcontext(ctx.dec):
        x, t, q = (+Decimal(p.x), +Decimal(p.t), +Decimal(p.q))
        x_hat, t_hat, q_hat = abs(x), abs(t), abs(q)
        xt = x * t
        state, advance = _theta_weights(x, t, q)

        def plus_term(m: int) -> BigReal:
            advance()
            q_pow = state["q_pow"]
            numerator = 1 - xt * q_pow * q_pow
            denominator = (1 - x * q_pow) * (1 - t * q_pow)
            return numerator / denominator * state["w_plus"]

        def minus_term(m: int) -> BigReal:
            q_pow = state["q_pow"]
            numerator = q_pow * q_pow - xt
            denominator = (q_pow - x) * (q_pow - t)
            return numerator / denominator * state["w_minus"]

        plus_const = (1 + x_hat * t_hat) / ((1 - x_hat * q_hat) * (1 - t_hat * q_hat))
        minus_const = (1 + x_hat * t_hat) / ((x_hat - q_hat) * (t_hat - q_hat))
        plus_tail, minus_tail = _theta_tails(
            x_hat, t_hat, q_hat, plus_const, minus_const
        )
        first = (1 - xt) / ((1 - x) * (1 - t))
        return _sum_bilateral(
            first, plus_term, minus_term, plus_tail, minus_tail, ctx, "theta"
        )


def jordan_form1(p: BilateralParams, ctx: RealContext) -> SeriesValue:
    """Bracket form ``sum_n q^(n^2) x^n t^n (1 + u/(1-u) + v/(1-v))``.

    Here ``u = x q^n`` and ``v = t q^n``; at negative indices the partial
    fractions reduce to ``x/(q^m - x)`` and ``t/(q^m - t)``.
    """
    p.validate(ctx)
    with localcontext(ctx.dec):
        x, t, q = (+Decimal(p.x), +Decimal(p.t), +Decimal(p.q))
        x_hat, t_hat, q_hat = abs(x), abs(t), abs(q)
        state, advance = _theta_weights(x, t, q)

        def plus_term(m: int) -> BigReal:
            advance()
            q_pow = state["q_pow"]
            u = x * q_pow
            v = t * q_pow
            bracket = 1 + u / (1 - u) + v / (1 - v)
            return state["w_plus"] * bracket

        def minus_term(m: int) -> BigReal:
            q_pow = state["q_pow"]
            bracket = 1 + x / (q_pow - x) + t / (q_pow - t)
            return state["w_minus"] * bracket

        plus_const = (
            1
            + x_hat * q_hat / (1 - x_hat * q_hat)
            + t_hat * q_hat / (1 - t_hat * q_hat)
        )
        minus_const = 1 + x_hat / (x_hat - q_hat) + t_hat / (t_hat - q_hat)
        plus_tail, minus_tail = _theta_tails(
            x_hat, t_hat, q_hat, plus_const, minus_const
        )
        first = 1 + x / (1 - x) + t / (1 - t)
        return _sum_bilateral(
            first, plus_term, minus_term, plus_tail, minus_tail, ctx, "form1"
        )


def jordan_form2(p: BilateralParams, ctx: RealContext) -> SeriesValue:
    """Bracket form ``sum_n q^(n^2) x^n t^n (-1 + 1/(1-u) + 1/(1-v))``.

    Algebraically identical to :func:`jordan_form1` summand-by-summand; kept
    as an independent evaluation route.  At negative indices the partial
    fractions reduce to ``q^m/(q^m - x)`` and ``q^m/(q^m - t)``.
    """
    p.validate(ctx)
    with localcontext(ctx.dec):
        x, t, q = (+Decimal(p.x), +Decimal(p.t), +Decimal(p.q))
        x_hat, t_hat, q_hat = abs(x), abs(t), abs(q)
        state, advance = _theta_weights(x, t, q)

        def plus_term(m: int) -> BigReal:
            advance()
            q_pow = state["q_pow"]
            bracket = -1 + 1 / (1 - x * q_pow) + 1 / (1 - t * q_pow)
            return state["w_plus"] * bracket

        def minus_term(m: int) -> BigReal:
            q_pow = state["q_pow"]
            bracket = -1 + q_pow / (q_pow - x) + q_pow / (q_pow - t)
            return state["w_minus"] * bracket

        plus_const = 1 + 1 / (1 - x_hat * q_hat) + 1 / (1 - t_hat * q_hat)
        minus_const = 1 + q_hat / (x_hat - q_hat) + q_hat / (t_hat - q_hat)
        plus_tail, minus_tail = _theta_tails(
            x_hat, t_hat, q_hat, plus_const, minus_const
        )
        first = -1 + 1 / (1 - x) + 1 / (1 - t)
        return _sum_bilateral(
            first, plus_term, minus_term, plus_tail, minus_tail, ctx, "form2"
        )
