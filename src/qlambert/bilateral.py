"""The Jordan-Kronecker bilateral function and its theta-convergent forms.

The central object is

    ``f(x,t) = sum_{n=-inf}^{+inf} t^n / (1 - x*q^n)``.

Convergence requires ``0 < |q| < |t| < 1`` and ``0 < |q| < |x| < 1``: the
positive tail behaves like ``t^n`` and the negative tail like ``(q/t)^n``.

It has three equivalent theta-convergent expansions (``q^(n^2)`` decay on
both sides), :func:`jordan_theta`, :func:`jordan_form1` and
:func:`jordan_form2`, each with its summand in its docstring.

Each route is the sum of two unilateral series summed and certified by
:mod:`qlambert.qcore`: the indices ``n >= 0``, and ``n = -m`` for ``m >= 1``
rearranged so that no power of ``1/q`` appears.  The direct and theta routes
describe both sides as a :class:`~qlambert.qcore.QTerm`.  The bracket forms
keep their hand-written brackets, summed by :func:`~qlambert.qcore.sum_bracketed`:
each side is the theta description's weight times the bracket, certified by
that description's majorant.  Each bracket is written twice, for ``Decimal``
values and, for exact parameters, as an exact ratio of ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import localcontext
from fractions import Fraction
from functools import partial
from typing import Callable

from .errors import DomainError
from .lambert import _pole_scan, _qxt_naive, _qxt_theta
from .numerics import BigReal, Real, RealContext, as_decimal, series_parameters
from .qcore import Factor, QTerm, SeriesValue, combine, sum_bracketed, sum_qterm

__all__ = [
    "BilateralParams",
    "jordan_direct",
    "jordan_form1",
    "jordan_form2",
    "jordan_theta",
]


@dataclass(frozen=True)
class BilateralParams:
    """Arguments ``(x, t, q)`` of the bilateral series.

    Attributes:
        x: Pole parameter, ``|q| < |x| < 1``.
        t: Expansion parameter, ``|q| < |t| < 1``.
        q: Base, ``0 < |q|``.
    """

    x: Real
    t: Real
    q: Real

    def validate(self, ctx: RealContext) -> None:
        """Check the two-sided convergence domain and scan for poles.

        Raises:
            DomainError: if ``0 < |q| < |t| < 1`` or ``0 < |q| < |x| < 1``
                fails.
            PoleError: if a denominator ``1 - x q^n`` or ``1 - t q^n``
                (``n >= 0``), or ``1 - q^m/x`` or ``1 - q^m/t`` (``m >= 1``),
                is within working tolerance of zero.
        """
        x, t, q = (as_decimal(value, ctx) for value in (self.x, self.t, self.q))
        with localcontext(ctx.dec):
            if q == 0:
                raise DomainError("q must be nonzero")
            for name, value in (("t", t), ("x", x)):
                if not abs(q) < abs(value) < 1:
                    raise DomainError(
                        f"need |q| < |{name}| < 1, got |q|={abs(q)}, "
                        f"|{name}|={abs(value)}"
                    )
            for name, value in (("x", x), ("t", t)):
                _pole_scan(name, value, q, ctx, 0)
                _pole_scan(f"1/{name}", 1 / value, q, ctx, 1)


def _minus_naive(x: BigReal, t: BigReal, q: BigReal) -> QTerm:
    """``(q/t)^m / (q^m - x)``, ``m >= 1``: the summand at ``n = -m``."""
    qt = q / t
    return QTerm(q, start=qt, z=qt, factors=(Factor(-1, c0=-x, power=-1),), first=1)


def _minus_theta(x: BigReal, t: BigReal, q: BigReal) -> QTerm:
    """``(q^(2m) - x t) / ((q^m - x)(q^m - t)) * q^(m^2)/(x t)^m``, ``m >= 1``.

    The theta summand at ``n = -m``.  In the wedge ``|q|^2 < |x t|``, so the
    numerator never vanishes.
    """
    xt = x * t
    return QTerm(
        q,
        start=q / xt,
        z=1 / xt,
        theta=(2, 1),
        factors=(
            Factor(-1, s=2, c0=-xt),
            Factor(-1, c0=-x, power=-1),
            Factor(-1, c0=-t, power=-1),
        ),
        first=1,
    )


def _route(
    p: BilateralParams,
    ctx: RealContext,
    method_tag: str,
    sides: tuple[Callable[..., QTerm], Callable[..., QTerm]],
    brackets: tuple[Callable[..., BigReal], Callable[..., BigReal]] | None = None,
    exact: Callable[..., tuple[int, int]] | None = None,
) -> SeriesValue:
    """Validate ``p`` and add the certified sums of the two ``sides``.

    ``sides`` build the descriptions of the ``n >= 0`` and the ``n = -m``
    sums, from :func:`~qlambert.numerics.series_parameters` of ``p``.  With
    ``brackets``, each side's summands are its theta weight times
    ``bracket(x, t, q^n)``, which equals the product of its factors; the
    brackets take ``x`` and ``t`` as working-precision ``Decimal`` values.
    With exact parameters the sides take ``exact``, the ``n >= 0`` bracket
    as an int pair, instead (:func:`_exact_sides`).  Each side is summed to
    ``epsilon/2``, which stops it at ``epsilon/4``.
    """
    p.validate(ctx)
    params = series_parameters((p.x, p.t, p.q), ctx)
    eps = ctx.epsilon / 2
    if brackets is None:
        sums = [sum_qterm(build, params, ctx, method_tag, eps) for build in sides]
    else:
        x, t = (as_decimal(value, ctx) for value in params[:2])
        pairs = (None, None)
        if type(params[2]) is Fraction:
            pairs = _exact_sides(exact, *params[:2])
        sums = [
            sum_bracketed(build, params, partial(bracket, x, t), ctx, method_tag, eps, pair)
            for build, bracket, pair in zip(sides, brackets, pairs)
        ]
    return combine([(1, part) for part in sums], ctx, method_tag)


def _exact_sides(
    exact: Callable[..., tuple[int, int]], x: Fraction, t: Fraction
) -> tuple[Callable[[int, int], tuple[int, int]], ...]:
    """The int brackets ``(P, R) -> (N, D)`` of the ``n >= 0`` and the
    ``n = -m`` sides (:func:`~qlambert.qcore.sum_bracketed`):
    ``exact(a, b, c, d, P, R)`` with ``x = a/b`` and ``t = c/d``, and on the
    ``n = -m`` side ``exact(a, b, c, d, R, P)``, the bracket at
    ``q^m = P/R``."""
    plus = partial(exact, *x.as_integer_ratio(), *t.as_integer_ratio())
    return plus, lambda top, bottom: plus(bottom, top)


def jordan_direct(p: BilateralParams, ctx: RealContext) -> SeriesValue:
    """Defining bilateral sum ``sum_{n in Z} t^n/(1 - x*q^n)``.

    Negative indices are evaluated in the rearranged form
    ``(q/t)^m / (q^m - x)``, which avoids large intermediate powers; both
    sides then converge geometrically (ratios ``|t|`` and ``|q/t|``).
    """
    return _route(p, ctx, "direct", (_qxt_naive, _minus_naive))


def jordan_theta(p: BilateralParams, ctx: RealContext) -> SeriesValue:
    """Theta-convergent form of the Jordan-Kronecker function.

    ``sum_{n in Z} (1 - x t q^(2n)) / ((1-x q^n)(1-t q^n)) * x^n t^n q^(n^2)``
    with negative indices rearranged to
    ``(q^(2m) - x t) / ((q^m - x)(q^m - t)) * q^(m^2)/(x t)^m``.
    """
    return _route(p, ctx, "theta", (_qxt_theta, _minus_theta))


def _form1_plus(x: BigReal, t: BigReal, q_pow: BigReal) -> BigReal:
    u, v = x * q_pow, t * q_pow
    return 1 + u / (1 - u) + v / (1 - v)


def _form1_minus(x: BigReal, t: BigReal, q_pow: BigReal) -> BigReal:
    return 1 + x / (q_pow - x) + t / (q_pow - t)


def _form1_exact(
    a: int, b: int, c: int, d: int, top: int, bottom: int
) -> tuple[int, int]:
    """:func:`_form1_plus` at ``x = a/b``, ``t = c/d`` and ``q^n = top/bottom``:
    ``(D1*D2 + a*top*D2 + c*top*D1) / (D1*D2)``, ``D1 = b*bottom - a*top`` and
    ``D2 = d*bottom - c*top``.  With ``top`` and ``bottom`` swapped it is
    :func:`_form1_minus` at ``q^m = top/bottom``."""
    u, v = a * top, c * top
    d1, d2 = b * bottom - u, d * bottom - v
    d12 = d1 * d2
    return d12 + u * d2 + v * d1, d12


def jordan_form1(p: BilateralParams, ctx: RealContext) -> SeriesValue:
    """Bracket form ``sum_n q^(n^2) x^n t^n (1 + u/(1-u) + v/(1-v))``.

    Here ``u = x q^n`` and ``v = t q^n``; at negative indices the partial
    fractions reduce to ``x/(q^m - x)`` and ``t/(q^m - t)``.
    """
    brackets = (_form1_plus, _form1_minus)
    return _route(p, ctx, "form1", (_qxt_theta, _minus_theta), brackets, _form1_exact)


def _form2_plus(x: BigReal, t: BigReal, q_pow: BigReal) -> BigReal:
    return -1 + 1 / (1 - x * q_pow) + 1 / (1 - t * q_pow)


def _form2_minus(x: BigReal, t: BigReal, q_pow: BigReal) -> BigReal:
    return -1 + q_pow / (q_pow - x) + q_pow / (q_pow - t)


def _form2_exact(
    a: int, b: int, c: int, d: int, top: int, bottom: int
) -> tuple[int, int]:
    """:func:`_form2_plus` at ``x = a/b``, ``t = c/d`` and ``q^n = top/bottom``:
    ``(-D1*D2 + b*bottom*D2 + d*bottom*D1) / (D1*D2)``, with ``D1`` and ``D2``
    as in :func:`_form1_exact`.  With ``top`` and ``bottom`` swapped it is
    :func:`_form2_minus` at ``q^m = top/bottom``."""
    d1, d2 = b * bottom - a * top, d * bottom - c * top
    d12 = d1 * d2
    return b * bottom * d2 + d * bottom * d1 - d12, d12


def jordan_form2(p: BilateralParams, ctx: RealContext) -> SeriesValue:
    """Bracket form ``sum_n q^(n^2) x^n t^n (-1 + 1/(1-u) + 1/(1-v))``.

    Algebraically identical to :func:`jordan_form1` summand-by-summand; kept
    as an independent evaluation route.  At negative indices the partial
    fractions reduce to ``q^m/(q^m - x)`` and ``q^m/(q^m - t)``.
    """
    brackets = (_form2_plus, _form2_minus)
    return _route(p, ctx, "form2", (_qxt_theta, _minus_theta), brackets, _form2_exact)
