"""Evaluators for the central unilateral q-series.

Implements both sides of the three headline identities

* ``sum_{n>=0} t^n/(1-x q^n)
  = sum_{n>=0} (1 - x t q^(2n)) / ((1-x q^n)(1-t q^n)) * x^n t^n q^(n^2)``
  (naive geometric form versus theta-convergent form),
* ``L(q) = sum_{n>=1} q^n/(1-q^n) = sum_{n>=1} (1+q^n)/(1-q^n) * q^(n^2)``
  (the Lambert series, obtained at ``x = t = q``), and
* ``L(x,q) = sum_{n>=1} x q^n/(1-x q^n)
  = sum_{n>=1} (1 - x q^(2n)) / ((1-x q^n)(1-q^n)) * x^n q^(n^2)``
  (the generalized Lambert series),

plus the alternate theta-convergent expansion

* ``sum_{n>=0} t^n/(1-x q^n)
  = sum_{n>=0} (q;q)_n / ((x;q)_{n+1} (t;q)_{n+1}) * (-x t)^n q^((n^2-n)/2)``

and Fine's function ``F(a,b;t) = sum_{n>=0} ((aq;q)_n/(bq;q)_n) t^n``.

As the paper has it, the generalized Lambert series is the first identity
at ``t = 1``.  On the left, ``t^n/(1-x q^n) = t^n + t^n x q^n/(1-x q^n)``; on
the right, the ``n = 0`` summand is ``1/(1-t) + x/(1-x)``.  The poles
``1/(1-t)`` cancel, and so do the ``x/(1-x)`` at ``n = 0``; at ``t = 1`` what
is left is ``L(x,q)`` on the left and the theta form from ``n = 1`` on the
right.  So :func:`_glambert_theta` is the theta form at ``t = 1``, and the
naive ``L(x,q)``, like the other geometric sums of this package, is one
instance of ``scale * (x q)^n/(1 - t q^n)`` (:func:`_geometric`).

Every evaluator describes its summand as a :class:`~qlambert.qcore.QTerm`;
the engine keeps its powers and Pochhammer products as running products and
derives from the same description the decay majorant that certifies the
truncation bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import localcontext

from .errors import DomainError, PoleError
from .numerics import BigReal, Real, RealContext, _require_unit, as_decimal
from .qcore import Factor, QTerm, SeriesValue, crossing, ipow, sum_qterm


def _pole_scan(
    name: str, x: Real, q: Real, ctx: RealContext, first_index: int
) -> None:
    """Reject parameters with ``|1 - x*q**n|`` below the pole tolerance for
    some ``n >= first_index``.

    From ``first_index``, ``|x*q**n|`` falls, through 1 at ``c`` =
    :func:`~qlambert.qcore.crossing`: above 1 before ``c``, at most 1 from
    ``c`` on.  Within the tolerance, which is below 1, ``x*q**n`` is positive,
    as it is at every index or at every other one.  So the positive values
    nearest to 1 are at ``c`` or ``c + 1`` and at ``c - 1`` or ``c - 2``, and
    only those four indices, each a direct power, are tested.  Where
    ``|x*q**first_index| < 1/2``, as at most parameters, no ``x*q**n`` comes
    that near 1, and the one product that shows it is the only one formed.
    Requires ``|q| < 1``.  A ``Fraction`` is tested as the ``Decimal`` that
    :func:`~qlambert.numerics.as_decimal` gives, so that the test and its
    tolerance are those of a long literal.
    """
    tol = ctx.pole_tolerance()
    x, q = as_decimal(x, ctx), as_decimal(q, ctx)
    with localcontext(ctx.dec):
        if 2 * abs(x * ipow(q, first_index)) < 1:
            return
        c = crossing(x, q, first_index)
        for n in range(max(first_index, c - 2), c + 2):
            if abs(1 - x * ipow(q, n)) <= tol:
                raise PoleError(
                    f"denominator 1 - {name}*q**{n} vanishes at working tolerance"
                )


@dataclass(frozen=True)
class QxtParams:
    """Parameters (x, t, q) of the two-variable series ``sum t^n/(1-x q^n)``.

    The convergence domain is ``|q| < 1``, ``|x| < 1``, ``|t| < 1``; both
    ``x`` and ``t`` must additionally stay clear of the denominator poles.
    """

    x: Real
    t: Real
    q: Real

    def validate(self, ctx: RealContext) -> None:
        for name in ("q", "x", "t"):
            _require_unit(name, getattr(self, name), ctx)
        _pole_scan("x", self.x, self.q, ctx, 0)
        _pole_scan("t", self.t, self.q, ctx, 0)


def _qxt_naive(x: BigReal, t: BigReal, q: BigReal) -> QTerm:
    """``t^n/(1-x q^n)``, ``n >= 0``."""
    return QTerm(q, z=t, factors=(Factor(x, power=-1),))


def _qxt_theta(x: BigReal, t: BigReal, q: BigReal, first: int = 0) -> QTerm:
    """``(1 - x t q^(2n)) / ((1-x q^n)(1-t q^n)) * x^n t^n q^(n^2)``, ``n >= first``."""
    xt = x * t
    return QTerm(
        q,
        start=ipow(xt, first) * ipow(q, first * first),
        z=xt,
        theta=(2, 1),
        factors=(Factor(xt, s=2), Factor(x, power=-1), Factor(t, power=-1)),
        first=first,
    )


def _geometric(
    x: BigReal, t: BigReal, q: BigReal, scale: BigReal = 1, first: int = 1
) -> QTerm:
    """``scale * (x q)^n / (1 - t q^n)``, ``n >= first``."""
    xq = x * q
    factors = (Factor(t, power=-1),)
    return QTerm(q, start=scale * ipow(xq, first), z=xq, factors=factors, first=first)


def _qxt_alt(x: BigReal, t: BigReal, q: BigReal) -> QTerm:
    """``(q;q)_n / ((x;q)_{n+1} (t;q)_{n+1}) * (-x t)^n q^((n^2-n)/2)``, ``n >= 0``."""
    return QTerm(
        q,
        start=1 / ((1 - x) * (1 - t)),
        z=-x * t,
        theta=(1, 0),
        factors=(
            Factor(1, k=1, pochhammer=True),
            Factor(x, k=1, power=-1, pochhammer=True),
            Factor(t, k=1, power=-1, pochhammer=True),
        ),
    )


def series_qxt_lhs(p: QxtParams, ctx: RealContext) -> SeriesValue:
    """Naive (geometrically convergent) form ``sum_{n>=0} t^n/(1-x q^n)``."""
    p.validate(ctx)
    return sum_qterm(_qxt_naive, (p.x, p.t, p.q), ctx, "naive")


def series_qxt_rhs(p: QxtParams, ctx: RealContext) -> SeriesValue:
    """Theta-convergent form of the same series.

    ``sum_{n>=0} (1 - x t q^(2n)) / ((1-x q^n)(1-t q^n)) * x^n t^n q^(n^2)``;
    the summand is symmetric in ``x`` and ``t``.
    """
    p.validate(ctx)
    return sum_qterm(_qxt_theta, (p.x, p.t, p.q), ctx, "theta")


def series_qxt_alt(p: QxtParams, ctx: RealContext) -> SeriesValue:
    """Alternate theta-convergent expansion via finite Pochhammer ratios.

    ``sum_{n>=0} (q;q)_n / ((x;q)_{n+1} (t;q)_{n+1}) * (-x t)^n q^((n^2-n)/2)``;
    also symmetric in ``x`` and ``t``.
    """
    p.validate(ctx)
    return sum_qterm(_qxt_alt, (p.x, p.t, p.q), ctx, "alt")


def _lambert_theta(q: BigReal) -> QTerm:
    """``(1+q^n)/(1-q^n) q^(n^2)``, ``n >= 1``."""
    # Written as -q * (-1 - q^n)/(1 - q^n), so that both factors share the
    # running value q^n.
    return QTerm(
        q,
        start=-q,
        theta=(2, 1),
        factors=(Factor(1, c0=-1), Factor(1, power=-1)),
        first=1,
    )


def _validate_lambert(q: Real, ctx: RealContext) -> tuple[Real, Real]:
    """``(1, q)``: the Lambert series is ``L(1, q)``, whose domain and poles
    are those of :func:`_validate_glambert` at ``x = 1``, without ``q = 0``."""
    if as_decimal(q, ctx) == 0:
        raise DomainError(f"q outside (-1,1) minus 0: {q}")
    return _validate_glambert(1, q, ctx)


def lambert_naive(q: Real, ctx: RealContext) -> SeriesValue:
    """Lambert series ``L(q) = sum_{n>=1} q^n/(1-q^n)``, linear convergence."""
    return sum_qterm(_glambert_naive, _validate_lambert(q, ctx), ctx, "naive")


def lambert_theta(q: Real, ctx: RealContext) -> SeriesValue:
    """Theta-convergent Lambert series ``sum_{n>=1} (1+q^n)/(1-q^n) q^(n^2)``."""
    return sum_qterm(_lambert_theta, _validate_lambert(q, ctx)[1:], ctx, "theta")


def _validate_glambert(x: Real, q: Real, ctx: RealContext) -> tuple[Real, Real]:
    """``(x, q)`` if ``|q| < 1``, ``|x*q| < 1`` and no ``1 - x*q**n``,
    ``n >= 1``, is a pole (:func:`_pole_scan`)."""
    checked_x, checked_q = as_decimal(x, ctx), _require_unit("q", q, ctx)
    size = ctx.dec.multiply(checked_x, checked_q).copy_abs()
    if size >= 1:
        raise DomainError(f"|x*q| must be < 1, got {size}")
    _pole_scan("x", checked_x, checked_q, ctx, 1)
    return x, q


def _glambert_naive(x: BigReal, q: BigReal, first: int = 1) -> QTerm:
    """``x q^n/(1-x q^n)``, ``n >= first``."""
    return _geometric(1, x, q, scale=x, first=first)


def _glambert_theta(x: BigReal, q: BigReal) -> QTerm:
    """``(1 - x q^(2n)) / ((1-x q^n)(1-q^n)) * x^n q^(n^2)``, ``n >= 1``:
    the theta form of ``sum t^n/(1-x q^n)`` at ``t = 1`` (module docstring)."""
    return _qxt_theta(x, 1, q, first=1)


def glambert_lhs(x: BigReal, q: BigReal, ctx: RealContext) -> SeriesValue:
    """Generalized Lambert series ``L(x,q) = sum_{n>=1} x q^n/(1-x q^n)``."""
    return sum_qterm(_glambert_naive, _validate_glambert(x, q, ctx), ctx, "naive")


def glambert_theta(x: BigReal, q: BigReal, ctx: RealContext) -> SeriesValue:
    """Theta-convergent generalized Lambert series.

    ``sum_{n>=1} (1 - x q^(2n)) / ((1-x q^n)(1-q^n)) * x^n q^(n^2)``.
    """
    return sum_qterm(_glambert_theta, _validate_glambert(x, q, ctx), ctx, "theta")


def _fine(a: BigReal, b: BigReal, t: BigReal, q: BigReal) -> QTerm:
    """``((aq;q)_n/(bq;q)_n) t^n``, ``n >= 0``."""
    return QTerm(
        q,
        z=t,
        factors=(
            Factor(a, k=1, pochhammer=True),
            Factor(b, k=1, power=-1, pochhammer=True),
        ),
    )


def fine_F(a: Real, b: Real, t: Real, q: Real, ctx: RealContext) -> SeriesValue:
    """Fine's function ``F(a,b;t) = sum_{n>=0} ((aq;q)_n/(bq;q)_n) t^n``.

    Evaluated with running Pochhammer products (one update per term).
    """
    q, t = _require_unit("q", q, ctx), _require_unit("t", t, ctx)
    a, b = as_decimal(a, ctx), as_decimal(b, ctx)
    _pole_scan("b", b, q, ctx, 1)
    return sum_qterm(_fine, (a, b, t, q), ctx, "naive")
