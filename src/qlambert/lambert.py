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

Every evaluator describes its summand as a :class:`~qlambert.qcore.QTerm`;
the engine keeps its powers and Pochhammer products as running products and
derives from the same description the decay majorant that certifies the
truncation bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext

from .errors import DomainError, PoleError
from .numerics import BigReal, RealContext
from .qcore import Factor, QTerm, SeriesValue, ipow, sum_qterm


def _require_unit(name: str, value: BigReal) -> None:
    if abs(value) >= 1:
        raise DomainError(f"{name} outside (-1,1): {value}")


def _pole_scan(
    name: str, x: BigReal, q: BigReal, ctx: RealContext, first_index: int
) -> None:
    """Reject parameters with ``|1 - x*q**n|`` below the pole tolerance.

    Scans every ``n >= first_index`` with ``|x*q**n| >= 1/2``; beyond those
    ``|1 - x*q**n| > 1/2``, far above the tolerance.  Requires ``|q| < 1``.
    """
    tol = ctx.pole_tolerance()
    with localcontext(ctx.dec):
        q = Decimal(q)
        xqn = x * ipow(q, first_index)
        n = first_index
        while 2 * abs(xqn) >= 1:
            if abs(1 - xqn) <= tol:
                raise PoleError(
                    f"denominator 1 - {name}*q**{n} vanishes at working tolerance"
                )
            xqn *= q
            n += 1


@dataclass(frozen=True)
class QxtParams:
    """Parameters (x, t, q) of the two-variable series ``sum t^n/(1-x q^n)``.

    The convergence domain is ``|q| < 1``, ``|x| < 1``, ``|t| < 1``; both
    ``x`` and ``t`` must additionally stay clear of the denominator poles.
    """

    x: BigReal
    t: BigReal
    q: BigReal

    def validate(self, ctx: RealContext) -> None:
        _require_unit("q", self.q)
        _require_unit("x", self.x)
        _require_unit("t", self.t)
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
    return QTerm(
        q,
        start=q,
        theta=(2, 1),
        factors=(Factor(-1), Factor(1, power=-1)),
        first=1,
    )


def _validate_lambert(q: BigReal) -> BigReal:
    q = Decimal(q)
    if q == 0 or abs(q) >= 1:
        raise DomainError(f"q outside (-1,1) minus 0: {q}")
    return q


def lambert_naive(q: BigReal, ctx: RealContext) -> SeriesValue:
    """Lambert series ``L(q) = sum_{n>=1} q^n/(1-q^n)``, linear convergence."""
    return sum_qterm(_glambert_naive, (1, _validate_lambert(q)), ctx, "naive")


def lambert_theta(q: BigReal, ctx: RealContext) -> SeriesValue:
    """Theta-convergent Lambert series ``sum_{n>=1} (1+q^n)/(1-q^n) q^(n^2)``."""
    return sum_qterm(_lambert_theta, (_validate_lambert(q),), ctx, "theta")


def _validate_glambert(
    x: BigReal, q: BigReal, ctx: RealContext
) -> tuple[BigReal, BigReal]:
    x, q = Decimal(x), Decimal(q)
    _require_unit("q", q)
    if abs(x * q) >= 1:
        raise DomainError(f"|x*q| must be < 1, got {abs(x * q)}")
    _pole_scan("x", x, q, ctx, 1)
    return x, q


def _glambert_naive(x: BigReal, q: BigReal, first: int = 1) -> QTerm:
    """``x q^n/(1-x q^n)``, ``n >= first``."""
    return QTerm(
        q,
        start=x * ipow(q, first),
        z=q,
        factors=(Factor(x, power=-1),),
        first=first,
    )


def _glambert_theta(x: BigReal, q: BigReal) -> QTerm:
    """``(1 - x q^(2n)) / ((1-x q^n)(1-q^n)) * x^n q^(n^2)``, ``n >= 1``."""
    return QTerm(
        q,
        start=x * q,
        z=x,
        theta=(2, 1),
        factors=(Factor(x, s=2), Factor(x, power=-1), Factor(1, power=-1)),
        first=1,
    )


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


def fine_F(
    a: BigReal, b: BigReal, t: BigReal, q: BigReal, ctx: RealContext
) -> SeriesValue:
    """Fine's function ``F(a,b;t) = sum_{n>=0} ((aq;q)_n/(bq;q)_n) t^n``.

    Evaluated with running Pochhammer products (one update per term).
    """
    a, b, t, q = Decimal(a), Decimal(b), Decimal(t), Decimal(q)
    _require_unit("q", q)
    _require_unit("t", t)
    _pole_scan("b", b, q, ctx, 1)
    return sum_qterm(_fine, (a, b, t, q), ctx, "naive")
