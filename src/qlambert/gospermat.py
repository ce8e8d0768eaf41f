"""Gosper's 2x2 matrix-product formulation of the Lambert/theta identity.

Two families of matrices with bottom row ``(0, 1)``,

    ``K(k,n) = (q^(n+2k+1),  q*(1-q^(2k+n)) / ((1-q^k)(1-q^(k+n))))``
    ``N(k,n) = (q^k,         q/(1-q^(k+n)))``

satisfy the exchange relation ``N(k,n)*K(k,n+1) = K(k,n)*N(k+1,n)``.
Repeated exchange turns the product ``N(1,0) N(1,1) ... K(.,inf)...`` into
``K(1,0) K(2,0) ... N(inf,.)...``; the upper-right entries of the two
arrangements are the partial sums of

    ``sum_{m>=1} q^m/(1-q^m)``   and   ``sum_{k>=1} q^(k^2)(1+q^k)/(1-q^k)``,

the two sides of the Lambert-series theta identity.  Only the upper row
carries information: ``(p1,u1)*(p2,u2) = (p1*p2, p1*u2 + u1)``, so the
running ``p``-product multiplies every later ``u``-contribution and its
magnitude certifies truncation.

``n = None`` (for K) and ``k = None`` (for N) denote the limit matrices
``K(k,inf) = (0, q/(1-q^k))`` and ``N(inf,n) = (0, q)``.  The products'
factor count, :func:`product_factor_count`, is where ``|q|**M`` crosses
``epsilon``, found by the rule the pole scans use
(:func:`~qlambert.qcore.crossing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext

from .errors import DomainError
from .numerics import BigReal, RealContext, _require_int, _require_unit
from .qcore import _term_cap, crossing, ipow

__all__ = [
    "LEFT",
    "RIGHT",
    "Mat2",
    "exchange_check",
    "matK",
    "matN",
    "product_factor_count",
    "product_upper_right",
]

#: Side selectors for :func:`product_upper_right`.
LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class Mat2:
    """Upper row ``(p, u)`` of a 2x2 matrix whose bottom row is ``(0, 1)``."""

    p: BigReal
    u: BigReal

    def mul(self, other: "Mat2") -> "Mat2":
        """Matrix product; the ``(0, 1)`` bottom row is preserved."""
        return Mat2(p=self.p * other.p, u=self.p * other.u + self.u)


def matK(k: int, n: int | None, q: BigReal, ctx: RealContext) -> Mat2:
    """Matrix ``K(k,n)``; ``n = None`` selects the limit ``K(k,inf)``.

    ``p = q^(n+2k+1)``, ``u = q*(1-q^(2k+n))/((1-q^k)(1-q^(k+n)))``; in the
    limit ``p = 0`` and ``u = q/(1-q^k)``.
    """
    _require_int("k", k, 1)
    q = _require_unit("q", q, ctx)
    with localcontext(ctx.dec):
        if n is None:
            return Mat2(p=Decimal(0), u=q / (1 - q**k))
        _require_int("n", n, 0)
        p = q ** (n + 2 * k + 1)
        u = q * (1 - q ** (2 * k + n)) / ((1 - q**k) * (1 - q ** (k + n)))
        return Mat2(p=p, u=u)


def matN(k: int | None, n: int, q: BigReal, ctx: RealContext) -> Mat2:
    """Matrix ``N(k,n)``; ``k = None`` selects the limit ``N(inf,n)``.

    ``p = q^k``, ``u = q/(1-q^(k+n))``; in the limit ``p = 0``, ``u = q``.
    """
    _require_int("n", n, 0)
    q = _require_unit("q", q, ctx)
    with localcontext(ctx.dec):
        if k is None:
            return Mat2(p=Decimal(0), u=+q)
        _require_int("k", k, 1)
        return Mat2(p=q**k, u=q / (1 - q ** (k + n)))


def exchange_check(k: int, n: int, q: BigReal, ctx: RealContext) -> BigReal:
    """Residual of the exchange relation ``N(k,n)K(k,n+1) = K(k,n)N(k+1,n)``.

    Returns the maximum absolute entrywise difference of the two products;
    the relation is exact, so the residual is rounding noise bounded by
    ``10^(-working_digits+6)``.
    """
    with localcontext(ctx.dec):
        lhs = matN(k, n, q, ctx).mul(matK(k, n + 1, q, ctx))
        rhs = matK(k, n, q, ctx).mul(matN(k + 1, n, q, ctx))
        return max(abs(lhs.p - rhs.p), abs(lhs.u - rhs.u))


def product_upper_right(
    side: str, factor_count: int, q: BigReal, ctx: RealContext
) -> BigReal:
    """Upper-right entry of the finite matrix product on one side.

    ``side = "left"`` evaluates ``prod_{n=0}^{M-1} N(1,n) * prod_{k=1}^{M}
    K(k,inf)`` and ``side = "right"`` evaluates ``prod_{k=1}^{M} K(k,0) *
    prod_{n=0}^{M-1} N(inf,n)``, with ``M = factor_count``, multiplying
    strictly left-to-right in the written order.
    """
    _require_int("factor_count", factor_count, 1)
    q = _require_unit("q", q, ctx)
    if q == 0:
        raise DomainError("q must be nonzero for the matrix products")
    if side not in (LEFT, RIGHT):
        raise DomainError(f"side must be {LEFT!r} or {RIGHT!r}, got {side!r}")
    with localcontext(ctx.dec):
        acc = Mat2(p=Decimal(1), u=Decimal(0))
        if side == LEFT:
            for n in range(factor_count):
                acc = acc.mul(matN(1, n, q, ctx))
            for k in range(1, factor_count + 1):
                acc = acc.mul(matK(k, None, q, ctx))
        else:
            for k in range(1, factor_count + 1):
                acc = acc.mul(matK(k, 0, q, ctx))
            for n in range(factor_count):
                acc = acc.mul(matN(None, n, q, ctx))
        return +acc.u


def product_factor_count(q: BigReal, ctx: RealContext) -> int:
    """Factor count ``M + 8`` for both finite products, ``M`` the least
    count with ``|q|**M < epsilon``.

    After the factor ``K(1, inf)`` the left product's ``p``-entry is 0.  So
    its upper-right entry is the Lambert partial sum to ``M`` plus
    ``q**(M+1)/(1-q)``, the ``q**m`` part of the tail ``sum_{m>M}
    q**m/(1-q**m)``, and it misses the Lambert sum by ``sum_{m>M}
    q**(2m)/(1-q**m)``, at most ``|q|**(2M+2) / ((1-|q|)(1-q**2))``.  The
    right product is the theta partial sum to ``M`` plus ``q**((M+1)**2)``,
    and misses by the rest of the theta tail, whose first summand is
    ``2*q**((M+1)**2 + M + 1) / (1 - q**(M+1))``.

    ``M`` is :func:`~qlambert.qcore.crossing` of ``1/epsilon`` and ``q`` from
    index 1, the least count with ``|q|**M <= epsilon``, plus one where that
    power is ``epsilon`` exactly, so that ``|q|**M < epsilon``.

    Raises:
        DomainError: unless ``0 < |q| < 1``, or if ``M + 8`` passes the cap
            on a sum's terms (:func:`~qlambert.qcore._term_cap`), before any
            product is formed.
    """
    q = _require_unit("q", q, ctx)
    if q == 0:
        raise DomainError("q must be nonzero for the matrix products")
    cap = _term_cap(ctx.working_digits) - 8
    with localcontext(ctx.dec):
        count = crossing(1 / ctx.epsilon, q, 1)
        count += ipow(q.copy_abs(), count) == ctx.epsilon
    if count > cap:
        raise DomainError(f"the matrix products need more than {cap + 8} factors")
    return count + 8
