"""Reciprocal sums of Horadam (Fibonacci-type) integer sequences.

A Horadam sequence is the integer recurrence

    ``f_0 = 0, f_1 = 1, f_n = m1*f_{n-1} + m2*f_{n-2}``

with ``m1 >= 1``, ``m2 != 0`` and positive discriminant
``delta = m1^2 + 4*m2``.  With roots ``alpha > |beta|`` of
``z^2 = m1*z + m2``, the reciprocal sum ``sum_{n>=1} 1/f_n`` admits several
independent evaluation routes:

* direct summation of exact big-integer reciprocals (linear convergence),
* the fast route ``(alpha-beta) * (1/(alpha-1) + L(1/alpha, beta/alpha))``
  through the theta-convergent generalized Lambert series,
* for the Fibonacci case, Gosper's exact-rational acceleration and the
  even/odd index splits
  ``sum 1/F_{2n} = sqrt(5)*(L(beta^2) - L(beta^4))`` and
  ``sum 1/F_{2n-1} = sqrt(5)/4 * (theta3(beta^2)^2 - theta3(beta)^2)``
  together with their theta-class alternate expressions.

All routes return :class:`~qlambert.qcore.SeriesValue` records so they can be
cross-checked pairwise at full precision.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import DomainError, ZeroTermError
from .lambert import glambert_theta, lambert_theta
from .numerics import BigReal, RealContext, _require_int, make_context, sqrt
from .qcore import (
    Factor,
    QTerm,
    SeriesValue,
    ball,
    combine,
    ipow,
    product,
    theta3,
)

__all__ = [
    "HoradamSequence",
    "fib_even_alt",
    "fib_even_theta",
    "fib_odd_alt",
    "fib_odd_theta",
    "fib_recip_gosper",
    "fibonacci",
    "gosper_terms",
    "horadam_term",
    "lucas_G",
    "recip_sum_fast",
    "recip_sum_naive",
]

#: The fast route refuses |beta/alpha| within this distance of 1.
FAST_DEGENERACY_GAP = Decimal("1e-6")


@dataclass(frozen=True)
class HoradamSequence:
    """Integer recurrence ``f_n = m1*f_{n-1} + m2*f_{n-2}``, ``f_0=0, f_1=1``.

    Attributes:
        m1: Linear coefficient, a positive integer.
        m2: Constant coefficient, a nonzero integer.

    Raises:
        DomainError: if the coefficients are out of range or the
            discriminant ``m1^2 + 4*m2`` is not positive (complex roots).
    """

    m1: int
    m2: int
    _terms: list[int] = field(
        default_factory=lambda: [0, 1], init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _require_int("m1", self.m1, 1)
        if not isinstance(self.m2, int) or isinstance(self.m2, bool) or self.m2 == 0:
            raise DomainError(f"m2 must be a nonzero integer, got {self.m2!r}")
        if self.delta <= 0:
            raise DomainError(
                f"discriminant m1^2 + 4*m2 = {self.delta} must be positive"
            )

    @property
    def delta(self) -> int:
        """Discriminant ``m1^2 + 4*m2`` of the characteristic polynomial."""
        return self.m1 * self.m1 + 4 * self.m2

    def roots(self, ctx: RealContext) -> tuple[BigReal, BigReal]:
        """Characteristic roots ``(alpha, beta)`` at working precision.

        ``alpha = (m1 + sqrt(delta))/2`` dominates: ``alpha > |beta|``.
        """
        root = sqrt(ctx.dec.create_decimal(self.delta), ctx)
        with localcontext(ctx.dec):
            alpha = (self.m1 + root) / 2
            beta = (self.m1 - root) / 2
        return alpha, beta


def _memo_term(seq: HoradamSequence, n: int) -> int:
    """``f_n`` from the memo of ``seq``, extended as far as ``n``."""
    with seq._lock:
        terms = seq._terms
        while len(terms) <= n:
            terms.append(seq.m1 * terms[-1] + seq.m2 * terms[-2])
        return terms[n]


def horadam_term(seq: HoradamSequence, n: int) -> int:
    """Exact big-integer term ``f_n`` of the sequence (cached)."""
    _require_int("term index", n, 0)
    return _memo_term(seq, n)


#: The Fibonacci sequence, whose memo every Fibonacci and Lucas number reads.
_FIBONACCI = HoradamSequence(1, 1)


def fibonacci(n: int) -> int:
    """Exact Fibonacci number ``F_n`` (cached)."""
    _require_int("Fibonacci index", n, 0)
    return _memo_term(_FIBONACCI, n)


def lucas_G(n: int) -> int:
    """Lucas number ``G_n = 2*F_{n-1} + F_n`` for ``n >= 1``."""
    _require_int("Lucas index", n, 1)
    return 2 * fibonacci(n - 1) + fibonacci(n)


def recip_sum_naive(seq: HoradamSequence, ctx: RealContext) -> SeriesValue:
    """Direct reciprocal sum ``sum_{n>=1} 1/f_n`` (linear convergence).

    The terms are exact big-integer reciprocals.  Their majorant is that of
    ``1/f_n = (alpha-beta) alpha^(-n) / (1 - r^n)`` with ``r = beta/alpha``:
    ``(1/alpha) * (1 + |r|^n)/(1 - |r|^(n+1))`` bounds ``|f_n/f_{n+1}|`` at
    every later index.

    Raises:
        ZeroTermError: if some ``f_n = 0`` is hit before the sum converges.
    """
    alpha, beta = seq.roots(ctx)
    with localcontext(ctx.dec):
        closed_form = QTerm(
            beta / alpha,
            start=(alpha - beta) / alpha,
            z=1 / alpha,
            factors=(Factor(1, power=-1),),
            first=1,
        )

    def term(n: int) -> BigReal:
        f_n = horadam_term(seq, n)
        if f_n == 0:
            raise ZeroTermError(
                f"f_{n} = 0 for (m1,m2)=({seq.m1},{seq.m2}); "
                "reciprocal sum undefined"
            )
        return 1 / Decimal(f_n)

    return closed_form.sum(ctx, "naive", term=lambda _: term)


def recip_sum_fast(seq: HoradamSequence, ctx: RealContext) -> SeriesValue:
    """Fast reciprocal sum via the theta-convergent Lambert route.

    Evaluates ``(alpha-beta) * (1/(alpha-1) + L(1/alpha, beta/alpha))`` with
    the generalized Lambert series in its theta form, carrying two extra
    digits (plus headroom for the ``sqrt(delta)`` scale) internally.

    Raises:
        DomainError: if ``alpha <= 1`` or ``|beta/alpha|`` is within
            ``1e-6`` of 1 (theta certification degenerates).
    """
    scale_headroom = (len(str(abs(seq.delta))) + 1) // 2
    inner = make_context(ctx.target_digits + 2 + scale_headroom)
    alpha, beta = seq.roots(inner)
    with localcontext(inner.dec):
        if alpha <= 1:
            raise DomainError(f"fast route requires alpha > 1, got alpha={alpha}")
        q = beta / alpha
        if abs(q) >= 1 - FAST_DEGENERACY_GAP:
            raise DomainError(
                f"fast route rejected: |beta/alpha| = {abs(q)} too close to 1"
            )
        lam = glambert_theta(1 / alpha, q, inner)
        scale = alpha - beta
        parts = ((scale, ball(1 / (alpha - 1))), (scale, lam))
    return combine(parts, ctx, "theta")


def _fib_inner(ctx: RealContext) -> tuple[RealContext, BigReal, BigReal]:
    """``ctx`` with two more digits, and ``beta`` and ``sqrt(5)`` at its precision."""
    inner = make_context(ctx.target_digits + 2)
    alpha, beta = _FIBONACCI.roots(inner)
    with localcontext(inner.dec):
        return inner, beta, alpha - beta


def fib_recip_gosper(
    N: int, ctx: RealContext, corrected: bool = True
) -> SeriesValue:
    """Gosper's accelerated partial sum for ``sum_{n>=1} 1/F_n``.

    Adds the first ``N`` terms of

        ``sum_{n>=0} (-1)^(n(n-1)/2) * (F_{4n+3} + (-1)^n F_{2n+2})
          / (F_{2n+1} F_{2n+2} G_1 G_3 ... G_{2n+1})``

    in exact rational arithmetic, rounding once at the end.  The sign
    ``(-1)^(n(n-1)/2)`` follows the period-4 pattern ``+,+,-,-``.  With
    ``corrected=False`` the Lucas product stops at ``G_{2n-1}`` instead,
    which demonstrably breaks the identity.

    The n-th term is at most ``5 phi^-((n+1)^2)`` in magnitude (README), and
    ``5 phi^-(n^2)`` uncorrected.  The tail bound sums that bound over the
    terms left out: ``5 phi^-(M^2) / (1 - phi^-(2M+1))`` with ``M = N + 1``
    (``M = N`` uncorrected).
    """
    _require_int("term count", N, 1)
    total = Fraction(0)
    g_product = 1
    for n in range(N):
        if corrected:
            g_product *= lucas_G(2 * n + 1)
        elif n >= 1:
            g_product *= lucas_G(2 * n - 1)
        numerator = fibonacci(4 * n + 3) + (
            fibonacci(2 * n + 2) if n % 2 == 0 else -fibonacci(2 * n + 2)
        )
        denominator = fibonacci(2 * n + 1) * fibonacci(2 * n + 2) * g_product
        sign = 1 if n % 4 in (0, 1) else -1
        total += Fraction(sign * numerator, denominator)
    phi, _ = _FIBONACCI.roots(ctx)
    M = N + 1 if corrected else N
    with localcontext(ctx.dec):
        value = Decimal(total.numerator) / Decimal(total.denominator)
        tail = 5 * ipow(phi, -M * M) / (1 - ipow(phi, -(2 * M + 1)))
        tail += ctx.tail_floor(value)
    return SeriesValue(
        value=value, terms_used=N, tail_bound=tail, method_tag="gosper"
    )


def gosper_terms(ctx: RealContext) -> int:
    """A term count ``N`` for which :func:`fib_recip_gosper` certifies ``epsilon/2``.

    For ``N >= 1`` its tail is at most ``5 phi^-((N+1)^2) / (1 - phi^-5)``;
    ``N`` is the least count that puts this below ``epsilon/2``.
    """
    log_phi = math.log((1 + math.sqrt(5)) / 2)
    log_bound = math.log(10 / (1 - math.exp(-5 * log_phi)))
    need = (ctx.target_digits * math.log(10) + log_bound) / log_phi
    return max(1, math.ceil(math.sqrt(need)) - 1)


def fib_even_theta(ctx: RealContext) -> SeriesValue:
    """Even-index split ``sum_{n>=1} 1/F_{2n} = sqrt(5)*(L(beta^2) - L(beta^4))``.

    Both Lambert values are taken in theta-convergent form at two extra
    digits of internal precision.
    """
    inner, beta, root5 = _fib_inner(ctx)
    with localcontext(inner.dec):
        b2 = beta * beta
        lam2, lam4 = lambert_theta(b2, inner), lambert_theta(b2 * b2, inner)
        parts = ((root5, lam2), (-root5, lam4))
    return combine(parts, ctx, "theta")


def fib_odd_theta(ctx: RealContext) -> SeriesValue:
    """Odd-index split ``sum_{n>=1} 1/F_{2n-1}``.

    Uses ``sqrt(5)/4 * (theta3(beta^2)^2 - theta3(beta)^2)`` with the theta
    constant evaluated at two extra digits of internal precision.
    """
    inner, beta, root5 = _fib_inner(ctx)
    with localcontext(inner.dec):
        quarter_root5 = root5 / 4
        parts = [
            (sign * quarter_root5, product(((theta3(b, inner), 2),), ctx, "theta"))
            for sign, b in ((1, beta * beta), (-1, beta))
        ]
    return combine(parts, ctx, "theta")


def fib_even_alt(apply_root5: bool, ctx: RealContext) -> SeriesValue:
    """Alternate theta-class expression ``sum_{n>=1} beta^(n(n+1))/(1-beta^(2n))``.

    The exponent ``n(n+1)`` is always even, so the summand is positive.  When
    ``apply_root5`` is true the sum is scaled by ``sqrt(5)``; exactly one of
    the two variants reproduces the even-index reciprocal sum, and the test
    suite pins which one against a big-integer oracle.
    """
    inner, beta, root5 = _fib_inner(ctx)
    with localcontext(inner.dec):
        b2 = beta * beta
        series = QTerm(
            b2, start=b2, theta=(1, 1), factors=(Factor(1, power=-1),), first=1
        )
        raw = series.sum(inner, "theta")
    return combine(((root5 if apply_root5 else 1, raw),), ctx, "theta")


def fib_odd_alt(ctx: RealContext) -> SeriesValue:
    """Alternate odd-index expression ``-sqrt(5)*beta*(sum_{n>=0} beta^(2n(n+1)))^2``.

    The inner sum is theta-class with even exponents; ``-sqrt(5)*beta`` is the
    positive scale ``(5 - sqrt(5))/2``.
    """
    inner, beta, root5 = _fib_inner(ctx)
    with localcontext(inner.dec):
        inner_sum = QTerm(beta * beta, theta=(2, 2)).sum(inner, "theta")
        scale = ball(-root5 * beta)
    return product(((scale, 1), (inner_sum, 2)), ctx, "theta")
