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

import threading
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import DomainError, ZeroTermError
from .lambert import glambert_theta, lambert_theta
from .numerics import BigReal, RealContext, make_context, sqrt
from .qcore import Factor, QTerm, SeriesValue, TermGenerator, sum_series, theta3

__all__ = [
    "HoradamSequence",
    "fib_even_alt",
    "fib_even_theta",
    "fib_odd_alt",
    "fib_odd_theta",
    "fib_recip_gosper",
    "fibonacci",
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
        if not isinstance(self.m1, int) or isinstance(self.m1, bool) or self.m1 < 1:
            raise DomainError(f"m1 must be an integer >= 1, got {self.m1!r}")
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


def horadam_term(seq: HoradamSequence, n: int) -> int:
    """Exact big-integer term ``f_n`` of the sequence (cached)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"term index must be a nonnegative integer, got {n!r}")
    with seq._lock:
        terms = seq._terms
        while len(terms) <= n:
            terms.append(seq.m1 * terms[-1] + seq.m2 * terms[-2])
        return terms[n]


_FIB: list[int] = [0, 1]
_FIB_LOCK = threading.Lock()


def fibonacci(n: int) -> int:
    """Exact Fibonacci number ``F_n`` (cached)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"Fibonacci index must be a nonnegative integer, got {n!r}")
    with _FIB_LOCK:
        while len(_FIB) <= n:
            _FIB.append(_FIB[-1] + _FIB[-2])
        return _FIB[n]


def lucas_G(n: int) -> int:
    """Lucas number ``G_n = 2*F_{n-1} + F_n`` for ``n >= 1``."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"Lucas index must be a positive integer, got {n!r}")
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

        gen = TermGenerator(term, closed_form.generator().decay)
        return sum_series(gen, 1, ctx, method_tag="naive")


def _theta_result(
    value: BigReal, tail: BigReal, terms: int, ctx: RealContext
) -> SeriesValue:
    """A theta-route result, rounded into ``ctx`` with its rounding floor."""
    with localcontext(ctx.dec):
        value = +value
        tail = +tail + ctx.tail_floor(value)
    return SeriesValue(value, terms, tail, "theta")


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
        x = 1 / alpha
        lam = glambert_theta(x, q, inner)
        scale = alpha - beta
        raw = scale * (1 / (alpha - 1) + lam.value)
        scaled_tail = scale * lam.tail_bound
    return _theta_result(raw, scaled_tail, lam.terms_used, ctx)


_FIBONACCI_SEQ_ARGS = (1, 1)


def _fib_roots(ctx: RealContext) -> tuple[BigReal, BigReal]:
    return HoradamSequence(*_FIBONACCI_SEQ_ARGS).roots(ctx)


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

    The tail bound records the magnitude of the last term added (the terms
    decay superexponentially), so small ``N`` yields a deliberately coarse
    bound.
    """
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        raise DomainError(f"term count must be a positive integer, got {N!r}")
    total = Fraction(0)
    last = Fraction(0)
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
        last = Fraction(sign * numerator, denominator)
        total += last
    with localcontext(ctx.dec):
        value = Decimal(total.numerator) / Decimal(total.denominator)
        tail = abs(Decimal(last.numerator) / Decimal(last.denominator))
        tail += ctx.tail_floor(value)
    return SeriesValue(
        value=value, terms_used=N, tail_bound=tail, method_tag="gosper"
    )


def fib_even_theta(ctx: RealContext) -> SeriesValue:
    """Even-index split ``sum_{n>=1} 1/F_{2n} = sqrt(5)*(L(beta^2) - L(beta^4))``.

    Both Lambert values are taken in theta-convergent form at two extra
    digits of internal precision.
    """
    inner = make_context(ctx.target_digits + 2)
    alpha, beta = _fib_roots(inner)
    with localcontext(inner.dec):
        b2 = beta * beta
        b4 = b2 * b2
        root5 = alpha - beta
    lam2 = lambert_theta(b2, inner)
    lam4 = lambert_theta(b4, inner)
    with localcontext(ctx.dec):
        value = root5 * (lam2.value - lam4.value)
        tail = root5 * (lam2.tail_bound + lam4.tail_bound) + ctx.tail_floor(value)
    return SeriesValue(
        value=value,
        terms_used=lam2.terms_used + lam4.terms_used,
        tail_bound=tail,
        method_tag="theta",
    )


def fib_odd_theta(ctx: RealContext) -> SeriesValue:
    """Odd-index split ``sum_{n>=1} 1/F_{2n-1}``.

    Uses ``sqrt(5)/4 * (theta3(beta^2)^2 - theta3(beta)^2)`` with the theta
    constant evaluated at two extra digits of internal precision.
    """
    inner = make_context(ctx.target_digits + 2)
    alpha, beta = _fib_roots(inner)
    with localcontext(inner.dec):
        b2 = beta * beta
        root5 = alpha - beta
    th_b = theta3(beta, inner)
    th_b2 = theta3(b2, inner)
    with localcontext(ctx.dec):
        quarter_root5 = root5 / 4
        value = quarter_root5 * (th_b2.value * th_b2.value - th_b.value * th_b.value)
        tail = quarter_root5 * 2 * (
            abs(th_b2.value) * th_b2.tail_bound + abs(th_b.value) * th_b.tail_bound
        )
        tail += ctx.tail_floor(value)
    return SeriesValue(
        value=value,
        terms_used=th_b.terms_used + th_b2.terms_used,
        tail_bound=tail,
        method_tag="theta",
    )


def fib_even_alt(apply_root5: bool, ctx: RealContext) -> SeriesValue:
    """Alternate theta-class expression ``sum_{n>=1} beta^(n(n+1))/(1-beta^(2n))``.

    The exponent ``n(n+1)`` is always even, so the summand is positive.  When
    ``apply_root5`` is true the sum is scaled by ``sqrt(5)``; exactly one of
    the two variants reproduces the even-index reciprocal sum, and the test
    suite pins which one against a big-integer oracle.
    """
    inner = make_context(ctx.target_digits + 2)
    alpha, beta = _fib_roots(inner)
    with localcontext(inner.dec):
        b2 = beta * beta
        root5 = alpha - beta
        series = QTerm(
            b2, start=b2, theta=(1, 1), factors=(Factor(1, power=-1),), first=1
        )
        raw = series.sum(inner, "theta")
        scale = root5 if apply_root5 else Decimal(1)
        scaled = scale * raw.value
        scaled_tail = scale * raw.tail_bound
    return _theta_result(scaled, scaled_tail, raw.terms_used, ctx)


def fib_odd_alt(ctx: RealContext) -> SeriesValue:
    """Alternate odd-index expression ``-sqrt(5)*beta*(sum_{n>=0} beta^(2n(n+1)))^2``.

    The inner sum is theta-class with even exponents; ``-sqrt(5)*beta`` is the
    positive scale ``(5 - sqrt(5))/2``.
    """
    inner = make_context(ctx.target_digits + 2)
    alpha, beta = _fib_roots(inner)
    with localcontext(inner.dec):
        b2 = beta * beta
        root5 = alpha - beta
        inner_sum = QTerm(b2, theta=(2, 2)).sum(inner, "theta")
        scale = -root5 * beta
        raw = scale * inner_sum.value * inner_sum.value
        raw_tail = scale * (2 * abs(inner_sum.value) + inner_sum.tail_bound)
        raw_tail *= inner_sum.tail_bound
    return _theta_result(raw, raw_tail, inner_sum.terms_used, ctx)
