"""Reciprocal sums of Horadam (Fibonacci-type) integer sequences.

A Horadam sequence is the integer recurrence

    ``f_0 = 0, f_1 = 1, f_n = m1*f_{n-1} + m2*f_{n-2}``

with ``m1 >= 1``, ``m2 != 0`` and positive discriminant
``delta = m1^2 + 4*m2``.  With roots ``alpha > |beta|`` of
``z^2 = m1*z + m2``, the reciprocal sum ``sum_{n>=1} 1/f_n`` admits several
independent evaluation routes:

* direct summation of exact big-integer reciprocals (linear convergence),
* the fast route ``(alpha-beta) * (1/(alpha-1) + L(-beta/m2, -beta**2/m2))``
  through the theta-convergent generalized Lambert series: as ``alpha*beta
  = -m2``, its parameters are ``1/alpha`` and ``beta/alpha``,
* for the Fibonacci case, Gosper's exact-rational acceleration and the
  even/odd index splits
  ``sum 1/F_{2n} = sqrt(5)*(L(beta^2) - L(beta^4))`` and
  ``sum 1/F_{2n-1} = sqrt(5)/4 * (theta3(beta^2)^2 - theta3(beta)^2)``
  together with their theta-class alternate expressions.

All routes return :class:`~qlambert.qcore.SeriesValue` records so they can be
cross-checked pairwise at full precision.

The theta routes' parameters lie in the field ``Q(beta)``: ``-beta/m2``
and ``-beta**2/m2``, and ``beta``, ``beta**2`` and ``beta**4`` for the
splits, each formed by the same expression from a ``Decimal`` ``beta`` or
an exact one.  Above :data:`FIELD_FROM` working digits,
where ``delta`` is not a square, they are exact elements of it
(:func:`_exact_root`, :mod:`qlambert.quadratic`), for which the exact
kernel (:mod:`qlambert.exact`) makes one full-length product per index; a
square ``delta``, such as ``(1, 2)``, and every shorter sum keep ``Decimal``
roots.
The scale ``alpha - beta``, ``1/(alpha - 1)`` and ``sqrt(5)`` stay ``Decimal``
values, as do the roots of the naive route's majorant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

from .errors import DomainError
from .lambert import glambert_theta, lambert_theta
from .numerics import BigReal, RealContext, _require_int, make_context, sqrt
from .qcore import (
    Factor,
    QTerm,
    SeriesValue,
    ball,
    combine,
    product,
    sum_qterm,
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

#: Float logs of Gosper's tail bound (:func:`fib_recip_gosper`), and its
#: relative margin.
_LOG10_PHI = math.log10((1 + math.sqrt(5)) / 2)
_LOG10_5 = math.log10(5)
_LOG_MARGIN = 2.0**-46


@dataclass(frozen=True)
class HoradamSequence:
    """Integer recurrence ``f_n = m1*f_{n-1} + m2*f_{n-2}``, ``f_0=0, f_1=1``.

    Its roots satisfy ``alpha > |beta| > 0`` and ``alpha > 1``: ``alpha +
    beta = m1 > 0`` and ``alpha - beta = sqrt(delta) > 0`` give ``alpha >
    |beta|``, ``alpha*beta = -m2 != 0`` gives ``beta != 0``, and ``alpha**2 >
    alpha*|beta| = |m2| >= 1``.  So ``f_n = (alpha**n - beta**n)/(alpha -
    beta)`` is never 0 for ``n >= 1``.

    Attributes:
        m1: Linear coefficient, a positive integer.
        m2: Constant coefficient, a nonzero integer.

    Raises:
        DomainError: if the coefficients are out of range or the
            discriminant ``m1^2 + 4*m2`` is not positive (complex roots).
    """

    m1: int
    m2: int

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


def horadam_term(seq: HoradamSequence, n: int) -> int:
    """Exact big-integer term ``f_n`` of the sequence, by the recurrence
    from ``f_0`` and ``f_1``."""
    _require_int("term index", n, 0)
    previous, current = 0, 1
    for _ in range(n):
        previous, current = current, seq.m1 * current + seq.m2 * previous
    return previous


#: The Fibonacci sequence, whose roots the Fibonacci splits read.
_FIBONACCI = HoradamSequence(1, 1)


def fibonacci(n: int) -> int:
    """Exact Fibonacci number ``F_n``."""
    _require_int("Fibonacci index", n, 0)
    return horadam_term(_FIBONACCI, n)


def lucas_G(n: int) -> int:
    """Lucas number ``G_n = 2*F_{n-1} + F_n`` for ``n >= 1``."""
    _require_int("Lucas index", n, 1)
    return 2 * fibonacci(n - 1) + fibonacci(n)


#: Working precisions at or below this one keep ``Decimal`` roots
#: (:func:`_exact_root`): there the exact kernel's multipliers in the field
#: and wider combinations cost more than the full-length products they save.
#: Alternating the two kernels call by call, the field path took 1.3 to
#: 1.7 times as long at 300 digits over (1, 1), (2, 1), (1, 3), (3, 2),
#: (4, -1) and ``split``, up to 1.08 (``split``) at 600, and at most 1.01 from
#: 650 digits (about 695 working digits) on.
FIELD_FROM = 700


def _exact_root(seq: HoradamSequence, ctx: RealContext) -> BigReal | None:
    """``beta`` as an exact element of ``Q(beta)``
    (:class:`qlambert.quadratic.Quadratic`), which the sums keep exact,
    above :data:`FIELD_FROM` working digits and where ``delta`` is not a
    square; otherwise None."""
    if ctx.working_digits <= FIELD_FROM or math.isqrt(seq.delta) ** 2 == seq.delta:
        return None
    # Imported on first use: the other routes never need it.
    from .quadratic import root

    with localcontext(ctx.dec):
        return root(seq.m1, seq.m2)


def recip_sum_naive(seq: HoradamSequence, ctx: RealContext) -> SeriesValue:
    """Direct reciprocal sum ``sum_{n>=1} 1/f_n`` (linear convergence).

    The terms are the reciprocals of the exact ints ``f_n``, which the term
    advances by the recurrence from ``(f_0, f_1)``, one index per call.
    Their majorant is that of ``1/f_n = (alpha-beta) alpha^(-n) / (1 -
    r^n)`` with ``r = beta/alpha``: ``(1/alpha) * (1 + |r|^n)/(1 -
    |r|^(n+1))`` bounds ``|f_n/f_{n+1}|`` at every later index.  No ``f_n`` with ``n >= 1`` is 0
    (:class:`HoradamSequence`).
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

    # (f_{n-1}, f_n) at the next call, advanced by the recurrence itself.
    previous, current = 0, 1
    m1, m2 = seq.m1, seq.m2

    def term(n: int) -> BigReal:
        nonlocal previous, current
        value = 1 / Decimal(current)
        previous, current = current, m1 * current + m2 * previous
        return value

    return closed_form.sum(ctx, "naive", term=lambda _: term)


def recip_sum_fast(seq: HoradamSequence, ctx: RealContext) -> SeriesValue:
    """Fast reciprocal sum via the theta-convergent Lambert route.

    Evaluates ``(alpha-beta) * (1/(alpha-1) + L(-beta/m2, -beta**2/m2))``
    with the generalized Lambert series in its theta form, carrying two
    extra digits (plus headroom for the ``sqrt(delta)`` scale) internally.
    Where :func:`_exact_root` gives ``beta`` exactly, the series takes its
    parameters exactly.

    ``alpha > 1`` (:class:`HoradamSequence`), so ``1/(alpha - 1)`` is finite.

    Raises:
        DomainError: if ``|beta/alpha|`` is within ``1e-6`` of 1 (theta
            certification degenerates).
    """
    scale_headroom = (len(str(abs(seq.delta))) + 1) // 2
    inner = make_context(ctx.target_digits + 2 + scale_headroom)
    alpha, beta = seq.roots(inner)
    exact = _exact_root(seq, inner)
    root = beta if exact is None else exact
    with localcontext(inner.dec):
        x, q = -root / seq.m2, -root * root / seq.m2
        if abs(q) >= 1 - FAST_DEGENERACY_GAP:
            raise DomainError(
                f"fast route rejected: |beta/alpha| = {abs(q)} too close to 1"
            )
        lam = glambert_theta(x, q, inner)
        scale = alpha - beta
        parts = ((scale, ball(1 / (alpha - 1))), (scale, lam))
    return combine(parts, ctx, "theta")


@lru_cache(maxsize=8)
def _fib_inner(target_digits: int) -> tuple[RealContext, BigReal, BigReal]:
    """The context of ``target_digits + 2`` digits, ``beta``, exact where
    :func:`_exact_root` gives it, and ``sqrt(5)`` at its precision: computed
    once per digit count, so that the two halves of the split take one
    square root."""
    inner = make_context(target_digits + 2)
    alpha, beta = _FIBONACCI.roots(inner)
    exact = _exact_root(_FIBONACCI, inner)
    with localcontext(inner.dec):
        return inner, beta if exact is None else exact, alpha - beta


def fib_recip_gosper(N: int, ctx: RealContext) -> SeriesValue:
    """Gosper's accelerated partial sum for ``sum_{n>=1} 1/F_n``.

    Adds the first ``N`` terms of

        ``sum_{n>=0} (-1)^(n(n-1)/2) * (F_{4n+3} + (-1)^n F_{2n+2})
          / (F_{2n+1} F_{2n+2} G_1 G_3 ... G_{2n+1})``

    in exact integer arithmetic, rounding once at the end.  The sign
    ``(-1)^(n(n-1)/2)`` follows the period-4 pattern ``+,+,-,-``.  The
    Lucas product runs to ``G_{2n+1}``: stopped at ``G_{2n-1}``, six terms
    miss the constant by more than ``1e-3``.

    The partial sum is carried as ``P / Q``, unreduced: with ``b_n =
    F_{2n+1} F_{2n+2}``, ``G'_n`` the Lucas factor that term ``n`` adds and
    ``c_n`` its signed numerator, ``Q = prod b_k G'_k`` and ``B = prod b_k``
    over the terms so far, and each term is ``P <- P * b_n * G'_n + c_n *
    B``: long integers times short ones, no gcd.  The value is the same
    rational as the reduced sum, rounded once (:func:`_quotient`).  Term
    ``n`` reads ``F_{2n}``, ``F_{2n+1}``, ``F_{2n+2}``, ``F_{4n+2}`` and
    ``F_{4n+3}``, which the loop advances by the recurrence, the first three
    by two indices and the last two by four, ``F_{k+4} = 2 F_k + 3 F_{k+1}``
    and ``F_{k+5} = 3 F_k + 5 F_{k+1}``; ``G'_n = G_{2n+1} = 2 F_{2n} +
    F_{2n+1}``.

    The n-th term is at most ``5 phi^-((n+1)^2)`` in magnitude (README).
    The tail bound sums that bound over the terms left out: ``5 phi^-(M^2) /
    (1 - phi^-(2M+1))`` with ``M = N + 1``.  It is formed from float logs:
    ``log10 phi`` is taken a relative ``2**-46`` low, far past the errors of
    ``phi``'s float and of ``log10``, the sum of the logs is moved up by
    ``2**-46`` of its size and ``2**-48``, and ``10**`` of its fraction,
    times ``10**16``, up by ``2**-49``, past the three roundings that form
    it, before it is rounded up to the integer mantissa of the bound.
    """
    _require_int("term count", N, 1)
    P, Q, B = 0, 1, 1
    f_2n, f_2n1, f_2n2, f_4n2, f_4n3 = 0, 1, 1, 1, 2
    for n in range(N):
        b = f_2n1 * f_2n2
        step = b * (2 * f_2n + f_2n1)
        numerator = f_4n3 + (f_2n2 if n % 2 == 0 else -f_2n2)
        c = numerator if n % 4 in (0, 1) else -numerator
        P = P * step + c * B
        Q *= step
        B *= b
        f_2n, f_2n1, f_2n2 = f_2n2, f_2n1 + f_2n2, f_2n1 + 2 * f_2n2
        f_4n2, f_4n3 = 2 * f_4n2 + 3 * f_4n3, 3 * f_4n2 + 5 * f_4n3
    M = N + 1
    log_phi = _LOG10_PHI * (1 - _LOG_MARGIN)
    log_tail = _LOG10_5 - M * M * log_phi - math.log10(1 - 10 ** (-(2 * M + 1) * log_phi))
    log_tail += abs(log_tail) * _LOG_MARGIN + 2.0**-48
    whole = math.floor(log_tail)
    mantissa = math.ceil(10 ** (log_tail - whole) * 1e16 * (1 + 2.0**-49))
    with localcontext(ctx.dec):
        value = _quotient(P, Q, ctx)
        tail = Decimal(mantissa).scaleb(whole - 16) + ctx.tail_floor(value)
    return SeriesValue(
        value=value, terms_used=N, tail_bound=tail, method_tag="gosper"
    )


def _quotient(P: int, Q: int, ctx: RealContext) -> BigReal:
    """``P / Q``, ``Q > 0``, rounded half-even to the working precision: the
    value and representation of ``Decimal(P) / Decimal(Q)``, from one integer
    ``divmod`` and no conversion of ``P`` or ``Q``, which at 5000 digits hold
    three times the working digits.

    With ``k = prec - floor(log10(|P|/Q))`` from float logs, off by at most
    one, ``N = floor(|P| * 10**k / Q)`` has ``prec`` to ``prec + 2`` digits;
    each digit past ``prec`` moves into the remainder ``r / s``, which then
    rounds ``N``.  An exact quotient keeps no trailing zeros below the ideal
    exponent 0, as ``Decimal``'s division does.
    """
    if not P:
        return Decimal(0)
    prec, top = ctx.dec.prec, 10**ctx.dec.prec
    k = prec - math.floor(math.log10(abs(P)) - math.log10(Q))
    size, s = (abs(P) * 10**k, Q) if k >= 0 else (abs(P), Q * 10**-k)
    N, r = divmod(size, s)
    while N >= top:
        N, digit = divmod(N, 10)
        r, s, k = digit * s + r, 10 * s, k - 1
    if 2 * r > s or (2 * r == s and N % 2 == 1):
        N += 1
        if N == top:
            N, k = N // 10, k - 1
    elif not r:
        while k > 0 and N % 10 == 0:
            N, k = N // 10, k - 1
    return Decimal(N if P > 0 else -N).scaleb(-k, ctx.dec)


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
    inner, beta, root5 = _fib_inner(ctx.target_digits)
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
    inner, beta, root5 = _fib_inner(ctx.target_digits)
    with localcontext(inner.dec):
        quarter_root5 = root5 / 4
        parts = [
            (sign * quarter_root5, product(((theta3(b, inner), 2),), ctx, "theta"))
            for sign, b in ((1, beta * beta), (-1, beta))
        ]
    return combine(parts, ctx, "theta")


def fib_even_alt(ctx: RealContext) -> SeriesValue:
    """Alternate even-index expression ``sqrt(5)*sum_{n>=1} beta^(n(n+1))/(1-beta^(2n))``.

    The exponent ``n(n+1)`` is always even, so the summand is positive.  The
    test suite checks against a big-integer oracle that the sum reproduces
    the even-index reciprocal sum with the ``sqrt(5)`` scale, not without it.
    """
    inner, beta, root5 = _fib_inner(ctx.target_digits)
    raw = sum_qterm(_fib_even_series, (beta,), inner, "theta")
    return combine(((root5, raw),), ctx, "theta")


def _fib_even_series(beta: BigReal) -> QTerm:
    """``beta^(n(n+1))/(1-beta^(2n))``, ``n >= 1``."""
    b2 = beta * beta
    return QTerm(b2, start=b2, theta=(1, 1), factors=(Factor(1, power=-1),), first=1)


def fib_odd_alt(ctx: RealContext) -> SeriesValue:
    """Alternate odd-index expression ``-sqrt(5)*beta*(sum_{n>=0} beta^(2n(n+1)))^2``.

    The inner sum is theta-class with even exponents; ``-sqrt(5)*beta`` is the
    positive scale ``(5 - sqrt(5))/2``.
    """
    inner, beta, root5 = _fib_inner(ctx.target_digits)
    inner_sum = sum_qterm(_fib_odd_series, (beta,), inner, "theta")
    with localcontext(inner.dec):
        scale = ball(-root5 * beta)
    return product(((scale, 1), (inner_sum, 2)), ctx, "theta")


def _fib_odd_series(beta: BigReal) -> QTerm:
    """``beta^(2n(n+1))``, ``n >= 0``."""
    return QTerm(beta * beta, theta=(2, 2))
