"""q-Pochhammer symbols, the theta constant, the certified summation engine,
and the ball arithmetic (:func:`combine`, :func:`product`) of certified values.

A unilateral q-series is described once, by a :class:`QTerm`.  Its summands
are

    ``T_n = start * z**(n - first) * W_n * prod_j (c0_j - c1_j*q**(s_j*i + k_j))**e_j``

for ``n >= first``, where the optional theta weight has ``W_first = 1`` and
``W_{n+1} / W_n = q**(step*n + shift)`` (``q**(n**2)``-type decay), and each
:class:`Factor`, a numerator (``e_j = 1``) or a denominator (``e_j = -1``),
is either evaluated at ``i = n`` or accumulated as a q-Pochhammer product
over ``first <= i < n``.

:meth:`QTerm.generator` builds the ``TermGenerator(term, decay)`` that
:func:`sum_series` sums.  ``term`` keeps every power of ``q`` and every
product as a running value, one multiply per index.  ``decay.ratio_at(n)`` is
the product of per-factor bounds on ``|T_{m+1} / T_m|`` over all ``m >= n``:

* ``|z|`` and, with a theta weight, ``|q|**(step*n + shift)``;
* an evaluated numerator factor,
  ``(|c0| + |c1||q|**(s*(n+1)+k)) / (|c0| - |c1||q|**(s*n+k))``, and an
  evaluated denominator, ``(|c0| + |c1||q|**(s*n+k)) / (|c0| - |c1||q|**(s*(n+1)+k))``;
* a Pochhammer numerator, ``|c0| + |c1||q|**(s*n+k)``, and a Pochhammer
  denominator, ``1 / (|c0| - |c1||q|**(s*n+k))``.

The powers of ``|q|`` are running products too.  For ``|q| <= 1`` every
bound is non-increasing in ``n``, so ``ratio_at(n)`` majorises every later
term ratio, and the geometric tail bound ``|T_n| * rho / (1 - rho)`` with
``rho = ratio_at(n)`` is a true upper bound on the discarded remainder.
While some denominator bound is not positive, ``ratio_at`` returns 2 and
the engine keeps summing.

The engine sums the terms in increasing index order and stops as soon as
that tail bound drops below ``epsilon / 2``; the other half of the epsilon
budget is left for rounding accumulation.  An empirical guard cross-checks
the majorant: once past a burn-in of 16 terms, a term exceeding twice the
declared ratio counts as a violation, and 64 consecutive violations abort
the summation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from math import prod
from typing import Callable, Iterable, Protocol, Sequence

from .errors import DivergenceError, DomainError
from .numerics import BigReal, RealContext

_ONE = Decimal(1)
_TWO = Decimal(2)


def ipow(base: BigReal, exponent: int) -> BigReal:
    """``base ** exponent`` for integer exponents, with ``0 ** 0 == 1``."""
    if exponent == 0:
        return Decimal(1)
    return Decimal(base) ** exponent

#: Number of leading terms exempt from the decay guard.
GUARD_BURN_IN = 16
#: Consecutive decay violations after which the engine aborts.
GUARD_VIOLATION_LIMIT = 64
#: Minimum number of summand evaluations before the engine may stop.
MIN_TERMS = 2


@dataclass(frozen=True)
class SeriesValue:
    """Result of a truncated summation.

    Attributes:
        value: The accumulated sum at working precision.
        terms_used: Number of summand evaluations actually performed.
        tail_bound: Certified upper bound on the absolute truncation error
            (plus the rounding floor of the context).
        method_tag: Label of the evaluation route ("naive", "theta", ...).
    """

    value: BigReal
    terms_used: int
    tail_bound: BigReal
    method_tag: str


class Decay(Protocol):
    """Majorant of the term ratios, queried once per index in increasing order."""

    def ratio_at(self, n: int) -> BigReal:
        """A bound on ``|T_{m+1} / T_m|`` for every ``m >= n``."""


@dataclass(frozen=True)
class TermGenerator:
    """A summand stream with a declared decay majorant.

    ``term`` and ``decay.ratio_at`` are each called exactly once per index,
    in increasing order starting from the engine's ``start_index``;
    generators are therefore free to keep running-product state keyed to
    that order.
    """

    term: Callable[[int], BigReal]
    decay: Decay


@dataclass(frozen=True)
class Factor:
    """The factor ``(c0 - c1*q**(s*i + k)) ** power`` of a series term.

    ``power`` is 1 for a numerator and -1 for a denominator, and ``s >= 1``.
    An evaluated factor takes ``i = n``, the summand's own index; a
    ``pochhammer`` factor is the product over ``first <= i < n``.
    """

    c1: BigReal
    s: int = 1
    k: int = 0
    power: int = 1
    pochhammer: bool = False
    c0: BigReal = _ONE


@dataclass(frozen=True)
class QTerm:
    """One unilateral series: ``T_n`` for ``n >= first``, as in the module docstring.

    ``theta`` is ``(step, shift)`` for the weight with
    ``W_{n+1} / W_n = q**(step*n + shift)``, or None for no weight.
    """

    q: BigReal
    start: BigReal = _ONE
    z: BigReal = _ONE
    theta: tuple[int, int] | None = None
    factors: tuple[Factor, ...] = ()
    first: int = 0

    def generator(self) -> TermGenerator:
        """The summands and their majorant; call under the working context."""
        run = _Run(self)
        return TermGenerator(run.term, run)

    def sum(
        self, ctx: RealContext, method_tag: str, eps: BigReal | None = None
    ) -> SeriesValue:
        """:func:`sum_series` of this series from ``first``, to ``eps``."""
        with localcontext(ctx.dec):
            gen = self.generator()
        return sum_series(gen, self.first, ctx, method_tag, eps)


def sum_qterm(
    build: Callable[..., QTerm],
    params: Iterable[BigReal],
    ctx: RealContext,
    method_tag: str,
) -> SeriesValue:
    """Sum the series ``build(*params)``, built under the working context
    from the parameters rounded to working precision."""
    with localcontext(ctx.dec):
        series = build(*(+Decimal(value) for value in params))
    return series.sum(ctx, method_tag)


class _Run:
    """A :class:`QTerm`'s running products: ``term`` for the summands and
    ``ratio_at`` for their majorant, each advanced once per index."""

    def __init__(self, d: QTerm) -> None:
        q, q_hat = d.q, abs(d.q)
        # start * z**(n - first) * W_n * Pochhammer products, at the next n.
        self.coeff = +d.start
        self.z = None if d.z == 1 else d.z
        self.z_hat = abs(d.z)
        self.w = self.w_hat = None
        if d.theta is not None:
            step, shift = d.theta
            self.w, self.w_step = ipow(q, step * d.first + shift), ipow(q, step)
            self.w_hat, self.w_hat_step = abs(self.w), abs(self.w_step)
        # Factors share the running value c1*q**(s*i + k) of the summands, and
        # h = |c1|*|q|**(s*i + k) of the bounds |c0| +- h, taken at i = n
        # ("now") or i = n + 1 ("next"), wherever they can.
        values: dict[tuple[BigReal, int, int], int] = {}
        hats: dict[tuple[BigReal, int, int], int] = {}
        self.num, self.den, self.pnum, self.pden = [], [], [], []
        self.num_now, self.num_next, self.den_now, self.den_next = [], [], [], []
        for f in d.factors:
            j = values.setdefault((f.c1, f.s, f.k), len(values))
            kind = (self.pnum, self.pden) if f.pochhammer else (self.num, self.den)
            kind[f.power < 0].append((f.c0, j))
            bound = (abs(f.c0), hats.setdefault((abs(f.c1), f.s, f.k), len(hats)))
            if f.pochhammer:
                (self.den_now if f.power < 0 else self.num_now).append(bound)
            elif f.power < 0:
                self.num_now.append(bound)
                self.den_next.append(bound)
            else:
                self.num_next.append(bound)
                self.den_now.append(bound)
        self.u = [c1 * ipow(q, s * d.first + k) for c1, s, k in values]
        self.u_step = [ipow(q, s) for _, s, _ in values]
        self.h = [c1 * ipow(q_hat, s * d.first + k) for c1, s, k in hats]
        self.h_step = [ipow(q_hat, s) for _, s, _ in hats]

    def term(self, n: int) -> BigReal:
        u = self.u
        value = self.coeff
        for c0, j in self.num:
            value *= c0 - u[j]
        if self.den:
            value /= prod(c0 - u[j] for c0, j in self.den)
        coeff = self.coeff
        if self.z is not None:
            coeff *= self.z
        if self.w is not None:
            coeff *= self.w
            self.w *= self.w_step
        for c0, j in self.pnum:
            coeff *= c0 - u[j]
        if self.pden:
            coeff /= prod(c0 - u[j] for c0, j in self.pden)
        self.coeff = coeff
        self.u = [a * b for a, b in zip(u, self.u_step)]
        return value

    def ratio_at(self, n: int) -> BigReal:
        h = self.h
        h_next = self.h = [a * b for a, b in zip(h, self.h_step)]
        rho = self.z_hat
        if self.w_hat is not None:
            rho *= self.w_hat
            self.w_hat *= self.w_hat_step
        den = _ONE
        for bounds, hats in ((self.den_now, h), (self.den_next, h_next)):
            for c0, j in bounds:
                factor = c0 - hats[j]
                if factor <= 0:
                    return _TWO
                den *= factor
        for c0, j in self.num_now:
            rho *= c0 + h[j]
        for c0, j in self.num_next:
            rho *= c0 + h_next[j]
        return rho / den


def sum_series(
    gen: TermGenerator,
    start_index: int,
    ctx: RealContext,
    method_tag: str = "series",
    eps: BigReal | None = None,
) -> SeriesValue:
    """Sum ``gen`` from ``start_index`` with a certified truncation bound.

    Stops at the first index (after at least :data:`MIN_TERMS` evaluations)
    where ``|T_n| * rho / (1 - rho) < eps / 2`` with ``rho = ratio_at(n) < 1``.
    The bound's rounding floor is taken at the largest partial sum: when the
    terms cancel, the rounding error scales with the sums they passed through.

    Raises:
        DivergenceError: if terms repeatedly exceed the declared decay, or
            the certification never triggers within the iteration budget.
    """
    target = (ctx.epsilon if eps is None else eps) / 2
    hard_cap = max(20_000, 600 * ctx.working_digits)
    with localcontext(ctx.dec):
        total = peak = Decimal(0)
        terms_used = 0
        violations = 0
        previous: BigReal | None = None
        previous_rho: BigReal | None = None
        n = start_index
        while True:
            t = gen.term(n)
            total += t
            peak = max(peak, abs(total))
            terms_used += 1
            rho = gen.decay.ratio_at(n)
            if previous is not None and terms_used > GUARD_BURN_IN:
                allowed = 2 * previous_rho * abs(previous)
                if abs(t) > allowed:
                    violations += 1
                    if violations >= GUARD_VIOLATION_LIMIT:
                        raise DivergenceError(
                            f"terms violated the declared decay near index {n}"
                        )
                else:
                    violations = 0
            if terms_used >= MIN_TERMS and rho < 1:
                tail = abs(t) * rho / (1 - rho)
                if tail < target:
                    return SeriesValue(
                        value=total,
                        terms_used=terms_used,
                        tail_bound=tail + ctx.tail_floor(peak),
                        method_tag=method_tag,
                    )
            previous = t
            previous_rho = rho
            n += 1
            if terms_used > hard_cap:
                raise DivergenceError(
                    f"series failed to certify within {hard_cap} terms"
                )


def ball(value: BigReal, radius: BigReal = 0) -> SeriesValue:
    """The value ``value`` known to within ``radius``, from no summation.

    With ``radius = 0`` it is an exact constant, a part of :func:`combine`
    or :func:`product` like any certified sum.
    """
    return SeriesValue(value, 0, Decimal(radius), "ball")


def combine(
    parts: Sequence[tuple[BigReal, SeriesValue]], ctx: RealContext, method_tag: str
) -> SeriesValue:
    """The certified sum ``sum_i c_i * S_i`` of ``parts``, pairs ``(c_i, S_i)``.

    The coefficients are exact; a constant term enters as a part (see
    :func:`ball`).  The tail bound is ``sum_i |c_i| * tail_i`` plus the rounding floor of the
    largest addend ``|c_i * S_i|``; ``terms_used`` is the sum over the parts.
    """
    with localcontext(ctx.dec):
        addends = [c * part.value for c, part in parts]
        value = sum(addends)
        tail = sum(abs(c) * part.tail_bound for c, part in parts)
        tail += ctx.tail_floor(max(map(abs, addends)))
    terms = sum(part.terms_used for _, part in parts)
    return SeriesValue(value, terms, tail, method_tag)


def product(
    parts: Sequence[tuple[SeriesValue, int]], ctx: RealContext, method_tag: str
) -> SeriesValue:
    """The certified product ``prod_i S_i ** k_i`` of ``parts``, pairs ``(S_i, k_i)``.

    Midpoint-radius ("ball") arithmetic, valid to all orders: with ``e`` the
    tail of a factor ``v``, a product ``(m, r)`` becomes
    ``(m*v, |m|*e + r*(|v| + e))``, and a divisor is first the ball
    ``(1/v, e/(|v|*(|v| - e)))``.  The rounding floor of the result is added
    once at the end; ``terms_used`` is the sum over the parts.

    Raises:
        DivergenceError: if a divisor's ball contains 0 (``e >= |v|``).
    """
    with localcontext(ctx.dec):
        value, tail = _ONE, Decimal(0)
        for part, exponent in parts:
            v, e = part.value, part.tail_bound
            if exponent < 0:
                size = abs(v)
                if e >= size:
                    raise DivergenceError(
                        f"divisor {v:E} is not certified away from 0 (tail {e:E})"
                    )
                v, e = 1 / v, e / (size * (size - e))
            for _ in range(abs(exponent)):
                value, tail = value * v, abs(value) * e + tail * (abs(v) + e)
        tail += ctx.tail_floor(value)
    terms = sum(part.terms_used for part, _ in parts)
    return SeriesValue(value, terms, tail, method_tag)


def sum_bracketed(
    series: QTerm,
    bracket: Callable[[BigReal], BigReal],
    ctx: RealContext,
    method_tag: str,
    eps: BigReal | None = None,
) -> SeriesValue:
    """:func:`sum_series` of the theta weight of ``series`` times ``bracket(q**n)``.

    ``bracket(q**n)`` must equal the product of the factors of ``series`` at
    ``n``, so that the summands are those of ``series`` and are certified by
    its majorant.  ``bracket`` is called once per index, in increasing order.
    """
    q = series.q
    with localcontext(ctx.dec):
        weight = replace(series, factors=()).generator()
        q_pow = ipow(q, series.first)

        def term(n: int) -> BigReal:
            nonlocal q_pow
            value = weight.term(n) * bracket(q_pow)
            q_pow *= q
            return value

        gen = TermGenerator(term, series.generator().decay)
    return sum_series(gen, series.first, ctx, method_tag, eps)


def qpochhammer_n(a: BigReal, q: BigReal, n: int, ctx: RealContext) -> BigReal:
    """Finite q-Pochhammer product ``(a;q)_n = (1-a)(1-aq)...(1-aq^(n-1))``.

    ``n = 0`` returns exactly 1.
    """
    if n < 0:
        raise DomainError("qpochhammer_n requires n >= 0")
    with localcontext(ctx.dec):
        product = Decimal(1)
        factor_arg = Decimal(a)
        for _ in range(n):
            product *= 1 - factor_arg
            factor_arg *= q
        return product


def qpochhammer_inf(a: BigReal, q: BigReal, ctx: RealContext) -> SeriesValue:
    """Infinite q-Pochhammer product ``(a;q)_inf`` for ``|q| < 1``.

    Truncates at the first ``N`` where ``|a|*|q|**N < epsilon/4`` and the
    logarithm-based tail estimate (from ``|log(1-u)| <= 2|u|`` for
    ``|u| <= 1/2``) certifies the remaining factors to within ``epsilon/2``.
    """
    q = Decimal(q)
    a = Decimal(a)
    if abs(q) >= 1:
        raise DomainError("qpochhammer_inf requires |q| < 1")
    with localcontext(ctx.dec):
        quarter = ctx.epsilon / 4
        half = ctx.epsilon / 2
        q_hat = abs(q)
        product = Decimal(1)
        factor_arg = a
        factors = 0
        while True:
            u = abs(factor_arg)
            if u < quarter and u <= Decimal("0.5"):
                log_tail = 2 * u / (1 - q_hat)
                tail = abs(product) * 2 * log_tail
                if tail < half:
                    return SeriesValue(
                        value=product,
                        terms_used=factors,
                        tail_bound=tail + ctx.tail_floor(product),
                        method_tag="product",
                    )
            product *= 1 - factor_arg
            factor_arg *= q
            factors += 1
            if factors > max(20_000, 600 * ctx.working_digits):
                raise DivergenceError("infinite product failed to certify")


def theta3(q: BigReal, ctx: RealContext) -> SeriesValue:
    """Jacobi theta constant ``Theta_3(q) = 1 + 2 * sum_{n>=1} q**(n**2)``.

    The sum is certified to ``epsilon/4``, so the doubled tail stays within
    ``epsilon/2``.

    Raises:
        DomainError: unless ``|q| < 1``.
    """
    q = Decimal(q)
    if abs(q) >= 1:
        raise DomainError("theta3 requires |q| < 1")
    series = QTerm(q, start=q, theta=(2, 1), first=1)
    sv = series.sum(ctx, "theta", eps=ctx.epsilon / 2)
    return combine(((1, ball(_ONE)), (2, sv)), ctx, "theta")
