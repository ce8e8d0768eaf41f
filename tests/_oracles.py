"""Frozen reference values and reference computations for the test suite.

Every literal below was computed by an independent straight-line summation
(plain ``decimal`` arithmetic at 240 working digits, no package code) and is
trusted to at least 60 significant digits.  Cross-checks baked into the
set: the reciprocal sum of the (3, -2) recurrence equals the Lambert series
at 1/2 digit-for-digit (both are sums of 1/(2**n - 1)), and the even plus
odd Fibonacci splits reproduce PSI to the last digit.

:func:`sum_series_per_index` is the summation loop that runs every test of
the engine at every index, the reference for :func:`qlambert.qcore.sum_series`.
:func:`pole_scan_distances` walks ``x*q**n`` one index at a time, the
reference for :func:`qlambert.lambert._pole_scan`, and
:func:`product_factor_count_walk` walks ``|q|**M`` the same way, the reference
for :func:`qlambert.gospermat.product_factor_count`.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import floor, inf, ldexp, log10

from qlambert.errors import DivergenceError
from qlambert.qcore import (
    _FLOOR_LOG2_MIN,
    _LOG2_10,
    _LOG2_ZERO,
    _LOW_CAP,
    _MUL_CLIFF,
    _NOT_YET,
    _SHRINK_DOWN,
    _TAIL_UP,
    _TARGET_DOWN,
    GUARD_BURN_IN,
    GUARD_VIOLATION_LIMIT,
    MIN_TERMS,
    TAPER_FROM,
    TAPER_MIN_PREC,
    SeriesValue,
    _below,
    _pow2_floor,
    _term_cap,
    ipow,
)
from qlambert.numerics import as_decimal

#: Reciprocal Fibonacci constant, sum of 1/F_n for n >= 1.
PSI = Decimal("3.3598856662431775531720113029189271796889051337319684864955538")

#: Reciprocal Pell constant (m1=2, m2=1).
PELL = Decimal("1.8422030498275285807923715832798083890052702118543766768166926")

#: Reciprocal sum for the Jacobsthal-like recurrence (m1=1, m2=2).
JACOBSTHAL = Decimal(
    "2.7185916119277235269503414648674298446113554545224307668917783"
)

RECIP_3_1 = Decimal(
    "1.4767947263188873180011826066609759912939348007661661270718085"
)
RECIP_3_2 = Decimal(
    "1.4598865461118274405206777319578272054297089234121964987412737"
)
RECIP_2_3 = Decimal(
    "1.7174878229259267911788045638753402692466018049649089929911166"
)
RECIP_4_M3 = Decimal(
    "1.3643070052104761335225263724532480192983804966538068384565157"
)

#: Sum of 1/(2**n - 1): the (3, -2) recurrence's terms are 2**n - 1, and the
#: same number is the Lambert series at q = 1/2.
LAMBERT_HALF = Decimal(
    "1.6066951524152917637833015231909245804805796715057564357780796"
)

LAMBERT_3_10 = Decimal(
    "0.56686583469627356454886957624703063823508953686859922955415884"
)
LAMBERT_1_10 = Decimal(
    "0.12232424342624452626442834462826444924482826643036462848443225"
)
LAMBERT_MINUS_HALF = Decimal(
    "-0.064001831909060287724798712353717183614235812192579446418751176"
)

#: Even-index Fibonacci reciprocals, sum of 1/F_{2n} for n >= 1.
FIB_EVEN = Decimal(
    "1.5353705088362529850298528966515990063670115910711385632352637"
)

#: Odd-index Fibonacci reciprocals, sum of 1/F_{2n+1} for n >= 0.
FIB_ODD = Decimal(
    "1.8245151574069245681421584062673281733218935426608299232602902"
)

THETA3_1_10 = Decimal(
    "1.2002000020000002000000002000000000020000000000002000000000000"
)
THETA3_M2_5 = Decimal(
    "0.25067657076828866330105847733547761410008027279021417727926089"
)

#: theta3 at the negative golden-ratio conjugate beta = (1 - sqrt 5)/2.
THETA3_BETA = Decimal(
    "0.030311200785326732259319008478612929683804674332987158800480195"
)
THETA3_BETA_SQ = Decimal(
    "1.8068510462253213088194287136163153459921516427441813040568704"
)

#: sum over n >= 1 of (1/2)**(n*n).
THETA_SUM_HALF = Decimal(
    "0.56446841360593857933472927427247566230625826997043904644450560"
)

#: f(x=0.3, t=0.2, q=0.5) = sum over n >= 0 of t**n/(1 - x q**n).
QXT_POINT = Decimal(
    "1.7174544142333825307759548340654013884236192308234089322406209"
)

#: q-Pochhammer (1/2; 1/2)_inf.
POCH_HALF_INF = Decimal(
    "0.28878809508660242127889972192923078008891190484068578411474107"
)

#: q-Pochhammer (3/10; -1/2)_inf (alternating-q exercise).
POCH_NEG_Q_INF = Decimal(
    "0.76277137555508629417823863936275616309474429860995114845848502"
)

#: Bilateral Jordan-Kronecker sums at two generic points.
JORDAN_A = Decimal(
    "2.1099414929680489170384257203603219519208113427736500148302109"
)  # x=0.5, t=0.6, q=0.2
JORDAN_B = Decimal(
    "3.0393437949726335702382188786349566129831812518917803095033599"
)  # x=0.4, t=0.7, q=0.15

#: (1-t) * F(a,b;t) at a=0.2, b=0.4, t=0.3, q=0.5.  At this point b = a/q,
#: the Pochhammer quotient telescopes, and the value is exactly 71/68.
with localcontext(prec=300):
    FINE_TELESCOPED = Decimal(71) / Decimal(68)

#: (1-t) * F(a,b;t) at the generic point a=0.2, b=0.35, t=0.3, q=0.5.
FINE_GENERIC = Decimal(
    "1.0320146123511971145968220688356527643056561738290446379502921"
)

#: Generalized Lambert series L(x, q) = sum_{n>=1} x q**n/(1 - x q**n).
GLAMBERT_A = Decimal(
    "0.33448912603265712814206135489117564192048625766277186023596665"
)  # x=0.3, q=0.5
GLAMBERT_B = Decimal(
    "-0.84321490025857632356189114963891635021192869838947826830549550"
)  # x=-0.7, q=0.6

#: sum_{n>=1} x**n q**n/(1 - q**n) at x=0.5, q=0.3.
WRENCH_POINT = Decimal(
    "0.24307955868489831123490594595281197182206121848879651745288561"
)


def gosper_partial_sum(count: int, lucas_shift: int = 0) -> Fraction:
    """The first ``count`` terms of Gosper's series for ``PSI``, exactly, from
    a Fibonacci list of its own.  Term ``n``'s Lucas product runs to
    ``L_{2n+1-lucas_shift}``: ``lucas_shift=2`` stops it at ``L_{2n-1}``,
    one factor short of the index correction."""
    fib = [0, 1]
    while len(fib) < 4 * count + 4:
        fib.append(fib[-1] + fib[-2])
    total, lucas = Fraction(0), 1
    for n in range(count):
        m = 2 * n + 1 - lucas_shift
        if m >= 1:
            lucas *= 2 * fib[m - 1] + fib[m]
        numerator = fib[4 * n + 3] + (-1) ** n * fib[2 * n + 2]
        sign = 1 if n % 4 in (0, 1) else -1
        total += Fraction(sign * numerator, fib[2 * n + 1] * fib[2 * n + 2] * lucas)
    return total


def fib_even_alt_unscaled(digits: int) -> Decimal:
    """``sum_{n>=1} beta**(n*(n+1)) / (1 - beta**(2*n))`` with ``beta = (1 -
    sqrt 5)/2``, the even-index alternate form without its ``sqrt(5)`` scale,
    summed in plain ``decimal`` arithmetic at ``digits + 10`` digits until a
    summand drops below ``10**-(digits + 5)``."""
    with localcontext(prec=digits + 10):
        beta_sq = ((1 - Decimal(5).sqrt()) / 2) ** 2
        total, n = Decimal(0), 1
        while True:
            summand = beta_sq ** (n * (n + 1) // 2) / (1 - beta_sq**n)
            if summand < Decimal(1).scaleb(-(digits + 5)):
                return +total
            total += summand
            n += 1


def sum_series_per_index(gen, start_index, ctx, method_tag="series", eps=None) -> SeriesValue:
    """:func:`qlambert.qcore.sum_series` as a loop that runs the decay guard
    at every index past the burn-in and the taper rule at every index: each
    summand, stop, bound, precision and guard decision of the engine is
    this loop's."""
    target = (ctx.epsilon if eps is None else eps) / 2
    wd = ctx.working_digits
    hard_cap = _term_cap(wd)
    fewest = TAPER_MIN_PREC if wd > TAPER_FROM else wd
    prec, reserve = wd, 2 * len(str(hard_cap)) - 1
    latched = fewest == wd
    term, ratio_at = gen.term, gen.decay.ratio_at
    const, slope = getattr(gen.decay, "log2_floor", (_LOG2_ZERO, 0.0))
    lowest = 0.0 if slope else min(_pow2_floor(const), _NOT_YET)
    low = min(lowest, _LOW_CAP)
    with localcontext(ctx.dec) as local:
        target_e = target.adjusted()
        limit = int(target.scaleb(16 - target_e)) * _TARGET_DOWN
        reach = target_e + 2 - log10(low / (1 - low)) if low else inf
        shrink = Decimal(ldexp(floor(ldexp(2 * lowest * _SHRINK_DOWN, 20)), -20))
        unit = shrink >= 1
        total = peak = Decimal(0)
        terms_used = 0
        violations = 0
        previous_size = previous_m = previous_rho = None
        previous_e = 0
        n = start_index
        while True:
            if prec < wd:
                local.prec = prec
                t = term(n)
                local.prec = wd
            else:
                t = term(n)
            total += t
            partial = total.copy_abs()
            if partial > peak:
                peak = partial
            terms_used += 1
            rho = None if latched else ratio_at(n)
            latched = latched or rho < 1
            e, m, size = t.adjusted(), None, t.copy_abs()
            if terms_used > GUARD_BURN_IN:
                if (unit and size <= previous_size) or (
                    shrink and size <= shrink * previous_size
                ):
                    violations = 0
                else:
                    if previous_m is None:
                        previous_m = int(previous_size.scaleb(16 - previous_e))
                    m, k = int(size.scaleb(16 - e)), e - previous_e
                    if previous_rho is None:
                        floor_prev = min(_pow2_floor(const + (n - 1) * slope), _NOT_YET)
                        if _below(2 * floor_prev * previous_m, m, k):
                            previous_rho = ratio_at(n - 1)
                    if previous_rho is not None and _below(2 * previous_rho * previous_m, m, k):
                        violations += 1
                        if violations >= GUARD_VIOLATION_LIMIT:
                            raise DivergenceError(
                                f"terms violated the declared decay near index {n}"
                            )
                    else:
                        violations = 0
            if slope:
                x = const + n * slope
                reach = target_e + 2 - x / _LOG2_10 if x > _FLOOR_LOG2_MIN else inf
            if terms_used >= MIN_TERMS and (e <= reach or not t):
                if rho is None:
                    rho = ratio_at(n)
                if rho < 1:
                    if m is None:
                        m = int(size.scaleb(16 - e))
                    tail = m * rho / (1 - rho) * _TAIL_UP
                    if _below(tail, limit, target_e - e):
                        return SeriesValue(
                            value=total,
                            terms_used=terms_used,
                            tail_bound=Decimal(tail).scaleb(e - 16) + ctx.tail_floor(peak),
                            method_tag=method_tag,
                        )
            if prec > fewest and latched and t:
                lower = max(fewest, wd + e + 1 + reserve - peak.adjusted())
                if lower < prec and (wd <= _MUL_CLIFF or 2 * lower <= wd):
                    prec = lower
            previous_size, previous_e, previous_m, previous_rho = size, e, m, rho
            n += 1
            if terms_used > hard_cap:
                raise DivergenceError(f"series failed to certify within {hard_cap} terms")


def pole_scan_distances(x, q, ctx, first_index) -> list:
    """``|1 - x*q**n|`` for ``n`` from ``first_index`` while ``|x*q**n| >= 1/2``,
    up to the first within ``ctx.pole_tolerance()``: a pole.  ``x*q**n``
    advances by one rounded product per index, so for ``|q|`` near 1 the
    walk takes about ``ln(2|x|) / (1 - |q|)`` steps."""
    tol = ctx.pole_tolerance()
    x, q = as_decimal(x, ctx), as_decimal(q, ctx)
    distances = []
    with localcontext(ctx.dec):
        xqn = x * ipow(q, first_index)
        while 2 * abs(xqn) >= 1:
            distances.append(abs(1 - xqn))
            if distances[-1] <= tol:
                break
            xqn *= q
    return distances


def product_factor_count_walk(q, ctx) -> int:
    """The matrix products' factor count by a walk: ``M + 8``, ``M`` the
    least count whose running product of ``|q|``, rounded at each step, is
    below ``epsilon``; the reference for
    :func:`qlambert.gospermat.product_factor_count`.  It takes about
    ``target_digits * ln 10 / (1 - |q|)`` steps."""
    q = as_decimal(q, ctx)
    with localcontext(ctx.dec):
        size = abs(q)
        count, running = 1, size
        while running >= ctx.epsilon:
            running *= size
            count += 1
    return count + 8
