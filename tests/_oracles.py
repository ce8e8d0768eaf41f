"""Frozen reference values for the test suite.

Every literal below was computed by an independent straight-line summation
(plain ``decimal`` arithmetic at 240 working digits, no package code) and is
trusted to at least 60 significant digits.  Cross-checks baked into the
set: the reciprocal sum of the (3, -2) recurrence equals the Lambert series
at 1/2 digit-for-digit (both are sums of 1/(2**n - 1)), and the even plus
odd Fibonacci splits reproduce PSI to the last digit.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

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
