"""Certified values against independent mpmath references.

The references are computed in mpmath at more digits than the values under
test, from definitions that share no code or expansion with the package.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlambert import (
    BilateralParams,
    HoradamSequence,
    QxtParams,
    fib_even_alt,
    fib_odd_alt,
    glambert_lhs,
    glambert_theta,
    jordan_direct,
    jordan_form1,
    jordan_form2,
    jordan_theta,
    lambert_naive,
    lambert_theta,
    make_context,
    parse_real,
    qpochhammer_inf,
    series_qxt_alt,
    series_qxt_lhs,
    series_qxt_rhs,
    theta3,
)
from qlambert import DomainError, PoleError, cli, exact, identities

mpmath = pytest.importorskip("mpmath")
mp, mpf = mpmath.mp, mpmath.mpf

#: Working digits of every reference: over twice the largest ``digits`` tested.
REFERENCE_DPS = 110


@lru_cache(maxsize=None)
def poch_inf_reference(a: str, q: str):
    """``(a;q)_inf`` as the product of the factors ``1 - a*q**i`` while
    ``|a*q**i| > 10**-3``, times the exponential of the logarithm of the rest,
    ``log (x;q)_inf = -sum_{k>=1} x**k / (k*(1 - q**k))`` for ``x = a*q**N``.

    mpmath's own ``qp`` raises ``NoConvergence`` near ``|q| = 1`` (for
    example at ``a = 0.9, q = -0.99``), and a plain product there would need
    hundreds of thousands of factors.  The series' terms fall by at least
    ``|x| <= 10**-3`` each, so it stops once a term is below ``10**-(dps+5)``.
    """
    with mp.workdps(REFERENCE_DPS):
        q_m, x = mpf(q), mpf(a)
        head = mpf(1)
        while abs(x) > mpf("1e-3"):
            head *= 1 - x
            x *= q_m
        log_rest, power, k = mpf(0), x, 1
        small = mpf(10) ** -(REFERENCE_DPS + 5)
        while True:
            term = power / (k * (1 - q_m**k))
            log_rest -= term
            if abs(term) < small:
                return head * mpmath.exp(log_rest)
            power *= x
            k += 1


def assert_certified(a: str, q: str, digits: int) -> None:
    """``|value - reference| <= tail_bound <= 10**-digits * max(1, |value|)``."""
    sv = qpochhammer_inf(Decimal(a), Decimal(q), make_context(digits))
    reference = poch_inf_reference(a, q)
    with mp.workdps(REFERENCE_DPS):
        value, tail = mpf(str(sv.value)), mpf(str(sv.tail_bound))
        assert abs(value - reference) <= tail, (a, q, digits)
        assert tail <= mpf(10) ** -digits * max(1, abs(value)), (a, q, digits)


GRID_A = ("0", "0.3", "-0.3", "0.9", "-0.9", "1", "-1", "1.5", "5", "-5")
GRID_Q = ("0", "0.5", "-0.5", "0.9", "-0.9", "0.99", "-0.99", "0.999")


@pytest.mark.parametrize("digits", (30, 50))
@pytest.mark.parametrize("q", GRID_Q)
def test_poch_inf_grid_matches_the_reference(q: str, digits: int) -> None:
    for a in GRID_A:
        assert_certified(a, q, digits)


#: ``|q| = 1 - 10**-u`` for ``u`` in ``[0, 3]``, which crowds ``|q|`` toward 1.
near_unit_q = st.builds(
    lambda u, sign: sign * (1 - 10 ** -round(u, 3)),
    st.floats(0, 3),
    st.sampled_from((1, -1)),
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(a=st.floats(-6, 6), q=near_unit_q)
def test_poch_inf_near_unit_q_matches_the_reference(a: float, q: float) -> None:
    assert_certified(repr(a), repr(q), 30)


# ---------------------------------------------------------------------------
# theta3, lambert and glambert at 300 and 1000 digits, where the late
# summands are computed at fewer digits than the sum.

#: Digits of a reference beyond those under test.
EXTRA_DPS = 40
#: Guard digits of the direct sums.  A tail bound can be within a relative
#: 10**-11 of the true error (bilateral theta at the short point below), so
#: a reference must be right to its last digit, not only to within a few
#: thousand roundings of it.
GUARD_DPS = 20
ORACLE_Q = ("1/2", "-1/2", "0.7", "-0.7", "125/179")
ORACLE_X = ("0.6", "-115/191")


@lru_cache(maxsize=None)
def lambert_reference(x: str, q: str, dps: int):
    """The direct sum ``sum_{n>=1} x q^n / (1 - x q^n)`` to ``dps`` digits,
    carried with :data:`GUARD_DPS` more, from the strings of the evaluator's
    own inputs.  It stops at a term below ``10**-(dps+10)``; then
    ``|x q^n|`` is too, and the rest is about ``|q|/(1-|q|)`` times that
    term, below ``10**-(dps+9)`` here."""
    with mp.workdps(dps + GUARD_DPS):
        x_m, q_m = mpf(x), mpf(q)
        total, xqn = mpf(0), x_m
        small = mpf(10) ** -(dps + 10)
        while True:
            xqn *= q_m
            term = xqn / (1 - xqn)
            total += term
            if abs(term) < small:
                return total


def assert_oracle(sv, reference, digits: int) -> None:
    """``|value - reference| <= tail_bound <= 10**-digits * max(1, |value|)``,
    compared at enough digits to hold the value's working digits exactly."""
    with mp.workdps(digits + 2 * EXTRA_DPS):
        value, tail = mpf(str(sv.value)), mpf(str(sv.tail_bound))
        assert abs(value - reference) <= tail
        assert tail <= mpf(10) ** -digits * max(1, abs(value))


@pytest.mark.parametrize("q", ORACLE_Q)
def test_theta3_matches_jtheta_at_1000_digits(q: str) -> None:
    ctx = make_context(1000)
    q_dec = parse_real(q, ctx)
    with mp.workdps(1000 + EXTRA_DPS):
        reference = mpmath.jtheta(3, 0, mpf(str(q_dec)))
    assert_oracle(theta3(q_dec, ctx), reference, 1000)


@pytest.mark.parametrize(
    "evaluate, digits",
    [(lambert_theta, 1000), (lambert_naive, 300)],
    ids=["theta-1000", "naive-300"],
)
@pytest.mark.parametrize("q", ORACLE_Q)
def test_lambert_matches_the_direct_sum(q: str, evaluate, digits: int) -> None:
    ctx = make_context(digits)
    q_dec = parse_real(q, ctx)
    reference = lambert_reference("1", str(q_dec), digits + EXTRA_DPS)
    assert_oracle(evaluate(q_dec, ctx), reference, digits)


@pytest.mark.parametrize(
    "evaluate, digits",
    [(glambert_theta, 1000), (glambert_lhs, 300)],
    ids=["theta-1000", "naive-300"],
)
@pytest.mark.parametrize("x", ORACLE_X)
@pytest.mark.parametrize("q", ORACLE_Q)
def test_glambert_matches_the_direct_sum(q: str, x: str, evaluate, digits: int) -> None:
    ctx = make_context(digits)
    x_dec, q_dec = parse_real(x, ctx), parse_real(q, ctx)
    reference = lambert_reference(str(x_dec), str(q_dec), digits + EXTRA_DPS)
    assert_oracle(evaluate(x_dec, q_dec, ctx), reference, digits)


# ---------------------------------------------------------------------------
# qxt and the bilateral series at one short and one long rational point: a
# long rational (a prime denominator) reaches the evaluators as an exact
# Fraction, and the reference takes it exactly as ``mpf("p/r")``.

#: (x, t, q): one-digit decimals, and rationals with prime denominators.
QXT_POINTS = (("0.6", "0.5", "0.7"), ("-37/61", "29/59", "72/103"))
BILATERAL_POINTS = (("0.6", "-0.5", "0.2"), ("35/59", "-31/61", "21/103"))


def _sum_to(terms, dps: int):
    """The sum of ``terms``, stopped once a term is below ``10**-(dps+10)``;
    the rest is then below ``10**-(dps+9)`` at the points used here."""
    total, small = mpf(0), mpf(10) ** -(dps + 10)
    for term in terms:
        total += term
        if abs(term) < small:
            return total


@lru_cache(maxsize=None)
def qxt_reference(x: str, t: str, q: str, dps: int):
    """``sum_{n>=0} t^n / (1 - x q^n)``, directly, to ``dps`` digits."""
    with mp.workdps(dps + GUARD_DPS):
        x_m, t_m, q_m = mpf(x), mpf(t), mpf(q)

        def terms():
            tn, qn = mpf(1), mpf(1)
            while True:
                yield tn / (1 - x_m * qn)
                tn *= t_m
                qn *= q_m

        return _sum_to(terms(), dps)


@lru_cache(maxsize=None)
def bilateral_reference(x: str, t: str, q: str, dps: int):
    """``sum_{n in Z} t^n / (1 - x q^n)``, directly, to ``dps`` digits: the
    ``n >= 0`` half, and ``n = -m`` as ``(q/t)^m / (q^m - x)``."""
    with mp.workdps(dps + GUARD_DPS):
        x_m, t_m, q_m = mpf(x), mpf(t), mpf(q)

        def negative():
            ratio, qm = q_m / t_m, q_m
            power = ratio
            while True:
                yield power / (qm - x_m)
                power *= ratio
                qm *= q_m

        return qxt_reference(x, t, q, dps) + _sum_to(negative(), dps)


@pytest.mark.parametrize(
    "evaluate, digits",
    [(series_qxt_rhs, 1000), (series_qxt_alt, 1000), (series_qxt_lhs, 300)],
    ids=["theta-1000", "alt-1000", "naive-300"],
)
@pytest.mark.parametrize("point", QXT_POINTS, ids=["short", "long"])
def test_qxt_matches_the_direct_sum(point, evaluate, digits: int) -> None:
    ctx = make_context(digits)
    params = QxtParams(*(parse_real(value, ctx) for value in point))
    reference = qxt_reference(*point, digits + EXTRA_DPS)
    assert_oracle(evaluate(params, ctx), reference, digits)


# ---------------------------------------------------------------------------
# The theta forms where their summands cancel the most: the running values
# x*q**n and q**n of the theta brackets near -1, so that 1/(1 - x q^n) +
# 1/(1 - q^n) - 1 and 1 - 2/(1 - q^n) are small differences of terms near 1/2.

#: Digits of the cancellation checks, and of their references: 40 beyond the most.
CORNER_DIGITS = (30, 50, 300)
CORNER_DPS = max(CORNER_DIGITS) + EXTRA_DPS


@lru_cache(maxsize=None)
def corner_reference(x: str, q: str):
    """``sum_{n>=1} x q^n / (1 - x q^n)`` to :data:`CORNER_DPS` digits.

    Directly, the sum would take 800 000 terms at ``q = -0.999``.  So the
    terms with ``|x q^n| > 1/2`` are summed directly, and from the first
    ``N`` with ``|x q^N| <= 1/2`` on, each is expanded as ``sum_j (x
    q^n)^j`` and summed over ``n`` first: the rest is ``sum_{j>=1} w^j /
    (1 - q^j)``, ``w = x q^N``.  Its ``j``-th term is at least ``|w|^j / 2``,
    and what follows it at most ``|w|^j / (1 - |q|)``, so it stops at a term
    below ``10**-(CORNER_DPS + 10)`` with the rest below ``10**-(CORNER_DPS + 6)``
    at ``|q| <= 0.999``."""
    with mp.workdps(CORNER_DPS + GUARD_DPS):
        x_m, q_m = mpf(x), mpf(q)
        total, u = mpf(0), x_m * q_m
        while abs(u) > 0.5:
            total += u / (1 - u)
            u *= q_m
        small = mpf(10) ** -(CORNER_DPS + 10)
        power, q_power = u, q_m
        while True:
            term = power / (1 - q_power)
            total += term
            if abs(term) < small:
                return total
            power *= u
            q_power *= q_m


@pytest.mark.parametrize("digits", CORNER_DIGITS)
@pytest.mark.parametrize("x, q", [("0.99", "-0.99"), ("0.999", "-0.999")])
def test_glambert_theta_where_its_bracket_cancels(x: str, q: str, digits: int) -> None:
    ctx = make_context(digits)
    sv = glambert_theta(parse_real(x, ctx), parse_real(q, ctx), ctx)
    assert_oracle(sv, corner_reference(x, q), digits)


@pytest.mark.parametrize("digits", CORNER_DIGITS)
@pytest.mark.parametrize("q", ["-0.99", "-0.999"])
def test_lambert_theta_where_its_ratio_cancels(q: str, digits: int) -> None:
    ctx = make_context(digits)
    assert_oracle(lambert_theta(parse_real(q, ctx), ctx), corner_reference("1", q), digits)


@pytest.mark.parametrize("digits", CORNER_DIGITS)
def test_qxt_theta_where_its_bracket_cancels(digits: int) -> None:
    point = ("-0.99", "-0.98", "0.5")
    ctx = make_context(digits)
    params = QxtParams(*(parse_real(value, ctx) for value in point))
    assert_oracle(series_qxt_rhs(params, ctx), qxt_reference(*point, CORNER_DPS), digits)


@pytest.mark.parametrize(
    "evaluate, digits",
    [
        (jordan_theta, 1000),
        (jordan_form1, 1000),
        (jordan_form2, 1000),
        (jordan_direct, 300),
    ],
    ids=["theta-1000", "form1-1000", "form2-1000", "direct-300"],
)
@pytest.mark.parametrize("point", BILATERAL_POINTS, ids=["short", "long"])
def test_bilateral_matches_the_direct_sum(point, evaluate, digits: int) -> None:
    ctx = make_context(digits)
    params = BilateralParams(*(parse_real(value, ctx) for value in point))
    reference = bilateral_reference(*point, digits + EXTRA_DPS)
    assert_oracle(evaluate(params, ctx), reference, digits)


#: A long point at which the int pairs of the theta sides, which ``form1``
#: and ``form2`` sum with exact parameters, give way to ``Decimal`` running
#: values mid-sum at 300 digits (``test_bilateral``).
BRACKET_SWITCH_POINT = ("91/97", "-96/101", "80/89")


@pytest.mark.parametrize("evaluate", [jordan_form1, jordan_form2], ids=["form1", "form2"])
def test_bracket_switch_point_matches_the_direct_sum(evaluate) -> None:
    ctx = make_context(300)
    params = BilateralParams(*(parse_real(value, ctx) for value in BRACKET_SWITCH_POINT))
    reference = bilateral_reference(*BRACKET_SWITCH_POINT, 300 + EXTRA_DPS)
    assert_oracle(evaluate(params, ctx), reference, 300)


# ---------------------------------------------------------------------------
# The product sides of fine-16.3 and gosper-poch, and their (a;q)_inf, at the
# verify points where each once needed re-running at more digits: each part
# now takes its digits from the magnitudes of the others before it is summed.

#: Trials of ``verify --all --seed 42 --digits 50`` whose product side (and,
#: at trial 83, the gosper-poch series side too) once re-ran at more digits.
#: Each takes the first draw of its substream.
RERUN_TRIALS = {
    "fine-16.3": (34, 41, 49, 78, 89, 90, 92, 95, 97),
    "gosper-poch": (
        2, 5, 10, 11, 12, 13, 29, 32, 34, 35, 51, 54,
        56, 57, 58, 59, 60, 74, 77, 78, 80, 81, 83, 98,
    ),
}
VERIFY_DIGITS = 50
VERIFY_DPS = VERIFY_DIGITS + EXTRA_DPS


def rerun_points(name: str) -> list[dict]:
    ctx = make_context(VERIFY_DIGITS)
    entry = identities.get_entry(name)
    return [
        identities._draw_point(entry, identities._Rng(42 + trial), ctx)
        for trial in RERUN_TRIALS[name]
    ]


def fine_163_reference(p: dict):
    """``((aq;q)_inf/(bq;q)_inf) sum_n ((b/a;q)_n/(q;q)_n) (aq)^n/(1-t q^n)``,
    the products by ``mpmath.qp`` and the sum directly, with
    :data:`GUARD_DPS` guard digits."""
    with mp.workdps(VERIFY_DPS + GUARD_DPS):
        a, b, t, q = (mpf(str(p[name])) for name in "abtq")

        def terms():
            coefficient, qn = mpf(1), mpf(1)
            while True:
                yield coefficient / (1 - t * qn)
                coefficient *= (1 - b / a * qn) / (1 - qn * q) * a * q
                qn *= q

        series = _sum_to(terms(), VERIFY_DPS)
        return mpmath.qp(a * q, q) / mpmath.qp(b * q, q) * series


def gosper_poch_reference(p: dict):
    """``((t;q)_inf (x;q)_inf / (q;q)_inf) sum_n t^n/(x;q)_{n+1}``, the value
    of both gosper-poch sides."""
    with mp.workdps(VERIFY_DPS + GUARD_DPS):
        x, t, q = (mpf(str(p[name])) for name in "xtq")

        def terms():
            tn, denominator, xqn = mpf(1), 1 - x, x
            while True:
                yield tn / denominator
                tn *= t
                xqn *= q
                denominator *= 1 - xqn

        series = _sum_to(terms(), VERIFY_DPS)
        return mpmath.qp(t, q) * mpmath.qp(x, q) / mpmath.qp(q, q) * series


def assert_within_epsilon(sv, reference) -> None:
    """``|value - reference| <= tail_bound <= 10**-50``."""
    with mp.workdps(VERIFY_DPS + GUARD_DPS):
        value, tail = mpf(str(sv.value)), mpf(str(sv.tail_bound))
        assert abs(value - reference) <= tail
        assert tail <= mpf(10) ** -VERIFY_DIGITS


@pytest.mark.parametrize(
    "name, reference, sides",
    [
        ("fine-16.3", fine_163_reference, slice(1, 2)),
        ("gosper-poch", gosper_poch_reference, slice(0, 2)),
    ],
    ids=["fine-16.3-rhs", "gosper-poch"],
)
def test_product_sides_match_the_reference_where_they_once_re_ran(
    name, reference, sides
) -> None:
    ctx = make_context(VERIFY_DIGITS)
    entry = identities.get_entry(name)
    for point in rerun_points(name):
        expected = reference(point)
        for side in entry.sides[sides]:
            assert_within_epsilon(side(point, ctx), expected)


def test_poch_inf_to_epsilon_matches_qp_where_the_sides_once_re_ran() -> None:
    ctx = make_context(VERIFY_DIGITS)
    pairs = set()
    for p in rerun_points("gosper-poch"):
        pairs |= {(p["t"], p["q"]), (p["x"], p["q"]), (p["q"], p["q"])}
    for p in rerun_points("fine-16.3"):
        with localcontext(ctx.dec):
            pairs |= {(p["a"] * p["q"], p["q"]), (p["b"] * p["q"], p["q"])}
    for a, q in sorted(pairs):
        with mp.workdps(VERIFY_DPS + GUARD_DPS):
            expected = mpmath.qp(mpf(str(a)), mpf(str(q)))
        assert_within_epsilon(qpochhammer_inf(a, q, ctx, ctx.epsilon), expected)


@pytest.mark.parametrize("a, q", [("5", "0.9"), ("-5", "0.9"), ("60", "0.7"), ("-60", "0.7")])
def test_poch_inf_to_an_absolute_epsilon_with_a_long_head_matches_qp(a: str, q: str) -> None:
    """With ``|a| > 1`` the head ``(a;q)_K`` is far from 1 in size, and a
    product to an absolute ``10**-30`` takes more digits than the context:
    the head must be computed at those digits too."""
    ctx = make_context(30)
    sv = qpochhammer_inf(Decimal(a), Decimal(q), ctx, ctx.epsilon)
    with mp.workdps(REFERENCE_DPS):
        reference = mpmath.qp(mpf(a), mpf(q))
        value, tail = mpf(str(sv.value)), mpf(str(sv.tail_bound))
        assert abs(value - reference) <= tail <= mpf(10) ** -30


# ---------------------------------------------------------------------------
# Every side of rogers-fine and fine-12.2 at points of the verify sampler.

#: Points per precision, each the first draw of its substream that every
#: side evaluates, as ``verify --identity NAME --seed 1`` draws them.
FINE_POINTS = {30: 20, 50: 20, 200: 8}


def sampler_points(name: str, digits: int, trials: int):
    """``(point, side values)`` of the first ``trials`` trials."""
    ctx = make_context(digits)
    entry = identities.get_entry(name)
    for trial in range(trials):
        rng = identities._Rng(1 + trial)
        while True:
            point = identities._draw_point(entry, rng, ctx)
            try:
                values = [side(point, ctx) for side in entry.sides]
            except (DomainError, PoleError):
                continue
            yield point, values
            break


@pytest.mark.parametrize("digits", FINE_POINTS)
@pytest.mark.parametrize("name", ["rogers-fine", "fine-12.2"])
def test_fine_sides_match_qhyper(name: str, digits: int) -> None:
    """Both identities equate each side to ``(1 - t) F(a, b; t)``, and Fine's
    ``F(a, b; t) = sum_n (aq;q)_n / (bq;q)_n t^n`` is mpmath's
    ``qhyper([a*q, q], [b*q], q, t)``.  The naive side's geometric tail bound
    is sharp: its error comes within a relative ``10**-13`` of it."""
    for point, values in sampler_points(name, digits, FINE_POINTS[digits]):
        with mp.workdps(digits + EXTRA_DPS):
            a, b, t, q = (mpf(str(point[key])) for key in "abtq")
            reference = (1 - t) * mpmath.qhyper([a * q, q], [b * q], q, t)
            for sv in values:
                error = abs(mpf(str(sv.value)) - reference)
                assert error <= mpf(str(sv.tail_bound)), (point, sv.method_tag)


# ---------------------------------------------------------------------------
# Every side of symm, fine-16.3, poch-symm and osler-1111 at points of the
# verify sampler, against one direct sum per identity.


@lru_cache(maxsize=None)
def poch_series_reference(x: str, t: str, q: str, dps: int):
    """``sum_{n>=0} t^n / (x;q)_{n+1}``, directly, to ``dps`` digits."""
    with mp.workdps(dps + GUARD_DPS):
        x_m, t_m, q_m = mpf(x), mpf(t), mpf(q)

        def terms():
            tn, denominator, xqn = mpf(1), 1 - x_m, x_m
            while True:
                yield tn / denominator
                tn *= t_m
                xqn *= q_m
                denominator *= 1 - xqn

        return _sum_to(terms(), dps)


@lru_cache(maxsize=None)
def chain_reference(x: str, t: str, q: str, dps: int):
    """``sum_{n>=1} t x^n q^n / (1 - t q^n)``, (6.5) at ``a = b = c = d = 1``,
    directly, to ``dps`` digits."""
    with mp.workdps(dps + GUARD_DPS):
        x_m, t_m, q_m = mpf(x), mpf(t), mpf(q)

        def terms():
            xqn, qn = x_m * q_m, q_m
            while True:
                yield t_m * xqn / (1 - t_m * qn)
                xqn *= x_m * q_m
                qn *= q_m

        return _sum_to(terms(), dps)


def fine_reference(a: str, b: str, t: str, q: str, dps: int):
    """Fine's ``F(a, b; t)``, mpmath's ``qhyper([a*q, q], [b*q], q, t)``."""
    with mp.workdps(dps + GUARD_DPS):
        a_m, b_m, t_m, q_m = (mpf(value) for value in (a, b, t, q))
        return mpmath.qhyper([a_m * q_m, q_m], [b_m * q_m], q_m, t_m)


#: Each identity with the reference every one of its sides equals.
SIDE_REFERENCES = {
    "symm": lambda p, dps: qxt_reference(p["x"], p["t"], p["q"], dps),
    "fine-16.3": lambda p, dps: fine_reference(p["a"], p["b"], p["t"], p["q"], dps),
    "poch-symm": lambda p, dps: poch_series_reference(p["x"], p["t"], p["q"], dps),
    "osler-1111": lambda p, dps: chain_reference(p["x"], p["t"], p["q"], dps),
}
#: Points per precision, drawn as :data:`FINE_POINTS` are.
SIDE_POINTS = {30: 20, 50: 20}


@pytest.mark.parametrize("digits", SIDE_POINTS)
@pytest.mark.parametrize("name", SIDE_REFERENCES)
def test_identity_sides_match_their_direct_sum(name: str, digits: int) -> None:
    """Every side is within its own ``tail_bound`` of the identity's value."""
    for point, values in sampler_points(name, digits, SIDE_POINTS[digits]):
        strings = {key: str(value) for key, value in point.items()}
        reference = SIDE_REFERENCES[name](strings, digits + EXTRA_DPS)
        for sv in values:
            with mp.workdps(digits + 2 * EXTRA_DPS):
                error = abs(mpf(str(sv.value)) - reference)
                assert error <= mpf(str(sv.tail_bound)), (point, sv.method_tag)


# ---------------------------------------------------------------------------
# Every side of jordan-forms and knuth-wrench at points of the verify
# sampler: the hand-written Decimal brackets of form1, form2 and the two
# Wrench bracket sides, and the sides summed from their descriptions.

#: Points per precision, drawn as :data:`FINE_POINTS` are.
BRACKET_POINTS = {30: 48, 50: 48, 200: 12}


@lru_cache(maxsize=None)
def wrench_reference(x: str, q: str, dps: int):
    """``sum_{n>=1} x^n q^n / (1 - q^n)``, directly, to ``dps`` digits."""
    with mp.workdps(dps + GUARD_DPS):
        x_m, q_m = mpf(x), mpf(q)

        def terms():
            power, qn = x_m * q_m, q_m
            while True:
                yield power / (1 - qn)
                power *= x_m * q_m
                qn *= q_m

        return _sum_to(terms(), dps)


@pytest.mark.parametrize("digits", BRACKET_POINTS)
@pytest.mark.parametrize("name", ["jordan-forms", "knuth-wrench"])
def test_bracket_identity_sides_match_the_direct_sum(name: str, digits: int) -> None:
    """Every side is within its own ``tail_bound`` of the identity's defining
    series, summed directly in mpmath at :data:`EXTRA_DPS` more digits."""
    for point, values in sampler_points(name, digits, BRACKET_POINTS[digits]):
        strings = {key: str(value) for key, value in point.items()}
        if name == "jordan-forms":
            reference = bilateral_reference(
                strings["x"], strings["t"], strings["q"], digits + EXTRA_DPS
            )
        else:
            reference = wrench_reference(strings["x"], strings["q"], digits + EXTRA_DPS)
        with mp.workdps(digits + 2 * EXTRA_DPS):
            for sv in values:
                error = abs(mpf(str(sv.value)) - reference)
                assert error <= mpf(str(sv.tail_bound)), (point, sv.method_tag)


# ---------------------------------------------------------------------------
# Every recip-sum route, and the alternate Fibonacci splits, against sums of
# 1/f_n over the exact integers of the recurrence.


@lru_cache(maxsize=None)
def recip_reference(m1: int, m2: int, dps: int, parity: int | None = None):
    """``sum 1/f_n`` over ``n >= 1``, or over the ``n`` of one ``parity``,
    with ``f_n`` the exact ints of ``f_n = m1*f_{n-1} + m2*f_{n-2}``, to
    ``dps`` digits, carried with :data:`GUARD_DPS` more.  The terms fall by
    ``1/alpha < 0.62`` per index, so :func:`_sum_to` leaves a rest below
    ``10**-(dps+9)``."""

    def terms():
        previous, current, n = 0, 1, 1
        while True:
            if parity is None or n % 2 == parity:
                yield 1 / mpf(current)
            previous, current, n = current, m1 * current + m2 * previous, n + 1

    with mp.workdps(dps + GUARD_DPS):
        return _sum_to(terms(), dps)


#: (method, m1, m2) of every ``recip-sum`` route; gosper and split sum the
#: Fibonacci reciprocals alone.  The discriminants 13, 17 and 12 of the last
#: three pairs take ``m2 != 1`` and ``m2 < 0`` into the exact field of ``horadam``.
RECIP_ROUTES = [
    (method, m1, m2)
    for method in ("horadam", "naive")
    for m1, m2 in ((1, 1), (2, 1), (1, 2), (1, 3), (3, 2), (4, -1))
] + [("gosper", 1, 1), ("split", 1, 1)]


@pytest.mark.parametrize("digits", (300, 1000))
@pytest.mark.parametrize("method, m1, m2", RECIP_ROUTES)
def test_recip_sum_routes_match_the_integer_sum(method, m1: int, m2: int, digits: int) -> None:
    _, evaluate = cli._recip_table()[method]
    sv = evaluate(HoradamSequence(m1, m2), make_context(digits))
    # Right to 10**-(digits + 89): a fast sum can certify 54 digits past its
    # target, (3, 2) at 1000 digits with a tail bound of 1.6E-1054.
    assert_oracle(sv, recip_reference(m1, m2, digits + 2 * EXTRA_DPS), digits)


@pytest.mark.parametrize(
    "evaluate, parity",
    [(fib_even_alt, 0), (fib_odd_alt, 1)],
    ids=["even", "odd"],
)
def test_alternate_fibonacci_splits_match_the_integer_sums(evaluate, parity: int) -> None:
    reference = recip_reference(1, 1, 300 + EXTRA_DPS, parity)
    assert_oracle(evaluate(make_context(300)), reference, 300)


# ---------------------------------------------------------------------------
# The osler and xq-swap sides at short rationals.  Above 200 working digits
# the exact kernel sums the sides summed from their descriptions, (6.5),
# (6.6) and both xq-swap sides; (6.7) takes its parameters as Decimals.

#: (alpha, beta, q, a, b, c, d).  Each rational is short and its decimal
#: expansion ends, so that (6.7) gets the same values as ``Decimal``.
OSLER_POINTS = (
    ("0.5", "-0.6", "0.35", 1, 1, 2, 1),
    ("-0.9", "0.75", "-0.4", 2, 0, 1, 3),
)
#: (x, q).
XQ_SWAP_POINTS = (("0.6", "-0.35"), ("-0.5", "0.625"))


@lru_cache(maxsize=None)
def osler_reference(alpha: str, beta: str, q: str, a: int, b: int, c: int, d: int, dps: int):
    """``sum_{n>=0} alpha^n q^(d(an+b)) / (1 - beta q^(c(an+b)))``, (6.5),
    directly, to ``dps`` digits."""
    with mp.workdps(dps + GUARD_DPS):
        alpha_m, beta_m, q_m = mpf(alpha), mpf(beta), mpf(q)

        def terms():
            n = 0
            while True:
                e = a * n + b
                yield alpha_m**n * q_m ** (d * e) / (1 - beta_m * q_m ** (c * e))
                n += 1

        return _sum_to(terms(), dps)


@lru_cache(maxsize=None)
def xq_swap_reference(x: str, q: str, dps: int):
    """``sum_{n>=0} x q^n / (1 - x q^n)``, directly, to ``dps`` digits."""
    with mp.workdps(dps + GUARD_DPS):
        x_m, q_m = mpf(x), mpf(q)

        def terms():
            xqn = x_m
            while True:
                yield xqn / (1 - xqn)
                xqn *= q_m

        return _sum_to(terms(), dps)


def _exact_kernel_calls(monkeypatch) -> list:
    """The descriptions handed to the exact kernel from now on."""
    calls = []
    original = exact._exact_kernel

    def spy(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(exact, "_exact_kernel", spy)
    return calls


@pytest.mark.parametrize("digits", (50, 300))
@pytest.mark.parametrize("point", OSLER_POINTS, ids=str)
def test_osler_sides_match_the_direct_sum(point, digits: int, monkeypatch) -> None:
    ctx = make_context(digits)
    names = ("alpha", "beta", "q", "a", "b", "c", "d")
    rational = {name: Fraction(v) if type(v) is str else v for name, v in zip(names, point)}
    decimal = {name: Decimal(v) if type(v) is str else v for name, v in zip(names, point)}
    reference = osler_reference(*point, digits + EXTRA_DPS)
    lhs, mid, combined = identities.get_entry("osler").sides
    calls = _exact_kernel_calls(monkeypatch)
    values = [lhs(rational, ctx), mid(rational, ctx)]
    assert len(calls) == (2 if digits > 200 else 0)
    values.append(combined(decimal, ctx))
    for sv in values:
        assert_oracle(sv, reference, digits)


@pytest.mark.parametrize("digits", (50, 300))
@pytest.mark.parametrize("point", XQ_SWAP_POINTS, ids=str)
def test_xq_swap_sides_match_the_direct_sum(point, digits: int, monkeypatch) -> None:
    ctx = make_context(digits)
    x, q = map(Fraction, point)
    reference = xq_swap_reference(*point, digits + EXTRA_DPS)
    calls = _exact_kernel_calls(monkeypatch)
    values = [side({"x": x, "q": q}, ctx) for side in identities.get_entry("xq-swap").sides]
    assert len(calls) == (2 if digits > 200 else 0)
    for sv in values:
        assert_oracle(sv, reference, digits)
