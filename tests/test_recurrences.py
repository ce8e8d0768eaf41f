"""Horadam sequences and the reciprocal-sum routes."""

from __future__ import annotations

import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from qlambert import (
    DomainError,
    HoradamSequence,
    fib_even_alt,
    fib_even_theta,
    fib_odd_alt,
    fib_odd_theta,
    fib_recip_gosper,
    fibonacci,
    horadam_term,
    lucas_G,
    make_context,
    recip_sum_fast,
    recip_sum_naive,
)
from qlambert import recurrences
from qlambert.cli import main
from qlambert.numerics import sqrt
from qlambert.recurrences import gosper_terms

from _oracles import (
    FIB_EVEN,
    FIB_ODD,
    JACOBSTHAL,
    LAMBERT_HALF,
    PELL,
    PSI,
    RECIP_2_3,
    RECIP_3_1,
    RECIP_3_2,
    RECIP_4_M3,
    gosper_partial_sum,
)

RECIP_ORACLES = {
    (1, 1): PSI,
    (2, 1): PELL,
    (1, 2): JACOBSTHAL,
    (3, 1): RECIP_3_1,
    (3, 2): RECIP_3_2,
    (2, 3): RECIP_2_3,
    (3, -2): LAMBERT_HALF,
    (4, -3): RECIP_4_M3,
}


class TestHoradamSequence:
    def test_fibonacci_terms(self) -> None:
        seq = HoradamSequence(1, 1)
        assert [horadam_term(seq, n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_pell_terms(self) -> None:
        seq = HoradamSequence(2, 1)
        assert [horadam_term(seq, n) for n in range(6)] == [0, 1, 2, 5, 12, 29]

    def test_mersenne_terms_from_3_minus2(self) -> None:
        seq = HoradamSequence(3, -2)
        assert [horadam_term(seq, n) for n in range(6)] == [0, 1, 3, 7, 15, 31]

    @pytest.mark.parametrize(
        ("m1", "m2"), [(0, 1), (-1, 1), (1, 0), (1, -1), (2, -1), (True, 1), (1, 1.0)]
    )
    def test_invalid_parameters_rejected(self, m1, m2) -> None:
        with pytest.raises(DomainError):
            HoradamSequence(m1, m2)

    def test_roots_multiply_to_minus_m2(self, ctx30) -> None:
        seq = HoradamSequence(2, 3)
        alpha, beta = seq.roots(ctx30)
        with localcontext(ctx30.dec):
            assert abs(alpha * beta + 3) < Decimal("1e-38")
            assert abs(alpha + beta - 2) < Decimal("1e-38")

    def test_fibonacci_and_lucas_helpers(self) -> None:
        assert [fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
        assert [lucas_G(n) for n in range(1, 9)] == [1, 3, 4, 7, 11, 18, 29, 47]

    @pytest.mark.parametrize(("m1", "m2"), [(1, 1), (2, 1), (1, 3), (3, -2), (5, -6)])
    def test_terms_at_long_indices_match_binets_formula(self, m1, m2) -> None:
        """``f_n = round((alpha**n - beta**n)/(alpha - beta))`` for ``n <= 300``,
        at 200 digits, over 100 more than ``f_300`` has at these fields."""
        seq = HoradamSequence(m1, m2)
        with localcontext() as local:
            local.prec = 200
            root = Decimal(m1 * m1 + 4 * m2).sqrt()
            alpha, beta = (m1 + root) / 2, (m1 - root) / 2
            binet = [round((alpha**n - beta**n) / root) for n in range(301)]
        assert [horadam_term(seq, n) for n in range(301)] == binet
        if (m1, m2) == (1, 1):
            assert [fibonacci(n) for n in range(301)] == binet
            assert [lucas_G(n) for n in range(1, 301)] == [
                2 * binet[n - 1] + binet[n] for n in range(1, 301)
            ]


class TestReciprocalSums:
    @pytest.mark.parametrize(("m1", "m2"), sorted(RECIP_ORACLES))
    def test_naive_route_matches_oracles(self, m1: int, m2: int, ctx30) -> None:
        sv = recip_sum_naive(HoradamSequence(m1, m2), ctx30)
        assert abs(sv.value - RECIP_ORACLES[(m1, m2)]) <= sv.tail_bound

    @pytest.mark.parametrize(("m1", "m2"), sorted(RECIP_ORACLES))
    def test_fast_route_matches_oracles(self, m1: int, m2: int, ctx30) -> None:
        sv = recip_sum_fast(HoradamSequence(m1, m2), ctx30)
        assert abs(sv.value - RECIP_ORACLES[(m1, m2)]) <= sv.tail_bound

    def test_routes_agree_at_fifty_digits(self, ctx50) -> None:
        for m1, m2 in ((1, 1), (2, 1), (3, 2)):
            seq = HoradamSequence(m1, m2)
            naive = recip_sum_naive(seq, ctx50)
            fast = recip_sum_fast(seq, ctx50)
            assert abs(naive.value - fast.value) <= naive.tail_bound + fast.tail_bound

    def test_fast_route_rejects_near_degenerate_ratio(self, ctx30) -> None:
        # beta/alpha approaches -1 as m2 grows; past the gap the theta
        # rearrangement converges too slowly to certify.
        with pytest.raises(DomainError):
            recip_sum_fast(HoradamSequence(1, 10**13), ctx30)

    def test_naive_route_survives_near_degenerate_ratio(self, ctx30) -> None:
        sv = recip_sum_naive(HoradamSequence(1, 10**13), ctx30)
        assert sv.tail_bound < 2 * ctx30.epsilon


class TestGosperPartialSums:
    def test_one_term_is_exactly_three(self, ctx30) -> None:
        assert fib_recip_gosper(1, ctx30).value == 3

    def test_two_terms_are_exactly_41_twelfths(self, ctx30) -> None:
        sv = fib_recip_gosper(2, ctx30)
        with localcontext(ctx30.dec):
            expected = Decimal(41) / 12
        assert abs(sv.value - expected) < Decimal("1e-38")

    def test_six_terms_land_within_a_millionth(self, ctx30) -> None:
        sv = fib_recip_gosper(6, ctx30)
        assert abs(sv.value - PSI) < Decimal("1e-6")

    def test_twelve_terms_reach_thirty_digits(self, ctx30) -> None:
        sv = fib_recip_gosper(12, ctx30)
        assert abs(sv.value - PSI) < Decimal("1e-30")

    def test_uncorrected_variant_breaks_the_identity(self) -> None:
        """Each Lucas product one factor short (``L_{2n-1}``), six terms miss
        ``PSI`` by more than a thousandth."""
        assert abs(gosper_partial_sum(6, lucas_shift=2) - Fraction(PSI)) > Fraction(1, 1000)

    def test_invalid_term_counts_rejected(self, ctx30) -> None:
        with pytest.raises(DomainError):
            fib_recip_gosper(0, ctx30)

    def test_terms_obey_the_stated_bound(self) -> None:
        # |T_n| <= 5 phi^-((n+1)^2), and 5 phi^-(n^2) without the correction.
        phi = (1 + Decimal(5).sqrt()) / 2
        lucas = 1
        for n in range(40):
            lucas *= lucas_G(2 * n + 1)
            size = Fraction(
                fibonacci(4 * n + 3) + (-1) ** n * fibonacci(2 * n + 2),
                fibonacci(2 * n + 1) * fibonacci(2 * n + 2) * lucas,
            )
            for factor, shift in ((1, n + 1), (lucas_G(2 * n + 1), n)):
                scaled = size * factor
                bound = 5 / phi ** (shift * shift)
                assert Decimal(scaled.numerator) / scaled.denominator <= bound

    def test_integer_sum_rounds_to_the_fraction_sum(self, ctx50) -> None:
        """``P / Q`` unreduced gives the ``Decimal`` of the reduced
        ``Fraction`` sum, digit for digit, for the first 80 term counts."""
        total, lucas = Fraction(0), 1
        for count in range(1, 81):
            n = count - 1
            lucas *= lucas_G(2 * n + 1)
            numerator = fibonacci(4 * n + 3) + (-1) ** n * fibonacci(2 * n + 2)
            sign = 1 if n % 4 in (0, 1) else -1
            total += Fraction(
                sign * numerator, fibonacci(2 * n + 1) * fibonacci(2 * n + 2) * lucas
            )
            with localcontext(ctx50.dec):
                expected = Decimal(total.numerator) / Decimal(total.denominator)
            value = fib_recip_gosper(count, ctx50).value
            assert str(value) == str(expected), count

    @pytest.mark.parametrize("digits", [50, 300, 1000])
    def test_float_tail_is_at_least_the_decimal_one(self, digits) -> None:
        """The tail from float logs, rounded outward, is at least
        ``5 phi^-(M^2) / (1 - phi^-(2M+1))`` at 20 more digits, plus the
        rounding floor, around the counted ``N``."""
        ctx, wide = make_context(digits), make_context(digits + 20)
        count = gosper_terms(ctx)
        with localcontext(wide.dec):
            phi = (1 + Decimal(5).sqrt()) / 2
        for N in (count - 1, count, count + 1):
            sv = fib_recip_gosper(N, ctx)
            M = N + 1
            with localcontext(wide.dec):
                tail = 5 / phi ** (M * M) / (1 - 1 / phi ** (2 * M + 1))
                assert sv.tail_bound >= tail + ctx.tail_floor(sv.value), N
                assert sv.tail_bound <= (tail + ctx.tail_floor(sv.value)) * (1 + Decimal("1e-9"))

    @pytest.mark.parametrize("digits, guard", [(10, 0), (10, 1), (12, 3), (50, 10)])
    def test_quotient_is_that_of_decimal_division(self, digits, guard) -> None:
        """``_quotient(P, Q)`` has the value and representation of
        ``Decimal(P) / Decimal(Q)``: ties to even, exact quotients with their
        ideal exponent, carries to a power of ten, either sign."""
        ctx = make_context(digits, guard)
        prec = ctx.working_digits
        rng = random.Random(digits + guard)
        cases = [(0, 7), (1, 3), (10**40, 1), (-(10**40), 7), (10**prec - 1, 10), (125, 1000)]
        cases += [(10 * (10**prec - 1) + 5, 10**k) for k in (0, 3, 40)]  # round up to 10**prec
        for _ in range(300):
            tie = rng.randrange(10**prec, 10**(prec + 1)) // 10 * 10 + rng.choice((0, 4, 5, 6))
            cases.append((tie * rng.choice((1, -1)), 10 ** rng.randint(0, 30)))
            Q = rng.randrange(1, 10 ** rng.randint(1, 60))
            cases.append((Q * rng.randrange(-(10**30), 10**30), Q))
            cases.append((rng.randrange(-(10 ** rng.randint(1, 90)), 10**90), Q))
        for P, Q in cases:
            with localcontext(ctx.dec):
                expected = Decimal(P) / Decimal(Q)
            assert str(recurrences._quotient(P, Q, ctx)) == str(expected), (P, Q)

    def test_tail_bounds_cover_the_constant(self, ctx50) -> None:
        for count in (1, 3, 8, 15):
            sv = fib_recip_gosper(count, ctx50)
            assert abs(sv.value - PSI) <= sv.tail_bound

    @pytest.mark.parametrize("digits", [10, 30, 100, 1000])
    def test_counted_route_certifies_with_the_fewest_terms(self, digits) -> None:
        ctx = make_context(digits)
        count = gosper_terms(ctx)
        assert fib_recip_gosper(count, ctx).tail_bound <= ctx.epsilon
        if count > 1:
            assert fib_recip_gosper(count - 1, ctx).tail_bound > ctx.epsilon / 2


class TestSplits:
    def test_even_theta_matches_oracle(self, ctx30) -> None:
        sv = fib_even_theta(ctx30)
        assert abs(sv.value - FIB_EVEN) <= sv.tail_bound

    def test_odd_theta_matches_oracle(self, ctx30) -> None:
        sv = fib_odd_theta(ctx30)
        assert abs(sv.value - FIB_ODD) <= sv.tail_bound

    def test_splits_sum_to_psi(self, ctx50) -> None:
        even = fib_even_theta(ctx50)
        odd = fib_odd_theta(ctx50)
        with localcontext(ctx50.dec):
            total = even.value + odd.value
        assert abs(total - PSI) <= even.tail_bound + odd.tail_bound

    def test_even_alternate_with_scaling_matches_even_split(self, ctx30) -> None:
        sv = fib_even_alt(ctx30)
        assert abs(sv.value - FIB_EVEN) <= sv.tail_bound

    def test_odd_alternate_matches_odd_split(self, ctx30) -> None:
        sv = fib_odd_alt(ctx30)
        assert abs(sv.value - FIB_ODD) <= sv.tail_bound

    def test_splits_hold_at_higher_precision(self) -> None:
        ctx = make_context(60)
        for fn, oracle in ((fib_even_theta, FIB_EVEN), (fib_odd_theta, FIB_ODD)):
            sv = fn(ctx)
            assert abs(sv.value - oracle) < Decimal("1e-59")

    def test_a_split_call_takes_at_most_one_square_root(self, monkeypatch) -> None:
        """Both halves share the roots of one context per digit count."""
        taken = []

        def counted(value, ctx):
            taken.append(ctx.working_digits)
            return sqrt(value, ctx)

        monkeypatch.setattr(recurrences, "sqrt", counted)
        recurrences._fib_inner.cache_clear()
        argv = ["recip-sum", "--m1", "1", "--m2", "1", "--method", "split"]
        assert main([*argv, "--digits", "1000"]) == 0
        assert taken == [1062]
