"""Context construction, parsing, formatting, and square roots."""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlambert import DomainError, format_real, make_context, parse_real, sqrt
from qlambert.numerics import _require_unit, series_parameters

#: Target digits of the square-root checks.
ROOT_DIGITS = (10, 11, 37, 300, 1000, 5000)


@st.composite
def root_cases(draw) -> tuple[int, Decimal]:
    """A precision and a positive ``Decimal``: its coefficient as long as the
    working precision or twice it, give or take a digit, an exact square, or
    a midpoint ``(r + 1/2)**2`` of ``p``-digit roots ``r``, which only an
    input longer than ``2p`` digits can be."""
    digits = draw(st.sampled_from(ROOT_DIGITS))
    p = make_context(digits).dec.prec
    length = draw(st.sampled_from((1, 2, p - 1, p, p + 1, 2 * p - 1, 2 * p, 2 * p + 1)))
    c = draw(st.integers(10 ** (length - 1), 10**length - 1))
    exponent = draw(st.integers(-40, 40))
    shape = draw(st.sampled_from(("plain", "square", "midpoint")))
    if shape == "square":
        c = draw(st.integers(1, 10 ** min(length, p))) ** 2
    elif shape == "midpoint":
        r = draw(st.integers(10 ** (p - 1), 10**p - 1))
        c, exponent = (2 * r + 1) ** 2 * 25, 2 * exponent - 2
    with localcontext(Context(prec=3 * p)):
        return digits, Decimal(c).scaleb(exponent)


class TestMakeContext:
    def test_thirty_digit_context_fields(self) -> None:
        ctx = make_context(30)
        assert ctx.target_digits == 30
        assert ctx.guard_digits == 11
        assert ctx.working_digits == 41
        assert ctx.epsilon == Decimal(1).scaleb(-30)
        assert ctx.dec.prec == 41

    def test_guard_digits_grow_with_target(self) -> None:
        assert make_context(10).guard_digits == 10
        assert make_context(100).guard_digits == 15
        assert make_context(1000).guard_digits == 60

    @pytest.mark.parametrize("bad", [9, 0, -5])
    def test_targets_below_minimum_rejected(self, bad: int) -> None:
        with pytest.raises(DomainError):
            make_context(bad)

    @pytest.mark.parametrize("bad", ["30", 30.0, True, None])
    def test_non_integer_targets_rejected(self, bad: object) -> None:
        with pytest.raises(DomainError):
            make_context(bad)  # type: ignore[arg-type]

    def test_targets_are_checked_as_every_integer_argument_is(self) -> None:
        with pytest.raises(DomainError, match="target_digits must be an integer >= 10, got 9"):
            make_context(9)

    def test_pole_tolerance_scales_with_working_digits(self) -> None:
        ctx = make_context(30)
        assert ctx.pole_tolerance() == Decimal(1).scaleb(-20)

    def test_tail_floor_tracks_value_magnitude(self) -> None:
        ctx = make_context(30)
        assert ctx.tail_floor(Decimal("0.5")) == Decimal(1).scaleb(-35)
        assert ctx.tail_floor(Decimal(1000)) == Decimal(1000).scaleb(-35)

    @pytest.mark.parametrize("digits", [1_500_000, 2_000_100])
    def test_powers_of_ten_past_the_default_exponent_range_stay_exact(
        self, digits: int
    ) -> None:
        """Past the caller's ``Emin`` of -999999 the goal, the pole tolerance
        and the floor are exact powers of ten of the context's own range."""
        ctx = make_context(digits)
        wd = ctx.working_digits
        assert ctx.epsilon.as_tuple() == (0, (1,), -digits)
        assert ctx.pole_tolerance().as_tuple() == (0, (1,), -(wd // 2))
        assert ctx.tail_floor(Decimal(3)).as_tuple() == (0, (3,), 6 - wd)

    @pytest.mark.parametrize("digits, guard", [(10**7, None), (10, 10**7)])
    def test_working_digits_past_the_exponent_range_rejected(self, digits, guard) -> None:
        with pytest.raises(DomainError, match="working digits"):
            make_context(digits, guard)


class TestParseReal:
    def test_decimal_literals(self, ctx30) -> None:
        assert parse_real("0.25", ctx30) == Decimal("0.25")
        assert parse_real("-0.7", ctx30) == Decimal("-0.7")
        assert parse_real(".5", ctx30) == Decimal("0.5")
        assert parse_real("+3", ctx30) == Decimal(3)

    def test_rational_literals_divide_exactly(self, ctx30) -> None:
        assert parse_real("1/2", ctx30) == Decimal("0.5")
        assert parse_real("-3/4", ctx30) == Decimal("-0.75")
        third = parse_real("1/3", ctx30)
        assert abs(third * 3 - 1) < Decimal(1).scaleb(-39)

    def test_a_rational_past_one_word_is_a_decimal(self) -> None:
        # 2**70/3: its numerator is 71 bits long, past EXACT_BITS.
        ctx = make_context(300)
        value = parse_real("1180591620717411303424/3", ctx)
        assert type(value) is Decimal
        with localcontext(ctx.dec):
            assert value == Decimal(2**70) / 3

    def test_one_long_rational_rounds_every_parameter(self) -> None:
        """Above 200 working digits short rationals stay exact, but not beside
        a long one: a series never mixes exact and ``Decimal`` parameters."""
        ctx = make_context(300)
        third, long = Fraction(1, 3), Fraction(2**70, 3)
        assert series_parameters([third, Fraction(2, 3)], ctx) == [third, Fraction(2, 3)]
        rounded = series_parameters([third, long], ctx)
        assert [type(value) for value in rounded] == [Decimal, Decimal]
        with localcontext(ctx.dec):
            assert rounded == [Decimal(1) / 3, Decimal(2**70) / 3]

    def test_unicode_minus_accepted(self, ctx30) -> None:
        assert parse_real("−0.5", ctx30) == Decimal("-0.5")

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "1//2", "0x1", "1e3", "nan"])
    def test_malformed_literals_rejected(self, bad: str, ctx30) -> None:
        with pytest.raises(DomainError):
            parse_real(bad, ctx30)


class TestFormatReal:
    def test_exact_significant_digit_count(self, ctx30) -> None:
        with localcontext(prec=300):
            third = Decimal(1) / 3
        text = format_real(third, ctx30)
        assert text == "0.333333333333333333333333333333"

    def test_short_digit_override(self, ctx30) -> None:
        psi = Decimal("3.3598856662431775531720113029189")
        assert format_real(psi, ctx30, 7) == "3.359886"
        assert format_real(psi, ctx30, 5) == "3.3599"

    def test_round_half_even_at_the_cut(self, ctx30) -> None:
        assert format_real(Decimal("0.125"), ctx30, 2) == "0.12"
        assert format_real(Decimal("0.135"), ctx30, 2) == "0.14"

    def test_small_values_print_no_digit_below_the_certified_error(self, ctx30) -> None:
        assert format_real(Decimal("0.0063456789"), ctx30, 5) == "0.00635"
        assert format_real(Decimal("-0.000012"), ctx30, 3) == "-0.000"
        assert format_real(Decimal("0.123456"), ctx30, 3) == "0.123"

    def test_zero_and_negative_values(self, ctx30) -> None:
        assert format_real(Decimal(0), ctx30, 3) == "0.00"
        assert format_real(Decimal("-1.5"), ctx30, 3) == "-1.50"

    def test_nonpositive_digit_count_rejected(self, ctx30) -> None:
        with pytest.raises(DomainError):
            format_real(Decimal(1), ctx30, 0)


class TestSqrt:
    def test_five_squares_back(self, ctx30) -> None:
        root = sqrt(Decimal(5), ctx30)
        assert abs(root * root - 5) < Decimal(1).scaleb(-39)

    def test_negative_rejected(self, ctx30) -> None:
        with pytest.raises(DomainError):
            sqrt(Decimal(-1), ctx30)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rejected(self, ctx30, text) -> None:
        with pytest.raises(DomainError):
            sqrt(Decimal(text), ctx30)

    @pytest.mark.parametrize("digits", ROOT_DIGITS)
    @pytest.mark.parametrize(
        "text", ["4", "9", "0.25", "1E-8", "5", "8", "100", "4.00", "0", "-0", "0E-5"]
    )
    def test_exact_squares_and_discriminants_match_decimal(self, digits, text) -> None:
        """``sqrt(4)`` stays ``2`` and ``sqrt(0.25)`` stays ``0.5``: an exact
        root takes the ideal exponent, as ``Decimal``'s does."""
        ctx = make_context(digits)
        value = Decimal(text)
        assert str(sqrt(value, ctx)) == str(ctx.dec.sqrt(value))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(root_cases())
    def test_matches_decimal_in_value_and_representation(self, case) -> None:
        digits, value = case
        ctx = make_context(digits)
        root, expected = sqrt(value, ctx), ctx.dec.sqrt(value)
        assert root == expected
        assert str(root) == str(expected)


class TestRequireUnit:
    """``|value| < 1`` is decided exactly, whatever the caller's context."""

    @pytest.mark.parametrize("prec", [3, 28, 100])
    def test_the_ambient_context_does_not_round_the_test(self, prec: int) -> None:
        inside = Decimal("-0." + "9" * 40)
        with localcontext(prec=prec):
            assert _require_unit("q", inside, make_context(30)) == inside
            with pytest.raises(DomainError, match="q outside"):
                _require_unit("q", Decimal("1.000"), make_context(30))
