"""Acceptance suite: one test per shipped guarantee.

Each test here pins an externally meaningful behaviour of the package at an
explicit tolerance, so ``pytest -v`` prints one pass/fail line per guarantee:

1. the reciprocal Fibonacci constant by four independent methods,
2. the even/odd split values and their recombination,
3. the full identity battery at 30 and 50 digits,
4. the theta-convergence term-count advantage at 1000 digits,
5. the corrected accelerated partial sum (and failure of the uncorrected one),
6. the 2x2 matrix exchange relation and both infinite-product forms,
7. four-way agreement of the bilateral series on a fixed parameter battery,
8. resolution of the even-index alternate form against a big-integer oracle,
9. soundness of every certified tail bound under recomputation,
10. output that does not depend on the caller's ``decimal`` context.
"""

from __future__ import annotations

import decimal
import json
from decimal import Decimal
from fractions import Fraction

from qlambert import (
    LEFT,
    RIGHT,
    BilateralParams,
    HoradamSequence,
    QxtParams,
    exchange_check,
    fib_even_alt,
    fib_even_theta,
    fib_odd_alt,
    fib_odd_theta,
    fib_recip_gosper,
    glambert_lhs,
    glambert_theta,
    jordan_direct,
    jordan_form1,
    jordan_form2,
    jordan_theta,
    lambert_naive,
    lambert_theta,
    make_context,
    product_factor_count,
    product_upper_right,
    qpochhammer_inf,
    recip_sum_fast,
    recip_sum_naive,
    series_qxt_alt,
    series_qxt_lhs,
    series_qxt_rhs,
    theta3,
)
from qlambert.cli import main
from qlambert.identities import (
    _Rng,
    _fine_163_rhs,
    _gosper_poch_lhs,
    _wrench_truncated,
)
from qlambert.recurrences import gosper_terms

from _oracles import PSI, fib_even_alt_unscaled, gosper_partial_sum


def cli_lines(capsys, *argv: str) -> tuple[int, list[dict]]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_reciprocal_fibonacci_constant_agrees_across_all_four_methods(capsys) -> None:
    values = []
    for method in ("naive", "horadam", "gosper", "split"):
        code, payloads = cli_lines(
            capsys, "recip-sum", "--m1", "1", "--m2", "1",
            "--digits", "30", "--method", method, "--report",
        )
        assert code == 0
        values.append(Decimal(payloads[0]["value"]))
    worst = max(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:])
    assert worst <= Decimal("1e-26")
    for value in values:
        assert str(value).startswith("3.359885")


def test_even_and_odd_splits_hit_their_digits_and_recombine(ctx30) -> None:
    even = fib_even_theta(ctx30)
    odd = fib_odd_theta(ctx30)
    assert str(even.value).startswith("1.5353705")
    assert str(odd.value).startswith("1.8245151")
    total = recip_sum_fast(HoradamSequence(1, 1), ctx30)
    assert abs((even.value + odd.value) - total.value) <= Decimal("1e-26")


def test_identity_battery_passes_at_thirty_and_fifty_digits(capsys) -> None:
    for digits, bar in (("30", Decimal("4e-30")), ("50", Decimal("4e-50"))):
        code, payloads = cli_lines(
            capsys, "verify", "--all", "--trials", "100", "--seed", "42",
            "--digits", digits,
        )
        assert code == 0
        assert len(payloads) == 12
        for payload in payloads:
            assert payload["pass"] is True
            assert Decimal(payload["worst_deviation"]) <= bar


def test_theta_convergence_beats_naive_at_thousand_digits(capsys) -> None:
    code, payloads = cli_lines(
        capsys, "bench", "--series", "lambert", "--q", "1/2", "--digits", "1000"
    )
    assert code == 0
    by_tag = {r["method_tag"]: r["terms_used"] for r in payloads[0]["methods"]}
    assert by_tag["naive"] >= 3000
    assert by_tag["theta"] <= 70
    assert by_tag["theta"] ** 2 <= 9 * by_tag["naive"]


def test_accelerated_partial_sum_needs_the_index_correction(ctx30) -> None:
    """Six terms land within a millionth of ``PSI``; the same six terms with
    each Lucas product one factor short miss it by more than a thousandth."""
    corrected = fib_recip_gosper(6, ctx30)
    assert abs(corrected.value - PSI) <= Decimal("1e-6")
    exact = gosper_partial_sum(6)
    with decimal.localcontext(ctx30.dec):
        assert corrected.value == Decimal(exact.numerator) / exact.denominator
    uncorrected = gosper_partial_sum(6, lucas_shift=2)
    assert abs(uncorrected - Fraction(PSI)) > Fraction(1, 1000)


def test_matrix_exchange_relation_and_both_product_forms(ctx30, ctx40) -> None:
    allowance = Decimal(10) ** -(ctx30.working_digits - 6)
    for q_text in ("0.3", "-0.3", "0.7"):
        q = Decimal(q_text)
        for k in range(1, 11):
            for n in range(1, 11):
                assert exchange_check(k, n, q, ctx30) <= allowance
    q = Decimal("0.3")
    oracle = lambert_naive(q, ctx40).value
    for side in (LEFT, RIGHT):
        value = product_upper_right(side, 50, q, ctx40)
        assert abs(value - oracle) <= Decimal("1e-30")


BILATERAL_BATTERY = (
    ("0.5", "0.6", "0.2"),
    ("0.5", "0.6", "-0.2"),
    ("-0.5", "0.6", "0.2"),
    ("0.5", "-0.6", "0.2"),
    ("-0.5", "-0.6", "-0.2"),
    ("0.9", "0.85", "0.8"),
    ("0.9", "0.85", "-0.8"),
    ("-0.9", "0.85", "0.8"),
    ("0.3", "0.3", "0.05"),
    ("0.5", "0.5", "0.25"),
    ("0.25", "0.85", "0.2"),
    ("0.85", "0.25", "0.2"),
    ("0.1", "0.1", "0.05"),
    ("-0.1", "-0.1", "-0.05"),
    ("0.7", "0.2", "-0.15"),
    ("-0.6", "0.45", "0.42"),
    ("0.52", "-0.74", "0.5"),
    ("0.33", "0.66", "-0.32"),
    ("-0.41", "-0.37", "0.36"),
    ("0.88", "0.12", "0.1"),
)


def test_bilateral_forms_agree_on_a_twenty_point_battery(ctx30) -> None:
    assert len(BILATERAL_BATTERY) == 20
    bar = 4 * ctx30.epsilon
    for x_text, t_text, q_text in BILATERAL_BATTERY:
        params = BilateralParams(Decimal(x_text), Decimal(t_text), Decimal(q_text))
        assert abs(params.q) < min(abs(params.x), abs(params.t))
        values = [
            fn(params, ctx30).value
            for fn in (jordan_direct, jordan_form1, jordan_form2, jordan_theta)
        ]
        worst = max(
            abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]
        )
        assert worst <= bar, (x_text, t_text, q_text, worst)


def test_even_alternate_form_is_resolved_by_a_big_integer_oracle() -> None:
    fib = [0, 1]
    while len(fib) <= 400:
        fib.append(fib[-1] + fib[-2])
    oracle = sum((Decimal(1) / Decimal(fib[2 * n]) for n in range(1, 201)), Decimal(0))
    bare = fib_even_alt_unscaled(25)
    scaled = fib_even_alt(make_context(25)).value
    matches = [abs(value - oracle) <= Decimal("1e-20") for value in (bare, scaled)]
    assert matches.count(True) == 1
    assert matches == [False, True]


def _evaluation_battery() -> list:
    """Fifty-plus deterministic evaluations spanning every series."""
    ctx_draw = make_context(30)
    rng = _Rng(2024)

    def draw(floor: str | None = None):
        bound = None if floor is None else Decimal(floor)
        return rng.draw_real(ctx_draw, bound)

    battery = []
    for _ in range(5):
        q = draw("0.05")
        battery.append(lambda ctx, q=q: lambert_naive(q, ctx))
        battery.append(lambda ctx, q=q: lambert_theta(q, ctx))
    for _ in range(5):
        x, q = draw(), draw("0.05")
        battery.append(lambda ctx, x=x, q=q: glambert_lhs(x, q, ctx))
        battery.append(lambda ctx, x=x, q=q: glambert_theta(x, q, ctx))
    for _ in range(4):
        p = QxtParams(draw(), draw(), draw("0.05"))
        battery.append(lambda ctx, p=p: series_qxt_lhs(p, ctx))
        battery.append(lambda ctx, p=p: series_qxt_rhs(p, ctx))
        battery.append(lambda ctx, p=p: series_qxt_alt(p, ctx))
    for _ in range(2):
        x, t = draw("0.4"), draw("0.4")
        q = draw("0.05") * Decimal("0.4")
        p = BilateralParams(x, t, q)
        battery.append(lambda ctx, p=p: jordan_direct(p, ctx))
        battery.append(lambda ctx, p=p: jordan_form1(p, ctx))
        battery.append(lambda ctx, p=p: jordan_form2(p, ctx))
        battery.append(lambda ctx, p=p: jordan_theta(p, ctx))
    for _ in range(3):
        q = draw("0.05")
        battery.append(lambda ctx, q=q: theta3(q, ctx))
    for _ in range(2):
        a, q = draw(), draw("0.05")
        battery.append(lambda ctx, a=a, q=q: qpochhammer_inf(a, q, ctx))
    for m1, m2 in ((1, 1), (2, 1)):
        seq = HoradamSequence(m1, m2)
        battery.append(lambda ctx, seq=seq: recip_sum_naive(seq, ctx))
        battery.append(lambda ctx, seq=seq: recip_sum_fast(seq, ctx))
    battery.append(fib_even_theta)
    battery.append(fib_odd_theta)
    battery.append(fib_even_alt)
    battery.append(fib_odd_alt)
    battery.append(lambda ctx: fib_recip_gosper(gosper_terms(ctx), ctx))
    for _ in range(2):
        point = {"a": draw("0.05"), "b": draw(), "t": draw(), "q": draw()}
        battery.append(lambda ctx, p=point: _fine_163_rhs(p, ctx))
        point = {"x": draw(), "t": draw(), "q": draw()}
        battery.append(lambda ctx, p=point: _gosper_poch_lhs(p, ctx))
        point = {"x": draw(), "q": draw()}
        battery.append(lambda ctx, p=point: _wrench_truncated(p, ctx))
    return battery


def test_certified_bounds_survive_recomputation_at_higher_precision() -> None:
    battery = _evaluation_battery()
    assert len(battery) >= 50
    base = make_context(30)
    refined = make_context(40)
    for evaluate in battery:
        coarse = evaluate(base)
        fine = evaluate(refined)
        assert abs(coarse.value - fine.value) < coarse.tail_bound


def test_results_do_not_depend_on_the_callers_decimal_context() -> None:
    """Every evaluation computes under its own context, never the caller's:
    it gives the same value and bound under the suite's default context, the
    interpreter's 28 digits, as under one of 5 digits."""
    ctx = make_context(40)
    for evaluate in _evaluation_battery():
        wide = evaluate(ctx)
        with decimal.localcontext(decimal.Context(prec=5)):
            narrow = evaluate(ctx)
        assert (narrow.value, narrow.tail_bound) == (wide.value, wide.tail_bound)


#: Commands of every kind, run in one process as ``tools/output_digest.py``
#: runs them, with each ``eval`` series and method, each ``recip-sum``
#: method, the product sides of ``verify``, and a Lambert pole.
AMBIENT_COMMANDS = (
    "eval lambert --q 0.9999 --digits 30 --report",
    "eval lambert --method naive --q=-115/191 --digits 30 --report",
    "eval lambert --q 0.999999999999 --digits 10",
    "eval glambert --x 0.3 --q 0.7 --digits 30 --report",
    "eval glambert --method naive --x=-2/3 --q 0.9 --digits 30 --report",
    *(
        f"eval qxt --method {method} --x 0.3 --t 0.2 --q 0.5 --digits 30 --report"
        for method in ("theta", "naive", "alt")
    ),
    *(
        f"eval bilateral --method {method} --x 0.6 --t=-0.5 --q 0.2 --digits 30 --report"
        for method in ("theta", "direct", "form1", "form2")
    ),
    "eval theta3 --q 0.9 --digits 30 --report",
    *(
        f"recip-sum --m1 1 --m2 1 --method {method} --digits 30 --report"
        for method in ("horadam", "naive", "gosper", "split")
    ),
    "recip-sum --m1 2 --m2 1 --digits 300 --report",
    "verify --identity gosper-poch --trials 3 --digits 30",
    "verify --identity fine-16.3 --trials 3 --digits 30",
)


def _ambient_outputs(capsys) -> list:
    """The exit code and output of each command, then two library results."""
    outputs = []
    for command in AMBIENT_COMMANDS:
        code = main(command.split())
        captured = capsys.readouterr()
        outputs.append((command, code, captured.out, captured.err))
    ctx = make_context(30)
    outputs.append(qpochhammer_inf(Decimal(10) ** 6, Decimal("0.9"), ctx))
    outputs.append(product_factor_count(Decimal("0.7"), ctx))
    return outputs


def test_output_does_not_depend_on_the_callers_decimal_context(capsys) -> None:
    """Domain tests and digit choices read the ``RealContext`` alone: at 3
    digits a rounded ``abs(q)`` once refused ``q = 0.9999`` as outside the
    unit interval, and at 100 digits accepted ``q`` that the default
    refuses."""
    expected = _ambient_outputs(capsys)
    for prec in (3, 6, 100):
        with decimal.localcontext(prec=prec):
            assert _ambient_outputs(capsys) == expected, prec
