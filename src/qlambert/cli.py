"""Command-line front end: evaluate, verify, benchmark, and sum reciprocals.

Subcommands:

* ``eval`` — evaluate one series (``lambert``, ``glambert``, ``qxt``,
  ``bilateral``, ``theta3``) by a chosen method and print the value.
* ``recip-sum`` — reciprocal sum of a Horadam-type recurrence by method
  ``naive``, ``horadam`` (theta-accelerated), ``gosper``, or ``split``.
* ``verify`` — sample one or all registered identities and emit one JSON
  report per line; exits 0 only if every report passes.
* ``bench`` — time naive against theta-style convergence for one series and
  emit a JSON report with term counts (values are cross-checked first).

Exit codes: 0 success/pass, 1 identity or consistency failure, 2 argument
or domain error, 3 pole detection.  Parameters accept decimal literals or
exact rationals such as ``1/2`` (preferred near poles, where the value is
sensitive to the representation of ``q``).  All high-precision numbers in
JSON output are decimal strings, never binary floats; report mode prints
one JSON object per line and nothing else.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from decimal import Decimal, localcontext
from typing import Callable, NamedTuple, Sequence

from .bilateral import (
    BilateralParams,
    jordan_direct,
    jordan_form1,
    jordan_form2,
    jordan_theta,
)
from .errors import DomainError, QlambertError
from .identities import (
    GOSPER_MATRIX_NAME,
    IdentityReport,
    check_gosper_matrix,
    check_identity,
    registry,
)
from .lambert import (
    QxtParams,
    glambert_lhs,
    glambert_theta,
    lambert_naive,
    lambert_theta,
    series_qxt_alt,
    series_qxt_lhs,
    series_qxt_rhs,
)
from .numerics import (
    MIN_TARGET_DIGITS,
    RealContext,
    format_real,
    make_context,
    parse_real,
)
from .qcore import SeriesValue, theta3
from .recurrences import (
    HoradamSequence,
    fib_even_theta,
    fib_odd_theta,
    fib_recip_gosper,
    recip_sum_fast,
    recip_sum_naive,
)

__all__ = ["build_parser", "main"]

Evaluator = Callable[..., SeriesValue]


def _packed(params_type: type, fn: Callable) -> Evaluator:
    """``fn`` taking its ``(x, t, q)`` as one parameter record."""
    return lambda x, t, q, ctx: fn(params_type(x, t, q), ctx)


class _Series(NamedTuple):
    """The real-valued flags of a series, in the order its evaluators take
    them, and its methods in order (the first is the ``eval`` default)."""

    params: tuple[str, ...]
    methods: dict[str, Evaluator]


def _series_table() -> dict[str, _Series]:
    """Every ``eval`` series by name.

    Built per call from the evaluators' current module-level names, so that
    wrappers put in their place (the benchmark's tracer does) are called.
    """
    return {
        "lambert": _Series(("q",), {"theta": lambert_theta, "naive": lambert_naive}),
        "glambert": _Series(
            ("x", "q"), {"theta": glambert_theta, "naive": glambert_lhs}
        ),
        "qxt": _Series(
            ("x", "t", "q"),
            {
                "theta": _packed(QxtParams, series_qxt_rhs),
                "naive": _packed(QxtParams, series_qxt_lhs),
                "alt": _packed(QxtParams, series_qxt_alt),
            },
        ),
        "bilateral": _Series(
            ("x", "t", "q"),
            {
                "theta": _packed(BilateralParams, jordan_theta),
                "direct": _packed(BilateralParams, jordan_direct),
                "form1": _packed(BilateralParams, jordan_form1),
                "form2": _packed(BilateralParams, jordan_form2),
            },
        ),
        "theta3": _Series(("q",), {"theta": theta3}),
    }


RECIP_METHODS = ("horadam", "naive", "gosper", "split")

#: Starting term count for the adaptive Gosper partial sum.
GOSPER_START_TERMS = 8

#: Hard cap on adaptive Gosper growth (term magnitudes shrink like
#: ``10**(-0.2*N*N)``, so this covers tens of thousands of digits).
GOSPER_MAX_TERMS = 1 << 12


def _tail_text(tail: Decimal) -> str:
    return format(tail, ".6E")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload))


def _parse_series_params(
    args: argparse.Namespace, series: str, ctx: RealContext
) -> dict[str, Decimal]:
    """Collect and parse the flags a series needs; reject stray ones."""
    wanted = _series_table()[series].params
    values: dict[str, Decimal] = {}
    for name in ("q", "x", "t"):
        raw = getattr(args, name)
        if name in wanted:
            if raw is None:
                raise DomainError(f"series {series!r} requires --{name}")
            values[name] = parse_real(raw, ctx)
        elif raw is not None:
            raise DomainError(f"series {series!r} does not take --{name}")
    return values


def _resolve_digits(requested: int) -> tuple[RealContext, int]:
    """Context for ``requested`` digits; short requests compute at the floor.

    Returns the context plus the digit count to use when formatting output.
    """
    if requested < 1:
        raise DomainError(f"--digits must be positive, got {requested}")
    ctx = make_context(max(requested, MIN_TARGET_DIGITS))
    return ctx, requested


def _evaluate_series(
    series: str, method: str | None, params: dict[str, Decimal], ctx: RealContext
) -> SeriesValue:
    """Evaluate ``series`` by ``method``, by default its first one."""
    names, methods = _series_table()[series]
    if method is None:
        method = next(iter(methods))
    if method not in methods:
        choices = ", ".join(methods)
        raise DomainError(
            f"method {method!r} not available for {series!r} (choose from {choices})"
        )
    return methods[method](*(params[name] for name in names), ctx)


def cmd_eval(args: argparse.Namespace) -> int:
    ctx, out_digits = _resolve_digits(args.digits)
    params = _parse_series_params(args, args.series, ctx)
    sv = _evaluate_series(args.series, args.method, params, ctx)
    if args.report:
        _print_json(
            {
                "series": args.series,
                "method": sv.method_tag,
                "value": format_real(sv.value, ctx, out_digits),
                "terms_used": sv.terms_used,
                "tail_bound": _tail_text(sv.tail_bound),
            }
        )
    else:
        print(format_real(sv.value, ctx, out_digits))
    return 0


def _gosper_adaptive(ctx: RealContext) -> SeriesValue:
    """Grow the Gosper partial sum until its tail bound clears epsilon."""
    terms = GOSPER_START_TERMS
    while True:
        sv = fib_recip_gosper(terms, ctx)
        if sv.tail_bound <= ctx.epsilon or terms >= GOSPER_MAX_TERMS:
            return sv
        terms += max(4, terms // 2)


def _split_sum(ctx: RealContext) -> SeriesValue:
    even = fib_even_theta(ctx)
    odd = fib_odd_theta(ctx)
    with localcontext(ctx.dec):
        value = even.value + odd.value
        tail = even.tail_bound + odd.tail_bound + ctx.tail_floor(value)
    return SeriesValue(
        value=value,
        terms_used=even.terms_used + odd.terms_used,
        tail_bound=tail,
        method_tag="split",
    )


def cmd_recip_sum(args: argparse.Namespace) -> int:
    ctx, out_digits = _resolve_digits(args.digits)
    seq = HoradamSequence(args.m1, args.m2)
    if args.method in ("gosper", "split") and (args.m1, args.m2) != (1, 1):
        raise DomainError(
            f"method {args.method!r} applies only to the Fibonacci case "
            f"--m1 1 --m2 1, got ({args.m1}, {args.m2})"
        )
    if args.method == "naive":
        sv = recip_sum_naive(seq, ctx)
    elif args.method == "horadam":
        sv = recip_sum_fast(seq, ctx)
    elif args.method == "gosper":
        sv = _gosper_adaptive(ctx)
    else:
        sv = _split_sum(ctx)
    if args.report:
        _print_json(
            {
                "m1": args.m1,
                "m2": args.m2,
                "method": args.method,
                "value": format_real(sv.value, ctx, out_digits),
                "terms_used": sv.terms_used,
                "tail_bound": _tail_text(sv.tail_bound),
            }
        )
    else:
        print(format_real(sv.value, ctx, out_digits))
    return 0


def _report_payload(report: IdentityReport) -> dict:
    return {
        "name": report.name,
        "trials": report.trials,
        "seed": report.seed,
        "worst_deviation": _tail_text(report.worst_deviation),
        "worst_point": report.worst_point,
        "pass": report.passed,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    ctx, _ = _resolve_digits(args.digits)
    reports: list[IdentityReport] = []
    if args.all:
        for entry in registry():
            reports.append(check_identity(entry.name, args.trials, args.seed, ctx))
        reports.append(check_gosper_matrix(ctx, seed=args.seed, factors=args.factors))
    elif args.identity == GOSPER_MATRIX_NAME:
        reports.append(check_gosper_matrix(ctx, seed=args.seed, factors=args.factors))
    else:
        reports.append(check_identity(args.identity, args.trials, args.seed, ctx))
    for report in reports:
        _print_json(_report_payload(report))
    return 0 if all(report.passed for report in reports) else 1


def cmd_bench(args: argparse.Namespace) -> int:
    ctx, out_digits = _resolve_digits(args.digits)
    params = _parse_series_params(args, args.series, ctx)
    records = []
    results: list[SeriesValue] = []
    methods = _series_table()[args.series].methods
    for method in ["naive"] + [name for name in methods if name != "naive"]:
        started = time.perf_counter_ns()
        sv = _evaluate_series(args.series, method, params, ctx)
        elapsed = time.perf_counter_ns() - started
        results.append(sv)
        records.append(
            {
                "method_tag": sv.method_tag,
                "terms_used": sv.terms_used,
                "elapsed_nanoseconds": elapsed,
                "value": format_real(sv.value, ctx, out_digits),
                "tail_bound": _tail_text(sv.tail_bound),
            }
        )
    with localcontext(ctx.dec):
        threshold = 4 * ctx.epsilon
        worst = max(
            abs(first.value - second.value)
            for i, first in enumerate(results)
            for second in results[i + 1 :]
        )
        if worst > threshold:
            print(
                f"qlambert: bench methods disagree by {worst:E} "
                f"(allowed {threshold:E})",
                file=sys.stderr,
            )
            return 1
        by_tag = {sv.method_tag: sv.terms_used for sv in results}
        ratio = (Decimal(by_tag["naive"]) / Decimal(by_tag["theta"])).quantize(
            Decimal("0.01")
        )
    _print_json(
        {
            "series": args.series,
            "parameters": {name: str(value) for name, value in params.items()},
            "target_digits": args.digits,
            "methods": records,
            "term_ratio": str(ratio),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full command grammar (safe to call repeatedly; no global state)."""
    parser = argparse.ArgumentParser(
        prog="qlambert",
        description="High-precision q-series evaluation with certified bounds.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--digits", type=int, default=30, help="significant digits (default 30)"
    )
    common.add_argument(
        "--report", action="store_true", help="emit machine-readable JSON"
    )
    common.add_argument(
        "--seed", type=int, default=42, help="sampler seed (default 42)"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_eval = subparsers.add_parser(
        "eval", parents=[common], help="evaluate one series"
    )
    table = _series_table()
    p_eval.add_argument("series", choices=sorted(table))
    p_eval.add_argument("--q", help="base q (decimal or rational like 1/2)")
    p_eval.add_argument("--x", help="parameter x")
    p_eval.add_argument("--t", help="parameter t")
    p_eval.add_argument("--method", help="evaluation method (default theta)")
    p_eval.set_defaults(func=cmd_eval)

    p_recip = subparsers.add_parser(
        "recip-sum", parents=[common], help="reciprocal sum of a recurrence"
    )
    p_recip.add_argument("--m1", type=int, required=True)
    p_recip.add_argument("--m2", type=int, required=True)
    p_recip.add_argument(
        "--method", choices=RECIP_METHODS, default="horadam",
        help="summation route (default horadam)",
    )
    p_recip.set_defaults(func=cmd_recip_sum)

    p_verify = subparsers.add_parser(
        "verify", parents=[common], help="numerically certify identities"
    )
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--identity", help="one identity name")
    group.add_argument("--all", action="store_true", help="whole registry")
    p_verify.add_argument(
        "--trials", type=int, default=100, help="sample points (default 100)"
    )
    p_verify.add_argument(
        "--factors", type=int, default=None,
        help="matrix product length for gosper-matrix (default adaptive)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_bench = subparsers.add_parser(
        "bench", parents=[common], help="compare naive and theta convergence"
    )
    # bench compares the series that have both a naive and a theta method.
    both = {"naive", "theta"}
    bench_series = [name for name, spec in table.items() if both <= spec.methods.keys()]
    p_bench.add_argument("--series", choices=bench_series, required=True)
    p_bench.add_argument("--q", help="base q (decimal or rational like 1/2)")
    p_bench.add_argument("--x", help="parameter x")
    p_bench.add_argument("--t", help="parameter t")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: parse, dispatch, and map errors to exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QlambertError as exc:
        print(f"qlambert: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
