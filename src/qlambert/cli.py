"""Command-line front end: evaluate, verify, benchmark, and sum reciprocals.

Subcommands:

* ``eval`` — evaluate one series (``lambert``, ``glambert``, ``qxt``,
  ``bilateral``, ``theta3``) by a chosen method and print the value.
* ``recip-sum`` — reciprocal sum of a Horadam-type recurrence by method
  ``naive``, ``horadam`` (theta-accelerated), ``gosper``, or ``split``.
* ``verify`` — sample one or all registered identities and emit one JSON
  report per line; exits 0 only if every report passes.  A side that fails
  to certify at a sampled point fails its report, which then carries a
  ``reason``.
* ``bench`` — time naive against theta-style convergence for one series and
  emit a JSON report with term counts (values are cross-checked first).

Exit codes: 0 success/pass, 1 identity or consistency failure, 2 argument
or domain error, 3 pole detection.  Parameters accept decimal literals or
exact rationals such as ``1/2`` (preferred near poles, where the value is
sensitive to the representation of ``q``); a negative one may be its own
argument, as in ``--q -115/191``.  All high-precision numbers in
JSON output are decimal strings, never binary floats; report mode prints
one JSON object per line and nothing else.

The reciprocal sums (:mod:`qlambert.recurrences`) and the identity registry
(:mod:`qlambert.identities`) are imported inside the functions that run
them, so that ``eval`` and ``recip-sum`` never compile the registry and
``verify`` never compiles the reciprocal sums.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from decimal import Decimal, localcontext
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .bilateral import (
    BilateralParams,
    jordan_direct,
    jordan_form1,
    jordan_form2,
    jordan_theta,
)
from .errors import DivergenceError, DomainError, QlambertError
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
    Real,
    RealContext,
    as_decimal,
    format_real,
    make_context,
    parse_real,
)
from .qcore import SeriesValue, combine, theta3

if TYPE_CHECKING:
    from .identities import IdentityReport
    from .recurrences import HoradamSequence

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


def _gosper_sum(seq: HoradamSequence, ctx: RealContext) -> SeriesValue:
    from .recurrences import fib_recip_gosper, gosper_terms

    return fib_recip_gosper(gosper_terms(ctx), ctx)


def _split_sum(seq: HoradamSequence, ctx: RealContext) -> SeriesValue:
    from .recurrences import fib_even_theta, fib_odd_theta

    parts = ((1, fib_even_theta(ctx)), (1, fib_odd_theta(ctx)))
    return combine(parts, ctx, "split")


#: The ``recip-sum`` methods, the default first (:func:`_recip_table`).
RECIP_METHODS = ("horadam", "naive", "gosper", "split")


def _recip_table() -> dict[str, tuple[bool, Callable[..., SeriesValue]]]:
    """Every ``recip-sum`` method by name, in the order of
    :data:`RECIP_METHODS`: whether it sums the Fibonacci reciprocals alone,
    and its ``(seq, ctx)`` evaluator.

    Built per call, like :func:`_series_table`.
    """
    from .recurrences import recip_sum_fast, recip_sum_naive

    return {
        "horadam": (False, recip_sum_fast),
        "naive": (False, recip_sum_naive),
        "gosper": (True, _gosper_sum),
        "split": (True, _split_sum),
    }


def _tail_text(tail: Decimal) -> str:
    return format(tail, ".6E")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload))


def _parse_series_params(
    args: argparse.Namespace, series: str, ctx: RealContext
) -> dict[str, Real]:
    """Collect and parse the flags a series needs; reject stray ones.

    A short non-terminating rational stays an exact ``Fraction``
    (:func:`~qlambert.numerics.parse_real`)."""
    wanted = _series_table()[series].params
    values: dict[str, Real] = {}
    for name in ("q", "x", "t"):
        raw = getattr(args, name)
        if name in wanted:
            if raw is None:
                raise DomainError(f"series {series!r} requires --{name}")
            values[name] = parse_real(raw, ctx)
        elif raw is not None:
            raise DomainError(f"series {series!r} does not take --{name}")
    return values


def _resolve_digits(requested: int) -> RealContext:
    """Context for ``requested`` digits; short requests compute at the floor,
    and the output is formatted to ``requested`` digits."""
    if requested < 1:
        raise DomainError(f"--digits must be positive, got {requested}")
    return make_context(max(requested, MIN_TARGET_DIGITS))


def _evaluate_series(
    series: str, method: str | None, params: dict[str, Real], ctx: RealContext
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


def _emit(
    args: argparse.Namespace, sv: SeriesValue, ctx: RealContext, digits: int, **fields
) -> int:
    """Print ``sv``'s value, or with ``--report`` a JSON object of ``fields``
    followed by the value, ``terms_used`` and ``tail_bound``.

    Raises:
        DivergenceError: if ``tail_bound`` exceeds ``10**-digits * max(1, |value|)``,
            so that no uncertified digit is printed.
    """
    with localcontext(ctx.dec):
        ceiling = Decimal(1).scaleb(-digits) * max(1, abs(sv.value))
    if sv.tail_bound > ceiling:
        raise DivergenceError(
            f"tail_bound {_tail_text(sv.tail_bound)} exceeds "
            f"10^-{digits} * max(1, |value|) = {_tail_text(ceiling)}"
        )
    value = format_real(sv.value, ctx, digits)
    if args.report:
        fields.update(
            value=value, terms_used=sv.terms_used, tail_bound=_tail_text(sv.tail_bound)
        )
        value = json.dumps(fields)
    print(value)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ctx = _resolve_digits(args.digits)
    params = _parse_series_params(args, args.series, ctx)
    sv = _evaluate_series(args.series, args.method, params, ctx)
    return _emit(args, sv, ctx, args.digits, series=args.series, method=sv.method_tag)


def cmd_recip_sum(args: argparse.Namespace) -> int:
    from .recurrences import HoradamSequence

    ctx = _resolve_digits(args.digits)
    seq = HoradamSequence(args.m1, args.m2)
    fibonacci_only, evaluate = _recip_table()[args.method]
    if fibonacci_only and (args.m1, args.m2) != (1, 1):
        raise DomainError(
            f"method {args.method!r} applies only to the Fibonacci case "
            f"--m1 1 --m2 1, got ({args.m1}, {args.m2})"
        )
    sv = evaluate(seq, ctx)
    return _emit(
        args, sv, ctx, args.digits, m1=args.m1, m2=args.m2, method=args.method
    )


def _report_payload(report: IdentityReport) -> dict:
    payload = {
        "name": report.name,
        "trials": report.trials,
        "seed": report.seed,
        "worst_deviation": _tail_text(report.worst_deviation),
        "worst_point": report.worst_point,
        "pass": report.passed,
    }
    if report.reason is not None:
        payload["reason"] = report.reason
    return payload


def cmd_verify(args: argparse.Namespace) -> int:
    from .identities import (
        GOSPER_MATRIX_NAME,
        check_gosper_matrix,
        check_identity,
        registry,
    )

    ctx = _resolve_digits(args.digits)
    reports: list[IdentityReport] = []
    if args.all:
        for entry in registry():
            reports.append(check_identity(entry.name, args.trials, args.seed, ctx))
        reports.append(check_gosper_matrix(ctx, seed=args.seed))
    elif args.identity == GOSPER_MATRIX_NAME:
        reports.append(check_gosper_matrix(ctx, seed=args.seed))
    else:
        reports.append(check_identity(args.identity, args.trials, args.seed, ctx))
    for report in reports:
        _print_json(_report_payload(report))
    return 0 if all(report.passed for report in reports) else 1


def cmd_bench(args: argparse.Namespace) -> int:
    ctx = _resolve_digits(args.digits)
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
                "value": format_real(sv.value, ctx, args.digits),
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
            "parameters": {
                name: str(as_decimal(value, ctx)) for name, value in params.items()
            },
            "target_digits": args.digits,
            "methods": records,
            "term_ratio": str(ratio),
        }
    )
    return 0


#: The flags of ``eval`` and ``bench`` that take a real number, which may be
#: negative, and their help.
_REAL_FLAGS = {
    "--q": "base q (decimal or rational like 1/2)",
    "--x": "parameter x",
    "--t": "parameter t",
}


def build_parser() -> argparse.ArgumentParser:
    """The full command grammar, a new parser per call.

    :func:`main` builds one on its first call and keeps it.  The parser
    holds no handler: ``main`` dispatches on ``args.command``.
    """
    parser = argparse.ArgumentParser(
        prog="qlambert",
        description="High-precision q-series evaluation with certified bounds.",
    )
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument(
        "--digits", type=int, default=30, help="significant digits (default 30)"
    )
    common = argparse.ArgumentParser(add_help=False, parents=[digits])
    common.add_argument(
        "--report", action="store_true", help="emit machine-readable JSON"
    )
    reals = argparse.ArgumentParser(add_help=False)
    for flag, text in _REAL_FLAGS.items():
        reals.add_argument(flag, help=text)
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_eval = subparsers.add_parser(
        "eval", parents=[common, reals], help="evaluate one series"
    )
    table = _series_table()
    p_eval.add_argument("series", choices=sorted(table))
    p_eval.add_argument("--method", help="evaluation method (default theta)")

    p_recip = subparsers.add_parser(
        "recip-sum", parents=[common], help="reciprocal sum of a recurrence"
    )
    p_recip.add_argument("--m1", type=int, required=True)
    p_recip.add_argument("--m2", type=int, required=True)
    p_recip.add_argument(
        "--method", choices=RECIP_METHODS, default=RECIP_METHODS[0],
        help=f"summation route (default {RECIP_METHODS[0]})",
    )

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
        "--seed", type=int, default=42, help="sampler seed (default 42)"
    )

    p_bench = subparsers.add_parser(
        "bench", parents=[digits, reals], help="compare naive and theta convergence"
    )
    # bench compares the series that have both a naive and a theta method.
    both = {"naive", "theta"}
    bench_series = [name for name, spec in table.items() if both <= spec.methods.keys()]
    p_bench.add_argument("--series", choices=bench_series, required=True)

    return parser


#: The parser of :func:`main`, built on its first call.
_PARSER: argparse.ArgumentParser | None = None


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with each real flag whose value starts with ``-`` and a digit
    or a point written as one ``--flag=value`` argument: argparse reads a
    value such as ``-115/191``, none of its negative-number forms, as an
    option."""
    args: list[str] = []
    for arg in argv:
        if args and args[-1] in _REAL_FLAGS and re.match(r"-[0-9.]", arg):
            args[-1] += "=" + arg
        else:
            args.append(arg)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: parse, dispatch, and map errors to exit codes.

    The parser is built once per process.  The handler ``cmd_<command>`` is
    looked up by name on every call, so that a wrapper put in its place (the
    benchmark's tracer does) is called.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = _PARSER.parse_args(_attach_negative_values(argv))
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except QlambertError as exc:
        print(f"qlambert: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
