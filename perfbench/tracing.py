"""Timing and counting wrappers for the traced run, and its per-layer report.

:func:`install` wraps every public function of every ``qlambert`` module, and
``lambert._pole_scan``, and puts the wrapper in place of the function in every
module that imported the name (``sum_series`` and ``ipow`` in ``lambert``,
``recurrences`` and ``identities``, for example).  The wrapper around
``sum_series`` also wraps the generator's ``term`` and ``decay.ratio_at``.
Nothing is installed in an untraced run.

Each wrapped call is a *span*: name, parent span, operation id, start,
duration, and one count taken at the boundary (the terms a summation used,
the trials of a check, the digits of an escalated context).  Calls made
thousands of times per operation (``term``, ``ratio_at``, ``ipow``, the
integer-sequence terms, the 2x2 matrices, ``make_context``) are *folded*: the
enclosing span gets one child span per call path holding the number of calls
and their summed duration.  Spans are kept in flat arrays and written out at
the end of the run.  The self time of a span is its duration minus the
durations of its child spans; a layer's self time is the sum over its spans.

Layer metrics are reported per operation, so they do not depend on how many
rounds fit in a run.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import defaultdict
from types import SimpleNamespace

#: Modules whose public functions are wrapped; each is a layer.
LAYERS = (
    "qcore",
    "lambert",
    "bilateral",
    "recurrences",
    "gospermat",
    "identities",
    "numerics",
    "cli",
)

#: Wrapped names whose calls are folded into the enclosing span.
FOLDED = {
    "qcore.term",
    "qcore.ratio_at",
    "qcore.ipow",
    "recurrences.horadam_term",
    "recurrences.fibonacci",
    "recurrences.lucas_G",
    "gospermat.matK",
    "gospermat.matN",
    "numerics.make_context",
}

LAMBERT_EVALS = (
    "series_qxt_lhs",
    "series_qxt_rhs",
    "series_qxt_alt",
    "lambert_naive",
    "lambert_theta",
    "glambert_lhs",
    "glambert_theta",
    "fine_F",
)
BILATERAL_EVALS = ("jordan_direct", "jordan_theta", "jordan_form1", "jordan_form2")
RECURRENCE_EVALS = (
    "recip_sum_naive",
    "recip_sum_fast",
    "fib_recip_gosper",
    "fib_even_theta",
    "fib_odd_theta",
    "fib_even_alt",
    "fib_odd_alt",
)

class Tracer:
    """Span storage plus the wrappers that fill it (one per process)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = -1
        self.stack: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Drop every span recorded so far (used after warm-up)."""
        self.name = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("q")
        self.total = array("q")
        self.count = array("q")
        self.value = array("q")
        # Frames are (span id or None inside a folded call, folds, call path).
        self.stack[:] = [(-1, {}, ())]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _row(self, nid: int, parent: int, start: int, total: int, count: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(parent)
        self.op_id.append(self.op)
        self.start.append(start)
        self.total.append(total)
        self.count.append(count)
        self.value.append(0)
        return sid

    def _close(self, sid: int, start: int, duration: int, value: int, folds: dict) -> None:
        self.start[sid] = start
        self.total[sid] = duration
        self.value[sid] = value
        folded_ids = {(): sid}
        for path in sorted(folds, key=len):
            calls, summed = folds[path]
            folded_ids[path] = self._row(
                path[-1], folded_ids[path[:-1]], start, summed, calls
            )

    def wrap(self, name: str, fn, value=None):
        """A span-recording wrapper of ``fn`` named ``name``.

        ``value(args, kwargs, result)`` gives the count stored with the span.
        Calls of a :data:`FOLDED` name, and any call made inside a folded
        call, are folded into the enclosing span.
        """
        nid = self._intern(name)
        folded = name in FOLDED
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if folded or top[0] is None:
                path = top[2] + (nid,)
                folds = top[1]
                stack.append((None, folds, path))
                began = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - began
                    stack.pop()
                    acc = folds.get(path)
                    if acc is None:
                        folds[path] = [1, duration]
                    else:
                        acc[0] += 1
                        acc[1] += duration
            sid = self._row(nid, top[0], 0, 0, 1)
            folds = {}
            stack.append((sid, folds, ()))
            counted = 0
            began = clock()
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    counted = value(args, kwargs, result)
                return result
            finally:
                duration = clock() - began
                stack.pop()
                self._close(sid, began, duration, counted, folds)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for sid in range(len(self.name)):
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": self.parent[sid],
                            "op": self.op_id[sid],
                            "name": self.names[self.name[sid]],
                            "start_ns": self.start[sid],
                            "duration_ns": self.total[sid],
                            "calls": self.count[sid],
                            "value": self.value[sid],
                        }
                    )
                )
                out.write("\n")

    def layer_metrics(self, operations: int) -> dict[str, float]:
        """Per-operation layer metrics derived from the recorded spans."""
        rows = range(len(self.name))
        child_total = defaultdict(int)
        for sid in rows:
            if self.parent[sid] >= 0:
                child_total[self.parent[sid]] += self.total[sid]
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        values = defaultdict(int)
        layer_self = defaultdict(int)
        # Each escalation of a side holds the digits of its whole context; the
        # digits it adds are those beyond the side's previous context.
        previous_digits: dict[int, int] = {}
        escalation_digits = 0
        last_gosper: dict[int, int] = {}
        for sid in rows:
            name = self.names[self.name[sid]]
            own = self.total[sid] - child_total[sid]
            calls[name] += self.count[sid]
            total[name] += self.total[sid]
            self_ns[name] += own
            values[name] += self.value[sid]
            layer_self[name.partition(".")[0]] += own
            if name == "identities.escalation":
                side = self.parent[sid]
                escalation_digits += self.value[sid] - previous_digits.get(side, self.value[side])
                previous_digits[side] = self.value[sid]
            elif name == "recurrences.fib_recip_gosper":
                last_gosper[self.op_id[sid]] = self.value[sid]

        def ms(ns: int) -> float:
            return ns / 1e6 / operations

        def per_op(count: int) -> float:
            return count / operations

        def group(prefix: str, names) -> tuple[int, int, int]:
            keys = [f"{prefix}.{n}" for n in names]
            return (
                sum(calls[k] for k in keys),
                sum(total[k] for k in keys),
                sum(values[k] for k in keys),
            )

        lam_calls, lam_ns, _ = group("lambert", LAMBERT_EVALS)
        bil_calls, bil_ns, bil_terms = group("bilateral", BILATERAL_EVALS)
        _, rec_ns, _ = group("recurrences", RECURRENCE_EVALS)
        gosper_terms = values["recurrences.fib_recip_gosper"]
        checks = calls["identities.check_identity"] + calls["identities.check_gosper_matrix"]
        metrics = {
            "qcore.sum_calls": per_op(calls["qcore.sum_series"]),
            "qcore.terms": per_op(calls["qcore.term"]),
            "qcore.sum_ms": ms(total["qcore.sum_series"]),
            "qcore.term_ms": ms(total["qcore.term"]),
            "qcore.certify_calls": per_op(calls["qcore.ratio_at"]),
            "qcore.certify_ms": ms(total["qcore.ratio_at"]),
            "qcore.ipow_calls": per_op(calls["qcore.ipow"]),
            "qcore.ipow_ms": ms(total["qcore.ipow"]),
            "qcore.engine_self_ms": ms(self_ns["qcore.sum_series"]),
            "qcore.qpoch_inf_calls": per_op(calls["qcore.qpochhammer_inf"]),
            "qcore.qpoch_inf_factors": per_op(values["qcore.qpochhammer_inf"]),
            "qcore.qpoch_inf_ms": ms(total["qcore.qpochhammer_inf"]),
            "qcore.theta3_calls": per_op(calls["qcore.theta3"]),
            "qcore.theta3_ms": ms(total["qcore.theta3"]),
            "lambert.eval_calls": per_op(lam_calls),
            "lambert.eval_ms": ms(lam_ns),
            "lambert.pole_scan_calls": per_op(calls["lambert.pole_scan"]),
            "lambert.pole_scan_ms": ms(total["lambert.pole_scan"]),
            "bilateral.eval_calls": per_op(bil_calls),
            "bilateral.eval_ms": ms(bil_ns),
            "bilateral.terms": per_op(bil_terms),
            "bilateral.validate_calls": per_op(calls["bilateral.validate"]),
            "bilateral.validate_ms": ms(total["bilateral.validate"]),
            "recurrences.eval_ms": ms(rec_ns),
            "recurrences.horadam_term_calls": per_op(calls["recurrences.horadam_term"]),
            "recurrences.gosper_calls": per_op(calls["recurrences.fib_recip_gosper"]),
            "recurrences.gosper_terms": per_op(gosper_terms),
            "recurrences.gosper_ms": ms(total["recurrences.fib_recip_gosper"]),
            "recurrences.gosper_useful_ratio": (
                sum(last_gosper.values()) / gosper_terms if gosper_terms else 0.0
            ),
            "gospermat.exchange_calls": per_op(calls["gospermat.exchange_check"]),
            "gospermat.exchange_ms": ms(total["gospermat.exchange_check"]),
            "gospermat.product_ms": ms(total["gospermat.product_upper_right"]),
            "identities.checks": per_op(checks),
            "identities.check_ms": ms(
                total["identities.check_identity"] + total["identities.check_gosper_matrix"]
            ),
            "identities.draws": per_op(calls["identities.draw"]),
            "identities.rejected_draws": per_op(
                calls["identities.draw"] - values["identities.check_identity"]
            ),
            "identities.side_evals": per_op(calls["identities.side"]),
            "identities.escalations": per_op(calls["identities.escalation"]),
            "identities.escalation_digits": per_op(escalation_digits),
            "numerics.make_context_calls": per_op(calls["numerics.make_context"]),
            "numerics.parse_ms": ms(total["numerics.parse_real"]),
            "numerics.format_ms": ms(total["numerics.format_real"]),
            "cli.main_calls": per_op(calls["cli.main"]),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = ms(layer_self[layer])
        return metrics


def _result_terms(args, kwargs, result) -> int:
    return result.terms_used


def install() -> Tracer:
    """Wrap the ``qlambert`` layers in place; return the tracer that records.

    Must run before the identity registry is first built, because the
    registry captures its side functions when it is built.
    """
    import qlambert
    from qlambert import (
        bilateral,
        cli,
        gospermat,
        identities,
        lambert,
        numerics,
        qcore,
        recurrences,
    )

    modules = dict(
        zip(
            LAYERS,
            (qcore, lambert, bilateral, recurrences, gospermat, identities, numerics, cli),
        )
    )
    if identities._REGISTRY is not None:
        raise RuntimeError("tracing must be installed before the registry is built")
    tracer = Tracer()
    everywhere = list(modules.values()) + [qlambert]

    def replace(original, wrapper) -> None:
        for module in everywhere:
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    setattr(module, attr, wrapper)

    values = {
        "qcore.qpochhammer_inf": _result_terms,
        "identities.check_identity": lambda a, k, r: r.trials,
        "recurrences.fib_recip_gosper": lambda a, k, r: r.terms_used,
    }
    values.update({f"bilateral.{n}": _result_terms for n in BILATERAL_EVALS})
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name != "qcore.sum_series"
            ):
                replace(obj, tracer.wrap(name, obj, values.get(name)))

    raw_sum = qcore.sum_series
    term_name, ratio_name = "qcore.term", "qcore.ratio_at"

    def sum_series_with_hooks(gen, *args, **kwargs):
        hooked = qcore.TermGenerator(
            tracer.wrap(term_name, gen.term),
            SimpleNamespace(ratio_at=tracer.wrap(ratio_name, gen.decay.ratio_at)),
        )
        return raw_sum(hooked, *args, **kwargs)

    replace(raw_sum, tracer.wrap("qcore.sum_series", sum_series_with_hooks, _result_terms))

    scan = lambert._pole_scan
    lambert._pole_scan = tracer.wrap("lambert.pole_scan", scan)

    validate = bilateral.BilateralParams.validate
    bilateral.BilateralParams.validate = tracer.wrap("bilateral.validate", validate)

    identities._draw_point = tracer.wrap("identities.draw", identities._draw_point)
    certified = identities._certified
    identities._certified = lambda side: tracer.wrap(
        "identities.side", certified(side), lambda a, k, r: a[1].target_digits
    )
    identities.make_context = tracer.wrap(
        "identities.escalation", identities.make_context, lambda a, k, r: a[0]
    )
    return tracer
