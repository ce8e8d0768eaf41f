"""High-precision q-series evaluation with certified truncation bounds.

The package evaluates Lambert-type series in both their defining (linear)
form and their theta-accelerated form, sums reciprocals of Fibonacci-type
recurrences by several independent routes, and numerically certifies a
registry of classical q-series identities at sampled parameter points.

Every evaluator returns a :class:`~qlambert.qcore.SeriesValue` whose
``tail_bound`` is an analytic majorant of the truncation error plus a
rounding allowance — not a heuristic — so downstream comparisons can rely
on it.
"""

from __future__ import annotations

import importlib

from .bilateral import (
    BilateralParams,
    jordan_direct,
    jordan_form1,
    jordan_form2,
    jordan_theta,
)
from .errors import (
    DivergenceError,
    DomainError,
    PoleError,
    QlambertError,
    UnknownIdentityError,
)
from .lambert import (
    QxtParams,
    fine_F,
    glambert_lhs,
    glambert_theta,
    lambert_naive,
    lambert_theta,
    series_qxt_alt,
    series_qxt_lhs,
    series_qxt_rhs,
)
from .numerics import (
    BigReal,
    RealContext,
    format_real,
    make_context,
    parse_real,
    sqrt,
)
from .qcore import (
    Factor,
    QTerm,
    SeriesValue,
    TermGenerator,
    qpochhammer_inf,
    qpochhammer_n,
    sum_qterm,
    sum_series,
    theta3,
)

__version__ = "1.0.0"

__all__ = [
    "BigReal",
    "BilateralParams",
    "DivergenceError",
    "DomainError",
    "Factor",
    "HoradamSequence",
    "IdentityEntry",
    "IdentityReport",
    "LEFT",
    "Mat2",
    "ParamSpec",
    "PoleError",
    "QTerm",
    "QlambertError",
    "QxtParams",
    "RIGHT",
    "RealContext",
    "SeriesValue",
    "TermGenerator",
    "UnknownIdentityError",
    "__version__",
    "check_gosper_matrix",
    "check_identity",
    "exchange_check",
    "fib_even_alt",
    "fib_even_theta",
    "fib_odd_alt",
    "fib_odd_theta",
    "fib_recip_gosper",
    "fibonacci",
    "fine_F",
    "format_real",
    "glambert_lhs",
    "glambert_theta",
    "horadam_term",
    "jordan_direct",
    "jordan_form1",
    "jordan_form2",
    "jordan_theta",
    "lambert_naive",
    "lambert_theta",
    "lucas_G",
    "make_context",
    "matK",
    "matN",
    "parse_real",
    "product_factor_count",
    "product_upper_right",
    "qpochhammer_inf",
    "qpochhammer_n",
    "recip_sum_fast",
    "recip_sum_naive",
    "registry",
    "series_qxt_alt",
    "series_qxt_lhs",
    "series_qxt_rhs",
    "sqrt",
    "sum_qterm",
    "sum_series",
    "theta3",
]

#: The public names of the modules that only some commands run, by module.
#: They are imported on first access (:func:`__getattr__`), so that ``eval``
#: never compiles ``identities`` or ``gospermat``, and ``verify`` never
#: compiles ``recurrences``.
_LAZY = {
    "gospermat": (
        "LEFT",
        "RIGHT",
        "Mat2",
        "exchange_check",
        "matK",
        "matN",
        "product_factor_count",
        "product_upper_right",
    ),
    "identities": (
        "IdentityEntry",
        "IdentityReport",
        "ParamSpec",
        "check_gosper_matrix",
        "check_identity",
        "registry",
    ),
    "recurrences": (
        "HoradamSequence",
        "fib_even_alt",
        "fib_even_theta",
        "fib_odd_alt",
        "fib_odd_theta",
        "fib_recip_gosper",
        "fibonacci",
        "horadam_term",
        "lucas_G",
        "recip_sum_fast",
        "recip_sum_naive",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """A public name of a module in :data:`_LAZY`, imported on first access
    and then bound here (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
