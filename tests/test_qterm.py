"""Property tests of the q-term descriptions and the majorants derived from them.

Two properties, at sample points biased toward |q|, |x|, |t| -> 1:

* ``ratio_at(n)`` majorises every later term ratio: for every computed
  term, ``|T_{m+1}| <= ratio_at(n) * |T_m|`` for all ``m >= n``;
* each ``tail_bound`` covers the gap to a recomputation at 20 more digits.

They are checked on the descriptions that the evaluators build through
module-level builders, and on random descriptions, which combine theta
weights, evaluated and Pochhammer factors in ways no builder does and
include folded factors ``(c0 - c1 q^i)`` with ``c0 != 1``.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from qlambert import DivergenceError, Factor, QTerm, make_context
from qlambert.identities import (
    _chain_geo,
    _fine_122_rhs,
    _fine_163_series,
    _gosper_poch_rhs,
    _osler_single,
    _poch_series,
    _rogers_fine_rhs,
    _wrench_lhs,
    _xq_swap_rhs,
)
from qlambert.lambert import (
    _fine,
    _glambert_naive,
    _glambert_theta,
    _lambert_theta,
    _qxt_alt,
    _qxt_naive,
    _qxt_theta,
)
from qlambert.qcore import sum_qterm

DIGITS = 12
#: Terms whose ratios are checked per sample.
CHECKED_TERMS = 200
#: ratio_at's value while some denominator bound is not yet positive.
NOT_YET = Decimal(2)


def _signed(magnitude: float, negative: bool) -> Decimal:
    value = Decimal(repr(magnitude)).quantize(Decimal("1e-6"))
    return -value if negative else value


def unit(top: float = 0.98) -> st.SearchStrategy[Decimal]:
    """A value in (-1, 1), half the time with magnitude in [0.9, top]."""
    magnitude = st.one_of(
        st.floats(0, 0.9), st.floats(0.9, top), st.sampled_from([0.95, top])
    )
    return st.builds(_signed, magnitude, st.booleans())


#: (builder, strategy of its arguments)
PORTED = [
    (_qxt_naive, st.tuples(unit(), unit(), unit())),
    (_qxt_theta, st.tuples(unit(), unit(), unit())),
    (partial(_qxt_theta, first=1), st.tuples(unit(), unit(), unit())),
    (_qxt_alt, st.tuples(unit(), unit(), unit())),
    (_lambert_theta, st.tuples(unit().filter(bool))),
    (_glambert_naive, st.tuples(unit(), unit())),
    (partial(_glambert_naive, first=0), st.tuples(unit(), unit())),
    (_glambert_theta, st.tuples(unit(), unit())),
    (_fine, st.tuples(unit(), unit(), unit(), unit())),
    (_rogers_fine_rhs, st.tuples(unit(), unit(), unit(), unit())),
    (_fine_122_rhs, st.tuples(unit(), unit(), unit(), unit())),
    (_fine_163_series, st.tuples(unit(), unit(), unit(), unit())),
    (_poch_series, st.tuples(unit(), unit(), unit())),
    (_gosper_poch_rhs, st.tuples(unit(), unit(), unit())),
    (
        _osler_single,
        st.tuples(
            unit(), unit(), unit(),
            *(st.integers(low, 4).map(Decimal) for low in (1, 0, 1, 0)),
        ),
    ),
    (_chain_geo, st.tuples(unit(), unit(), unit(), unit())),
    (_wrench_lhs, st.tuples(unit(), unit().filter(bool))),
    (_xq_swap_rhs, st.tuples(unit(), unit().filter(bool))),
]


@st.composite
def random_series(draw) -> tuple:
    """A random convergent description, as a builder plus its arguments."""
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        power = draw(st.sampled_from([1, -1]))
        pochhammer = draw(st.booleans())
        if pochhammer and power > 0:
            c0 = draw(st.sampled_from([Decimal(1), draw(unit())]))
        else:
            # |c0| >= 1 > |c1| keeps denominators away from zero, lets the
            # bounds of evaluated factors certify, and keeps the summands of
            # Pochhammer denominators from growing.
            c0 = draw(st.sampled_from([Decimal(1), Decimal("1.25"), Decimal("1.5")]))
        factors.append(
            Factor(
                draw(unit()),
                s=draw(st.integers(1, 2)),
                k=draw(st.integers(0, 2)),
                power=power,
                pochhammer=pochhammer,
                c0=c0 * draw(st.sampled_from([1, -1])),
            )
        )
    theta = draw(st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(0, 2))))
    z = draw(unit(0.95))
    first = draw(st.integers(0, 2))

    def build(q: Decimal) -> QTerm:
        return QTerm(q, z=z, theta=theta, factors=tuple(factors), first=first)

    return build, (draw(unit()),)


def _check_majorant(build, params) -> None:
    ctx = make_context(DIGITS)
    with localcontext(ctx.dec):
        series = build(*params)
        gen = series.generator()
        terms, ratios = [], []
        for n in range(series.first, series.first + CHECKED_TERMS):
            terms.append(abs(gen.term(n)))
            ratios.append(gen.decay.ratio_at(n))
        slack = 1 + Decimal(1).scaleb(-(ctx.working_digits - 5))
        # worst[i]: the largest |T_{m+1}/T_m| over m >= i.
        worst = [Decimal(0)] * len(terms)
        for i in range(len(terms) - 2, -1, -1):
            if terms[i]:
                ratio = terms[i + 1] / terms[i]
            else:
                ratio = Decimal(0) if not terms[i + 1] else Decimal("Infinity")
            worst[i] = max(ratio, worst[i + 1])
        for i, rho in enumerate(ratios[:-1]):
            if rho != NOT_YET:
                assert worst[i] <= rho * slack, (i + series.first, worst[i], rho)


def _check_tail(build, params) -> None:
    try:
        coarse = sum_qterm(build, params, make_context(DIGITS), "coarse")
        fine = sum_qterm(build, params, make_context(DIGITS + 20), "fine")
    except DivergenceError:
        # Slow series near |q| = 1 can exhaust the engine's term budget;
        # they report no tail bound to check.
        return
    with localcontext(make_context(DIGITS + 40).dec):
        assert abs(coarse.value - fine.value) <= coarse.tail_bound + fine.tail_bound


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ported_majorants_bound_every_later_ratio(data) -> None:
    for build, args in PORTED:
        params = data.draw(args)
        _check_majorant(build, params)
        _check_tail(build, params)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_series())
def test_random_majorants_bound_every_later_ratio(series) -> None:
    build, params = series
    _check_majorant(build, params)
    _check_tail(build, params)
