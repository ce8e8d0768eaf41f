"""Registry of q-series identities with independently evaluable sides.

Every identity is registered as an :class:`IdentityEntry` carrying a
parameter schema and two or more side evaluators; :func:`check_identity`
draws deterministic pseudo-random parameter points, evaluates all sides at
full precision, and reports the worst pairwise deviation.  A point passes
when that deviation stays within ``4*epsilon`` (two independently truncated
sides carrying at most ``epsilon`` error each, plus rounding margin).

Two printed forms are corrected here because they fail numerically and the
corrected forms hold to full precision at every sampled point:

* the ``fine-12.2`` right side uses the Pochhammer symbol ``(b/a;q)_n``
  (folded into the pole-free product ``prod_j (a - b*q^j)``), and
* the alternate expansion checked inside module lambert uses ``(-x*t)^n``
  rather than ``(x*t)^n``.

Sampling uses a 64-bit linear congruential generator,

    ``state <- (6364136223846793005*state + 1442695040888963407) mod 2^64``,

mapped to ``[-0.9, 0.9]``, so worst points are reproducible across runs and
implementations.  Each trial expands its own substream seeded by
``seed + trial_index``; points hitting poles or domain edges are resampled
wholesale (up to 1000 attempts).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from functools import partial
from typing import Callable, Mapping

from .bilateral import (
    BilateralParams,
    jordan_direct,
    jordan_form1,
    jordan_form2,
    jordan_theta,
)
from .errors import DivergenceError, DomainError, PoleError, UnknownIdentityError
from .gospermat import (
    LEFT,
    RIGHT,
    exchange_check,
    product_factor_count,
    product_upper_right,
)
from .lambert import (
    QxtParams,
    _geometric,
    _glambert_naive,
    _glambert_theta,
    _qxt_theta,
    fine_F,
    lambert_naive,
    series_qxt_lhs,
)
from .numerics import BigReal, RealContext, _require_int
# Not called here: perfbench/tracing.py patches this name and counts its
# calls as side re-runs, which must stay 0.
from .numerics import make_context  # noqa: F401
from .qcore import (
    Factor,
    QTerm,
    SeriesValue,
    ball,
    combine,
    ipow,
    poch_product,
    sum_bracketed,
    sum_qterm,
)

__all__ = [
    "GOSPER_MATRIX_NAME",
    "IdentityEntry",
    "IdentityReport",
    "ParamSpec",
    "check_gosper_matrix",
    "check_identity",
    "registry",
]

Params = Mapping[str, BigReal]
SideFn = Callable[[Params, RealContext], SeriesValue]

#: LCG constants (64-bit state).
LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1
_TWO64 = Decimal(1 << 64)

#: Real parameters are drawn uniformly from [-DRAW_SPAN, DRAW_SPAN].
DRAW_SPAN = Decimal("0.9")

#: Whole-point resampling budget per trial.
MAX_RESAMPLES = 1000

#: Name of the synthetic matrix-identity report (not a registry entry).
GOSPER_MATRIX_NAME = "gosper-matrix"


@dataclass(frozen=True)
class ParamSpec:
    """Declared domain of one identity parameter.

    ``kind`` is ``"real"`` (uniform over ``[-0.9, 0.9]``, optionally floored
    away from zero by ``min_magnitude``) or ``"int"`` (uniform over the
    inclusive range ``low..high``).
    """

    name: str
    kind: str = "real"
    low: int = 0
    high: int = 0
    min_magnitude: Decimal | None = None


@dataclass(frozen=True)
class IdentityEntry:
    """One registered identity: parameter schema, side evaluators, anchor text.

    ``transform``, when present, post-processes a drawn point (used to scale
    ``q`` inside the bilateral convergence wedge).
    """

    name: str
    parameters: tuple[ParamSpec, ...]
    sides: tuple[SideFn, ...]
    anchor: str
    transform: Callable[[dict[str, BigReal], RealContext], dict[str, BigReal]] | None = None


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of sampling one identity.

    ``worst_point`` maps parameter names to the exact sampled values, as
    positional decimal strings; ``passed`` is
    ``worst_deviation <= 4*epsilon`` for the context used.  When some side
    failed to certify at a sampled point, ``reason`` says why,
    ``worst_point`` is the first such point and ``passed`` is False.
    """

    name: str
    trials: int
    seed: int
    worst_deviation: BigReal
    worst_point: dict[str, str]
    passed: bool
    reason: str | None = None


class _Rng:
    """64-bit LCG substream (see module docstring for the constants)."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_raw(self) -> int:
        self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & _MASK64
        return self.state

    def draw_real(self, ctx: RealContext, min_magnitude: BigReal | None = None) -> BigReal:
        """Uniform draw from ``[-0.9, 0.9]``, floored away from 0 on request."""
        while True:
            raw = self.next_raw()
            with localcontext(ctx.dec):
                unit = Decimal(raw) / _TWO64
                value = (2 * unit - 1) * DRAW_SPAN
            if min_magnitude is None or abs(value) >= min_magnitude:
                return value

    def draw_int(self, low: int, high: int) -> int:
        return low + self.next_raw() % (high - low + 1)


def _draw_point(
    entry: IdentityEntry, rng: _Rng, ctx: RealContext
) -> dict[str, BigReal]:
    point: dict[str, BigReal] = {}
    for spec in entry.parameters:
        if spec.kind == "int":
            point[spec.name] = Decimal(rng.draw_int(spec.low, spec.high))
        else:
            point[spec.name] = rng.draw_real(ctx, spec.min_magnitude)
    if entry.transform is not None:
        point = entry.transform(point, ctx)
    return point


def _series_side(build: Callable[..., QTerm], method_tag: str, *names: str) -> SideFn:
    """The side that sums ``build`` at the parameters ``names``."""

    def side(p: Params, ctx: RealContext) -> SeriesValue:
        return sum_qterm(build, (p[name] for name in names), ctx, method_tag)

    side.__name__ = method_tag
    return side


# ---------------------------------------------------------------------------
# Entry 1: Rogers-Fine.


def _fine_times_one_minus_t(p: Params, ctx: RealContext) -> SeriesValue:
    """``(1-t) * F(a,b;t)`` with Fine's function summed naively."""
    sv = fine_F(p["a"], p["b"], p["t"], p["q"], ctx)
    with localcontext(ctx.dec):
        scale = 1 - Decimal(p["t"])
    return combine(((scale, sv),), ctx, "fine-naive")


def _rogers_fine_rhs(a: BigReal, b: BigReal, t: BigReal, q: BigReal) -> QTerm:
    """``((aq;q)_n (atq/b;q)_n / ((bq;q)_n (tq;q)_n))
    (1 - a t q^(2n+1)) b^n t^n q^(n^2)``, ``n >= 0``.

    The ``(atq/b;q)_n b^n`` block is folded into the Pochhammer product
    ``prod_{j=1}^{n} (b - a t q^j)`` so ``b = 0`` needs no special casing.
    """
    at = a * t
    return QTerm(
        q,
        z=t,
        theta=(2, 1),
        factors=(
            Factor(at, s=2, k=1),
            Factor(a, k=1, pochhammer=True),
            Factor(at, k=1, pochhammer=True, c0=b),
            Factor(b, k=1, power=-1, pochhammer=True),
            Factor(t, k=1, power=-1, pochhammer=True),
        ),
    )


# ---------------------------------------------------------------------------
# Entry 2: the x <-> t symmetry of sum t^n/(1 - x q^n).


def _symm_lhs(p: Params, ctx: RealContext) -> SeriesValue:
    return series_qxt_lhs(QxtParams(p["x"], p["t"], p["q"]), ctx)


def _symm_rhs(p: Params, ctx: RealContext) -> SeriesValue:
    return series_qxt_lhs(QxtParams(p["t"], p["x"], p["q"]), ctx)


# ---------------------------------------------------------------------------
# Entry 3: Fine's second transformation (12.2), corrected.


def _fine_122_rhs(a: BigReal, b: BigReal, t: BigReal, q: BigReal) -> QTerm:
    """``((b/a;q)_n / ((bq;q)_n (tq;q)_n)) (-a t)^n q^((n^2+n)/2)``, ``n >= 0``.

    ``(b/a;q)_n (-a t)^n`` is folded into ``prod_{j<n} (a - b q^j) (-t)^n``,
    which is exact at ``a = 0`` as well.
    """
    return QTerm(
        q,
        z=-t,
        theta=(1, 1),
        factors=(
            Factor(b, pochhammer=True, c0=a),
            Factor(b, k=1, power=-1, pochhammer=True),
            Factor(t, k=1, power=-1, pochhammer=True),
        ),
    )


# ---------------------------------------------------------------------------
# Entry 4: Fine's relation (16.3).


def _fine_163_lhs(p: Params, ctx: RealContext) -> SeriesValue:
    return fine_F(p["a"], p["b"], p["t"], p["q"], ctx)


def _fine_163_series(a: BigReal, b: BigReal, t: BigReal, q: BigReal) -> QTerm:
    """``((b/a;q)_n/(q;q)_n) (aq)^n/(1-t q^n)``, ``n >= 0``.

    ``(b/a;q)_n (aq)^n`` is folded into ``prod_{j<n}(a - b q^j) q^n``.
    """
    return QTerm(
        q,
        z=q,
        factors=(
            Factor(t, power=-1),
            Factor(b, pochhammer=True, c0=a),
            Factor(1, k=1, power=-1, pochhammer=True),
        ),
    )


def _fine_163_rhs(p: Params, ctx: RealContext) -> SeriesValue:
    """``((aq;q)_inf/(bq;q)_inf) sum_n ((b/a;q)_n/(q;q)_n) (aq)^n/(1-t q^n)``."""
    with localcontext(ctx.dec):
        a, b, q = +Decimal(p["a"]), +Decimal(p["b"]), +Decimal(p["q"])
        pochs = ((a * q, 1), (b * q, -1))
    params = (p["a"], p["b"], p["t"], p["q"])
    return poch_product(q, pochs, _fine_163_series, params, ctx, "fine-16.3")


# ---------------------------------------------------------------------------
# Entries 5 and 6: Pochhammer-denominator symmetry and Gosper's identity.


def _poch_series(t: BigReal, x: BigReal, q: BigReal) -> QTerm:
    """``t^n/(x;q)_{n+1}``, ``n >= 0``."""
    return QTerm(
        q,
        start=1 / (1 - x),
        z=t,
        factors=(Factor(x, k=1, power=-1, pochhammer=True),),
    )


def _gosper_poch_lhs(p: Params, ctx: RealContext) -> SeriesValue:
    """``((t;q)_inf (x;q)_inf / (q;q)_inf) * sum_n t^n/(x;q)_{n+1}``."""
    x, t, q = p["x"], p["t"], p["q"]
    pochs = ((t, 1), (x, 1), (q, -1))
    return poch_product(q, pochs, _poch_series, (t, x, q), ctx, "gosper-poch-lhs")


def _gosper_poch_rhs(x: BigReal, t: BigReal, q: BigReal) -> QTerm:
    """``((t;q)_n (x;q)_n / (q;q)_n) q^n``, ``n >= 0``."""
    return QTerm(
        q,
        z=q,
        factors=(
            Factor(t, pochhammer=True),
            Factor(x, pochhammer=True),
            Factor(1, k=1, power=-1, pochhammer=True),
        ),
    )


# ---------------------------------------------------------------------------
# Entry 7: Osler-Hassen relations (6.5) = (6.6) = (6.7).


def _osler_single(
    alpha: BigReal, beta: BigReal, q: BigReal, *abcd: BigReal
) -> QTerm:
    """``alpha^n q^(d(an+b)) / (1 - beta q^(c(an+b)))``, ``n >= 0``."""
    a, b, c, d = map(int, abcd)
    return QTerm(
        q,
        start=ipow(q, d * b),
        z=alpha * ipow(q, d * a),
        factors=(Factor(beta, s=c * a, k=c * b, power=-1),),
    )


def _osler_combined(p: Params, ctx: RealContext) -> SeriesValue:
    """Two-term combined form (6.7).

    ``sum_{n>=0} [ (alpha beta)^n q^((an+b)(cn+d)) / (1 - beta q^(c(an+b)))
    + alpha^(n+1) beta^n q^((a(n+1)+b)(cn+d)) / (1 - alpha q^(a(cn+d))) ]``,
    evaluated as two separately certified theta-class series (their sum can
    cancel at isolated indices, which would break a shared ratio bound).
    """
    params = [p[name] for name in ("alpha", "beta", "q", "a", "b", "c", "d")]
    part1 = sum_qterm(_osler_combined_a, params, ctx, "osler-6.7a")
    part2 = sum_qterm(_osler_combined_b, params, ctx, "osler-6.7b")
    return combine(((1, part1), (1, part2)), ctx, "osler-6.7")


def _osler_combined_a(alpha: BigReal, beta: BigReal, q: BigReal, *abcd: BigReal) -> QTerm:
    """``(alpha beta)^n q^((an+b)(cn+d)) / (1 - beta q^(c(an+b)))``, ``n >= 0``."""
    a, b, c, d = map(int, abcd)
    pole = Factor(beta, s=c * a, k=c * b, power=-1)
    theta = (2 * a * c, a * c + a * d + b * c)
    return QTerm(q, ipow(q, b * d), alpha * beta, theta, (pole,))


def _osler_combined_b(alpha: BigReal, beta: BigReal, q: BigReal, *abcd: BigReal) -> QTerm:
    """``alpha^(n+1) beta^n q^((a(n+1)+b)(cn+d)) / (1 - alpha q^(a(cn+d)))``,
    ``n >= 0``."""
    a, b, c, d = map(int, abcd)
    pole = Factor(alpha, s=a * c, k=a * d, power=-1)
    theta = (2 * a * c, 2 * a * c + a * d + b * c)
    return QTerm(q, alpha * ipow(q, (a + b) * d), alpha * beta, theta, (pole,))


# ---------------------------------------------------------------------------
# Entry 8: the five-expression chain at a=b=c=d=1.


#: ``scale * x^n q^n / (1 - t q^n)``, ``n >= 1``.
_chain_geo = _geometric


def _chain_theta_parts(
    x: BigReal, t: BigReal, q: BigReal, ctx: RealContext, method_tag: str
) -> SeriesValue:
    """``sum_{n>=1} x^n t^n q^(n^2)/(1-t q^n)
    + x * sum_{n>=1} x^n t^n q^(n(n+1))/(1-x q^n)``."""
    part_a = sum_qterm(_chain_theta, (x, t, t, q, 1), ctx, "chain-a")
    part_b = sum_qterm(_chain_theta, (x, t, x, q, 2), ctx, "chain-b")
    return combine(((1, part_a), (x, part_b)), ctx, method_tag)


def _chain_theta(x: BigReal, t: BigReal, pole: BigReal, q: BigReal, shift: BigReal) -> QTerm:
    """``x^n t^n q^(n(n-1) + shift*n)/(1-pole q^n)``, ``n >= 1``."""
    xt, shift = x * t, int(shift)
    return QTerm(q, xt * ipow(q, shift), xt, (2, shift), (Factor(pole, power=-1),), first=1)


def _chain_e3(p: Params, ctx: RealContext) -> SeriesValue:
    return _chain_theta_parts(p["x"], p["t"], p["q"], ctx, "chain-e3")


def _chain_e4(p: Params, ctx: RealContext) -> SeriesValue:
    return _chain_theta_parts(p["t"], p["x"], p["q"], ctx, "chain-e4")


# ---------------------------------------------------------------------------
# Entry 9: the Knuth/Wrench bracket identity with a_n = x^n.


def _wrench_lhs(x: BigReal, q: BigReal) -> QTerm:
    """``x^n q^n/(1-q^n)``, ``n >= 1`` (linear route)."""
    return _geometric(x, 1, q)


def _wrench_closed(p: Params, ctx: RealContext) -> SeriesValue:
    """``sum_{n>=1} [1/(1-q^n) + x q^n/(1-x q^n)] x^n q^(n^2)``.

    The inner ``k``-sums of the Wrench bracket are closed geometrically
    (valid because ``a_n = x^n``).  The bracket equals
    ``(1 - x q^(2n))/((1-q^n)(1-x q^n))``, so the summands are those of the
    theta-form generalized Lambert series and share its majorant.
    """
    x, q = p["x"], p["q"]

    def bracket(q_pow: BigReal) -> BigReal:
        xq = x * q_pow
        return 1 / (1 - q_pow) + xq / (1 - xq)

    return sum_bracketed(_glambert_theta, (x, q), bracket, ctx, "wrench-closed")


def _wrench_truncated(p: Params, ctx: RealContext) -> SeriesValue:
    """``sum_{n>=1} [1 + sum_{k>=1} (1 + x^k) q^(kn)] x^n q^(n^2)``, ``|x| <= 1``.

    The inner sum beyond ``k = K`` is at most ``r = 2|q^n|^(K+1)/(1-|q^n|)``;
    it stops once ``2r <= delta_p = 10**-(p+6)``, ``p`` the precision in force
    when the engine asks for the bracket: the working precision ``wd``, or
    less once the engine tapers (:mod:`qlambert.qcore`).  The test runs
    without a division per step, as ``4|q^n|^(K+1) <= cut = delta_p*(1-|q^n|)``,
    with ``cut`` formed once per bracket, and only once the exponent of
    ``q^(n(K+1))`` is at most that of ``cut``: before, the rounded product
    ``4|q^n|^(K+1)`` is at least ``10**(adj(cut) + 1) > cut`` and fails it.
    ``delta_p`` is below the precision ``p``, so no outward move by ``r``
    would survive rounding; none is made.
    The true bracket ``(1 - x q^(2n))/((1-q^n)(1-x q^n))`` is at least
    ``(1-q^2)/4``, and the computed one is within ``r`` plus ``K`` roundings
    of it: a relative error of ``4/(1-q^2)`` times ``K`` units in the last
    digit at ``p``, far inside the ``2**-49`` slack of the engine's tail test.
    So the tail estimate from the computed summand still bounds the true
    remainder.  The weight is at most 1, so a summand computed at ``wd`` is
    within ``delta = 10**-(wd+6)`` of the true one, and the tail bound adds
    ``terms_used * delta``.  A tapered summand's truncation is at most
    ``2*10**-(p+6)/(1-q^2)`` of it, ``4*10**-7/(1-q^2)`` units at ``p``: less
    than one of the roundings that the taper proof counts per index
    (``|q| <= 0.9`` at the sampled points), so the rounding floor of the
    tail bound covers it as it covers them.
    """
    delta = Decimal(1).scaleb(-(ctx.working_digits + 6), ctx.dec)
    x, q = p["x"], p["q"]

    def bracket(q_pow: BigReal) -> BigReal:
        total = Decimal(1)
        qk = q_pow              # q^(kn) for k = 1, 2, ...
        xk = x                  # x^k
        cut = Decimal(1).scaleb(-(getcontext().prec + 6)) * (1 - abs(q_pow))
        cut_e = cut.adjusted()
        while True:
            total += (1 + xk) * qk
            qk *= q_pow
            xk *= x
            # A nonzero qk past cut's exponent has |qk| >= 10**(cut_e + 1) > cut.
            if (qk.adjusted() <= cut_e or not qk) and 4 * abs(qk) <= cut:
                return total

    sv = sum_bracketed(_glambert_theta, (x, q), bracket, ctx, "wrench-truncated")
    truncation = ball(0, sv.terms_used * delta)
    return combine(((1, sv), (1, truncation)), ctx, "wrench-truncated")


# ---------------------------------------------------------------------------
# Entry 10: the x/q swap.


def _xq_swap_rhs(x: BigReal, q: BigReal) -> QTerm:
    """``x^n/(1 - q^n)``, ``n >= 1``."""
    return QTerm(q, start=x, z=x, factors=(Factor(1, power=-1),), first=1)


# ---------------------------------------------------------------------------
# Entry 11: the bilateral Jordan-Kronecker forms.


def _jordan_transform(
    point: dict[str, BigReal], ctx: RealContext
) -> dict[str, BigReal]:
    """Scale the raw ``q`` draw into the wedge ``|q| < min(|x|, |t|)``."""
    with localcontext(ctx.dec):
        bound = min(abs(point["x"]), abs(point["t"]))
        q = point["q"] / DRAW_SPAN * bound * Decimal("0.95")
    return {"x": point["x"], "t": point["t"], "q": q}


def _jordan_side(fn: Callable[[BilateralParams, RealContext], SeriesValue]) -> SideFn:
    def side(p: Params, ctx: RealContext) -> SeriesValue:
        return fn(BilateralParams(p["x"], p["t"], p["q"]), ctx)

    return side


# ---------------------------------------------------------------------------
# Sides summed straight from their descriptions.

_rogers_fine_side = _series_side(_rogers_fine_rhs, "rogers-theta", "a", "b", "t", "q")
_fine_122_side = _series_side(_fine_122_rhs, "fine-12.2", "a", "b", "t", "q")
_poch_symm_lhs = _series_side(_poch_series, "poch-series", "t", "x", "q")
_poch_symm_rhs = _series_side(_poch_series, "poch-series", "x", "t", "q")
_gosper_poch_rhs_side = _series_side(_gosper_poch_rhs, "gosper-poch-rhs", "x", "t", "q")
_osler_lhs = _series_side(
    _osler_single, "osler-6.5", "alpha", "beta", "q", "a", "b", "c", "d"
)
_osler_mid = _series_side(
    _osler_single, "osler-6.6", "beta", "alpha", "q", "c", "d", "a", "b"
)
_chain_e1 = _series_side(_chain_geo, "chain-e1", "x", "t", "q", "t")
_chain_e2 = _series_side(_chain_geo, "chain-e2", "t", "x", "q", "x")
# The symmetric form sum_{n>=1} (1 - x t q^(2n)) x^n t^n q^(n^2)/((1-x q^n)(1-t q^n)).
_chain_e5 = _series_side(partial(_qxt_theta, first=1), "chain-e5", "x", "t", "q")
_wrench_lhs_side = _series_side(_wrench_lhs, "wrench-lhs", "x", "q")
# x q^n/(1 - x q^n), n >= 0.
_xq_swap_lhs_side = _series_side(
    partial(_glambert_naive, first=0), "xq-swap-lhs", "x", "q"
)
_xq_swap_rhs_side = _series_side(_xq_swap_rhs, "xq-swap-rhs", "x", "q")


# ---------------------------------------------------------------------------
# Registry and checker.


def _certified(side: SideFn) -> SideFn:
    """Hold a side to an absolute-error budget of ``ctx.epsilon``.

    Every sum and product of a side takes its digits from its magnitude
    before its first term (:mod:`qlambert.qcore`), so each side runs once;
    a tail past ``epsilon`` would mean that a prediction fell short.
    """

    def wrapped(p: Params, ctx: RealContext) -> SeriesValue:
        sv = side(p, ctx)
        if sv.tail_bound > ctx.epsilon:
            raise DivergenceError(
                f"side {side.__name__} missed epsilon at its predicted digits "
                f"(tail {sv.tail_bound:E})"
            )
        return sv

    return wrapped


def _sides(*fns: SideFn) -> tuple[SideFn, ...]:
    return tuple(_certified(fn) for fn in fns)


_REAL = ParamSpec
_MIN_A = Decimal("0.05")


def _entries() -> tuple[IdentityEntry, ...]:
    return (
        IdentityEntry(
            name="rogers-fine",
            parameters=(
                _REAL("a"), _REAL("b"), _REAL("t"), _REAL("q"),
            ),
            sides=_sides(_fine_times_one_minus_t, _rogers_fine_side),
            anchor="Rogers-Fine identity, relation (14.1) of Fine",
        ),
        IdentityEntry(
            name="symm",
            parameters=(_REAL("x"), _REAL("t"), _REAL("q")),
            sides=_sides(_symm_lhs, _symm_rhs),
            anchor="symmetry of sum t^n/(1-x q^n) in x and t",
        ),
        IdentityEntry(
            name="fine-12.2",
            parameters=(
                _REAL("a"), _REAL("b"), _REAL("t"), _REAL("q"),
            ),
            sides=_sides(_fine_times_one_minus_t, _fine_122_side),
            anchor="Fine's second transformation (12.2), corrected to (b/a;q)_n",
        ),
        IdentityEntry(
            name="fine-16.3",
            parameters=(
                _REAL("a", min_magnitude=_MIN_A), _REAL("b"), _REAL("t"), _REAL("q"),
            ),
            sides=_sides(_fine_163_lhs, _fine_163_rhs),
            anchor="Fine's relation (16.3)",
        ),
        IdentityEntry(
            name="poch-symm",
            parameters=(_REAL("x"), _REAL("t"), _REAL("q")),
            sides=_sides(_poch_symm_lhs, _poch_symm_rhs),
            anchor="symmetry of sum t^n/(x;q)_{n+1}",
        ),
        IdentityEntry(
            name="gosper-poch",
            parameters=(_REAL("x"), _REAL("t"), _REAL("q")),
            sides=_sides(_gosper_poch_lhs, _gosper_poch_rhs_side),
            anchor="Pochhammer-quotient identity given by Gosper",
        ),
        IdentityEntry(
            name="osler",
            parameters=(
                _REAL("alpha"),
                _REAL("beta"),
                _REAL("q"),
                ParamSpec("a", kind="int", low=1, high=4),
                ParamSpec("b", kind="int", low=0, high=4),
                ParamSpec("c", kind="int", low=1, high=4),
                ParamSpec("d", kind="int", low=0, high=4),
            ),
            sides=_sides(_osler_lhs, _osler_mid, _osler_combined),
            anchor="Osler-Hassen relations (6.5), (6.6), (6.7)",
        ),
        IdentityEntry(
            name="osler-1111",
            parameters=(_REAL("x"), _REAL("t"), _REAL("q")),
            sides=_sides(_chain_e1, _chain_e2, _chain_e3, _chain_e4, _chain_e5),
            anchor="five-expression chain at a=b=c=d=1",
        ),
        IdentityEntry(
            name="knuth-wrench",
            parameters=(_REAL("x"), _REAL("q")),
            sides=_sides(_wrench_lhs_side, _wrench_closed, _wrench_truncated),
            anchor="Knuth/Wrench bracket identity with a_n = x^n",
        ),
        IdentityEntry(
            name="xq-swap",
            parameters=(_REAL("x"), _REAL("q")),
            sides=_sides(_xq_swap_lhs_side, _xq_swap_rhs_side),
            anchor="swap relation sum x q^n/(1-x q^n) = sum x^n/(1-q^n)",
        ),
        IdentityEntry(
            name="jordan-forms",
            parameters=(
                _REAL("x", min_magnitude=_MIN_A),
                _REAL("t", min_magnitude=_MIN_A),
                _REAL("q"),
            ),
            sides=_sides(
                _jordan_side(jordan_direct),
                _jordan_side(jordan_theta),
                _jordan_side(jordan_form1),
                _jordan_side(jordan_form2),
            ),
            anchor="Jordan-Kronecker function: direct sum and three forms",
            transform=_jordan_transform,
        ),
    )


_REGISTRY: tuple[IdentityEntry, ...] | None = None


def registry() -> list[IdentityEntry]:
    """All registered identities, in fixed report order."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _entries()
    return list(_REGISTRY)


def get_entry(name: str) -> IdentityEntry:
    """Look up one registry entry by name."""
    for entry in registry():
        if entry.name == name:
            return entry
    raise UnknownIdentityError(f"unknown identity: {name!r}")


def check_identity(
    name: str, trials: int, seed: int, ctx: RealContext
) -> IdentityReport:
    """Sample an identity and report the worst pairwise side deviation.

    Each trial seeds its own generator substream with ``seed + trial``, so
    the report is independent of evaluation order.  Points rejected by
    domain or pole checks are redrawn from the same substream, up to
    :data:`MAX_RESAMPLES` attempts.  A side that raises
    :class:`DivergenceError` fails its trial; the report names the first
    such point and the reason.

    Raises:
        UnknownIdentityError: if ``name`` is not registered.
        DomainError: if ``trials < 1`` or some trial exhausts its
            resampling budget.
    """
    entry = get_entry(name)
    _require_int("trials", trials, 1)
    worst = Decimal(0)
    worst_point: dict[str, BigReal] = {}
    reason = None
    for trial in range(trials):
        rng = _Rng(seed + trial)
        for _attempt in range(MAX_RESAMPLES):
            point = _draw_point(entry, rng, ctx)
            try:
                values = [side(point, ctx) for side in entry.sides]
            except (DomainError, PoleError):
                continue
            except DivergenceError as exc:
                if reason is None:
                    reason, worst_point = str(exc), point
                break
            with localcontext(ctx.dec):
                deviation = max(
                    abs(first.value - second.value)
                    for i, first in enumerate(values)
                    for second in values[i + 1 :]
                )
            if deviation > worst:
                worst = deviation
                if reason is None:
                    worst_point = point
            break
        else:
            raise DomainError(
                f"all {MAX_RESAMPLES} sampled points rejected for {name!r}"
            )
    threshold = 4 * ctx.epsilon
    return IdentityReport(
        name=name,
        trials=trials,
        seed=seed,
        worst_deviation=worst,
        worst_point={key: format(value, "f") for key, value in worst_point.items()},
        passed=reason is None and worst <= threshold,
        reason=reason,
    )


def check_gosper_matrix(ctx: RealContext, seed: int = 0) -> IdentityReport:
    """Exchange-relation sweep plus matrix-product comparison.

    Sweeps ``exchange_check`` over ``(k, n) in [1,10] x [0,10]`` and
    ``q in {0.3, -0.3, 0.7}``, then compares the left and right matrix
    products, long enough for certified convergence, against each
    other and the Lambert-series oracle at ``q = 0.3``.  All residuals fold
    into ``worst_deviation`` under the usual ``4*epsilon`` bar.
    """
    with localcontext(ctx.dec):
        worst = Decimal(0)
        worst_point: dict[str, str] = {}
        checks = 0
        for q_text in ("0.3", "-0.3", "0.7"):
            q = ctx.dec.create_decimal(q_text)
            for k in range(1, 11):
                for n in range(0, 11):
                    residual = exchange_check(k, n, q, ctx)
                    checks += 1
                    if residual > worst:
                        worst = residual
                        worst_point = {"check": "exchange", "k": str(k), "n": str(n), "q": q_text}
        q = ctx.dec.create_decimal("0.3")
        count = product_factor_count(q, ctx)
        left = product_upper_right(LEFT, count, q, ctx)
        right = product_upper_right(RIGHT, count, q, ctx)
        oracle = lambert_naive(q, ctx).value
        for label, diff in (
            ("left-vs-right", abs(left - right)),
            ("left-vs-lambert", abs(left - oracle)),
            ("right-vs-lambert", abs(right - oracle)),
        ):
            checks += 1
            if diff > worst:
                worst = diff
                worst_point = {
                    "check": label,
                    "q": "0.3",
                    "factors": str(count),
                }
        threshold = 4 * ctx.epsilon
    return IdentityReport(
        name=GOSPER_MATRIX_NAME,
        trials=checks,
        seed=seed,
        worst_deviation=worst,
        worst_point=worst_point,
        passed=worst <= threshold,
    )
