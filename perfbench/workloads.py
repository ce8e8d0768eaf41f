"""The operation lists of the benchmark's workloads, built from a seed.

An operation is the argument list of one ``qlambert`` command.  A workload is
a fixed list of operations (one *round*); a run repeats whole rounds, so every
operation of the list runs equally often.  The seed only picks parameter
values, so that the cost of an operation hardly
depends on the seed: the magnitude of every real parameter lies within 0.005
of a fixed target, and each parameter is either a *short* decimal (``0.5``,
``-1/2``) or a *long* rational (``-52/103``) that parses to a full-length
number.  Half of the ``eval`` operations of ``naive-300`` and ``theta-1000``
take short operands and half long ones, because a multiply by a one-digit
operand costs far less than a full one.

This module imports nothing from ``qlambert``: the harness and the reference
checker both use it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("verify-50", "naive-300", "theta-1000")

#: The sampled identities of the registry, in report order.
IDENTITIES = (
    "rogers-fine",
    "symm",
    "fine-12.2",
    "fine-16.3",
    "poch-symm",
    "gosper-poch",
    "osler",
    "osler-1111",
    "knuth-wrench",
    "xq-swap",
    "jordan-forms",
)

#: Trials per identity in one ``verify-50`` round.  The cost of a trial
#: depends on its sampled point (the cost of the 11 checks at one seed ranges
#: over 20x), so a round needs many trials for its cost to vary little with
#: the seed.
VERIFY_TRIALS = 100

#: Denominators of long rationals: primes, so the decimal expansion never ends.
PRIMES = tuple(p for p in range(11, 200) if all(p % d for d in range(2, p)))

#: Horadam pairs (m1, m2) of the reciprocal sums: Fibonacci, Pell (root
#: ratio sqrt(2)-1, irrational like Fibonacci's) and Jacobsthal (integer roots
#: 2 and -1, so every operand stays short).
HORADAM_PAIRS = ((1, 1), (2, 1), (1, 2))

#: (series, method, ((parameter, magnitude), ...)); each spec yields one
#: short-operand and one long-operand operation.  Bilateral magnitudes keep
#: |q| < |t| < 1 and |q| < |x| < 1.
NAIVE_SPECS = (
    ("lambert", "naive", (("q", 0.5),)),
    ("lambert", "naive", (("q", 0.7),)),
    ("glambert", "naive", (("x", 0.6), ("q", 0.5))),
    ("qxt", "naive", (("x", 0.6), ("t", 0.5), ("q", 0.7))),
    ("bilateral", "direct", (("x", 0.6), ("t", 0.5), ("q", 0.2))),
)

THETA_SPECS = (
    ("lambert", "theta", (("q", 0.5),)),
    ("glambert", "theta", (("x", 0.6), ("q", 0.5))),
    ("qxt", "theta", (("x", 0.6), ("t", 0.5), ("q", 0.7))),
    ("qxt", "alt", (("x", 0.6), ("t", 0.5), ("q", 0.7))),
    ("bilateral", "theta", (("x", 0.6), ("t", 0.5), ("q", 0.2))),
    ("bilateral", "form1", (("x", 0.6), ("t", 0.5), ("q", 0.2))),
    ("bilateral", "form2", (("x", 0.6), ("t", 0.5), ("q", 0.2))),
    ("theta3", "theta", (("q", 0.7),)),
)


@dataclass(frozen=True)
class Op:
    """One operation: its kind (for warm-up and reports) and its argv."""

    kind: str
    argv: tuple[str, ...]


def short_real(rng: random.Random, magnitude: float) -> str:
    """``magnitude`` itself, one significant digit, with a random sign.

    Spelled either as a decimal (``0.5``) or as the equal reduced fraction
    (``1/2``); both parse to the same one-digit number.
    """
    sign = rng.choice(("", "-"))
    frac = Fraction(str(magnitude))
    if rng.random() < 0.5:
        return f"{sign}{magnitude}"
    return f"{sign}{frac.numerator}/{frac.denominator}"


def long_real(rng: random.Random, magnitude: float) -> str:
    """A signed rational ``p/d`` with prime ``d`` within 0.005 of ``magnitude``."""
    sign = rng.choice(("", "-"))
    candidates = [
        (round(magnitude * d), d)
        for d in PRIMES
        if abs(round(magnitude * d) / d - magnitude) <= 0.005
    ]
    p, d = rng.choice(candidates)
    return f"{sign}{p}/{d}"


def _eval_ops(rng: random.Random, specs: tuple, digits: int) -> list[Op]:
    ops = []
    for series, method, params in specs:
        for make in (short_real, long_real):
            argv = ["eval", series, "--method", method]
            for name, magnitude in params:
                # One token, so that argparse does not take "-3/7" for an option.
                argv.append(f"--{name}={make(rng, magnitude)}")
            argv += ["--digits", str(digits), "--report"]
            ops.append(Op(f"eval {series} {method}", tuple(argv)))
    return ops


def _recip_op(m1: int, m2: int, method: str, digits: int) -> Op:
    argv = (
        "recip-sum", "--m1", str(m1), "--m2", str(m2), "--method", method,
        "--digits", str(digits), "--report",
    )
    return Op(f"recip-sum {method}", argv)


def verify_ops(seed: int) -> list[Op]:
    """``verify-50``: trial ``i`` of every identity, then one matrix sweep.

    ``verify --identity NAME --trials 1 --seed S+i`` samples the same point
    as trial ``i`` of ``verify --all --seed S``.
    """
    ops = []
    for trial in range(VERIFY_TRIALS):
        for name in IDENTITIES:
            argv = (
                "verify", "--identity", name, "--trials", "1",
                "--seed", str(seed + trial), "--digits", "50", "--report",
            )
            ops.append(Op(f"verify {name}", argv))
    ops.append(
        Op(
            "verify gosper-matrix",
            ("verify", "--identity", "gosper-matrix", "--digits", "50", "--report"),
        )
    )
    return ops


def naive_ops(seed: int) -> list[Op]:
    """``naive-300``: geometrically convergent routes at 300 digits."""
    rng = random.Random(seed)
    ops = _eval_ops(rng, NAIVE_SPECS, 300)
    ops += [_recip_op(m1, m2, "naive", 300) for m1, m2 in HORADAM_PAIRS]
    return ops


def theta_ops(seed: int) -> list[Op]:
    """``theta-1000``: theta-class routes at 1000 digits."""
    rng = random.Random(seed)
    ops = _eval_ops(rng, THETA_SPECS, 1000)
    ops += [_recip_op(m1, m2, "horadam", 1000) for m1, m2 in HORADAM_PAIRS]
    ops.append(_recip_op(1, 1, "split", 1000))
    ops.append(_recip_op(1, 1, "gosper", 1000))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of one round of ``workload``."""
    if workload == "verify-50":
        return verify_ops(seed)
    if workload == "naive-300":
        return naive_ops(seed)
    if workload == "theta-1000":
        return theta_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, seed: int) -> list[Op]:
    """One operation of each kind, run untimed during set-up.

    For ``naive-300`` and ``theta-1000`` this is the first operation of each
    kind in the list, which takes short operands.  For ``verify-50`` it is the
    first operation of each kind at seed 0: the cost of one sampled point
    varies too much for set-up to depend on the seed.
    """
    first: dict[str, Op] = {}
    for op in build(workload, 0 if workload == "verify-50" else seed):
        first.setdefault(op.kind, op)
    return list(first.values())
