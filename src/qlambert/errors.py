"""Exception hierarchy and process exit codes.

Exit-code contract, shared by every CLI subcommand:

* 0 — success (all requested checks passed),
* 1 — an identity or cross-method consistency check failed,
* 2 — argument or domain error (bad flags, parameters outside the
  convergence region, malformed numbers),
* 3 — pole error (a series denominator vanishes, or comes closer to zero
  than the working tolerance).
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_POLE = 3


class QlambertError(Exception):
    """Base class for all library errors."""

    exit_code = EXIT_DOMAIN


class DomainError(QlambertError):
    """A parameter lies outside the convergence domain of the requested series."""

    exit_code = EXIT_DOMAIN


class PoleError(QlambertError):
    """A series denominator vanishes (or nearly vanishes) at the given parameters."""

    exit_code = EXIT_POLE


class DivergenceError(QlambertError):
    """Observed terms repeatedly violate the declared decay bound."""

    exit_code = EXIT_DOMAIN


class UnknownIdentityError(DomainError):
    """An identity name is not present in the registry."""
