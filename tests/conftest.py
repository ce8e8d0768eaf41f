"""Shared test configuration.

The suite runs under Python's default 28-digit ``decimal`` context, as the
command line does, so library arithmetic done outside its own working
context shows up as wrong digits.  A test whose own assertion arithmetic
needs more digits takes a local context.
"""

from __future__ import annotations

import pytest

from qlambert import RealContext, make_context


@pytest.fixture(scope="session")
def ctx30() -> RealContext:
    return make_context(30)


@pytest.fixture(scope="session")
def ctx40() -> RealContext:
    return make_context(40)


@pytest.fixture(scope="session")
def ctx50() -> RealContext:
    return make_context(50)
