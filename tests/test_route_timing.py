"""``tools/route_timing.py``: what it times and where it imports from."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "route_timing.py"
spec = importlib.util.spec_from_file_location("route_timing", TOOL)
route_timing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(route_timing)

LAMBERT = ["eval", "lambert", "--q", "1/2", "--digits", "30"]


def test_a_child_times_the_command_from_the_given_checkout() -> None:
    seconds = route_timing.fastest_call(route_timing.ROOT, LAMBERT, 2)
    assert 0 < seconds < 10


def test_a_checkout_without_the_package_fails_the_child(tmp_path) -> None:
    (tmp_path / "src").mkdir()
    with pytest.raises(subprocess.CalledProcessError):
        route_timing.fastest_call(tmp_path, LAMBERT, 1)

