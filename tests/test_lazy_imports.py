"""Each command loads only the modules it runs, and every public name stays.

The package binds the public names of ``identities``, ``gospermat`` and
``recurrences`` on first access, and the CLI imports those modules inside the
commands that run them.  Each check runs in a child interpreter, whose
``sys.modules`` starts empty.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlambert

SRC = Path(qlambert.__file__).resolve().parent.parent

#: Runs the command in ``argv[1]`` and prints its exit code and the package
#: modules loaded.
COMMAND_CHILD = """
import contextlib, io, sys
from qlambert.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1].split())
print(code, *sorted(name for name in sys.modules if name.startswith("qlambert.")))
"""

#: Star-imports the package and prints the names of ``__all__`` it did not
#: bind to the package's own value.
STAR_CHILD = """
from qlambert import *
import qlambert
print(*[name for name in qlambert.__all__ if globals().get(name) is not getattr(qlambert, name)])
"""


def _child(source: str, *args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return done.stdout.split()


#: The modules that only some commands load.
OPTIONAL = ("identities", "gospermat", "recurrences")


@pytest.mark.parametrize(
    "command, loads",
    [
        ("eval lambert --q 1/3 --digits 50", ()),
        ("eval bilateral --x 0.5 --t 0.6 --q 0.2 --digits 50", ()),
        ("recip-sum --m1 1 --m2 1 --digits 50", ("recurrences",)),
        ("recip-sum --m1 2 --m2 1 --method naive --digits 50", ("recurrences",)),
        ("recip-sum --m1 1 --m2 1 --method gosper --digits 50", ("recurrences",)),
        ("recip-sum --m1 1 --m2 1 --method split --digits 50", ("recurrences",)),
        ("verify --identity osler --trials 2 --digits 30", ("identities", "gospermat")),
        ("verify --identity gosper-matrix --digits 30", ("identities", "gospermat")),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(command, loads) -> None:
    code, *loaded = _child(COMMAND_CHILD, command)
    assert code == "0"
    assert tuple(name for name in OPTIONAL if f"qlambert.{name}" in loaded) == loads


def test_importing_the_package_loads_none_of_them() -> None:
    loaded = _child("import sys, qlambert\nprint(*sys.modules)")
    assert [name for name in OPTIONAL if f"qlambert.{name}" in loaded] == []
    assert "qlambert.qcore" in loaded


def test_a_star_import_binds_every_public_name() -> None:
    assert _child(STAR_CHILD) == []


def test_every_deferred_name_is_public_and_comes_from_its_module() -> None:
    for module, names in qlambert._LAZY.items():
        source = importlib.import_module(f"qlambert.{module}")
        for name in names:
            assert name in qlambert.__all__
            assert getattr(qlambert, name) is getattr(source, name)


def test_an_unknown_name_is_an_attribute_error() -> None:
    with pytest.raises(AttributeError, match="no attribute 'ZeroTermError'"):
        qlambert.ZeroTermError
