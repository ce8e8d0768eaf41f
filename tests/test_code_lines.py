"""``tools/code_lines.py``: which lines count as code."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

#: Ten code lines, each marked ``code`` or in the string so marked, amid a
#: docstring of each kind, comments, blank lines and ``#`` inside strings.
FIXTURE = '''"""A module docstring
over two lines."""

import sys  # code


class Box:  # code
    """A class docstring."""

    # A comment line.
    size = 1  # code

    def grow(self, by: int) -> int:  # code
        """A function
        docstring."""
        text = """a string
        # not a comment
        """  # code: the three lines above count
        return (self.size +  # code
                by)  # code


"not a docstring"  # code
'''


def _checkout(root: Path, modules: dict[str, str]) -> Path:
    package = root / "src" / "qlambert"
    package.mkdir(parents=True)
    for name, source in modules.items():
        (package / name).write_text(source)
    return root


def test_docstrings_comments_and_blank_lines_are_not_code() -> None:
    assert code_lines.code_lines(FIXTURE) == 10
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_the_table_counts_each_module_and_the_total(tmp_path) -> None:
    here = _checkout(tmp_path / "here", {"a.py": FIXTURE, "b.py": "x = 1\ny = 2\n"})
    other = _checkout(tmp_path / "other", {"a.py": "x = 1\n", "c.py": "z = 3\n"})
    assert code_lines.table(code_lines.counts(here)) == ["a.py 10", "b.py 2", "total 12"]
    rows = code_lines.table(code_lines.counts(here), code_lines.counts(other))
    assert rows == ["a.py 10 1 +9", "b.py 2 - -", "c.py - 1 -", "total 12 2 +10"]
    done = subprocess.run(
        [sys.executable, str(TOOL), "--root", str(here), "--compare", str(other)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines() == rows
