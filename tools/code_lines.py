"""The code lines of each ``src/qlambert`` module, and their total.

Usage, from the root of a checkout::

    python3 tools/code_lines.py [--root CHECKOUT] [--compare OTHER]

A code line is a line that holds a token of Python code: docstrings,
comments and blank lines do not count.  A docstring is the string
expression that opens a module, a class or a function (``ast``); every line
of any other token counts, a multi-line string's included (``tokenize``).
The script prints one line per module and one for the total::

    <module> <count>

With ``--compare OTHER`` each line also gives the count of the same module
in the checkout ``OTHER`` (the parent of a change, say) and the difference
from it, with ``-`` for a module that one of the two lacks::

    <module> <count> <other count> <count - other count>

It uses the standard library alone.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Tokens that hold no code of their own.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of the docstrings of the module and of each class and function."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python source ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def counts(root: Path) -> dict[str, int]:
    """The code lines of each module of ``root/src/qlambert``, by file name."""
    package = root / "src" / "qlambert"
    return {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }


def table(here: dict[str, int], other: dict[str, int] | None = None) -> list[str]:
    """The lines to print: one per module, then the total."""
    rows = [*sorted(here.keys() | (other or {}).keys()), "total"]
    here = {**here, "total": sum(here.values())}
    if other is not None:
        other = {**other, "total": sum(other.values())}
    out = []
    for name in rows:
        count = here.get(name)
        cells = [name, "-" if count is None else str(count)]
        if other is not None:
            before = other.get(name)
            cells.append("-" if before is None else str(before))
            cells.append("-" if None in (count, before) else f"{count - before:+d}")
        out.append(" ".join(cells))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to count")
    parser.add_argument("--compare", type=Path, help="another checkout to count")
    args = parser.parse_args(argv)
    other = None if args.compare is None else counts(args.compare)
    print("\n".join(table(counts(args.root), other)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
