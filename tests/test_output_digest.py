"""``tools/output_digest.py``: what its digest covers."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from qlambert.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
spec = importlib.util.spec_from_file_location("output_digest", TOOL)
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)

LAMBERT = ("eval", "lambert", "--q", "1/2", "--digits", "30")


def test_the_digest_covers_exit_code_stdout_and_stderr() -> None:
    code, out, err = output_digest.run(main, LAMBERT)
    assert (code, err) == ("0", "") and out.startswith("1.606695152415291763783")
    code, out, err = output_digest.run(main, ("eval", "lambert", "--q", "2"))
    assert code == "2" and out == "" and err.startswith("qlambert:")


def test_an_escaping_exception_is_an_outcome() -> None:
    def broken(argv):
        print("partial")
        raise RuntimeError("boom")

    assert output_digest.run(broken, LAMBERT) == ("None", "partial\n", "RuntimeError: boom\n")


def test_equal_outcomes_give_equal_digests_and_any_difference_another() -> None:
    def echo(argv):
        print(*argv)
        return 0

    def echo_to_stderr(argv):
        print(*argv, file=sys.stderr)
        return 0

    base = output_digest.digest(echo, [("a", "b"), ("c",)])
    assert output_digest.digest(echo, [("a", "b"), ("c",)]) == base
    assert output_digest.digest(echo, [("a",), ("b", "c")]) != base
    assert output_digest.digest(echo_to_stderr, [("a", "b"), ("c",)]) != base
