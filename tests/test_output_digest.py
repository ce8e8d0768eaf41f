"""``tools/output_digest.py``: what its digest covers."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
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


def test_differences_name_every_unequal_or_missing_digest() -> None:
    ours = {("a", 1): "x", ("a", 2): "y", ("b", 1): "z"}
    theirs = {("a", 1): "x", ("a", 2): "w", ("c", 1): "v"}
    assert output_digest.differences(ours, dict(ours)) == []
    assert sorted(output_digest.differences(ours, theirs)) == [("a", 2), ("b", 1), ("c", 1)]
    assert output_digest.parse("naive-300 seed 3 abc\nverify-50 seed 1 def\n") == {
        ("naive-300", 3): "abc",
        ("verify-50", 1): "def",
    }


def _checkout(root: Path, digits: int) -> Path:
    """A checkout with this package and one workload of one lambert command."""
    shutil.copytree(TOOL.parent.parent / "src" / "qlambert", root / "src" / "qlambert")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(
        "from types import SimpleNamespace\n"
        "WORKLOADS = ('tiny',)\n"
        "def build(name, seed):\n"
        f"    digits = {digits} + seed if seed == 2 else 20\n"
        "    return [SimpleNamespace(argv=('eval', 'lambert', '--q', '1/3', '--digits', str(digits)))]\n"
    )
    return root


def test_compare_exits_one_and_names_each_workload_and_seed_that_differs(tmp_path) -> None:
    """The two checkouts print the same bytes at seed 1 and differ at seed 2."""
    ours, theirs = _checkout(tmp_path / "ours", 20), _checkout(tmp_path / "theirs", 21)
    command = [sys.executable, str(TOOL), "--root", str(ours), "1", "2"]
    same = subprocess.run(command + ["--compare", str(ours)], capture_output=True, text=True)
    assert same.returncode == 0 and "differs" not in same.stdout
    assert same.stdout.splitlines()[0].startswith("tiny seed 1 ")
    other = subprocess.run(command + ["--compare", str(theirs)], capture_output=True, text=True)
    assert other.returncode == 1
    assert [line for line in other.stdout.splitlines() if "differs" in line] == [
        "differs: tiny seed 2"
    ]
