"""The public API is what the library's callers reach.

A name belongs in ``qcorr.__all__`` only when code outside the unit tests
uses it: the package itself (the CLI and the claims included), the
acceptance suite, the benchmark harness or the maintenance tools. A name
only unit tests reach belongs in those tests as a private helper.
"""
from __future__ import annotations

import ast
from pathlib import Path

import qcorr

ROOT = Path(__file__).resolve().parent.parent
CALLERS = (
    *sorted((ROOT / "src" / "qcorr").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "tools").glob("*.py")),
)


def _used_names(path: Path) -> set[str]:
    """Every bare name and attribute name ``path`` reads or writes; imports,
    definitions and ``__all__`` strings are not uses."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    used = set().union(*(_used_names(path) for path in CALLERS))
    unused = sorted(set(qcorr.__all__) - used)
    assert not unused, f"public names no caller reaches: {', '.join(unused)}"
