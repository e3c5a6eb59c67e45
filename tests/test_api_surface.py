"""The public API is what the library's callers reach.

A name belongs in the ``__all__`` of a module of ``qcorr`` only when code
outside the unit tests uses it: the package itself (the CLI and the claims
included), the acceptance suite, the benchmark harness or the maintenance
tools. A name only unit tests reach belongs in those tests as a private
helper. The same holds for each public member of a public class, which
counts as used only where a caller reads it as an attribute or, outside
the module that defines the class, passes it as a keyword: a result
type's own constructor call is not a reader of its fields.
"""
from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qcorr").glob("*.py"))
CALLERS = (
    *SOURCES,
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "tools").glob("*.py")),
)
MODULES = [importlib.import_module(f"qcorr.{path.stem}") for path in SOURCES if path.stem != "__init__"]


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(path: Path) -> set[str]:
    """Every bare name and attribute name ``path`` reads or writes; imports,
    definitions and ``__all__`` strings are not uses."""
    used = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    used = set().union(*(_used_names(path) for path in CALLERS))
    unused = sorted(
        f"{module.__name__}.{name}" for module in MODULES for name in module.__all__ if name not in used
    )
    assert not unused, f"public names no caller reaches: {', '.join(unused)}"


def _member_uses(path: Path) -> tuple[set[str], set[str]]:
    """The attribute names ``path`` reads and the keyword argument names it
    passes; a bare name, however spelt, is not a use of a member."""
    reads, keywords = set(), set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            keywords.add(node.arg)
    return reads, keywords


def test_every_public_member_of_a_public_class_has_a_caller_outside_the_unit_tests():
    # a member is a public name the class body defines: a method, property,
    # class attribute or field
    uses = {path: _member_uses(path) for path in CALLERS}
    reads = set().union(*(r for r, _ in uses.values()))
    unused = []
    for module in MODULES:
        home = Path(inspect.getsourcefile(module)).resolve()
        keywords = set().union(*(k for path, (_, k) in uses.items() if path.resolve() != home))
        for name in module.__all__:
            cls = getattr(module, name)
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            unused += [
                f"{cls.__name__}.{member}"
                for member in {*vars(cls), *getattr(cls, "__annotations__", {})}
                if not member.startswith("_") and member not in reads | keywords
            ]
    assert not unused, f"public members no caller reaches: {', '.join(sorted(unused))}"


def test_no_function_body_imports():
    # a function-level import is looked up in ``sys.modules`` at call time, so
    # in a process that has loaded two source trees it can hand one tree's
    # functions the other tree's objects
    inside = sorted(
        f"{path.name}:{node.lineno} in {func.name}"
        for path in SOURCES
        for func in ast.walk(_tree(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    assert not inside, f"imports inside function bodies: {', '.join(inside)}"
