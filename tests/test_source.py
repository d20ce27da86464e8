"""Source hygiene and the suite's own guards: every definition in the
package is used by the package, every import is read by its module, every
name the benchmark's tracer wraps exists, and a hung test fails."""

import ast
import importlib
import importlib.util
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "supercong"


def _names(node):
    """Every identifier that ``node`` reads or writes, plain or as an
    attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _definitions(tree):
    """(name, node) of each module-level function, class and constant, and
    of each non-dunder method or property of a module-level class."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield top.name, top
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            for target in top.targets if isinstance(top, ast.Assign) else (top.target,):
                for name in _names(target):
                    if not name.startswith("__"):
                        yield name, top
        if isinstance(top, ast.ClassDef):
            for member in top.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("__")):
                    yield f"{top.name}.{member.name}", member


def unreferenced_definitions(src=SRC):
    """(module, name) of each definition that nothing in ``src`` refers to
    outside the definition itself.  Such code serves only the tests, or
    nobody, and belongs under tests/ or nowhere."""
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(src.glob("*.py"))}
    mentions: dict[str, int] = {}   # name -> how often the package mentions it
    for tree in modules.values():
        for name in _names(tree):
            mentions[name] = mentions.get(name, 0) + 1
    unused = []
    for module, tree in modules.items():
        for name, node in _definitions(tree):
            attr = name.rpartition(".")[2]
            inside = sum(1 for own in _names(node) if own == attr)
            if mentions.get(attr, 0) == inside:
                unused.append((module, name))
    return unused


def unread_imports(src=SRC):
    """(module, name) of each name that a module-level import binds and its
    own module never reads, such as a leftover of deleted code."""
    unread = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for top in tree.body:
            if isinstance(top, ast.ImportFrom) and top.module == "__future__":
                continue
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                for alias in top.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        unread.append((path.name, name))
    return unread


def test_every_definition_is_referenced_in_src():
    assert unreferenced_definitions() == []
    assert unread_imports() == []


def test_guard_flags_a_definition_used_only_by_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\nimport os.path\nfrom math import comb, lcm\n\n"
        "LIMIT = lcm(3)\nLONELY = 4\n\n\n"
        "def used():\n    return LIMIT\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Lonely:\n    pass\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.value = self.get()\n\n"
        "    def get(self):\n        return 1\n\n"
        "    def lonely(self):\n        return self.lonely()\n\n"
        "    @property\n    def alone(self):\n        return 2\n"
    )
    (tmp_path / "b.py").write_text("from .a import Box, used\n\nX = used\nY = Box().value\nprint(X, Y)\n")
    assert unreferenced_definitions(tmp_path) == [
        ("a.py", "LONELY"), ("a.py", "recursive"), ("a.py", "Lonely"),
        ("a.py", "Box.lonely"), ("a.py", "Box.alone"),
    ]
    assert unread_imports(tmp_path) == [("a.py", "os"), ("a.py", "comb")]


def test_every_traced_name_exists():
    # perfbench/tracing.py wraps these names and raises on a missing one, so
    # a rename would otherwise fail only the traced benchmark runs
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr in tracing.SPANS.values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracing.SPANS and missing == []


def test_wall_clock_guard_fails_a_hang(time_limit):
    start = time.monotonic()
    with pytest.raises(BaseException, match="wall-clock limit of 0.1 s exceeded") as info:
        with time_limit(0.1):
            time.sleep(5)
    assert type(info.value).__name__ == "WallClockExceeded"
    assert time.monotonic() - start < 2
