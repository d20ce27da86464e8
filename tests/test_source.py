"""Source hygiene: every definition in the package is used by the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "supercong"


def _names(node):
    """Every identifier that ``node`` reads or writes, plain or as an
    attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced_definitions(src=SRC):
    """(module, name) of each module-level function or class that nothing
    in ``src`` refers to outside its own definition.  Such code serves only
    the tests, or nobody, and belongs under tests/ or nowhere."""
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(src.glob("*.py"))}
    used: dict[str, set] = {}   # name -> the top-level nodes that mention it
    for tree in modules.values():
        for top in tree.body:
            for name in _names(top):
                used.setdefault(name, set()).add(id(top))
    return [
        (module, top.name)
        for module, tree in modules.items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not used.get(top.name, set()) - {id(top)}
    ]


def test_every_definition_is_referenced_in_src():
    assert unreferenced_definitions() == []


def test_guard_flags_a_definition_used_only_by_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Lonely:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\n\nX = used\n")
    assert unreferenced_definitions(tmp_path) == [("a.py", "recursive"), ("a.py", "Lonely")]
