"""Source hygiene and the suite's own guards: every definition in the
package is used by the package, every import is read by its module, the
oracle, the fast route's kernel and the exponent layer import only across
their boundaries, no module reaches 8,192 parser tokens, every name the
benchmark's tracer wraps exists and is called by one instance per lane,
every mutation-table row applies and names tests that exist, and a hung
test fails."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
import tokenize
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


def _imports(node):
    """(module, name) of each import that running ``node`` may execute:
    the last part of the imported module's dotted name, and the name bound
    from it, or "*" for the whole module.  The body of an
    ``if TYPE_CHECKING:`` never runs and is left out."""
    if isinstance(node, ast.ImportFrom):
        for alias in node.names:
            if node.module:
                yield node.module.rpartition(".")[2], alias.name
            else:   # from . import module
                yield alias.name, "*"
    elif isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name.rpartition(".")[2], "*"
    else:
        typing_only = isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING")
        for child in (node.test, *node.orelse) if typing_only else ast.iter_child_nodes(node):
            yield from _imports(child)


# module -> {module it imports from: the only names it may import from it}.
# The oracle stays a second route independent of the fast one: of the
# kernel it reads the integer division and the lift's arithmetic (its fold
# and, for witnesses, its products), never the factor ring that cancels
# Phi_m, and nothing of the lanes; of the exponent layer it reads the
# summand as compiled, its avatars included, never the fast route's paired
# view (``paired``).  The kernel serves both routes and reads
# neither, and the fast route runs on integers alone: no Fraction
# polynomial and no Q(a).  Both routes compile from the exponent layer,
# which builds integer lists only.
BOUNDARIES = {
    "oracle.py": {"ring": {"_Lift", "_monic_divmod", "_trimmed"}, "engine": set(),
                  "qobjects": {"ConcreteClosedForm", "ConcreteSummand", "_avatar", "_sums", "atom",
                               "bracket", "cyclotomic"}},
    "ring.py": {"engine": set(), "oracle": set(), "polys": set(), "paramfield": set()},
    "engine.py": {"polys": set(), "paramfield": set()},
    "qobjects.py": {"polys": set(), "paramfield": set()},
}


def boundary_violations(src=SRC, boundaries=BOUNDARIES):
    """(module, imported module, name) of each import in ``src`` that
    crosses one of ``boundaries``."""
    violations = []
    for module, allowed in boundaries.items():
        tree = ast.parse((src / module).read_text(encoding="utf-8"))
        violations += [(module, source, name) for source, name in _imports(tree)
                       if source in allowed and name not in allowed[source]]
    return violations


def test_routes_import_only_across_their_boundaries():
    assert boundary_violations() == []


def test_guard_flags_an_import_across_a_boundary(tmp_path):
    (tmp_path / "oracle.py").write_text(
        "from math import lcm\n\nfrom .engine import _horner_sum_int\n"
        "from .qobjects import _avatar, paired\n"
        "from .ring import _Lift, _Ring, _factor_rings, _trimmed\n"
    )
    (tmp_path / "ring.py").write_text(
        "from typing import TYPE_CHECKING\n\nfrom . import oracle\n\n"
        "if TYPE_CHECKING:\n    from .polys import LaurentPoly\nelse:\n    from .qobjects import cyclotomic\n\n\n"
        "def late():\n    from .engine import verify_q\n    return verify_q\n"
    )
    (tmp_path / "engine.py").write_text(
        "import supercong.paramfield\nfrom .polys import LaurentPoly\nfrom .ring import _Ring\n"
    )
    (tmp_path / "qobjects.py").write_text(
        "from .exprs import eval_int\nfrom .polys import LaurentPoly\n"
    )
    assert boundary_violations(tmp_path) == [
        ("oracle.py", "engine", "_horner_sum_int"), ("oracle.py", "qobjects", "paired"),
        ("oracle.py", "ring", "_Ring"), ("oracle.py", "ring", "_factor_rings"),
        ("ring.py", "oracle", "*"), ("ring.py", "engine", "verify_q"),
        ("engine.py", "paramfield", "*"), ("engine.py", "polys", "LaurentPoly"),
        ("qobjects.py", "polys", "LaurentPoly"),
    ]


# CPython 3.11's parser doubles its token array when a module reaches this
# many tokens.  Under PYTHONDONTWRITEBYTECODE=1 each such doubling has added
# about 0.5 MB to the benchmark's peak_rss_mb on its --jobs 1 workloads
# (CHANGES.md, FOUND on the parser's token array).
PARSER_TOKEN_LIMIT = 8192


def parser_tokens(path: Path) -> int:
    """The tokens of ``path`` that the parser reads: every token but
    comments, non-logical newlines and the encoding."""
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with path.open("rb") as source:
        return sum(1 for token in tokenize.tokenize(source.readline) if token.type not in skipped)


def test_no_module_doubles_the_parser_token_array():
    counts = {path.name: parser_tokens(path) for path in sorted(SRC.glob("*.py"))}
    assert counts and {name: c for name, c in counts.items() if c >= PARSER_TOKEN_LIMIT} == {}


def _script_module(path: Path):
    """The module at ``path``, outside the package, executed once."""
    if path.stem not in sys.modules:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        sys.modules[path.stem] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[path.stem])
    return sys.modules[path.stem]


def test_every_traced_name_exists():
    # perfbench/tracing.py wraps these names and raises on a missing one, so
    # a rename would otherwise fail only the traced benchmark runs
    tracing = _script_module(ROOT / "perfbench" / "tracing.py")
    missing = [(module, attr) for module, attr in tracing.SPANS.values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracing.SPANS and missing == []


# One instance per lane under the benchmark's tracer: a congruence through
# harness.run, then a pair, a parametric statement (both specialized legs),
# a failing congruence (the oracle), a p-adic and a numeric instance.
TRACE_EVERY_LANE = """
import json
from tracing import SPANS, Tracer, install, layer_times
tracer = Tracer()
install(tracer)
from supercong import harness, registry
catalog = registry.load_registry()
harness.run(harness.RunConfig(case_ids=["thm1_1"], n_values=[5]), catalog)
for case_id, params in (("conj1a", {"n": 5}), ("thm2", {"n": 5}), ("thm7", {"d": 3, "n": 4}),
                        ("vanhamme_g2", {"p": 5}), ("chu1", {"q": 0.5})):
    harness.execute_job(catalog, case_id, params, None)
calls = layer_times(tracer.spans)
print(json.dumps({name: calls.get(name, {}).get("calls", 0) for name in SPANS}))
"""


def test_every_traced_name_records_a_call():
    # a refactor that routes instances around a traced name would leave its
    # benchmark metrics at zero; the tracer rebinds names for good, so it
    # runs in a process of its own
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("perfbench", "src")))
    proc = subprocess.run([sys.executable, "-c", TRACE_EVERY_LANE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert calls and {name: count for name, count in calls.items() if count < 1} == {}


def test_every_mutant_applies_once():
    # scripts/mutants.py refuses a mutant whose old text is not found exactly
    # once; this finds such a row without running the mutants
    mutants = _script_module(ROOT / "scripts" / "mutants.py")
    counts = {m.name: (ROOT / m.file).read_text(encoding="utf-8").count(m.old)
              for m in mutants.MUTANTS}
    assert counts and {name: c for name, c in counts.items() if c != 1} == {}


def undefined_tests(tests):
    """Each of the pytest ids ``tests`` (file::function or
    file::Class::method) that its file does not define, read from the
    file's AST; a parameter id in brackets must be a string constant of
    that file."""
    undefined = []
    for test in tests:
        path, *names = test.split("::")
        names[-1], _, param = names[-1].removesuffix("]").partition("[")
        tree = scope = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        for name in names:
            defined = (node for node in scope.body
                       if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name)
            scope = next(defined, None)
            if scope is None:
                break
        constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        if scope is None or (param and param not in constants):
            undefined.append(test)
    return undefined


def test_every_mutant_names_tests_that_exist():
    # a renamed test would otherwise fail only the mutant run, whose
    # unmutated baseline refuses a test id that collects nothing
    mutants = _script_module(ROOT / "scripts" / "mutants.py")
    assert undefined_tests(dict.fromkeys(t for m in mutants.MUTANTS for t in m.tests)) == []
    rows = "tests/test_bad_input.py::test_bad_input_exits_with_a_message"
    assert undefined_tests([
        "tests/test_engine.py::TestVerifyQ::test_result_params",
        "tests/test_engine.py::TestVerifyQ::test_no_such_test",
        "tests/test_engine.py::test_result_params",
        f"{rows}[bound_not_integral]",
        f"{rows}[no_such_row]",
    ]) == ["tests/test_engine.py::TestVerifyQ::test_no_such_test",
           "tests/test_engine.py::test_result_params", f"{rows}[no_such_row]"]


def test_wall_clock_guard_fails_a_hang(time_limit):
    start = time.monotonic()
    with pytest.raises(BaseException, match="wall-clock limit of 0.1 s exceeded") as info:
        with time_limit(0.1):
            time.sleep(5)
    assert type(info.value).__name__ == "WallClockExceeded"
    assert time.monotonic() - start < 2
