"""No unused imports: every name a module of the library, the tests or the
demos imports is read somewhere in that module.  The re-exports of a
package's ``__init__.py``, names listed in a module's ``__all__`` and
``__future__`` imports are exempt.

No dead private helpers: every module-level ``_name`` the library defines
is read by some other top-level statement of the library, so a helper that
only calls itself counts as dead."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src/rdslab", "tests", "demos") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")
LIBRARY = sorted((ROOT / "src/rdslab").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, with their line."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom a import b, c as d\n"
              "from e import f\n__all__ = ['f']\nprint(np.pi, d)\n")
    assert unused_imports(source) == ["os (line 2)", "b (line 4)"]


def _private_definitions(tree):
    """(name, statement) of each module-level ``_name`` (not ``__name__``)
    that a def, class or assignment binds."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _reads(stmt) -> set[str]:
    """Names a statement reads: loaded names, attributes and imported names."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level ``_name`` definitions of ``sources`` (module name to
    source) that no other top-level statement of any of them reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(stmt, _reads(stmt)) for tree in trees.values() for stmt in tree.body]
    return [f"{module}.{name}" for module, tree in trees.items()
            for name, defined in _private_definitions(tree)
            if not any(name in names for stmt, names in reads if stmt is not defined)]


def test_no_dead_private_helpers():
    assert dead_private_names({p.stem: p.read_text() for p in LIBRARY}) == []


def test_the_helper_scan_finds_what_it_should():
    sources = {
        "a": ("_LIMIT = 3\n_SPARE, _USED_TOO = 1, 2\n__all__ = []\n"
              "def _loop(n):\n    return _loop(n - 1) if n else 0\n"
              "def _used():\n    return _LIMIT + _USED_TOO\nclass _Dead:\n    pass\n"),
        "b": "from .a import _used\nimport a\nprint(_used(), a._helper)\n",
        "c": "def _helper():\n    pass\n",
    }
    assert dead_private_names(sources) == ["a._SPARE", "a._loop", "a._Dead"]
