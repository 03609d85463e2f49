"""The public names of rdslab: every ``__all__`` entry of a module exists,
every name that the package root imports is in the ``__all__`` of the
module it comes from, the root imports exactly the names that the demos and
the README's examples import from it, the README's example runs, and no
module reads another's private names."""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import rdslab

MODULES = sorted(m.name for m in pkgutil.iter_modules(rdslab.__path__))
ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = os.path.dirname(os.path.dirname(os.path.abspath(rdslab.__file__)))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.S | re.M)


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_exist(module):
    mod = importlib.import_module(f"rdslab.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_root_imports_are_public():
    with open(rdslab.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert {module for module, _ in imports} <= set(MODULES)
    private = [f"{module}.{name}" for module, name in imports
               if name not in importlib.import_module(f"rdslab.{module}").__all__]
    assert private == []


def _from_root(source: str) -> set[str]:
    """The names ``source`` imports from the package root."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "rdslab" and not node.level
            for alias in node.names}


def test_root_imports_what_demos_and_readme_import():
    # no name is re-exported without a caller
    with open(rdslab.__file__) as fh:
        root = {alias.name for node in ast.parse(fh.read()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    demos = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    assert demos and README_BLOCKS
    assert root == set().union(*map(_from_root, demos + README_BLOCKS))


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block-{i}" for i in range(len(README_BLOCKS))])
def test_readme_example_runs(block):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_across_modules(module):
    with open(importlib.import_module(f"rdslab.{module}").__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("rdslab"))]
    private = [alias.name for node in imports for alias in node.names
               if alias.name.startswith("_")]
    # the private attributes of a module imported whole (``from . import x as X``)
    modules = {alias.asname or alias.name for node in imports if not node.module
               for alias in node.names}
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert private == []
