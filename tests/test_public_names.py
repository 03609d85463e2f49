"""The public names of rdslab: every ``__all__`` entry of a module exists,
every name that the package root imports is in the ``__all__`` of the
module it comes from, and no module reads another's private names."""

import ast
import importlib
import pkgutil

import pytest

import rdslab

MODULES = sorted(m.name for m in pkgutil.iter_modules(rdslab.__path__))


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
