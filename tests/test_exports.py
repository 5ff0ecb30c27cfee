"""Every exported name resolves.

perfbench's tracer wraps each name in a layer module's ``__all__``, so a
name left there by a rename breaks a traced run before anything else does.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import shehu

MODULES = sorted(info.name for info in pkgutil.iter_modules(shehu.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"shehu.{name}")
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []


def test_package_names_are_module_exports():
    """Each name the package re-exports is its module's object, listed in
    that module's ``__all__`` where the module keeps one."""
    tree = ast.parse(Path(shehu.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        mod = importlib.import_module(f"shehu.{module}")
        assert getattr(shehu, name) is getattr(mod, name)
        if hasattr(mod, "__all__"):
            assert name in mod.__all__, (module, name)
