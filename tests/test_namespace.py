"""The package namespace: every exported name exists where it is exported."""

import ast
import importlib
import pathlib

import pytest

import walshcube

PACKAGE = pathlib.Path(walshcube.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"walshcube.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"walshcube.{node.module}")
        unexported = [alias.name for alias in node.names if alias.name not in module.__all__]
        assert not unexported, f"walshcube.{node.module}"
