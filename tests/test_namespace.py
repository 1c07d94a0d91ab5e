"""The package namespace: every exported name exists where it is exported,
and the declared numpy floor provides the functions the package calls."""

import ast
import importlib
import pathlib
import re

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


def test_declared_numpy_floor_is_2():
    # np.vecdot and np.bitwise_count first appeared in numpy 2.0.  A regex,
    # because tomllib is missing on Python 3.10, which requires-python allows.
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'"numpy>=(\d+)', pyproject)
    assert floor is not None and int(floor.group(1)) >= 2
