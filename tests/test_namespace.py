"""The package namespace: every exported name exists where it is exported,
no module keeps an unused import or private name, the sign sweep's rules
stay in `norms`, no refusal echoes a value with `!r`, and the declared
numpy floor provides the functions the package calls."""

import ast
import importlib
import pathlib
import re

import pytest

import walshcube

PACKAGE = pathlib.Path(walshcube.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
}


def _names(node) -> set[str]:
    """Every name that `node` reads, writes or imports."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def _defined(node) -> set[str]:
    """The top-level names that `node` defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return {target.id for target in targets if isinstance(target, ast.Name)}


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


@pytest.mark.parametrize("name", MODULES)
def test_every_module_level_import_is_used(name):
    body = TREES[name].body
    imports = [
        node
        for node in body
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
    ]
    bound = {
        (alias.asname or alias.name).split(".")[0] for node in imports for alias in node.names
    }
    read = set()
    for node in body:
        if node not in imports:
            read |= {child.id for child in ast.walk(node) if isinstance(child, ast.Name)}
    exported = set(getattr(importlib.import_module(f"walshcube.{name}"), "__all__", ()))
    assert not sorted(bound - read - exported)


def test_every_private_top_level_name_is_referenced():
    # A private function, class or assigned name counts as used when another
    # top-level statement anywhere in the package names it.
    nodes = [(module, node, _names(node)) for module, tree in TREES.items() for node in tree.body]
    unreferenced = []
    for module, node, _ in nodes:
        for defined in _defined(node):
            if not defined.startswith("_") or defined.startswith("__"):
                continue
            if not any(defined in names for _, other, names in nodes if other is not node):
                unreferenced.append(f"{module}.{defined}")
    assert not unreferenced


def test_the_sign_sweep_rules_stay_in_norms():
    # Chunks, tiles and halved masks are decided in `norms` alone, where the
    # sweep's mean and maximum live; `verification` reads them to check tiles.
    private = {"_SignSweep", "_sign_masks", "_TILE_ENTRIES"}
    readers = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        if module not in ("norms", "verification")
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and private & {alias.name for alias in node.names})
        or (isinstance(node, ast.Attribute) and node.attr in private)
    ]
    assert not readers


def test_no_raise_echoes_a_value_with_repr():
    # A refusal shows an input value through `hypercube._echo`, which cuts it
    # to about 60 characters; a `!r` field would print it whole.
    echoing = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and any(
            isinstance(child, ast.FormattedValue) and child.conversion == ord("r")
            for child in ast.walk(node)
        )
    ]
    assert not echoing


def test_declared_numpy_floor_is_2():
    # np.vecdot and np.bitwise_count first appeared in numpy 2.0.  A regex,
    # because tomllib is missing on Python 3.10, which requires-python allows.
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'"numpy>=(\d+)', pyproject)
    assert floor is not None and int(floor.group(1)) >= 2
