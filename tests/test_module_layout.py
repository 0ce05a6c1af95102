"""The package's modules keep their private names to themselves, import one
another without a cycle, and the package exports each object from the
module that defines it."""

import ast
import importlib
from pathlib import Path

import pytest

import markov_torus

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "markov_torus"
MODULES = sorted(PACKAGE.glob("*.py"))


def _relative_imports(path):
    """``(module, names)`` per ``from .module import names`` of a file,
    nested imports included; ``module`` is None for ``from . import``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.module, [alias.name for alias in node.names])
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1]


def test_the_package_has_its_modules():
    assert {"basis", "partition", "walk", "coding"} <= {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_name_is_imported_across_modules(path):
    private = [f"{module}.{name}" for module, names in _relative_imports(path)
               for name in names if name.startswith("_")]
    assert not private, f"{path.name} imports {private}"


def test_the_modules_import_without_a_cycle():
    deps = {path.stem: {module or name for module, names in _relative_imports(path)
                        for name in names}
            for path in MODULES}
    assert not deps["basis"] & {"partition", "walk"}  # nothing there knows partitions
    left = dict(deps)
    while left:
        free = [name for name, needs in left.items() if not needs & left.keys()]
        assert free, f"an import cycle among {sorted(left)}"
        for name in free:
            del left[name]


def test_every_export_is_its_defining_modules_object():
    for name in markov_torus.__all__:
        if name == "__version__":
            continue
        obj = getattr(markov_torus, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
