"""The public surface: every name in a module's `__all__` resolves, the
package imports only exported names, and the flat kernel wrappers, whose
fits are `fit_method("krls")` and `fit_method("klrr")`, stay out of it."""

import ast
import importlib
from pathlib import Path

import tensorreg

MODULES = ("datagen", "harness", "linalg", "regress", "tensor")
GONE = {"krls_fit", "klrr_fit"}


def test_public_names_resolve_and_the_package_imports_only_exported_names():
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"tensorreg.{name}")
        exported[name] = set(module.__all__)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)
        assert not exported[name] & GONE, name
    tree = ast.parse(Path(tensorreg.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        names = {alias.name for alias in node.names}
        assert names <= exported[node.module], (node.module, names - exported[node.module])
        assert all(hasattr(tensorreg, n) for n in names)
    assert not GONE & set(dir(tensorreg))
