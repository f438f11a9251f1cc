"""The public surface: every name in a module's `__all__` resolves, the
package imports only exported names, and the flat kernel wrappers, whose
fits are `fit_method("krls")` and `fit_method("klrr")`, and the separate
kernel model class, now a `HolrrModel` with a kernel, stay out of it, as do
`linalg.sym_eig_top`'s old result class and the helpers that only tests use
(now in `tests/oracles.py`)."""

import ast
import importlib
from pathlib import Path

import tensorreg

MODULES = ("datagen", "harness", "linalg", "regress", "tensor")
GONE = {"krls_fit", "klrr_fit", "KernelHolrrModel", "SymEigResult", "kernel_vec", "mode_vector_product", "multilinear_rank"}


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
