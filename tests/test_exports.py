"""The package's exports resolve: each module's __all__ names only what the
module defines, the package root resolves its exports lazily from one table
of exported names, and a process imports only the modules its command uses."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import perindex

LIBRARY_MODULES = ("numtheory", "stable_tables", "bounds", "homology", "ahss")


def _modules_with_all():
    for info in pkgutil.iter_modules(perindex.__path__):
        module = importlib.import_module(f"perindex.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def test_every_exported_name_exists():
    modules = list(_modules_with_all())
    assert {m.__name__ for m in modules} >= {f"perindex.{name}" for name in LIBRARY_MODULES}
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_root_imports_only_exported_names():
    # every entry of the root's table names an export of its module
    assert perindex._EXPORTS
    for name, module_name in perindex._EXPORTS.items():
        module = importlib.import_module(f"perindex.{module_name}")
        assert name in module.__all__, (module_name, name)
    # and the root imports nothing up front from its submodules
    tree = ast.parse(inspect.getsource(perindex))
    eager = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
    assert not eager, [ast.unparse(node) for node in eager]


def _loaded_after(statement: str) -> set[str]:
    """Module names in sys.modules after running statement in a fresh
    interpreter without site-packages hooks."""
    root = os.path.dirname(os.path.dirname(perindex.__file__))
    code = (
        f"import sys; sys.path.insert(0, {root!r}); {statement}; "
        "print(' '.join(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    return set(out.split())


def test_cli_import_leaves_the_snf_engine_and_dataclasses_out():
    loaded = _loaded_after("import perindex.cli")
    assert "perindex.cli" in loaded
    assert not loaded & {"perindex.homology", "perindex.ahss", "dataclasses", "inspect"}
    # the bare package root loads no submodule at all
    assert not {m for m in _loaded_after("import perindex") if m.startswith("perindex.")}


def test_star_import_and_lazy_attributes():
    namespace = {}
    exec("from perindex import *", namespace)
    for name in perindex._EXPORTS:
        assert namespace[name] is getattr(
            importlib.import_module(f"perindex.{perindex._EXPORTS[name]}"), name
        )
    for name in LIBRARY_MODULES:
        assert namespace[name] is importlib.import_module(f"perindex.{name}")
        assert getattr(perindex, name) is namespace[name]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        perindex.no_such_name  # noqa: B018
    assert set(perindex.__all__) <= set(dir(perindex))


def test_submodules_resolve_after_a_bare_import():
    loaded = _loaded_after(
        "import perindex; assert perindex.homology.__name__ == 'perindex.homology'; "
        "assert perindex.ahss.TwistedShape.__module__ == 'perindex.ahss'"
    )
    assert {"perindex.homology", "perindex.ahss"} <= loaded
