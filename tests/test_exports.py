"""The package's exports resolve: each module's __all__ names only what the
module defines, the package root resolves its exports lazily from those lists
alone, and a process imports only the modules its command uses."""

import ast
import importlib
import inspect
import os
import pathlib
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


def _library_modules():
    """Library module name -> module."""
    return {name: importlib.import_module(f"perindex.{name}") for name in LIBRARY_MODULES}


def test_package_root_imports_only_exported_names():
    # each public name is listed once, by the module that defines it
    declared = {}
    for module in _library_modules().values():
        for name in module.__all__:
            assert name not in declared, (name, declared[name], module.__name__)
            declared[name] = module.__name__
            assert getattr(module, name).__module__ == module.__name__, name
    assert sorted(perindex.__all__) == sorted([*declared, *LIBRARY_MODULES])
    # a bounds name resolves without loading the SNF engine
    loaded = _loaded_after("import perindex; perindex.upper_bound_product")
    assert "perindex.bounds" in loaded and not loaded & {"perindex.homology", "perindex.ahss"}
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
    assert not loaded & {"perindex.homology", "perindex.ahss", "dataclasses", "inspect", "argparse"}
    # a well-formed command line is read without argparse
    loaded = _loaded_after("import perindex.cli; perindex.cli.main(['m', '4', '2'])")
    assert "perindex.bounds" in loaded and "argparse" not in loaded
    # the bare package root loads no submodule at all
    assert not {m for m in _loaded_after("import perindex") if m.startswith("perindex.")}


def test_private_names_are_refused_without_imports():
    statement = (
        "import perindex; assert not hasattr(perindex, '__wrapped__'); "
        "assert not hasattr(perindex, '_EXPORTS')"
    )
    assert not {m for m in _loaded_after(statement) if m.startswith("perindex.")}


def test_star_import_and_lazy_attributes():
    namespace = {}
    exec("from perindex import *", namespace)
    for module_name, module in _library_modules().items():
        assert namespace[module_name] is module
        assert getattr(perindex, module_name) is module
        for name in module.__all__:
            assert namespace[name] is getattr(module, name) is getattr(perindex, name)
    assert set(namespace) - {"__builtins__"} == set(perindex.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        perindex.no_such_name  # noqa: B018
    assert set(perindex.__all__) <= set(dir(perindex))


def test_submodules_resolve_after_a_bare_import():
    loaded = _loaded_after(
        "import perindex; assert perindex.homology.__name__ == 'perindex.homology'; "
        "assert perindex.ahss.TwistedShape.__module__ == 'perindex.ahss'"
    )
    assert {"perindex.homology", "perindex.ahss"} <= loaded


def test_library_imports_only_the_standard_library():
    # the runtime needs no third-party package: every import in the library
    # is relative or names a standard-library module
    paths = sorted(pathlib.Path(perindex.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths} >= {"__init__", "cli", *LIBRARY_MODULES}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)
