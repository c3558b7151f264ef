"""The package's exports resolve: each module's __all__ names only what the
module defines, and the package root imports only exported names."""

import ast
import importlib
import inspect
import pkgutil

import perindex


def _modules_with_all():
    for info in pkgutil.iter_modules(perindex.__path__):
        module = importlib.import_module(f"perindex.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def test_every_exported_name_exists():
    modules = list(_modules_with_all())
    assert {m.__name__ for m in modules} >= {
        "perindex.ahss", "perindex.bounds", "perindex.homology",
        "perindex.numtheory", "perindex.stable_tables",
    }
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_root_imports_only_exported_names():
    tree = ast.parse(inspect.getsource(perindex))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        module = importlib.import_module(f"perindex.{node.module}")
        stray = [alias.name for alias in node.names if alias.name not in module.__all__]
        assert not stray, (node.module, stray)
