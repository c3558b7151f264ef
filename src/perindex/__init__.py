"""Exact divisibility bounds for the topological period-index problem.

Upper and lower bounds on the index of a torsion degree-3 cohomology class
from its period and the dimension (or the full cellular cochain data) of the
space carrying it.  The test suite checks every closed form against a
brute-force oracle.

Each submodule's ``__all__`` is the only list of what the package exports.
The root resolves an export on first use (PEP 562) from the first submodule,
in the order of ``_SUBMODULES``, whose ``__all__`` names it, so importing the
package, or ``perindex.cli`` for a bounds query, does not load the
Smith-normal-form engine in ``homology``.  ``__all__``, ``dir(perindex)`` and
a public name that no submodule exports import all five submodules (so does
``from perindex import cli``, which asks the root for ``cli`` first); a name
starting with ``_`` is refused without importing anything.
"""

# in import order, so that resolving a bounds name never loads homology or ahss
_SUBMODULES = ("numtheory", "stable_tables", "bounds", "homology", "ahss")
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a submodule, or the submodule exporting a name, on first
    access, and bind the name here so that later accesses are plain
    lookups."""
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")  # the import binds the submodule here
        return globals()[name]
    if name == "__all__":
        value = [*_SUBMODULES]
        for module in map(__getattr__, _SUBMODULES):
            value += module.__all__
        globals()[name] = value
        return value
    if not name.startswith("_"):
        for module in map(__getattr__, _SUBMODULES):
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
