"""Exact divisibility bounds for the topological period-index problem.

Upper and lower bounds on the index of a torsion degree-3 cohomology class
from its period and the dimension (or the full cellular cochain data) of the
space carrying it.  The test suite checks every closed form against a
brute-force oracle.

The exports below are resolved on first use (PEP 562), so importing the
package, or ``perindex.cli`` for a bounds query, does not load the
Smith-normal-form engine in ``homology``.
"""

_SUBMODULES = ("numtheory", "stable_tables", "bounds", "homology", "ahss")

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        (
            "numtheory",
            "Factorization factorize integer_log is_prime kummer_carries m_closed n_func",
        ),
        (
            "stable_tables",
            "ExponentEntry FinAbGroup InfiniteExponentError exponent load_exponent_table"
            " r_primary_exponent stable_exponent_BZr",
        ),
        (
            "bounds",
            "BoundReport HypothesisViolatedError OrdersProfile check_per_ind_consistency"
            " degree_admissible dimension_forces_period lower_bound_skeleton"
            " min_admissible_degree pu_eta_power_order upper_bound_prime_power"
            " upper_bound_product",
        ),
        (
            "homology",
            "BocksteinMap ChainComplex CohomologyGroup ComplexFormatError IntMatrix"
            " SmithDecomposition bockstein bockstein_of_cocycle bzr_skeleton_complex"
            " chain_complex_from_json chain_complex_to_json cohomology_generators_Z"
            " cohomology_mod cohomology_Z load_chain_complex rp_complex smith_normal_form"
            " sphere_complex",
        ),
        (
            "ahss",
            "TwistedShape best_upper_bound ku_ahss_upper_bound load_twisted_shape"
            " twisted_shape_from_json",
        ),
    )
    for name in names.split()
}

__all__ = [*_EXPORTS, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a submodule, or the submodule defining an exported name, on
    first access, and bind the name here so that later accesses are plain
    lookups."""
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")  # the import binds the submodule here
        return globals()[name]
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_EXPORTS[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
