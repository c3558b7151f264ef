"""Exact divisibility bounds for the topological period-index problem.

Upper and lower bounds on the index of a torsion degree-3 cohomology class
from its period and the dimension (or the full cellular cochain data) of the
space carrying it.  The test suite checks every closed form against a
brute-force oracle.
"""

from .numtheory import (
    Factorization,
    factorize,
    integer_log,
    is_prime,
    kummer_carries,
    m_closed,
    n_func,
)
from .stable_tables import (
    ExponentEntry,
    FinAbGroup,
    InfiniteExponentError,
    exponent,
    load_exponent_table,
    r_primary_exponent,
    stable_exponent_BZr,
)
from .bounds import (
    BoundReport,
    HypothesisViolatedError,
    OrdersProfile,
    check_per_ind_consistency,
    degree_admissible,
    dimension_forces_period,
    lower_bound_skeleton,
    min_admissible_degree,
    pu_eta_power_order,
    upper_bound_prime_power,
    upper_bound_product,
)
from .homology import (
    BocksteinMap,
    ChainComplex,
    CohomologyGroup,
    ComplexFormatError,
    IntMatrix,
    SmithDecomposition,
    bockstein,
    bockstein_of_cocycle,
    bzr_skeleton_complex,
    chain_complex_from_json,
    chain_complex_to_json,
    cohomology_generators_Z,
    cohomology_mod,
    cohomology_Z,
    load_chain_complex,
    rp_complex,
    smith_normal_form,
    sphere_complex,
)
from .ahss import (
    TwistedShape,
    best_upper_bound,
    ku_ahss_upper_bound,
    load_twisted_shape,
    twisted_shape_from_json,
)

__version__ = "0.1.0"
