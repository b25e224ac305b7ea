"""idealkit: exact computations with monomial ideals.

Saturated powers, both notions of symbolic powers, irreducible and primary
decomposition, binomial expansions for powers of sums in disjoint
variables, and depth/regularity via exact multigraded Betti numbers, plus
a script front end and a seeded verification harness.
"""

from .core import (
    IdealArgumentError,
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    Ring,
    RingMismatchError,
    colon,
    contains,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    minimalize,
    principal,
    radical,
    saturate,
)
from .decomposition import (
    IrreducibleComponent,
    PrimaryDecomposition,
    ass_module_quotient,
    ass_star_bounded,
    associated_primes,
    grade_zero,
    irreducible_decomposition,
    minimal_primes,
    primary_decomposition,
)
from .powers import (
    regular_witness,
    saturated_power,
    saturator_ass,
    saturator_ass_global,
    saturator_min,
    saturator_min_global,
    symbolic_ass,
    symbolic_min,
    symbolic_power,
)
from .binomial import (
    RingEmbedding,
    binomial_saturated,
    binomial_symbolic,
    check_ass_structure,
    check_depth_reg_binomial,
    check_depth_reg_symbolic_ass,
    check_equality_criteria,
    check_filtration_identities,
    check_symbolic_equality_implication,
    check_term_inclusions,
    extend,
    join_rings,
)
from .homology import (
    NEG_INF,
    POS_INF,
    BettiTable,
    ExtendedInt,
    betti_table,
    depth_quotient,
    deriv_star,
    reg_quotient,
    taylor_betti_table,
)

__version__ = "0.1.0"
