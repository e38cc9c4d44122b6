"""Truncated Toeplitz/Hankel operators on finite-dimensional model spaces."""

from .blaschke import ExtendedScalar, InnerFunction, monomial_inner
from .modelspace import (
    ModelSpaceBasis,
    OperatorMatrix,
    SpaceElement,
    conj_kernel,
    hankel_space,
    hankel_symbol,
    inner_product,
    kernel,
    project,
    tm_basis,
)
from .operators import (
    ClarkData,
    clark_perturbation,
    clark_points,
    defects,
    functional_calculus,
    rank_one,
    sedlock_op,
    spectral_multiplier,
    tho_matrix,
    tto_matrix,
)
from .classify import (
    CrossDecomposition,
    SedlockReport,
    class_multipliers,
    cross_decompose,
    cross_space_unitary_report,
    cross_space_zero_product,
    is_tho,
    is_tto,
    sedlock_class,
    tho_inverse_class,
    tho_unitary_report,
    zero_product_analysis,
)
from .products import (
    ProductVerdict,
    atho_atto_product_test,
    atho_product_tto_test,
    atto_product_test,
    equivalence_transforms,
    hat_transport_checks,
    involution_identity_checks,
    membership_transport_chain,
    membership_transports,
    mixed_product_test,
    tho_product_symbol_forms,
    tho_product_tto_test,
)
from .harness import (
    CHECKS,
    ProblemSpec,
    SuiteConfig,
    generate_instance,
    replay,
    run_suite,
    run_trial,
)
from .ratfun import RationalSymbol

__version__ = "0.1.0"
