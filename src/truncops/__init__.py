"""Truncated Toeplitz/Hankel operators on finite-dimensional model spaces."""

from .blaschke import (
    ClarkData,
    ExtendedScalar,
    InnerFunction,
    blaschke_new,
    clark_points,
    monomial_inner,
)
from .modelspace import (
    ConjugateLinearMap,
    ModelSpaceBasis,
    OperatorMatrix,
    SpaceElement,
    boundary_kernel,
    conj_kernel,
    conjugation_C,
    conjugation_U,
    conjugation_U_on,
    embed,
    flip_J,
    inner_product,
    kernel,
    project,
    tm_basis,
)
from .operators import (
    adjoint_tho_check,
    clark_perturbation,
    defects,
    functional_calculus,
    rank_one,
    sedlock_op,
    shift,
    shift_adj,
    spectral_multiplier,
    symmetric_involution,
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
    symbol_is_zero_tho,
    symbol_is_zero_tto,
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
