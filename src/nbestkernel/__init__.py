"""Greedy and n-best kernel approximation on weighted disc spaces."""

from .errors import (
    ConditioningError,
    ConfigError,
    DeflationError,
    DegenerateQueryError,
    DegenerateTupleWarning,
    DegreeError,
    DivergenceRiskError,
    DomainError,
    ShapeMismatchError,
    SingularityError,
    UnsupportedSpaceError,
)
from .spaces import (
    DEFAULT_DEGREE,
    DEFAULT_MERGE_TOL,
    DEFAULT_RADIUS_CAP,
    AnalyticFunction,
    ParamTuple,
    SpaceSpec,
    as_element,
    derivative_at,
    evaluate,
    inner_product,
    kernel,
    kernel_matrix,
    multiple_kernel,
    norm,
    norm_sq,
    weight,
    zero_function,
)
from .orthosystem import (
    BlaschkeProduct,
    OrthonormalSystem,
    Projection,
    evaluate_blaschke,
    gram_schmidt,
    iterated_remainder,
    project,
    reduced_remainder,
    tm_basis,
    zero_space_kernel,
)
from .engine import (
    ApproximationResult,
    OptimizerConfig,
    afd_decay_sweep,
    afd_greedy,
    energy,
    nbest,
    residual_decay_sweep,
)
from .stochastic import (
    Ensemble,
    StochasticResult,
    bochner_norm,
    generate_ensemble,
    stochastic_energy,
    stochastic_nbest,
)
from .verify import (
    ConditionReport,
    battery,
    bvc_profile,
    check_bounded_kernel_limit,
    check_boundary_vanishing,
    check_norm_blowup,
    check_remainder_growth_bound,
    check_zero_property,
    check_zero_space_factorization,
    estimate_pointwise_bound,
    family_pointwise_bound,
)

__version__ = "0.1.0"
