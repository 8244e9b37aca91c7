"""repmech: reparametrization-invariant mechanics toolkit.

Numerical machinery for first-order homogeneous Lagrangians: causality
classification by metric signature, the canonical Lagrangian and its exact
identities, gauge-fixed world-line integration, discrete action
extremization, brane volumes from Jacobian minors, and the gamma-matrix
algebra derived from Lie-algebra covariance.
"""

__version__ = "0.1.0"

from .action import (
    DiscretePath,
    ExtremizeResult,
    action_gradient,
    discrete_action,
    extremize,
    reparam_invariance_residual,
    straight_chord_path,
)
from .brane import (
    BraneEmbedding,
    BraneSpec,
    GeneralizedVelocity,
    brane_action,
    component_count,
    curve_embedding,
    cylinder_patch_embedding,
    generalized_velocity,
    graph_embedding,
    gridded_embedding,
    integral_gauge_check,
    minor_indices,
    nonrelativistic_brane_expansion,
    reparameterized,
    tilted_plane_embedding,
)
from .clifford import (
    GammaSet,
    LieAlgebraSpec,
    QuadraticGeneratorSolution,
    abelian_algebra,
    anticommutator_residual,
    build_dirac_gammas,
    build_pauli_gammas,
    dirac_operator,
    extract_vector_rep,
    lorentz_vector_algebra,
    mass_shell_determinant_residual,
    mass_term_trace_identity,
    pair_vector_algebra,
    perturb_gammas,
    rotation_vector_algebra,
    solve_quadratic_generators,
    vector_covariance_check,
    verify_lie_closure,
)
from .errors import (
    ConfigError,
    DegenerateMetric,
    DimensionMismatch,
    FormMismatch,
    GaugeViolation,
    NegativeEvenRadicand,
    NegativeRadicand,
    NoSpatialDirection,
    NotOneTimeMetric,
    NullVelocity,
    RepMechError,
    SingularReducedHessian,
    SpacelikeSegment,
    SpacelikeVelocity,
    UnsupportedDimension,
    ZeroRadicand,
)
from .fields import (
    SymmetricTensorField,
    VectorPotentialField,
    constant_potential,
    potential_from_function,
    symmetric_tensor,
    symmetric_tensor_field,
    uniform_magnetic_potential,
    zero_potential,
)
from .geometry import (
    CausalityClass,
    CausalityKind,
    MetricField,
    SignatureReport,
    causality_class,
    constant_diagonal_metric,
    constant_metric,
    euclidean_metric,
    metric_from_function,
    minkowski_metric,
    quadratic_form,
    signature,
    weak_field_metric,
)
from .lagrangian import (
    LagrangianSpec,
    el_system,
    eval_L,
    generalized_momentum,
    hamiltonian_residual,
    homogeneity_residual,
    mass_shell_residual,
    momentum,
    momentum_fd,
    momentum_position_directional,
    nonrelativistic_expansion,
    position_gradient,
    velocity_hessian,
)
from .worldline import (
    GaugeChoice,
    Worldline,
    conserved_drift,
    el_residual,
    energy_drift,
    integrate,
)
