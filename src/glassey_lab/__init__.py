"""Numerical laboratory for radial wave equations with derivative
nonlinearities: solvers, weighted space-time norms, inequality property
suites, contraction-map runs, and lifespan-scaling experiments.
"""

from .core import (
    EnergyNorms,
    LambdaNorms,
    LocalEnergyNorm,
    NormReport,
    ProblemSpec,
    RadialField,
    RadialGrid,
    Trajectory,
    WaveState,
    WeightParams,
    e_norms,
    lambda_norms,
    le_norm,
    lestar_upper,
    norm_report,
    radial_derivative,
    radial_laplacian,
    sphere_area,
    trajectory_difference,
    weight_exponents,
    weighted_l2,
    weighted_sup,
)
from .errors import (
    DegenerateInput,
    Divergence,
    GlasseyLabError,
    HorizonMismatch,
    InsufficientData,
    NonIntegrable,
    PreconditionViolation,
    RangeViolation,
    StepUnderflow,
    SupportOverflow,
)
from .estimates import (
    ForcingSpec,
    IneqSample,
    energy_ineq_check,
    hardy_check,
    kss_band_ok,
    kss_hom_check,
    kss_inhom_check,
    random_compact,
    random_radial,
    run_ineq_suite,
    trace_check,
    trace_variant_check,
)
from .lifespan import (
    FitResult,
    LifespanRecord,
    fit_exponential,
    fit_power,
    measure_lifespan,
    predicted_exponent,
    sweep,
)
from .picard import (
    PicardResult,
    PicardTrace,
    default_weights,
    phi_map,
    picard_run,
    rho_metric,
)
from .solver import (
    DataProfile,
    ProfileData,
    SolveOutcome,
    energy,
    evolve,
    exact_free_n3,
    make_profile,
    support_radius,
)

__version__ = "0.1.0"
