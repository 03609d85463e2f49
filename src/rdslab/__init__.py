"""Simulation and estimation toolkit for random dynamical systems.

Random orbits arise by composing i.i.d. map draws; the package simulates
these chains, estimates contraction/ergodic/fractal observables along
them, evaluates the matching closed-form concentration bounds, and checks
empirically that the bounds dominate the observed tails.
"""

from .spaces import (
    Circle,
    Interval,
    Projective,
    canonical_direction,
    circle_delta,
    distance,
    grid,
)
from .streams import SeededStream
from .maps import (
    Affine,
    DrivingMeasure,
    MoebiusDecay,
    PolynomialDecay,
    ProjectiveAction,
    SingularDerivativeError,
    apply_map,
    derivative,
    gee_diameter_sup,
    log_derivative,
    word_maps,
)
from .chains import (
    EnumerationGuardError,
    Trajectory,
    coupled_distance,
    draw_word,
    enumerate_expectation,
    simulate,
    simulate_coupled,
)
from .observables import OBSERVABLES, Observable
from .measures import (
    EmpiricalMeasure,
    kantorovich_circle,
    kantorovich_gaussian,
    kantorovich_interval,
)
from .estimators import (
    LambdaEstimate,
    Sigma2Estimate,
    StationaryApprox,
    correlation_coefficient_pj,
    correlation_dimension,
    correlation_sum,
    lambda_n,
    lyapunov_1d,
    lyapunov_projective,
    nonexpansive_fixed_points,
    pair_distance_profile,
    phi0,
    sigma2_estimate,
    stationary_approx,
)
from .bounds import (
    BoundResult,
    appendix_checks,
    circle_lyap_bound,
    corrdim_bound,
    empirical_kappa_bound,
    interval_kappa_bound,
    lln_bound,
    matrix_norm_bound,
    projective_lyap_bound,
    refined_bound,
    sync_bound,
    theorem_a_bound,
    wilson_interval,
)
from .config import ExperimentConfig
from .harness import (
    SystemSpec,
    TailReport,
    build_system,
    run_asclt,
    run_lambda_survey,
    run_tail,
)

__version__ = "0.1.0"
