"""Simulation and estimation toolkit for random dynamical systems.

Random orbits arise by composing i.i.d. map draws; the package simulates
these chains, estimates contraction/ergodic/fractal observables along
them, evaluates the matching closed-form concentration bounds, and checks
empirically that the bounds dominate the observed tails.

The root re-exports exactly the names that the demos and the README's
examples import from ``rdslab``; every other name is imported from the
module that defines it.
"""

from .spaces import Interval
from .streams import SeededStream
from .maps import DrivingMeasure, MoebiusDecay, ProjectiveAction, gee_diameter_sup
from .chains import simulate, simulate_coupled
from .measures import (
    EmpiricalMeasure,
    kantorovich_circle,
    kantorovich_gaussian,
    kantorovich_interval,
)
from .estimators import (
    correlation_coefficient_pj,
    correlation_dimension,
    lambda_n,
    lyapunov_1d,
    lyapunov_projective,
    nonexpansive_fixed_points,
    pair_distance_profile,
    stationary_approx,
)
from .config import ExperimentConfig
from .harness import build_system, run_asclt, run_lambda_survey, run_tail

__version__ = "0.1.0"
