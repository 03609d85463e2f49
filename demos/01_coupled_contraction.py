"""Coupled orbits and the contraction functional.

Two orbits driven by the SAME random map sequence approach each other when
the family contracts on average.  This script watches the coupled gap
profile for the two-atom Moebius family, cross-checks the Monte Carlo
means against exact enumeration over all words, and surveys the grid-max
contraction sum lambda_n against its analytic logarithmic cap.
"""

from rdslab import (
    DrivingMeasure,
    ExperimentConfig,
    Interval,
    MoebiusDecay,
    SeededStream,
    pair_distance_profile,
    run_lambda_survey,
    simulate_coupled,
)
from rdslab.chains import coupled_distance, enumerate_expectation

sp = Interval(0.0, 1.0)
nu = DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.5), (MoebiusDecay(2.0), 0.5)))

print("== one coupled realization from the extremal pair (0, 1) ==")
a, b = simulate_coupled(nu, [0.0, 1.0], 8, SeededStream(1))
for k, (x, y) in enumerate(zip(a.points, b.points)):
    print(f"  k={k}:  X={x:.6f}  Y={y:.6f}  gap={abs(x - y):.6f}")

print("\n== mean gap u_k: Monte Carlo vs exact word enumeration ==")
prof = pair_distance_profile(nu, sp, 0.0, 1.0, 5, 50_000, seed=2)
for k in range(1, 6):
    exact = enumerate_expectation(nu, k, lambda maps: coupled_distance(sp, maps, 0.0, 1.0))
    mean, err = prof[k]
    print(f"  k={k}:  mc={mean:.5f} +- {err:.5f}   exact={exact:.5f}")

print("\n== lambda_n survey for the parametric Moebius family, alpha ~ U[1,2] ==")
cfg = ExperimentConfig(system={"kind": "moebius-uniform"},
                       params={"n_ladder": [10, 100], "grid": 32},
                       trials=500, seed=3, t_ladder=[0.1])
for row in run_lambda_survey(cfg):
    print(f"  n={row['n']:4d}:  lambda_hat={row['lambda_hat']:.4f}"
          f" +- {row['stderr']:.4f}   analytic cap 1+log(n+1)={row['analytic_cap']:.4f}")
print("the estimate stays under the cap: the family is weakly contracting"
      " with logarithmic gap growth")
