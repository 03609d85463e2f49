"""Optimal transport distances and the correlation dimension.

Exact one-dimensional Wasserstein distances (interval, circle, and
against a Gaussian), the empirical approximation of a stationary law, the
correlation coefficients p_j of coupled orbits started from it, and the
log-log slope of the smoothed correlation sum for uniform points (whose
correlation dimension is 1).
"""

import numpy as np

from rdslab import (
    EmpiricalMeasure,
    Interval,
    correlation_coefficient_pj,
    correlation_dimension,
    kantorovich_circle,
    kantorovich_gaussian,
    kantorovich_interval,
    stationary_approx,
)
from rdslab.harness import build_system
from rdslab.spaces import Circle

sp = Interval(0.0, 1.0)

print("== exact interval Wasserstein ==")
m1 = EmpiricalMeasure.from_samples(sp, [0.0, 1.0])
m2 = EmpiricalMeasure.from_samples(sp, [0.5, 1.0])
print(f"  kappa({{0,1}}, {{1/2,1}}) = {kantorovich_interval(m1, m2):.4f}  (optimal matching: 1/4)")

print("\n== circle metric wraps around ==")
c1 = EmpiricalMeasure.from_samples(Circle(), [0.0])
c2 = EmpiricalMeasure.from_samples(Circle(), [0.9])
print(f"  kappa(delta_0, delta_0.9) = {kantorovich_circle(c1, c2):.4f}  (shorter arc: 0.1)")

print("\n== distance of a Dirac to a Gaussian ==")
d0 = EmpiricalMeasure(None, [0.0], [1.0])
print(f"  kappa(delta_0, N(0,1)) = {kantorovich_gaussian(d0, 1.0):.5f}"
      f"  (= E|Z| = sqrt(2/pi) = {np.sqrt(2/np.pi):.5f})")

print("\n== stationary law of the halving system is Lebesgue ==")
halving = build_system({"kind": "halving-ifs"})
approx = stationary_approx(halving.nu, halving.space, 1000, 20_000, 1, seed=0)
print(f"  empirical mean = {approx.measure.mean():.4f} (Lebesgue: 0.5);"
      f" half-vs-half self-check = {approx.self_check_distance:.4f}")

print("\n== correlation coefficients of the halving system ==")
# p_j: the mean distance after j coupled steps of two starts drawn from the
# stationary approximation; every step halves it
for j in range(4):
    p, err = correlation_coefficient_pj(halving.nu, halving.space, approx.measure, j,
                                        trials=20_000, seed=j)
    print(f"  p_{j} = {p:.4f} +- {err:.4f}  (closed form 2^-{j}/3 = {2.0**-j / 3:.4f})")

print("\n== correlation dimension of uniform points ==")
pts = np.random.default_rng(0).uniform(0, 1, 5000)
slope, intercept, table = correlation_dimension(sp, pts, [0.1 * 2.0**-j for j in range(5)])
for eps, K in table:
    print(f"  eps={eps:.5f}  K={K:.6f}")
print(f"  log-log slope = {slope:.3f} (Lebesgue on [0,1] has dimension 1)")
