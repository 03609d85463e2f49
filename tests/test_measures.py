import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment
from scipy.stats import norm

from rdslab import measures as M
from rdslab.measures import (
    EmpiricalMeasure,
    kantorovich_circle,
    kantorovich_gaussian,
    kantorovich_interval,
    kantorovich_rows,
)
from rdslab.spaces import Circle, Interval, Projective

SP = Interval(0.0, 2.0)
CIRC = Circle()


def assignment_oracle_interval(xs, ys):
    """Optimal-matching cost for equal-weight atom sets (exact W1 oracle)."""
    cost = np.abs(np.subtract.outer(xs, ys))
    r, c = linear_sum_assignment(cost)
    return cost[r, c].sum() / len(xs)


def assignment_oracle_circle(xs, ys):
    d = np.abs(np.subtract.outer(xs, ys)) % 1.0
    cost = np.minimum(d, 1.0 - d)
    r, c = linear_sum_assignment(cost)
    return cost[r, c].sum() / len(xs)


class TestEmpiricalMeasure:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(SP, [0.0, 1.0], [0.5, 0.6])
        with pytest.raises(ValueError):
            EmpiricalMeasure(SP, [0.0], [-1.0])

    def test_from_samples_equal_weights(self):
        mu = EmpiricalMeasure.from_samples(SP, [0.1, 0.2, 0.3])
        np.testing.assert_allclose(mu.weights, 1.0 / 3.0)

    def test_from_samples_needs_a_sample(self):
        with pytest.raises(ValueError, match="nonempty"):
            EmpiricalMeasure.from_samples(SP, [])


class TestKantorovichInterval:
    def test_diracs(self):
        d = kantorovich_interval(
            EmpiricalMeasure(SP, [0.3], [1.0]), EmpiricalMeasure(SP, [1.1], [1.0])
        )
        assert d == pytest.approx(0.8)

    def test_two_atom_checkpoint(self):
        m1 = EmpiricalMeasure.from_samples(SP, [0.0, 1.0])
        m2 = EmpiricalMeasure.from_samples(SP, [0.5, 1.5])
        assert kantorovich_interval(m1, m2) == pytest.approx(0.5)

    def test_identical_zero(self):
        m = EmpiricalMeasure.from_samples(SP, [0.2, 0.9, 1.4])
        assert kantorovich_interval(m, m) == pytest.approx(0.0, abs=1e-15)

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            kantorovich_interval(
                EmpiricalMeasure(SP, [0.0], [1.0]),
                EmpiricalMeasure(Interval(0.0, 1.0), [0.0], [1.0]),
            )

    def test_against_assignment_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(1, 21))
            xs = rng.uniform(0.0, 2.0, k)
            ys = rng.uniform(0.0, 2.0, k)
            got = kantorovich_interval(
                EmpiricalMeasure.from_samples(SP, xs), EmpiricalMeasure.from_samples(SP, ys)
            )
            assert got == pytest.approx(assignment_oracle_interval(xs, ys), abs=1e-9)

    def test_unequal_weights(self):
        m1 = EmpiricalMeasure(SP, [0.0], [1.0])
        m2 = EmpiricalMeasure(SP, [0.0, 1.0], [0.5, 0.5])
        assert kantorovich_interval(m1, m2) == pytest.approx(0.5)


class TestKantorovichIntervalRows:
    """``kantorovich_rows`` on an interval reference: the merged distance of
    every row against the per-row ``kantorovich_interval``, bit for bit."""

    @staticmethod
    def _compare(samples, ref):
        samples = np.asarray(samples, dtype=float)
        w = np.full(samples.shape[1], 1.0 / samples.shape[1])
        expect = [kantorovich_interval(EmpiricalMeasure(SP, o, w), ref) for o in samples]
        assert np.array_equal(kantorovich_rows(samples, ref), expect)

    def test_points_tied_with_atoms(self):
        # the ties are placed ahead of the atoms, as the stable sort does
        ref = EmpiricalMeasure.from_samples(SP, [0.25, 0.5, 1.0, 1.5])
        self._compare([[0.5, 1.0, 0.3], [0.25, 1.5, 2.0], [0.0, 0.5, 0.5]], ref)

    def test_repeated_points(self):
        ref = EmpiricalMeasure.from_samples(SP, np.linspace(0.1, 1.9, 7))
        self._compare([[0.7, 0.7, 0.7, 1.2], [1.9, 0.1, 1.9, 0.1], [0.4] * 4], ref)

    def test_repeated_atoms_unequal_weights(self):
        ref = EmpiricalMeasure(SP, [1.0, 0.3, 1.0, 0.3, 1.7, 1.0],
                               [0.1, 0.3, 0.05, 0.25, 0.2, 0.1])
        rng = np.random.default_rng(3)
        samples = np.concatenate([rng.choice([0.3, 1.0, 1.7], (5, 9)),
                                  rng.uniform(0.0, 2.0, (5, 9))])
        self._compare(samples, ref)

    @pytest.mark.parametrize("rows", [1, M.MERGE_BLOCK - 1, M.MERGE_BLOCK + 1,
                                      3 * M.MERGE_BLOCK + 5])
    def test_rows_across_blocks(self, rows):
        rng = np.random.default_rng(rows)
        ref = EmpiricalMeasure.from_samples(SP, rng.uniform(0.0, 2.0, 200))
        samples = rng.uniform(0.0, 2.0, (rows, 60))
        samples[:, ::7] = ref.positions[rng.integers(0, 200, (rows, 9))]
        self._compare(samples, ref)

    @pytest.mark.parametrize("space", [None, Projective(2)], ids=["line", "projective"])
    def test_needs_an_interval_or_circle(self, space):
        with pytest.raises(ValueError):
            kantorovich_rows(np.zeros((2, 3)), EmpiricalMeasure.from_samples(space, [0.5]))


class TestKantorovichCircle:
    def test_short_arc(self):
        d = kantorovich_circle(
            EmpiricalMeasure(CIRC, [0.0], [1.0]), EmpiricalMeasure(CIRC, [0.9], [1.0])
        )
        assert d == pytest.approx(0.1)

    def test_antipodal_pairs_checkpoint(self):
        m1 = EmpiricalMeasure.from_samples(CIRC, [0.0, 0.5])
        m2 = EmpiricalMeasure.from_samples(CIRC, [0.25, 0.75])
        assert kantorovich_circle(m1, m2) == pytest.approx(0.25)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 1, 7)
        ys = rng.uniform(0, 1, 7)
        base = kantorovich_circle(
            EmpiricalMeasure.from_samples(CIRC, xs), EmpiricalMeasure.from_samples(CIRC, ys)
        )
        for r in (0.1, 0.37, 0.9):
            shifted = kantorovich_circle(
                EmpiricalMeasure.from_samples(CIRC, (xs + r) % 1.0),
                EmpiricalMeasure.from_samples(CIRC, (ys + r) % 1.0),
            )
            assert shifted == pytest.approx(base, abs=1e-12)

    def test_against_assignment_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            k = int(rng.integers(1, 16))
            xs = rng.uniform(0, 1, k)
            ys = rng.uniform(0, 1, k)
            got = kantorovich_circle(
                EmpiricalMeasure.from_samples(CIRC, xs), EmpiricalMeasure.from_samples(CIRC, ys)
            )
            assert got == pytest.approx(assignment_oracle_circle(xs, ys), abs=1e-9)


class TestKantorovichCircleRows:
    """``kantorovich_rows`` on a circle reference: the merged distance of
    each row against ``kantorovich_circle``, bit for bit."""

    @staticmethod
    def _compare(samples, ref):
        samples = np.asarray(samples, dtype=float)
        expect = [kantorovich_circle(EmpiricalMeasure.from_samples(CIRC, o), ref)
                  for o in samples]
        assert np.array_equal(kantorovich_rows(samples, ref), expect)

    def test_points_tied_with_atoms(self):
        ref = EmpiricalMeasure.from_samples(CIRC, [0.0, 0.25, 0.5, 0.75])
        self._compare([[0.5, 0.75, 0.3], [0.25, 0.0, 0.9], [0.0, 0.5, 0.5]], ref)

    def test_wrap_points(self):
        # a point at 0 ties with the sentinel, one just below 1 ends the
        # last segment; points outside [0, 1) wrap onto the atoms
        ref = EmpiricalMeasure.from_samples(CIRC, [0.1, 0.4, 1.0 - 2.0**-53, 1.6])
        self._compare([[0.0, 1.0 - 2.0**-53, 0.5], [1.0, -0.6, 2.4], [-0.0, 3.0, 1.1],
                       [-1e-17, 0.9999999999999999, 0.4]], ref)

    def test_repeated_points_change_segment_counts(self):
        # rows with ties keep fewer positive-length segments than the others
        ref = EmpiricalMeasure(CIRC, [0.7, 0.2, 0.7, 0.2, 0.95], [0.1, 0.3, 0.15, 0.25, 0.2])
        rng = np.random.default_rng(4)
        samples = np.concatenate([rng.choice([0.2, 0.7, 0.95, 0.0], (6, 9)),
                                  rng.uniform(0.0, 1.0, (6, 9)),
                                  np.full((2, 9), 0.3)])
        self._compare(samples, ref)

    @pytest.mark.parametrize("rows", [1, M.MERGE_BLOCK - 1, M.MERGE_BLOCK + 1,
                                      3 * M.MERGE_BLOCK + 5])
    def test_rows_across_blocks(self, rows):
        rng = np.random.default_rng(rows)
        ref = EmpiricalMeasure.from_samples(CIRC, rng.uniform(-1.0, 2.0, 200))
        samples = rng.uniform(0.0, 1.0, (rows, 60))
        samples[:, ::7] = ref.positions[rng.integers(0, 200, (rows, 9))]
        self._compare(samples, ref)


class TestKantorovichGaussian:
    def test_dirac_zero_sigma_zero(self):
        mu = EmpiricalMeasure(None, [0.0], [1.0])
        assert kantorovich_gaussian(mu, 0.0) == 0.0

    def test_dirac_zero_sigma_one(self):
        # distance of delta_0 to N(0,1) is E|Z| = sqrt(2/pi)
        mu = EmpiricalMeasure(None, [0.0], [1.0])
        assert kantorovich_gaussian(mu, 1.0) == pytest.approx(np.sqrt(2 / np.pi), abs=1e-12)

    def test_large_gaussian_sample_small_distance(self):
        rng = np.random.default_rng(3)
        mu = EmpiricalMeasure.from_samples(None, rng.standard_normal(100_000))
        assert kantorovich_gaussian(mu, 1.0) <= 0.02

    def test_against_quadrature(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            pts = rng.uniform(-2, 2, 6)
            w = rng.dirichlet(np.ones(6))
            mu = EmpiricalMeasure(None, pts, w)
            sigma = float(rng.uniform(0.3, 2.0))

            def integrand(t):
                H = float(np.sum(w * (pts <= t)))
                return abs(H - norm.cdf(t, scale=sigma))

            lo = min(pts.min(), -8 * sigma)
            hi = max(pts.max(), 8 * sigma)
            ref, _ = quad(integrand, lo, hi, limit=400,
                          points=sorted(np.clip(pts, lo, hi)))
            assert kantorovich_gaussian(mu, sigma) == pytest.approx(ref, abs=1e-6)

    def test_sigma_zero_is_mean_abs(self):
        mu = EmpiricalMeasure(None, [-1.0, 2.0], [0.5, 0.5])
        assert kantorovich_gaussian(mu, 0.0) == pytest.approx(1.5)
