import numpy as np
import pytest

from rdslab.chains import (
    ENUMERATION_GUARD,
    EnumerationGuardError,
    coupled_distance,
    draw_word,
    enumerate_expectation,
    simulate,
    simulate_coupled,
)
from rdslab.maps import (
    Affine,
    DrivingMeasure,
    MoebiusDecay,
    PolynomialDecay,
    ProjectiveAction,
    SingularDerivativeError,
    _circle_direction,
    apply_map,
    log_derivative,
    word_maps,
)
from rdslab.spaces import Circle, Interval
from rdslab.streams import SeededStream

TWO_ATOM = DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.5), (MoebiusDecay(2.0), 0.5)))
HALVING = DrivingMeasure(atoms=((Affine(0.5, 0.0), 0.5), (Affine(0.5, 0.5), 0.5)))
SP = Interval(0.0, 1.0)


class TestSimulate:
    def test_moebius_closed_form(self):
        # composed parameters add, so X_n = x / (1 + (sum alpha) x) exactly
        traj = simulate(TWO_ATOM, 0.7, 50, SeededStream(3), record_maps=True)
        total = sum(TWO_ATOM.atoms[int(i)][0].alpha for i in traj.map_ids)
        assert traj.points[-1] == pytest.approx(0.7 / (1 + total * 0.7), abs=1e-12)

    def test_deterministic_given_seed(self):
        t1 = simulate(TWO_ATOM, 0.3, 20, SeededStream(9))
        t2 = simulate(TWO_ATOM, 0.3, 20, SeededStream(9))
        np.testing.assert_array_equal(t1.points, t2.points)

    def test_zero_steps(self):
        traj = simulate(HALVING, 0.3, 0, SeededStream(0), space=SP)
        assert traj.n == 0 and traj.points[0] == 0.3

    def test_affine_support_defaults_to_the_unit_interval(self):
        (traj,) = simulate_coupled(HALVING, [0.3], 20, SeededStream(4))
        (named,) = simulate_coupled(HALVING, [0.3], 20, SeededStream(4), space=SP)
        assert traj.space == SP
        assert np.array_equal(traj.points, named.points)

    def test_log_derivative_record(self):
        traj = simulate(HALVING, 0.3, 5, SeededStream(0), record_log_derivative=True, space=SP)
        np.testing.assert_allclose(
            traj.log_derivative_sum, np.log(0.5) * np.arange(1, 6), atol=1e-12
        )


def descriptor_orbit(nu, x0, n, stream):
    """The per-step body simulate_coupled had before DrivingMeasure.orbit:
    one map descriptor per step, apply_map and log_derivative on each point,
    the log-derivatives summed into acc = 0.0 one by one."""
    maps = word_maps(nu, draw_word(nu, stream, n))
    pts = [np.asarray(x0, dtype=float) if np.ndim(x0) else float(x0)]
    logs = []
    acc = 0.0
    for f in maps:
        x = pts[-1]
        acc += float(log_derivative(f, x))
        logs.append(acc)
        pts.append(apply_map(f, x))
    return np.array(pts), np.array(logs)


def circle_chart(*matrices):
    w = 1.0 / len(matrices)
    return DrivingMeasure(atoms=tuple((ProjectiveAction(a, chart="circle"), w) for a in matrices))


HYPERBOLIC, ROTATION = [[2.0, 1.0], [1.0, 1.0]], [[0.6, -0.8], [0.8, 0.6]]
ORBIT_SYSTEMS = {
    "halving": (HALVING, SP),
    "negative-slope-affine": (
        DrivingMeasure(atoms=((Affine(-0.5, 1.0), 0.3), (Affine(-0.25, 0.5), 0.7))), SP),
    "moebius-finite": (TWO_ATOM, SP),
    "moebius-parametric": (DrivingMeasure(family="moebius", sampler=("uniform", 1.0, 2.0)), SP),
    "polynomial-finite": (
        DrivingMeasure(atoms=((PolynomialDecay(1.25), 0.5), (PolynomialDecay(1.5), 0.5))), SP),
    "polynomial-parametric": (
        DrivingMeasure(family="polynomial", sampler=("uniform", 1.25, 1.5)), SP),
    "mixed": (DrivingMeasure(atoms=((MoebiusDecay(1.5), 0.4), (Affine(0.5, 0.25), 0.3),
                                    (PolynomialDecay(1.3), 0.3))), SP),
    # non-dyadic rotation: a batch of points would round apart from one point
    "circle-chart": (circle_chart(HYPERBOLIC, ROTATION), Circle()),
}


def assert_bits_equal(got, expect):
    assert got.shape == expect.shape and got.dtype == expect.dtype
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


class TestOrbitOracle:
    """simulate_coupled (plain-float stepping, one log-derivative call) equals
    the per-step descriptor loop bit for bit, sign bits included: from 0.0 a
    Moebius log-derivative is -0.0, and the sums must still read +0.0."""

    STARTS = (0.0, 0.3, 0.7071067811865476, 1.0)

    @pytest.mark.parametrize("n", [0, 1, 7, 3000])
    @pytest.mark.parametrize("system", ORBIT_SYSTEMS)
    def test_equals_descriptor_loop(self, system, n):
        nu, space = ORBIT_SYSTEMS[system]
        trajs = simulate_coupled(nu, self.STARTS, n, SeededStream(n + 11),
                                 record_log_derivative=True, space=space)
        for x0, traj in zip(self.STARTS, trajs):
            points, logs = descriptor_orbit(nu, x0, n, SeededStream(n + 11))
            assert_bits_equal(traj.points, points)
            assert_bits_equal(traj.log_derivative_sum, logs)

    def test_random_hyperbolic_circle_charts(self):
        rng = np.random.default_rng(5)
        for k in range(40):
            a, b, c = rng.uniform(-2.0, 2.0, 3)
            a += np.copysign(0.5, a)  # det = a d - b c = 1
            nu = circle_chart([[a, b], [c, (1.0 + b * c) / a]], ROTATION)
            (traj,) = simulate_coupled(nu, [rng.random()], 200, SeededStream(k),
                                       record_log_derivative=True, space=Circle())
            points, logs = descriptor_orbit(nu, traj.points[0], 200, SeededStream(k))
            assert_bits_equal(traj.points, points)
            assert_bits_equal(traj.log_derivative_sum, logs)

    def test_projective_states_keep_the_step_loop(self):
        nu = DrivingMeasure(atoms=((ProjectiveAction(HYPERBOLIC), 0.5),
                                   (ProjectiveAction(ROTATION), 0.5)))
        start = np.array([0.6, 0.8])
        (traj,) = simulate_coupled(nu, [start], 300, SeededStream(2), record_log_derivative=True)
        points, logs = descriptor_orbit(nu, start, 300, SeededStream(2))
        assert traj.points.shape == (301, 2)
        assert_bits_equal(traj.points, points)
        assert_bits_equal(traj.log_derivative_sum, logs)

    def test_start_outside_the_interval(self):
        # 1 + alpha x = 0 at x = -1: numpy's -inf, then nan, as the step loop gave
        nu = DrivingMeasure(atoms=((MoebiusDecay(1.0), 1.0),))
        with np.errstate(all="ignore"):
            (traj,) = simulate_coupled(nu, [-1.0], 4, SeededStream(0), record_log_derivative=True)
            points, logs = descriptor_orbit(nu, -1.0, 4, SeededStream(0))
        assert traj.points[1] == -np.inf and np.isnan(traj.points[-1])
        assert np.array_equal(traj.points, points, equal_nan=True)
        assert np.array_equal(traj.log_derivative_sum, logs, equal_nan=True)

    def test_critical_point_stays_loud(self):
        # PolynomialDecay(1.5) has f'(x) = 1 - 1.5 sqrt(x) = 0 at x = 4/9
        nu = DrivingMeasure(atoms=((PolynomialDecay(1.5), 1.0),))
        with pytest.raises(SingularDerivativeError, match="vanishing derivative"):
            simulate(nu, (2.0 / 3.0) ** 2, 10, SeededStream(0), record_log_derivative=True)
        traj = simulate(nu, (2.0 / 3.0) ** 2, 10, SeededStream(0))
        assert traj.n == 10


@pytest.mark.parametrize("theta", [np.float64(0.3), np.linspace(-1.0, 2.0, 257),
                                   np.linspace(0.0, 1.0, 64)[:, None]],
                         ids=["0-d", "(N,)", "(N, 1)"])
def test_circle_direction_as_stacked(theta):
    u = np.pi * np.asarray(theta, dtype=float)
    expect = np.stack([np.cos(u), np.sin(u)], axis=-1)
    got = _circle_direction(theta)
    assert got.shape == expect.shape and got.flags.c_contiguous
    assert np.array_equal(got, expect)


def _measure(weights):
    return DrivingMeasure(atoms=tuple((MoebiusDecay(1.0 + i), w) for i, w in enumerate(weights)))


def _rising(k):
    w = np.arange(1.0, k + 1.0) ** 1.5
    return w / w.sum()


# 1 to 100 atoms, and an atom of weight 1e-17 between two others: the
# first two cumulative weights tie at 0.5, so its label is never drawn
ATOM_COUNTS = (*range(1, 10), 10, 33, 100)
WEIGHTS = [_rising(k) for k in ATOM_COUNTS] + [(0.5, 1e-17, 0.5)]
WEIGHT_IDS = [f"k{k}" for k in ATOM_COUNTS] + ["tied"]


class _Uniforms(np.random.Generator):
    """A generator whose ``random`` returns the given doubles."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == len(self.u)
        return self.u.copy()


class TestSampleIndices:
    @pytest.mark.parametrize("weights", WEIGHTS, ids=WEIGHT_IDS)
    def test_boundary_doubles(self, weights):
        # 0, each cumulative weight below the last, and the double just
        # below each one, the last included
        nu = _measure(weights)
        cdf = nu._cdf
        u = np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf, 0.0)])
        got = nu.sample_indices(_Uniforms(u), len(u))
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(cdf, u, "right"))
        assert np.array_equal(got, _Uniforms(u).choice(len(weights), len(u), p=nu._weights))

    def test_cached_weights_draw_as_fresh_choice(self):
        # the count draws rng.choice's labels, in its dtype, from as many
        # doubles
        for w in WEIGHTS:
            k, nu = len(w), _measure(w)
            rng, fresh = SeededStream(k).generator(), SeededStream(k).generator()
            for size in (1, 7, 2**16):
                expect = fresh.choice(k, size=size, p=nu._weights)
                got = nu.sample_indices(rng, size)
                assert got.dtype == expect.dtype == np.int64
                assert np.array_equal(got, expect)
                assert rng.random() == fresh.random()

    def test_weights_are_not_a_field(self):
        a = DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.5), (MoebiusDecay(2.0), 0.5)))
        assert a == TWO_ATOM and hash(a) == hash(TWO_ATOM)
        assert "_weights" not in repr(a)


class TestCoupling:
    def test_shared_word(self):
        trajs = simulate_coupled(HALVING, [0.0, 1.0], 30, SeededStream(5), space=SP)
        # the halving IFS contracts coupled orbits by exactly 1/2 per step
        gaps = np.abs(trajs[0].points - trajs[1].points)
        np.testing.assert_allclose(gaps, 0.5 ** np.arange(31), atol=1e-12)

    def test_coupled_distance_matches_simulation(self):
        stream = SeededStream(7)
        word = draw_word(TWO_ATOM, stream, 6)
        maps = word_maps(TWO_ATOM, word)
        d = coupled_distance(SP, maps[:3], 0.0, 1.0)
        x, y = 0.0, 1.0
        for f in maps[:3]:
            x, y = apply_map(f, x), apply_map(f, y)
        assert d == pytest.approx(abs(x - y))


class TestEnumeration:
    def test_guard(self):
        big = DrivingMeasure(atoms=tuple((MoebiusDecay(1.0 + i), 0.1) for i in range(10)))
        with pytest.raises(EnumerationGuardError):
            enumerate_expectation(big, 8, lambda maps: 1.0)  # 10^8 > guard
        assert 10**7 <= ENUMERATION_GUARD

    def test_probabilities_sum_to_one(self):
        words = []
        total = enumerate_expectation(TWO_ATOM, 5, lambda maps: words.append(maps) or 1.0)
        assert len(words) == 32
        assert total == pytest.approx(1.0)

    def test_exact_u1_checkpoint(self):
        # one step from the extremal pair (0, 1): mean gap 5/12
        val = enumerate_expectation(
            TWO_ATOM, 1, lambda maps: coupled_distance(SP, maps, 0.0, 1.0)
        )
        assert val == pytest.approx(5.0 / 12.0, abs=1e-12)

    def test_exact_u2_checkpoint(self):
        val = enumerate_expectation(
            TWO_ATOM, 2, lambda maps: coupled_distance(SP, maps, 0.0, 1.0)
        )
        assert val == pytest.approx(31.0 / 120.0, abs=1e-12)

    def test_parametric_rejected(self):
        nu = DrivingMeasure(family="moebius", sampler=("uniform", 1.0, 2.0))
        with pytest.raises(ValueError):
            enumerate_expectation(nu, 2, lambda maps: 1.0)
