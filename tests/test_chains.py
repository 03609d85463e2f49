import numpy as np
import pytest

from rdslab.chains import (
    ENUMERATION_GUARD,
    EnumerationGuardError,
    compose_reversed,
    coupled_distance,
    draw_word,
    enumerate_expectation,
    matrix_product,
    simulate,
    simulate_coupled,
    word_maps,
    word_table,
)
from rdslab.maps import Affine, DrivingMeasure, MoebiusDecay, ProjectiveAction, apply_map
from rdslab.spaces import Interval
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

    def test_log_derivative_record(self):
        traj = simulate(HALVING, 0.3, 5, SeededStream(0), record_log_derivative=True, space=SP)
        np.testing.assert_allclose(
            traj.log_derivative_sum, np.log(0.5) * np.arange(1, 6), atol=1e-12
        )


class TestSampleIndices:
    def test_cached_weights_draw_as_fresh_choice(self):
        # the CDF compare draws rng.choice's labels, in its dtype, from as
        # many doubles
        for k in (1, 2, 3, 10, 33, 100):
            w = np.arange(1.0, k + 1.0) ** 1.5
            w /= w.sum()
            nu = DrivingMeasure(atoms=tuple((MoebiusDecay(1.0 + i), wi) for i, wi in enumerate(w)))
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
        d = coupled_distance(SP, maps, 0.0, 1.0, 3)
        x, y = 0.0, 1.0
        for f in maps[:3]:
            x, y = apply_map(f, x), apply_map(f, y)
        assert d == pytest.approx(abs(x - y))


class TestEnumeration:
    def test_guard(self):
        big = DrivingMeasure(atoms=tuple((MoebiusDecay(1.0 + i), 0.1) for i in range(10)))
        with pytest.raises(EnumerationGuardError):
            word_table(big, 8)  # 10^8 > guard
        assert 10**7 <= ENUMERATION_GUARD

    def test_probabilities_sum_to_one(self):
        table = word_table(TWO_ATOM, 5)
        assert len(table) == 32
        assert table.probs.sum() == pytest.approx(1.0)

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
            word_table(nu, 2)


class TestMatrixProduct:
    def test_deterministic_diagonal(self):
        A = ProjectiveAction([[2.0, 0.0], [0.0, 0.5]])
        nu = DrivingMeasure(atoms=((A, 1.0),))
        prod = matrix_product(nu, 5, SeededStream(0))
        np.testing.assert_allclose(prod.matrix, np.diag([32.0, 1.0 / 32.0]))

    def test_left_order(self):
        A = ProjectiveAction([[1.0, 1.0], [0.0, 1.0]])
        B = ProjectiveAction([[1.0, 0.0], [1.0, 1.0]])
        nu = DrivingMeasure(atoms=((A, 0.5), (B, 0.5)))
        stream = SeededStream(2)
        prod = matrix_product(nu, 4, stream)
        word = draw_word(nu, SeededStream(2), 4)
        expect = np.eye(2)
        for i in word:
            expect = nu.atoms[int(i)][0].matrix @ expect
        np.testing.assert_allclose(prod.matrix, expect)


def test_compose_reversed_vs_forward():
    word = draw_word(TWO_ATOM, SeededStream(4), 5)
    maps = word_maps(TWO_ATOM, word)
    x = 0.37
    fwd = x
    for f in maps:
        fwd = apply_map(f, fwd)
    rev = compose_reversed(maps, x)
    # Moebius parameters add, so both orders agree for this family
    assert rev == pytest.approx(fwd, abs=1e-12)
