from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rdslab.maps import (
    Affine,
    DrivingMeasure,
    MoebiusDecay,
    PolynomialDecay,
    ProjectiveAction,
    SingularDerivativeError,
    apply_map,
    derivative,
    gee_diameter_c1,
    gee_diameter_sup,
    log_derivative,
    sample_map,
    space_of,
    support_space,
)
from rdslab.spaces import Circle, Interval, Projective, distance, grid
from rdslab.streams import SeededStream

alphas = st.floats(min_value=1.0, max_value=5.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestMoebius:
    def test_formula(self):
        f = MoebiusDecay(2.0)
        assert apply_map(f, 0.5) == pytest.approx(0.25)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MoebiusDecay(0.5)

    @given(alphas, alphas, unit)
    def test_composition_parameters_add(self, a1, a2, x):
        # h_a o h_b = h_{a+b}: the family is closed under composition
        lhs = apply_map(MoebiusDecay(a1), apply_map(MoebiusDecay(a2), x))
        rhs = apply_map(MoebiusDecay(a1 + a2), x)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(alphas, st.floats(min_value=1e-3, max_value=1.0))
    def test_derivative_matches_finite_difference(self, a, x):
        f = MoebiusDecay(a)
        eps = 1e-6
        fd = (apply_map(f, x + eps) - apply_map(f, x - eps)) / (2 * eps)
        assert derivative(f, x) == pytest.approx(fd, rel=1e-4)


class TestPolynomial:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            PolynomialDecay(2.0)

    def test_formula(self):
        f = PolynomialDecay(1.5)
        assert apply_map(f, 0.25) == pytest.approx(0.25 - 0.125)

    def test_derivative_limit_at_zero(self):
        assert derivative(PolynomialDecay(1.25), 0.0) == 1.0

    def test_interval_preserved(self):
        f = PolynomialDecay(1.5)
        x = np.linspace(0, 1, 100)
        y = apply_map(f, x)
        assert np.all(y >= 0) and np.all(y <= 1)


class TestProjectiveAction:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            ProjectiveAction([[2.0, 0.0], [0.0, 1.0]])

    def test_circle_chart_needs_2x2(self):
        with pytest.raises(ValueError):
            ProjectiveAction(np.eye(3), chart="circle")

    def test_identity_circle_chart(self):
        f = ProjectiveAction(np.eye(2), chart="circle")
        x = np.linspace(0, 0.99, 20)
        np.testing.assert_allclose(apply_map(f, x), x, atol=1e-12)

    def test_circle_chart_derivative_at_eigendirection(self):
        # diag(s, 1/s) has chart multiplier s^-2 at the expanding direction
        f = ProjectiveAction([[4.0, 0.0], [0.0, 0.25]], chart="circle")
        assert derivative(f, 0.0) == pytest.approx(1.0 / 16.0)
        assert derivative(f, 0.5) == pytest.approx(16.0)

    def test_circle_chart_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(0.5, 2.0)
            b = rng.uniform(-1.0, 1.0)
            A = np.array([[a, b], [0.0, 1.0 / a]])
            f = ProjectiveAction(A, chart="circle")
            x = rng.uniform(0.05, 0.45)
            eps = 1e-7
            fd = (apply_map(f, x + eps) - apply_map(f, x - eps)) / (2 * eps)
            assert derivative(f, x) == pytest.approx(fd, rel=1e-5)

    def test_projective_chart_maps_to_unit(self):
        f = ProjectiveAction([[2.0, 1.0], [1.0, 1.0]])
        y = apply_map(f, np.array([1.0, 0.0]))
        assert np.linalg.norm(y) == pytest.approx(1.0)


class TestDerivatives:
    def test_affine(self):
        assert derivative(Affine(0.5, 0.25), 0.3) == 0.5

    def test_log_derivative_moebius(self):
        f = MoebiusDecay(1.0)
        assert log_derivative(f, 1.0) == pytest.approx(np.log(0.25))

    def test_singular_raises(self):
        with pytest.raises(SingularDerivativeError):
            log_derivative(Affine(0.0, 0.5), 0.3)


class TestDrivingMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.4), (MoebiusDecay(2.0), 0.4)))

    def test_exclusive_forms(self):
        with pytest.raises(ValueError):
            DrivingMeasure()

    def test_parametric_range_validated(self):
        with pytest.raises(ValueError):
            DrivingMeasure(family="moebius", sampler=("uniform", 0.5, 2.0))

    def test_sample_map_finite(self):
        nu = DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.5), (MoebiusDecay(2.0), 0.5)))
        f = sample_map(nu, SeededStream(0))
        assert isinstance(f, MoebiusDecay)

    def test_sample_params_in_range(self):
        nu = DrivingMeasure(family="moebius", sampler=("uniform", 1.0, 2.0))
        p = nu.sample_params(SeededStream(0).generator(), 100)
        assert np.all((p >= 1.0) & (p <= 2.0))

    @pytest.mark.parametrize("sampler", [("discrete", [1.0, 2.0], [0.5, 0.5]), ("normal", 1.5, 0.1)])
    def test_only_uniform_samplers(self, sampler):
        with pytest.raises(ValueError, match="unknown sampler kind"):
            DrivingMeasure(family="moebius", sampler=sampler)


GATHER_MEASURES = {
    "affine": DrivingMeasure(atoms=((Affine(0.5, 0.0), 0.2), (Affine(-0.3, 0.9), 0.3),
                                    (Affine(1.7, -0.2), 0.5))),
    "moebius": DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.7), (MoebiusDecay(2.7), 0.3))),
    "polynomial": DrivingMeasure(atoms=((PolynomialDecay(1.25), 0.6), (PolynomialDecay(1.5), 0.1),
                                        (PolynomialDecay(1.37), 0.3))),
}
CIRCLE_PAIR = ((ProjectiveAction([[2.0, 1.0], [1.0, 1.0]], chart="circle"), 0.5),
               (ProjectiveAction([[1.0, 1.0], [0.0, 1.0]], chart="circle"), 0.5))


class TestGatherKernel:
    """``step`` / ``log_derivative`` of a one-family support gather the atom
    parameters by label; the mask loop ``_masked`` is their oracle."""

    @staticmethod
    def _labels_and_states(nu, width, cols):
        rng = SeededStream(width).generator()
        labels = nu.sample_indices(rng, width)
        X = rng.random((width, cols) if cols else width)
        X.flat[:2] = [0.0, 1.0][:X.size]
        return labels, X

    @pytest.mark.parametrize("family", sorted(GATHER_MEASURES))
    @pytest.mark.parametrize("width", [1, 7, 10**5])
    @pytest.mark.parametrize("cols", [0, 3], ids=["1d", "2d"])
    def test_equals_mask_loop(self, family, width, cols):
        nu = GATHER_MEASURES[family]
        labels, X = self._labels_and_states(nu, width, cols)
        assert np.array_equal(nu.step(labels, X), nu._masked(apply_map, labels, X))
        assert np.array_equal(nu.log_derivative(labels, X),
                              nu._masked(log_derivative, labels, X))

    @pytest.mark.parametrize("atoms, x", [
        (((Affine(0.0, 0.5), 0.5), (Affine(0.5, 0.0), 0.5)), 0.3),
        # 1 - 1.5 sqrt(x) = 0 at x = 1.5 ** -2
        (((PolynomialDecay(1.25), 0.5), (PolynomialDecay(1.5), 0.5)), (2.0 / 3.0) ** 2),
    ], ids=["affine-slope-0", "polynomial-critical"])
    def test_critical_point_raises(self, atoms, x):
        nu = DrivingMeasure(atoms=atoms)
        critical = 0 if isinstance(atoms[0][0], Affine) else 1
        X = np.array([0.1, x, 0.7])
        for labels in (np.array([1 - critical, critical, 1 - critical]),
                       np.full(3, critical)):
            with pytest.raises(SingularDerivativeError):
                nu._masked(log_derivative, labels, X)
            with pytest.raises(SingularDerivativeError):
                nu.log_derivative(labels, X)
        # a critical map nobody drew, or a critical point nobody visits
        regular = np.full(3, 1 - critical)
        assert np.array_equal(nu.log_derivative(regular, X),
                              nu._masked(log_derivative, regular, X))

    @pytest.mark.parametrize("atoms, gathered", [
        (GATHER_MEASURES["affine"].atoms, True),
        (((MoebiusDecay(1.0), 0.5), (Affine(0.5, 0.0), 0.5)), False),
        (((MoebiusDecay(1.5), 0.5), (PolynomialDecay(1.5), 0.5)), False),
        (CIRCLE_PAIR, False),
    ], ids=["affine", "moebius-affine", "moebius-polynomial", "circle-chart"])
    def test_only_one_scalar_family_gathers(self, atoms, gathered):
        nu = DrivingMeasure(atoms=atoms)
        labels, X = self._labels_and_states(nu, 50, 0)
        with mock.patch.object(DrivingMeasure, "_masked", autospec=True,
                               side_effect=DrivingMeasure._masked) as masked:
            nu.step(labels, X)
            nu.log_derivative(labels, X)
        assert masked.call_count == (0 if gathered else 2)


class TestGeeDiameter:
    def test_sup_diameter_two_moebius(self):
        # max_x |h_1(x) - h_2(x)|: attained inside (0,1); known to be < 1/2
        nu = DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.5), (MoebiusDecay(2.0), 0.5)))
        d = gee_diameter_sup(nu, Interval(0.0, 1.0), 4001)
        xs = np.linspace(0, 1, 100001)
        exact = np.max(np.abs(xs / (1 + xs) - xs / (1 + 2 * xs)))
        assert d == pytest.approx(exact, abs=1e-4)
        assert d < 0.5

    def test_c1_diameter_at_least_sup(self):
        nu = DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.5), (MoebiusDecay(2.0), 0.5)))
        sp = Interval(0.0, 1.0)
        assert gee_diameter_c1(nu, sp, 101) >= gee_diameter_sup(nu, sp, 101)

    def test_single_map_zero(self):
        nu = DrivingMeasure(atoms=((MoebiusDecay(1.0), 1.0),))
        assert gee_diameter_sup(nu, Interval(0.0, 1.0), 64) == 0.0

    @staticmethod
    def _pair_loop_sup(nu, space, resolution):
        """The former projective path: one ``distance`` call per map pair
        and grid point."""
        pts = grid(space, resolution)
        images = [[apply_map(f, p) for p in pts] for f in nu.support_maps()]
        best = 0.0
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                for u, v in zip(images[i], images[j]):
                    best = max(best, float(distance(space, u, v)))
        return best

    @staticmethod
    def _pair_loop_c1(nu, space, resolution, param_grid=None):
        """The former C1 diameter: a Python loop over map pairs, each pair's
        maximum folded into a running float."""
        maps = nu.support_maps(param_grid)
        pts = grid(space, resolution)
        images = [apply_map(f, pts) for f in maps]
        derivs = [np.broadcast_to(derivative(f, pts), pts.shape) for f in maps]
        best = 0.0
        for i in range(len(maps)):
            for j in range(i + 1, len(maps)):
                vals = distance(space, images[i], images[j]) + np.abs(derivs[i] - derivs[j])
                best = max(best, float(np.max(vals)))
        return best

    @pytest.mark.parametrize("nu, space, resolution, param_grid", [
        (DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.5), (MoebiusDecay(2.0), 0.5))),
         Interval(0.0, 1.0), 101, None),
        (DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.3), (PolynomialDecay(1.37), 0.3),
                               (Affine(-0.3, 0.9), 0.2), (Affine(0.5, 0.0), 0.2))),
         Interval(0.0, 1.0), 257, None),
        (DrivingMeasure(atoms=((MoebiusDecay(1.5), 1.0),)), Interval(0.0, 1.0), 64, None),
        (DrivingMeasure(atoms=(CIRCLE_PAIR[0], (ProjectiveAction([[0.6, -0.8], [0.8, 0.6]],
                                                                 chart="circle"), 0.25),
                               (CIRCLE_PAIR[1][0], 0.25))), Circle(), 256, None),
        (DrivingMeasure(family="polynomial", sampler=("uniform", 1.25, 1.5)),
         Interval(0.0, 1.0), 128, np.linspace(1.25, 1.5, 7)),
    ], ids=["two-moebius", "mixed-families", "one-map", "circle-charts", "parametric-grid"])
    def test_c1_equals_pair_loop(self, nu, space, resolution, param_grid):
        d = gee_diameter_c1(nu, space, resolution, param_grid)
        assert d == self._pair_loop_c1(nu, space, resolution, param_grid)

    def test_c1_needs_a_one_dimensional_space(self):
        nu = DrivingMeasure(atoms=((ProjectiveAction([[2.0, 1.0], [1.0, 1.0]]), 1.0),))
        with pytest.raises(ValueError, match=r"gee_diameter_c1 needs a one-dimensional system, "
                                             r"not a projective action on Projective\(m=2\)"):
            gee_diameter_c1(nu, Projective(2), 16)

    @pytest.mark.parametrize("matrices, resolution", [
        (([[2.0, 1.0], [1.0, 1.0]], [[0.6, -0.8], [0.8, 0.6]]), 257),
        (([[2.0, 1.0], [1.0, 1.0]], [[0.6, -0.8], [0.8, 0.6]], [[1.0, 0.5], [0.0, 1.0]]), 64),
        (([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
          [[1.0, 0.0, 0.0], [0.0, 0.6, -0.8], [0.0, 0.8, 0.6]]), 128),
    ], ids=["projective-2", "projective-2-three-maps", "projective-3"])
    def test_projective_sup_equals_pair_loop(self, matrices, resolution):
        nu = DrivingMeasure(atoms=tuple((ProjectiveAction(a), 1.0 / len(matrices))
                                        for a in matrices))
        space = Projective(len(matrices[0]))
        d = gee_diameter_sup(nu, space, resolution)
        assert d == self._pair_loop_sup(nu, space, resolution)
        assert 0.0 < d <= 1.0


def test_space_of():
    assert space_of(MoebiusDecay(1.0)) == Interval(0.0, 1.0)
    assert space_of(ProjectiveAction(np.eye(2), chart="circle")) == Circle()
    assert space_of(ProjectiveAction(np.eye(3))) == Projective(3)
    with pytest.raises(ValueError):
        space_of(Affine(0.5, 0.0))


@pytest.mark.parametrize("nu, space", [
    (DrivingMeasure(atoms=((Affine(0.5, 0.0), 0.5), (Affine(0.5, 0.5), 0.5))), Interval(0.0, 1.0)),
    (DrivingMeasure(family="moebius", sampler=("uniform", 1.0, 2.0)), Interval(0.0, 1.0)),
    (DrivingMeasure(atoms=CIRCLE_PAIR), Circle()),
    (DrivingMeasure(atoms=((ProjectiveAction(np.eye(3)), 1.0),)), Projective(3)),
    # mixed supports take the first map's space
    (DrivingMeasure(atoms=((Affine(0.5, 0.0), 0.5), CIRCLE_PAIR[0])), Interval(0.0, 1.0)),
    (DrivingMeasure(atoms=(CIRCLE_PAIR[0], (MoebiusDecay(1.0), 0.5))), Circle()),
], ids=["affine", "parametric", "circle-chart", "projective", "affine-first", "circle-first"])
def test_support_space(nu, space):
    assert support_space(nu) == space
