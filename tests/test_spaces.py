import numpy as np
import pytest
from hypothesis import given, strategies as st

from rdslab.spaces import (
    Circle,
    Interval,
    Projective,
    RegionSet,
    canonical_direction,
    circle_delta,
    diameter,
    distance,
    grid,
    require_one_dimensional,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestInterval:
    def test_distance(self):
        sp = Interval(0.0, 1.0)
        assert distance(sp, 0.2, 0.7) == pytest.approx(0.5)
        assert diameter(sp) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_grid_endpoints(self):
        g = grid(Interval(0.0, 1.0), 5)
        assert g[0] == 0.0 and g[-1] == 1.0 and len(g) == 5

    @given(unit, unit, unit)
    def test_triangle(self, x, y, z):
        sp = Interval(0.0, 1.0)
        assert distance(sp, x, z) <= distance(sp, x, y) + distance(sp, y, z) + 1e-12


class TestCircle:
    def test_wraparound(self):
        sp = Circle()
        assert distance(sp, 0.05, 0.95) == pytest.approx(0.1)
        assert diameter(sp) == 0.5

    def test_delta_signed(self):
        assert circle_delta(0.9, 0.1) == pytest.approx(0.2)
        assert circle_delta(0.1, 0.9) == pytest.approx(-0.2)

    @given(unit, unit, unit)
    def test_triangle(self, x, y, z):
        sp = Circle()
        assert distance(sp, x, z) <= distance(sp, x, y) + distance(sp, y, z) + 1e-12

    @given(unit, unit, st.floats(min_value=-2, max_value=2, allow_nan=False))
    def test_rotation_invariance(self, x, y, r):
        sp = Circle()
        assert distance(sp, (x + r) % 1, (y + r) % 1) == pytest.approx(distance(sp, x, y))


class TestProjective:
    def test_antipodal_identified(self):
        sp = Projective(2)
        v = np.array([1.0, 0.0])
        assert distance(sp, v, -v) == pytest.approx(0.0)

    def test_orthogonal_max(self):
        sp = Projective(2)
        assert distance(sp, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
        assert diameter(sp) == 1.0

    def test_canonical_direction(self):
        v = canonical_direction([-2.0, 0.0])
        np.testing.assert_allclose(v, [1.0, 0.0])

    def test_grid_unit(self):
        for m in (2, 3):
            g = grid(Projective(m), 16)
            norms = np.linalg.norm(np.asarray(g), axis=-1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_require_one_dimensional():
    require_one_dimensional(Interval(-1.0, 2.0), "lambda_n")
    require_one_dimensional(Circle(), "lambda_n")
    with pytest.raises(ValueError) as err:
        require_one_dimensional(Projective(2), "observable 'birkhoff'")
    assert str(err.value) == ("observable 'birkhoff' needs a one-dimensional system, "
                              "not a projective action on Projective(m=2)")


class TestRegionSet:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            RegionSet(Interval(0.0, 1.0), pieces=((0.0, 0.6), (0.5, 1.0)))

    def test_grids_within_pieces(self):
        rs = RegionSet(Interval(0.0, 1.0), pieces=((0.0, 0.4), (0.6, 1.0)), resolution=8)
        for (lo, hi), g in zip(rs.pieces, rs.grids):
            assert np.all(g >= lo) and np.all(g <= hi)


def _directions(rng, shape, m):
    v = rng.normal(size=shape + (m,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _projective_np_sum(u, v):
    """The projective metric through numpy's own reduction, the oracle of
    the fixed-order dot."""
    dot = np.clip(np.abs(np.sum(u * v, axis=-1)), 0.0, 1.0)
    return np.sqrt(np.maximum(0.0, 1.0 - dot * dot))


BLOCKS = {
    "interval": (Interval(0.0, 1.0), lambda rng, s: rng.uniform(0.0, 1.0, s)),
    # lifts outside [0, 1) and pairs across the wrap
    "circle": (Circle(), lambda rng, s: rng.uniform(-2.5, 3.5, s)),
    "projective-2": (Projective(2), lambda rng, s: _directions(rng, s, 2)),
    "projective-3": (Projective(3), lambda rng, s: _directions(rng, s, 3)),
    "projective-5": (Projective(5), lambda rng, s: _directions(rng, s, 5)),
}


class TestOneMetric:
    """``distance`` is the metric of every block caller: broadcasting, the
    ``out``/``scratch`` buffers and the projective dot, pinned bit for bit."""

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_buffers_change_no_bit(self, name):
        space, draw = BLOCKS[name]
        rng = np.random.default_rng(5)
        x, y = draw(rng, (7, 1)), draw(rng, (1, 11))
        fresh = distance(space, x, y)
        assert fresh.shape == (7, 11)
        out, scratch = np.full((7, 11), np.nan), np.full((7, 11), np.nan)
        got = distance(space, x, y, out=out, scratch=scratch)
        assert np.shares_memory(got, out)
        assert np.array_equal(out, fresh)
        # reused buffers, as the block callers keep them
        distance(space, y.swapaxes(0, 1), x.swapaxes(0, 1), out=out.T, scratch=scratch.T)
        assert np.array_equal(out, fresh)

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_block_equals_pair_loop(self, name):
        space, draw = BLOCKS[name]
        rng = np.random.default_rng(6)
        x, y = draw(rng, (6,)), draw(rng, (9,))
        block = distance(space, x[:, None], y[None, :])
        loop = np.array([[distance(space, u, v) for v in y] for u in x])
        assert np.array_equal(block, loop)
        if isinstance(space, Projective):
            assert np.array_equal(block, _projective_np_sum(x[:, None], y[None, :]))
            assert np.array_equal(loop, [[_projective_np_sum(u, v) for v in y] for u in x])

    @pytest.mark.parametrize("m", [2, 3, 4, 7])
    def test_projective_dot_has_numpys_bits(self, m):
        rng = np.random.default_rng(m)
        x, y = _directions(rng, (40, 1), m), _directions(rng, (1, 50), m)
        assert np.array_equal(distance(Projective(m), x, y), _projective_np_sum(x, y))

    def test_scalars_stay_scalars(self):
        assert isinstance(distance(Interval(0.0, 1.0), 0.25, 1), np.floating)
        assert isinstance(distance(Circle(), 0.25, 0.5), np.floating)
        assert isinstance(distance(Projective(2), [1.0, 0.0], [0.0, 1.0]), np.floating)

    def test_projective_dimension_checked(self):
        with pytest.raises(ValueError):
            distance(Projective(3), [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            distance(Projective(2), [[1.0, 0.0]], [[0.0, 1.0, 0.0]])

    def test_circle_lifts_reduce_first(self):
        # 1.1 % 1 = 0.10000000000000009 before the difference, where the
        # fold of |1.1 - 0.3| % 1 read 0.19999999999999996
        assert distance(Circle(), 1.1, 0.3) == 0.1999999999999999
        assert distance(Circle(), 1.1, 0.3) == 0.3 - 1.1 % 1.0
        d = abs(1.1 - 0.3) % 1.0
        assert min(d, 1.0 - d) == 0.19999999999999996
