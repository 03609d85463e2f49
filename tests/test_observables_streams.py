import numpy as np
import pytest

from rdslab.chains import draw_word
from rdslab.maps import Affine, DrivingMeasure
from rdslab.observables import OBSERVABLES, get_observable
from rdslab.streams import SeededStream, as_generator


class TestObservables:
    def test_library_contents(self):
        for name in ("coordinate", "centered", "zero", "tent"):
            assert name in OBSERVABLES

    def test_lipschitz_constants_hold_empirically(self):
        x = np.linspace(0, 1, 501)
        for obs in OBSERVABLES.values():
            vals = np.asarray(obs(x), dtype=float)
            slopes = np.abs(np.diff(vals)) / np.diff(x)
            assert np.all(slopes <= obs.lipschitz + 1e-9)
            assert np.max(np.abs(vals)) <= obs.sup_norm + 1e-12

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_observable("nope")


class TestStreams:
    def test_same_seed_same_draws(self):
        a = SeededStream(7).generator().uniform(size=5)
        b = SeededStream(7).generator().uniform(size=5)
        np.testing.assert_array_equal(a, b)

    def test_substreams_independent_of_consumption(self):
        s = SeededStream(7)
        g1 = s.substream(3).generator().uniform(size=5)
        s.generator().uniform(size=100)  # consuming the parent changes nothing
        g2 = s.substream(3).generator().uniform(size=5)
        np.testing.assert_array_equal(g1, g2)

    def test_distinct_substreams_differ(self):
        s = SeededStream(7)
        a = s.substream(0).generator().uniform(size=5)
        b = s.substream(1).generator().uniform(size=5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("nu", [
        DrivingMeasure(atoms=((Affine(0.5, 0.0), 0.3), (Affine(0.5, 0.5), 0.7))),
        DrivingMeasure(family="moebius", sampler=("uniform", 1.0, 2.0)),
    ], ids=["finite", "parametric"])
    def test_seed_forms_draw_one_word(self, nu):
        # an int seed, its stream and that stream's generator name one word
        words = [draw_word(nu, seed, 20) for seed in (7, SeededStream(7), SeededStream(7).generator())]
        assert all(np.array_equal(w, words[0]) for w in words)

    def test_generator_passes_through(self):
        rng = SeededStream(7).generator()
        assert as_generator(rng) is rng
