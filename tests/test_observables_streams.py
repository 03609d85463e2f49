import numpy as np
import pytest

from rdslab.chains import draw_word
from rdslab.maps import Affine, DrivingMeasure
from rdslab.observables import OBSERVABLES
from rdslab.streams import SeededStream, as_generator


class TestObservables:
    def test_library_contents(self):
        for name in ("coordinate", "centered", "zero", "tent"):
            assert name in OBSERVABLES


FINITE_AND_PARAMETRIC = pytest.mark.parametrize("nu", [
    DrivingMeasure(atoms=((Affine(0.5, 0.0), 0.3), (Affine(0.5, 0.5), 0.7))),
    DrivingMeasure(family="moebius", sampler=("uniform", 1.0, 2.0)),
], ids=["finite", "parametric"])


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

    @FINITE_AND_PARAMETRIC
    def test_seed_forms_draw_one_word(self, nu):
        # an int seed, its stream and that stream's generator name one word
        words = [draw_word(nu, seed, 20) for seed in (7, SeededStream(7), SeededStream(7).generator())]
        assert all(np.array_equal(w, words[0]) for w in words)

    @FINITE_AND_PARAMETRIC
    def test_empty_word_takes_no_double(self, nu):
        g = SeededStream(7).generator()
        word = draw_word(nu, g, 0)
        assert word.dtype == (np.intp if nu.finite else np.float64) and word.shape == (0,)
        assert g.random() == SeededStream(7).generator().random()

    def test_generator_passes_through(self):
        rng = SeededStream(7).generator()
        assert as_generator(rng) is rng
