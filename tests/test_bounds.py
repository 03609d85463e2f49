import inspect

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from rdslab import bounds
from rdslab.bounds import (
    BOUNDS,
    appendix_checks,
    circle_lyap_bound,
    corrdim_bound,
    empirical_kappa_bound,
    interval_kappa_bound,
    lln_bound,
    matrix_norm_bound,
    projective_lyap_bound,
    refined_bound,
    resolve_inputs,
    sync_bound,
    theorem_a_bound,
    Z95,
    wilson_interval,
)
from rdslab.harness import ExperimentConfig


def beta(n, t, res):
    """Theorem A's beta, read back from its bound exp(-n t^2 / (12 beta^2))."""
    return np.sqrt(n * t * t / (12.0 * -np.log(res.value)))


def alpha_sq(t, res):
    """The refined bound's sum of alpha_k^2, read back from exp(-t^2 / (12 a2))."""
    return t * t / (12.0 * -np.log(res.value))


class TestBeta:
    def test_uniform_gamma_checkpoint(self):
        b = beta(10, 1.0, theorem_a_bound(10, 1.0, np.log(11.0), 0.5))
        assert b == pytest.approx(0.5 + np.log(11.0), abs=1e-5)
        assert b == pytest.approx(2.89790, abs=1e-5)

    def test_n1_checkpoint(self):
        assert beta(1, 1.0, theorem_a_bound(1, 1.0, 1.0, 1.0)) == pytest.approx(2.0)

    def test_zero_ladder_rejected(self):
        with pytest.raises(ValueError, match="input 'uniform_c'"):
            resolve_inputs("theorem-a", {"lambda_nu": 1.0, "gee_inf": 0.5, "uniform_c": 0.0}, {})

    def test_uniform_shorthand_n_invariant(self):
        # gamma = c/n makes beta depend on c only (when lambda is fixed)
        for n in (5, 50, 500):
            res = theorem_a_bound(n, 1.0, 1.2, 0.3, uniform_c=0.7)
            assert beta(n, 1.0, res) == pytest.approx(0.7 * 1.5)


class TestTheoremA:
    def test_checkpoint(self):
        res = theorem_a_bound(10, 1.0, np.log(11.0), 0.5)
        assert res.value == pytest.approx(0.90554, abs=1e-5)
        assert (res.threshold, res.applicable) == (0.0, True)

    def test_unit_exponent(self):
        b = 0.7
        t = np.sqrt(12.0 * b**2 / 5.0)
        assert theorem_a_bound(5, t, 0.0, b).value == pytest.approx(np.exp(-1.0))

    def test_degenerate_beta(self):
        assert theorem_a_bound(5, 0.5, 0.0, 0.0).value == 0.0

    def test_t_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="'t_ladder'"):
            ExperimentConfig(system={"kind": "halving-ifs"}, t_ladder=[0.0, 1.0],
                             bound="theorem-a")

    @given(st.floats(min_value=0.01, max_value=5.0), st.floats(min_value=0.01, max_value=5.0))
    def test_monotone_in_t(self, t1, dt):
        later, sooner = (theorem_a_bound(10, t, 0.0, 1.0).value for t in (t1 + dt, t1))
        assert later <= sooner


class TestRefined:
    def test_hand_checkpoint(self):
        # alpha = [0.5 + 0.4, 0.5]
        assert alpha_sq(1.0, refined_bound(1, 1.0, 0.5, [0.4])) == pytest.approx(1.06)

    def test_no_propagation(self):
        # gamma_k = 0.8 / 4 and u = 0: every alpha_k = 0.2 * 0.5
        res = refined_bound(4, 1.0, 0.5, [0.0] * 4, uniform_c=0.8)
        assert alpha_sq(1.0, res) == pytest.approx(5 * 0.01)

    def test_tail_checkpoints(self):
        assert refined_bound(1, 1.0, 0.5, [0.4]).value == pytest.approx(np.exp(-1.0 / 12.72))
        t = np.sqrt(12.0 * 1.06)
        assert refined_bound(1, t, 0.5, [0.4]).value == pytest.approx(np.exp(-1.0))

    def test_degenerate_alpha(self):
        assert refined_bound(3, 0.5, 0.0, [0.0] * 3).value == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="'refined' input 'u' needs n = 2 values, got 1"):
            refined_bound(2, 1.0, 0.5, [0.1])

    @given(st.integers(min_value=1, max_value=20),
           st.floats(min_value=0.01, max_value=2.0),
           st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=3.0))
    def test_alpha_sq_cap_for_uniform_u(self, n, c, g, lam):
        # u_k = lam/n with gamma = c/n gives alpha^2 <= (n+1)(c/n)^2 (g+lam)^2,
        # so at t = sqrt(12 cap) the bound is at most exp(-1)
        cap = (n + 1) * (c / n) ** 2 * (g + lam) ** 2
        if cap == 0.0:
            assert refined_bound(n, 1.0, g, [lam / n] * n, uniform_c=c).value == 0.0
            return
        res = refined_bound(n, np.sqrt(12.0 * cap), g, [lam / n] * n, uniform_c=c)
        assert res.value <= np.exp(-1.0) + 1e-9


class TestThresholdBounds:
    def test_sync_full_mass_threshold(self):
        res = sync_bound(100, 0.1, 2.0, 0.5, 1.0)
        assert res.threshold == pytest.approx(0.02)
        assert res.value == pytest.approx(np.exp(-1.0 / 300.0), abs=1e-9)
        assert res.applicable

    def test_sync_below_threshold_gated(self):
        res = sync_bound(100, 0.01, 2.0, 0.5, 1.0)
        assert not res.applicable

    @pytest.mark.parametrize("muB", [0.0, 1.5])
    def test_sync_bad_mass(self, muB):
        with pytest.raises(ValueError, match=r"input 'muB' must be a number in \(0, 1\]"):
            resolve_inputs("sync", {"lambda_nu": 2.0, "gee_inf": 0.5, "muB": muB}, {})

    def test_lln_checkpoint(self):
        res = lln_bound(100, 0.1, 2.0, 0.5, 1.0)
        assert res.threshold == pytest.approx(0.04)
        assert res.value == pytest.approx(2.0 * np.exp(-1.0 / 300.0), abs=1e-9)
        assert res.vacuous  # > 1 is legal and flagged

    def test_lln_threshold_strict(self):
        res = lln_bound(100, 0.04, 2.0, 0.5, 1.0)
        assert not res.applicable

    def test_empirical_kappa_checkpoint(self):
        res = empirical_kappa_bound(400, 0.5, 2.0, 0.5)
        assert res.value == pytest.approx(2.0 * np.exp(-4.0 / 3.0), abs=1e-9)
        assert res.threshold == pytest.approx(0.01)

    def test_interval_kappa_threshold_quarter_power(self):
        res = interval_kappa_bound(16, 0.6, 0.0, 0.5, 0.0, 1.0)
        assert res.threshold == pytest.approx(0.5)

    def test_interval_kappa_checkpoint(self):
        res = interval_kappa_bound(10_000, 0.4, 2.0, 0.5, 0.0, 1.0)
        assert res.value == pytest.approx(np.exp(-16.0 / 3.0), abs=1e-9)

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (1.0, 0.0)])
    def test_interval_kappa_needs_a_below_b(self, a, b):
        with pytest.raises(ValueError, match="'interval-kappa' needs 'a' < 'b'"):
            interval_kappa_bound(16, 0.6, 0.0, 0.5, a, b)

    def test_corrdim_checkpoint(self):
        res = corrdim_bound(10_000, 0.2, 2.0, 0.5, 0.1, 1.0, 1.0)
        assert res.value == pytest.approx(2.0 * np.exp(-1.0 / 300.0), abs=1e-9)

    def test_corrdim_eps_scaling(self):
        r1 = corrdim_bound(100, 0.2, 2.0, 0.5, 0.1, 1.0, 1.0)
        r2 = corrdim_bound(100, 0.2, 2.0, 0.5, 0.2, 1.0, 1.0)
        e1 = -np.log(r1.value / 2.0)
        e2 = -np.log(r2.value / 2.0)
        assert e2 == pytest.approx(4.0 * e1)

    @pytest.mark.parametrize("formula", [lln_bound, sync_bound, empirical_kappa_bound,
                                         interval_kappa_bound])
    def test_degenerate_denominator(self, formula):
        assert formula(100, 0.5, 0.0, 0.0).value == 0.0


class TestLyapunovBounds:
    def test_circle_single_family_reduction(self):
        a = circle_lyap_bound(100, 0.5, 1.0, 1.0, 1.0, 1.0).value
        assert a == pytest.approx(2.0 * np.exp(-100 * 0.25 / (48.0 * 4.0)))

    def test_circle_ratio_quarters_exponent(self):
        full = -np.log(circle_lyap_bound(100, 0.5, 1.0, 1.0, 1.0, 1.0).value / 2.0)
        halfr = -np.log(circle_lyap_bound(100, 0.5, 1.0, 1.0, 1.0, 2.0).value / 2.0)
        assert halfr == pytest.approx(full / 4.0)

    def test_circle_checkpoint(self):
        got = circle_lyap_bound(100, 0.5, 1.0, 1.0, 1.0, 2.0).value
        assert got == pytest.approx(2.0 * np.exp(-25.0 / 768.0))

    def test_circle_bad_m(self):
        with pytest.raises(ValueError, match="input 'm_nu' must be a positive number"):
            resolve_inputs("circle-lyap", {"lambda_nu": 1.0, "gee_c1": 1.0, "m_nu": 0.0,
                                           "M_nu": 1.0}, {})
        with pytest.raises(ValueError, match="'circle-lyap' needs 'm_nu' <= 'M_nu'"):
            circle_lyap_bound(10, 0.1, 1.0, 1.0, 2.0, 1.0)

    def test_projective_checkpoint(self):
        res = projective_lyap_bound(10, 1.0, 1.0, 2.0)
        assert res.value == pytest.approx(np.exp(-1.0 / 27648.0))

    def test_projective_c_below_one_rejected(self):
        with pytest.raises(ValueError, match="input 'C' must be a number >= 1"):
            resolve_inputs("projective-lyap", {"lambda_nu": 1.0, "C": 0.5}, {})

    def test_matrix_norm_prefactor_and_threshold(self):
        res = matrix_norm_bound(50, 1.0, 1.0, 2.0, 2)
        assert res.threshold == pytest.approx((2.0 / 50) * np.log(2.0))
        assert res.value == pytest.approx(4.0 * np.exp(-1.0 / (768.0 * 16.0 * 9.0)))

    @pytest.mark.parametrize("formula, args", [
        (circle_lyap_bound, (1.0, 1.0, 0.5, 1.0)),
        (projective_lyap_bound, (1.0, 2.0)),
        (matrix_norm_bound, (1.0, 2.0, 1)),
    ])
    def test_gate_past_twice_t_n(self, formula, args):
        # m_dim = 1 adds (2/n) log 1 = 0 to matrix-norm's threshold
        below = formula(50, 0.2, *args, t_n_hat=0.1)
        above = formula(50, 0.25, *args, t_n_hat=0.1)
        assert below.threshold == above.threshold == 0.2
        assert not below.applicable and above.applicable


class TestSelectorTable:
    def test_sidedness_split(self):
        two = {s for s, b in BOUNDS.items() if b.two_sided}
        assert two == {"lln", "empirical-kappa", "corrdim", "circle-lyap", "matrix-norm"}
        assert set(BOUNDS) - two == {"theorem-a", "refined", "sync", "interval-kappa",
                                     "projective-lyap"}

    @pytest.mark.parametrize("selector", sorted(BOUNDS))
    def test_each_selector_is_a_public_formula_with_ruled_inputs(self, selector):
        formula = BOUNDS[selector].formula
        assert formula.__name__ == selector.replace("-", "_") + "_bound"
        assert getattr(bounds, formula.__name__) is formula
        assert formula.__name__ in bounds.__all__
        names = list(inspect.signature(formula).parameters)
        assert names[:2] == ["n", "t"]
        assert set(names[2:]) <= set(bounds._INPUTS)

    def test_every_rule_is_read(self):
        read = {name for b in BOUNDS.values()
                for name in list(inspect.signature(b.formula).parameters)[2:]}
        assert read == set(bounds._INPUTS)

    def test_provenance_lists_every_input_read(self):
        inputs, prov = resolve_inputs("lln", {"lipschitz_L": 2}, {"lambda_nu": 2.0,
                                                                  "gee_inf": 0.5,
                                                                  "stationary": "lebesgue"})
        assert inputs == {"lambda_nu": 2.0, "gee_inf": 0.5, "lipschitz_L": 2.0}
        assert prov == {"lambda_nu": "analytic", "gee_inf": "analytic", "lipschitz_L": "config"}
        _, prov = resolve_inputs("matrix-norm", {"lambda_nu": 1.0, "C": 2.0}, {})
        assert prov == {"lambda_nu": "config", "C": "config", "m_dim": "default",
                        "t_n_hat": "default"}

    @pytest.mark.parametrize("config, analytic, key, source", [
        # config over analytic, key by key
        ({"gee_inf": 0.25}, {"gee_inf": 0.5}, "gee_inf", "config"),
        # gee_inf before gee_rho, even when only gee_rho is in the config
        ({"gee_rho": 0.25}, {"gee_inf": 0.5}, "gee_inf", "analytic"),
        ({}, {"gee_rho": 0.5}, "gee_rho", "analytic"),
    ])
    def test_diameter_precedence(self, config, analytic, key, source):
        inputs, prov = resolve_inputs("lln", dict(config, lambda_nu=1.0), analytic)
        assert inputs["gee_inf"] == dict(analytic, **config)[key]
        assert prov[key] == source
        assert {"gee_inf", "gee_rho"} & set(prov) == {key}

    def test_circle_lyap_reads_c1_diameter_first(self):
        inputs, prov = resolve_inputs(
            "circle-lyap", {"gee_c1": 1.0, "m_nu": 0.5, "M_nu": 1.0},
            {"lambda_nu": 2.0, "gee_inf": 0.5})
        assert inputs["gee_c1"] == 1.0 and "gee_inf" not in prov
        inputs, prov = resolve_inputs(
            "circle-lyap", {"m_nu": 0.5, "M_nu": 1.0}, {"lambda_nu": 2.0, "gee_inf": 0.5})
        assert inputs["gee_c1"] == 0.5 and prov["gee_inf"] == "analytic"

    @pytest.mark.parametrize("selector, config, key", [
        ("lln", {"lambda_nu": None, "gee_inf": 0.5}, "lambda_nu"),
        ("lln", {"lambda_nu": "abc", "gee_inf": 0.5}, "lambda_nu"),
        ("lln", {"lambda_nu": True, "gee_inf": 0.5}, "lambda_nu"),
        ("lln", {"lambda_nu": float("nan"), "gee_inf": 0.5}, "lambda_nu"),
        ("lln", {"lambda_nu": 1.0, "gee_rho": float("inf")}, "gee_rho"),
        ("lln", {"lambda_nu": 1.0, "gee_inf": 0.5, "lipschitz_L": [1.0]}, "lipschitz_L"),
        ("matrix-norm", {"lambda_nu": 1.0, "C": 2.0, "m_dim": 2.5}, "m_dim"),
        ("matrix-norm", {"lambda_nu": 1.0, "C": 2.0, "m_dim": 0}, "m_dim"),
        ("matrix-norm", {"lambda_nu": 1.0, "C": 2.0, "m_dim": True}, "m_dim"),
        ("refined", {"gee_inf": 0.5, "u": "abc"}, "u"),
        ("refined", {"gee_inf": 0.5, "u": [0.5, None]}, "u"),
        ("refined", {"gee_inf": 0.5, "u": 0.5}, "u"),
        # ranges, where lln and sync gave bound 0 and a fail on every row
        ("lln", {"lambda_nu": -0.5, "gee_inf": 0.5}, "lambda_nu"),
        ("sync", {"lambda_nu": -1.0, "gee_inf": 0.5}, "lambda_nu"),
        ("lln", {"lambda_nu": 1.0, "gee_rho": -0.5}, "gee_rho"),
        ("lln", {"lambda_nu": 1.0, "gee_inf": 0.5, "lipschitz_L": 0.0}, "lipschitz_L"),
        ("corrdim", {"lambda_nu": 1.0, "gee_inf": 0.5, "epsilon": 0.0}, "epsilon"),
        ("corrdim", {"lambda_nu": 1.0, "gee_inf": 0.5, "epsilon": 0.1, "sup_norm": -1.0},
         "sup_norm"),
        ("refined", {"gee_inf": 0.5, "u": [0.5, -0.1]}, "u"),
        ("circle-lyap", {"lambda_nu": 1.0, "gee_c1": 0.5, "m_nu": 0.5, "M_nu": 1.0,
                         "t_n_hat": -0.1}, "t_n_hat"),
    ])
    def test_values_are_checked(self, selector, config, key):
        with pytest.raises(ValueError, match=f"input '{key}'"):
            resolve_inputs(selector, config, {})

    def test_integral_m_dim_reads_as_int(self):
        inputs, _ = resolve_inputs("matrix-norm", {"lambda_nu": 1, "C": 2, "m_dim": 3.0}, {})
        assert inputs == {"lambda_nu": 1.0, "C": 2.0, "m_dim": 3, "t_n_hat": 0.0}
        assert type(inputs["m_dim"]) is int and type(inputs["C"]) is float

    def test_missing_and_unknown(self):
        with pytest.raises(ValueError, match="'lambda_nu'"):
            resolve_inputs("lln", {"gee_inf": 0.5}, {"lambda_cap": "1+log(n+1)"})
        with pytest.raises(ValueError, match="'gee_c1'.*'gee_inf'.*'gee_rho'"):
            resolve_inputs("circle-lyap", {"lambda_nu": 1.0, "m_nu": 0.5, "M_nu": 1.0}, {})
        with pytest.raises(ValueError, match="unknown bound selector"):
            resolve_inputs("lnn", {}, {})


class TestAppendix:
    def test_full_grid_passes(self):
        report = appendix_checks()
        assert report["passed"]
        assert report["exponential_min_margin"] >= -1e-12
        assert report["truncated_moment_min_margin"] >= -1e-12

    def test_batch_equals_the_scalar_formula(self):
        # each case's margin, recomputed alone from the batch's own draws
        margin, k, z, w, K = bounds._truncated_moment_cases()
        assert margin.shape == k.shape == K.shape == (1000,)
        for i in range(1000):
            zi, wi = z[i, :k[i]], w[i, :k[i]]
            lhs = float(np.sum(wi * zi * (zi > K[i])))
            rhs = float(np.sum(wi * zi * zi)) / K[i]
            assert rhs - lhs == margin[i]
        assert sorted(set(k.tolist())) == list(range(1, 8))
        assert np.all(w[np.arange(7) >= k[:, None]] == 0.0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-15)
        assert np.all((0.0 <= z) & (z < 10.0)) and np.all((0.05 <= K) & (K < 10.0))
        report = appendix_checks()
        assert report["truncated_moment_min_margin"] == margin.min()
        assert report["passed"]

    def test_u1_checkpoint(self):
        assert 1.0 + np.e / 2.0 <= np.exp(3.0)

    def test_point_mass_checkpoint(self):
        # Z = delta_2, K = 1: E[1 Z] = 2 <= E[Z^2]/K = 4
        assert 2.0 <= 4.0


class TestWilson:
    def test_zero_successes_closed_form(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi == pytest.approx(0.036217, abs=1e-4)

    def test_all_successes_symmetric(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0
        assert lo == pytest.approx(1.0 - 0.036217, abs=1e-4)

    def test_contains_point_estimate(self):
        for k in (1, 17, 50, 99):
            lo, hi = wilson_interval(k, 100)
            assert lo <= k / 100 <= hi

    def test_invalid(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)

    def test_z_is_the_normal_quantile(self):
        assert Z95 == float(ndtri(0.975))

    @pytest.mark.parametrize("trials", [1, 2, 3, 100, 300, 2000])
    def test_bits_of_the_quantile_formula(self, trials):
        # the interval with z computed by ndtri, as it was before z was named
        def by_ndtri(successes):
            alpha = 1.0 - 0.95
            z = float(ndtri(1.0 - alpha / 2.0))
            p = successes / trials
            denom = 1.0 + z * z / trials
            center = (p + z * z / (2 * trials)) / denom
            half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
            lo, hi = center - half, center + half
            if successes == 0:
                lo, hi = 0.0, 1.0 - (alpha / 2.0) ** (1.0 / trials)
            elif successes == trials:
                lo, hi = (alpha / 2.0) ** (1.0 / trials), 1.0
            return max(0.0, float(lo)), min(1.0, float(hi))

        got = np.array([wilson_interval(k, trials) for k in range(trials + 1)])
        expect = np.array([by_ndtri(k) for k in range(trials + 1)])
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
