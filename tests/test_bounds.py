import numpy as np
import pytest
from hypothesis import given, strategies as st

from rdslab.bounds import (
    BOUNDS,
    BoundInputs,
    appendix_checks,
    beta_n,
    circle_lyap_bound,
    corrdim_bound,
    devroye_rhs,
    empirical_kappa_bound,
    interval_kappa_bound,
    lln_bound,
    main_tail_bound,
    matrix_norm_bound,
    projective_lyap_bound,
    refined_alpha,
    refined_tail_bound,
    resolve_inputs,
    sync_bound,
    wilson_interval,
)


class TestBeta:
    def test_uniform_gamma_checkpoint(self):
        bi = BoundInputs(n=10, uniform_c=1.0, gee_diameter=0.5, lam=np.log(11.0))
        assert beta_n(bi) == pytest.approx(0.5 + np.log(11.0), abs=1e-5)
        assert beta_n(bi) == pytest.approx(2.89790, abs=1e-5)

    def test_n1_checkpoint(self):
        bi = BoundInputs(n=1, gamma=[1.0, 1.0], gee_diameter=1.0, lam=1.0)
        assert beta_n(bi) == pytest.approx(2.0)

    def test_all_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            BoundInputs(n=2, gamma=[0.0, 0.0, 0.0], gee_diameter=0.5, lam=1.0)

    def test_uniform_shorthand_n_invariant(self):
        # gamma = c/n makes beta depend on c only (when lambda is fixed)
        for n in (5, 50, 500):
            bi = BoundInputs(n=n, uniform_c=0.7, gee_diameter=0.3, lam=1.2)
            assert beta_n(bi) == pytest.approx(0.7 * 1.5)


class TestMainTailBound:
    def test_checkpoint(self):
        assert main_tail_bound(10, 1.0, 0.5 + np.log(11.0)) == pytest.approx(0.90554, abs=1e-5)

    def test_unit_exponent(self):
        beta = 0.7
        t = np.sqrt(12.0 * beta**2 / 5.0)
        assert main_tail_bound(5, t, beta) == pytest.approx(np.exp(-1.0))

    def test_degenerate_beta(self):
        assert main_tail_bound(5, 0.5, 0.0) == 0.0

    def test_t_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            main_tail_bound(5, 0.0, 1.0)

    @given(st.floats(min_value=0.01, max_value=5.0), st.floats(min_value=0.01, max_value=5.0))
    def test_monotone_in_t(self, t1, dt):
        assert main_tail_bound(10, t1 + dt, 1.0) <= main_tail_bound(10, t1, 1.0)


class TestRefined:
    def test_hand_checkpoint(self):
        bi = BoundInputs(n=1, gamma=[1.0, 1.0], gee_diameter=0.5, lam=0.0, u=[0.4])
        alpha, a2 = refined_alpha(bi)
        np.testing.assert_allclose(alpha, [0.9, 0.5])
        assert a2 == pytest.approx(1.06)

    def test_last_gamma_only(self):
        # gamma zero except the last entry: alpha_k = u_{n-k-1}, alpha_n = diam
        n, g = 3, 0.5
        u = [0.3, 0.2, 0.1]
        bi = BoundInputs(n=n, gamma=[0.0] * n + [1.0], gee_diameter=g, lam=0.0, u=u)
        alpha, a2 = refined_alpha(bi)
        np.testing.assert_allclose(alpha, [0.1, 0.2, 0.3, 0.5])
        assert a2 == pytest.approx(g**2 + sum(x * x for x in u))

    def test_no_propagation(self):
        bi = BoundInputs(n=4, gamma=[0.2] * 5, gee_diameter=0.5, lam=0.0, u=[0.0] * 4)
        alpha, a2 = refined_alpha(bi)
        np.testing.assert_allclose(alpha, 0.1)
        assert a2 == pytest.approx(5 * 0.01)

    def test_tail_checkpoints(self):
        assert refined_tail_bound(1.0, 1.06) == pytest.approx(np.exp(-1.0 / 12.72))
        t = np.sqrt(12.0 * 1.06)
        assert refined_tail_bound(t, 1.06) == pytest.approx(np.exp(-1.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            refined_alpha(BoundInputs(n=2, uniform_c=1.0, gee_diameter=0.5, lam=0.0, u=[0.1]))

    @given(st.integers(min_value=1, max_value=20),
           st.floats(min_value=0.01, max_value=2.0),
           st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=3.0))
    def test_alpha_sq_cap_for_uniform_u(self, n, c, g, lam):
        # u_k = lam/n with gamma = c/n gives alpha^2 <= (n+1)(c/n)^2 (g+lam)^2
        bi = BoundInputs(n=n, uniform_c=c, gee_diameter=g, lam=lam, u=[lam / n] * n)
        _, a2 = refined_alpha(bi)
        cap = (n + 1) * (c / n) ** 2 * (g + lam) ** 2
        assert a2 <= cap + 1e-9


class TestThresholdBounds:
    def test_sync_full_mass_threshold(self):
        res = sync_bound(100, 0.1, 0.5, 2.0, 1.0)
        assert res.threshold == pytest.approx(0.02)
        assert res.value == pytest.approx(np.exp(-1.0 / 300.0), abs=1e-9)
        assert res.applicable

    def test_sync_below_threshold_gated(self):
        res = sync_bound(100, 0.01, 0.5, 2.0, 1.0)
        assert not res.applicable

    def test_sync_bad_mass(self):
        with pytest.raises(ValueError):
            sync_bound(10, 0.1, 0.5, 2.0, 0.0)

    def test_lln_checkpoint(self):
        res = lln_bound(100, 0.1, 1.0, 0.5, 2.0)
        assert res.threshold == pytest.approx(0.04)
        assert res.value == pytest.approx(2.0 * np.exp(-1.0 / 300.0), abs=1e-9)
        assert res.vacuous  # > 1 is legal and flagged

    def test_lln_threshold_strict(self):
        res = lln_bound(100, 0.04, 1.0, 0.5, 2.0)
        assert not res.applicable

    def test_empirical_kappa_checkpoint(self):
        res = empirical_kappa_bound(400, 0.5, 0.5, 2.0)
        assert res.value == pytest.approx(2.0 * np.exp(-4.0 / 3.0), abs=1e-9)
        assert res.threshold == pytest.approx(0.01)

    def test_interval_kappa_threshold_quarter_power(self):
        res = interval_kappa_bound(16, 0.6, 0.0, 1.0, 0.5, 0.0)
        assert res.threshold == pytest.approx(0.5)

    def test_interval_kappa_checkpoint(self):
        res = interval_kappa_bound(10_000, 0.4, 0.0, 1.0, 0.5, 2.0)
        assert res.value == pytest.approx(np.exp(-16.0 / 3.0), abs=1e-9)

    def test_corrdim_checkpoint(self):
        res = corrdim_bound(10_000, 0.2, 0.1, 1.0, 1.0, 0.5, 2.0)
        assert res.value == pytest.approx(2.0 * np.exp(-1.0 / 300.0), abs=1e-9)

    def test_corrdim_eps_scaling(self):
        r1 = corrdim_bound(100, 0.2, 0.1, 1.0, 1.0, 0.5, 2.0)
        r2 = corrdim_bound(100, 0.2, 0.2, 1.0, 1.0, 0.5, 2.0)
        e1 = -np.log(r1.value / 2.0)
        e2 = -np.log(r2.value / 2.0)
        assert e2 == pytest.approx(4.0 * e1)


class TestLyapunovBounds:
    def test_circle_single_family_reduction(self):
        a = circle_lyap_bound(100, 0.5, 1.0, 1.0, 1.0, 1.0)
        assert a == pytest.approx(2.0 * np.exp(-100 * 0.25 / (48.0 * 4.0)))

    def test_circle_ratio_quarters_exponent(self):
        full = -np.log(circle_lyap_bound(100, 0.5, 1.0, 1.0, 1.0, 1.0) / 2.0)
        halfr = -np.log(circle_lyap_bound(100, 0.5, 1.0, 2.0, 1.0, 1.0) / 2.0)
        assert halfr == pytest.approx(full / 4.0)

    def test_circle_checkpoint(self):
        got = circle_lyap_bound(100, 0.5, 1.0, 2.0, 1.0, 1.0)
        assert got == pytest.approx(2.0 * np.exp(-25.0 / 768.0))

    def test_circle_bad_m(self):
        with pytest.raises(ValueError):
            circle_lyap_bound(10, 0.1, 0.0, 1.0, 1.0, 1.0)

    def test_projective_checkpoint(self):
        assert projective_lyap_bound(1.0, 2.0, 1.0) == pytest.approx(np.exp(-1.0 / 27648.0))

    def test_projective_c_below_one_rejected(self):
        with pytest.raises(ValueError):
            projective_lyap_bound(1.0, 0.5, 1.0)

    def test_matrix_norm_prefactor_and_threshold(self):
        thr, val = matrix_norm_bound(50, 1.0, 2, 2.0, 1.0)
        assert thr == pytest.approx((2.0 / 50) * np.log(2.0))
        assert val == pytest.approx(4.0 * np.exp(-1.0 / (768.0 * 16.0 * 9.0)))


class TestSelectorTable:
    def test_sidedness_split(self):
        two = {s for s, b in BOUNDS.items() if b.two_sided}
        assert two == {"lln", "empirical-kappa", "corrdim", "circle-lyap", "matrix-norm"}
        assert set(BOUNDS) - two == {"theorem-a", "refined", "sync", "interval-kappa",
                                     "projective-lyap"}

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


class TestDevroye:
    def test_uniform_gamma(self):
        n = 10
        assert devroye_rhs([1.0 / n] * n, 2.0, 1.0) == pytest.approx(2.0 / n)

    def test_checkpoint(self):
        assert devroye_rhs([0.5, 0.25], 2.0, 1.0) == pytest.approx(5.0 / 8.0)

    def test_single(self):
        assert devroye_rhs([1.0], 3.0, 2.0) == pytest.approx(6.0)

    def test_increasing_rejected(self):
        with pytest.raises(ValueError):
            devroye_rhs([0.25, 0.5], 1.0, 1.0)


class TestAppendix:
    def test_full_grid_passes(self):
        report = appendix_checks()
        assert report["passed"]
        assert report["exponential_min_margin"] >= -1e-12
        assert report["truncated_moment_min_margin"] >= -1e-12

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
