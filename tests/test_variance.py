import numpy as np
import pytest

from gmmdc import (
    FitPlan,
    IllConditionedCorrectionError,
    LinearMomentSystem,
    PanelDataset,
    ReplicationStreams,
    WeightSpec,
    build_ab_system,
    build_iv_system,
    d_hat,
    dgp_iv,
    dgp_panel_lag,
    fit,
    m_contributions,
    moment_stats,
    omega_derivative,
    variance_report,
)
from gmmdc._batch import BatchGmm
from conftest import random_system
from reference_formulas import iv_closed_forms, panel_closed_forms

KINDS = ("one-step", "two-step", "iterated")


class TestMContributions:
    def test_just_identified_reduces_to_classical_term(self, rng):
        y = rng.standard_normal(30)
        X = rng.standard_normal((30, 2))
        Z = rng.standard_normal((30, 2))
        sysm = build_iv_system(y, X, Z)
        f = fit(sysm, FitPlan.one_step())
        w = f.final_weight
        m = m_contributions(sysm, f.theta, w, sysm.W_obs)
        G_n = sysm.G_obs.mean(axis=0)
        classical = sysm.g_obs(f.theta) @ np.linalg.solve(w, G_n)
        assert np.allclose(m, classical, atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_foc_zero_mean(self, rng, kind):
        y, X, Z = dgp_iv(80, 0.5, ReplicationStreams(7, 0))
        sysm = build_iv_system(y, X, Z)
        f = fit(sysm, FitPlan(kind))
        if kind == "iterated":
            weight = moment_stats(sysm, f.theta).Omega
            wobs = sysm.g_obs(f.theta)
        else:
            weight = f.final_weight
            wobs = sysm.W_obs if kind == "one-step" else sysm.g_obs(f.steps[0].theta)
        m = m_contributions(sysm, f.theta, weight, wobs)
        scale = 1.0 + np.abs(m).max()
        assert np.abs(m.mean(axis=0)).max() < 1e-8 * scale

    def test_term_by_term_against_literal_formula(self, rng):
        sysm = random_system(rng, n=6 + 4, q=3, k=2)
        theta = rng.standard_normal(2)
        weight = sysm.W_obs.mean(axis=0)
        m = m_contributions(sysm, theta, weight, sysm.W_obs)
        w_inv = np.linalg.inv(weight)
        g = sysm.g_obs(theta)
        g_n = g.mean(axis=0)
        G_n = sysm.G_obs.mean(axis=0)
        for i in range(sysm.n):
            expected = (G_n.T @ w_inv @ g[i]
                        + sysm.G_obs[i].T @ w_inv @ g_n
                        - G_n.T @ w_inv @ sysm.W_obs[i] @ w_inv @ g_n)
            assert np.allclose(m[i], expected, rtol=1e-10)

    def test_identity_flag_drops_third_term(self, rng):
        sysm = random_system(rng, n=12, q=3, k=1)
        theta = rng.standard_normal(1)
        m_id = m_contributions(sysm, theta, np.eye(3), None)
        g = sysm.g_obs(theta)
        g_n = g.mean(axis=0)
        G_n = sysm.G_obs.mean(axis=0)
        expected = g @ G_n + np.einsum("nqk,q->nk", sysm.G_obs, g_n)
        assert np.allclose(m_id, expected, rtol=1e-10)

    def test_rank_one_factors_match_full_matrices(self, rng):
        sysm = random_system(rng, n=15, q=3, k=2)
        point = rng.standard_normal(2)
        theta = rng.standard_normal(2)
        factors = sysm.g_obs(point)
        full = np.einsum("nq,np->nqp", factors, factors)
        weight = moment_stats(sysm, point).Omega
        a = m_contributions(sysm, theta, weight, factors)
        b = m_contributions(sysm, theta, weight, full)
        assert np.allclose(a, b, rtol=1e-12)


class TestDHat:
    def test_just_identified_is_zero(self, rng):
        y = rng.standard_normal(40)
        X = rng.standard_normal((40, 2))
        Z = rng.standard_normal((40, 2))
        sysm = build_iv_system(y, X, Z)
        f = fit(sysm, FitPlan.two_step())
        D = d_hat(sysm, f.steps[0].theta, f.theta, f.final_weight)
        assert np.abs(D).max() < 1e-10

    def test_matches_finite_difference_composite(self, rng):
        sysm = random_system(rng, n=40, q=4, k=2)
        tw = rng.standard_normal(2)
        te = rng.standard_normal(2)
        omega = moment_stats(sysm, tw).Omega
        D = d_hat(sysm, tw, te, omega)
        g_eval = moment_stats(sysm, te).g_n
        G_n = sysm.G_obs.mean(axis=0)
        omega_inv = np.linalg.inv(omega)
        M_inv = np.linalg.inv(G_n.T @ omega_inv @ G_n)
        step = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            fd = (moment_stats(sysm, tw + e).Omega - moment_stats(sysm, tw - e).Omega) / (2 * step)
            col = M_inv @ G_n.T @ (omega_inv @ fd @ omega_inv) @ g_eval
            assert np.allclose(D[:, j], col, rtol=1e-6)

    def test_shrinks_like_root_n(self):
        # Tenfold n should shrink D_hat by about sqrt(10); checked in the
        # asymptotic regime (n = 1000 vs 10000), where the rate is clean.
        ratios = []
        for r in range(200):
            mags = []
            for n in (1000, 10000):
                y, X, Z = dgp_iv(n, 0.0, ReplicationStreams(1000 + n, r))
                sysm = build_iv_system(y, X, Z)
                f = fit(sysm, FitPlan.two_step())
                D = d_hat(sysm, f.steps[0].theta, f.theta, f.final_weight)
                assert np.isfinite(D).all()
                mags.append(np.abs(D).max())
            ratios.append(mags[0] / mags[1])
        factor = np.median(ratios)
        assert 2.4 <= factor <= 4.0


class TestVarianceReport:
    @pytest.mark.parametrize("kind", KINDS)
    def test_iv_matches_closed_forms(self, kind):
        y, X, Z = dgp_iv(70, 0.6, ReplicationStreams(21, 3))
        sysm = build_iv_system(y, X, Z)
        ref = iv_closed_forms(y, X[:, 0], Z, kind)
        rep = variance_report(sysm, fit(sysm, FitPlan(kind)))
        assert np.allclose(rep.V_conv, ref["V_conv"], rtol=1e-10)
        assert np.allclose(rep.V_dc, ref["V_dc"], rtol=1e-10)
        assert np.allclose(rep.D_hat, ref["D"], atol=1e-10)
        if kind != "one-step":
            assert np.allclose(rep.V_w, ref["V_w"], rtol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_panel_matches_closed_forms(self, kind):
        panel = dgp_panel_lag(40, 4, 0.1, ReplicationStreams(22, 4))
        sysm = build_ab_system(panel)
        ref = panel_closed_forms(panel.y, panel.x, kind)
        rep = variance_report(sysm, fit(sysm, FitPlan(kind)))
        assert np.allclose(rep.se_conv, ref["se_conv"], rtol=1e-10)
        assert np.allclose(rep.se_dc, ref["se_dc"], rtol=1e-10)
        assert np.allclose(rep.D_hat, ref["D"], atol=1e-10)
        if kind != "one-step":
            assert np.allclose(rep.se_w, ref["se_w"], rtol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_just_identified_collapse(self, rng, kind):
        y = rng.standard_normal(60)
        X = rng.standard_normal((60, 2))
        Z = rng.standard_normal((60, 2))
        sysm = build_iv_system(y, X, Z)
        rep = variance_report(sysm, fit(sysm, FitPlan(kind)))
        assert np.abs(rep.D_hat).max() < 1e-8
        assert np.allclose(rep.V_conv, rep.V_dc, rtol=1e-8)
        if kind != "one-step":
            assert np.allclose(rep.V_conv, rep.V_w, rtol=1e-8)

    def test_two_step_joint_assembly_and_psd(self, rng):
        y, X, Z = dgp_iv(90, 0.7, ReplicationStreams(23, 5))
        sysm = build_iv_system(y, X, Z)
        f = fit(sysm, FitPlan.two_step())
        rep = variance_report(sysm, f)
        theta1 = f.steps[0].theta
        w0 = f.steps[0].weight
        omega1 = f.steps[1].weight
        m1 = m_contributions(sysm, theta1, w0, sysm.W_obs)
        m2 = m_contributions(sysm, f.theta, omega1, sysm.g_obs(theta1))
        stacked = np.hstack([m2, m1])
        sigma_joint = stacked.T @ stacked / sysm.n
        G_n = sysm.G_obs.mean(axis=0)
        M2_inv = np.linalg.inv(G_n.T @ np.linalg.solve(omega1, G_n))
        M1_inv = np.linalg.inv(G_n.T @ np.linalg.solve(w0, G_n))
        A = np.hstack([M2_inv, rep.D_hat @ M1_inv])
        assembled = A @ sigma_joint @ A.T
        assert np.allclose(assembled, rep.V_dc, rtol=1e-10)
        eig = np.linalg.eigvalsh(rep.V_dc)
        assert eig.min() >= -1e-10 * np.trace(rep.V_dc)

    @pytest.mark.parametrize("kind", KINDS)
    def test_symmetry_and_se_scaling(self, rng, kind):
        y, X, Z = dgp_iv(80, 0.2, ReplicationStreams(24, 1))
        sysm = build_iv_system(y, X, Z)
        rep = variance_report(sysm, fit(sysm, FitPlan(kind)))
        for v in (rep.V_conv, rep.V_dc) + ((rep.V_w,) if rep.V_w is not None else ()):
            assert np.allclose(v, v.T, atol=1e-12)
        assert np.allclose(rep.se_dc, np.sqrt(np.diag(rep.V_dc) / sysm.n))
        assert rep.n_units == sysm.n

    def test_one_step_has_no_windmeijer_block(self, rng):
        y, X, Z = dgp_iv(50, 0.0, ReplicationStreams(24, 2))
        sysm = build_iv_system(y, X, Z)
        rep = variance_report(sysm, fit(sysm, FitPlan.one_step()))
        assert rep.V_w is None and rep.se_w is None and rep.C_hat is None
        with pytest.raises(ValueError, match="one-step"):
            rep.se("w")

    @pytest.mark.parametrize("kind", KINDS)
    def test_centered_reports_are_finite_and_consistent(self, rng, kind):
        y, X, Z = dgp_iv(100, 0.4, ReplicationStreams(24, 3))
        sysm = build_iv_system(y, X, Z)
        rep = variance_report(sysm, fit(sysm, FitPlan(kind, centered=True)))
        assert np.isfinite(rep.se_dc).all() and (rep.se_dc > 0).all()
        assert np.isfinite(rep.se_conv).all()

    def test_identity_weight_one_step_drops_third_term(self, rng):
        y, X, Z = dgp_iv(60, 0.3, ReplicationStreams(24, 4))
        sysm = build_iv_system(y, X, Z)
        f = fit(sysm, FitPlan.one_step(WeightSpec.identity()))
        rep = variance_report(sysm, f)
        m = m_contributions(sysm, f.theta, np.eye(4), None)
        sigma = m.T @ m / sysm.n
        assert np.allclose(rep.Sigma_n, sigma, rtol=1e-12)

    def test_degenerate_sigma_sets_rank_warning(self):
        n = 8
        s = np.linspace(-1.0, 1.0, n)
        a = np.array([1.0, 2.0])
        h = np.outer(s, a)
        G = np.tile(np.array([[1.0, 0.2], [0.1, 1.0]]), (n, 1, 1))
        sysm = LinearMomentSystem(h=h, G_obs=G)
        with pytest.warns(RuntimeWarning, match="rank below k"):
            rep = variance_report(sysm, fit(sysm, FitPlan.one_step(WeightSpec.identity())))
        assert rep.rank_warning

    def test_ill_conditioned_iterated_correction_raises(self, rng, monkeypatch):
        y, X, Z = dgp_iv(50, 0.0, ReplicationStreams(24, 5))
        sysm = build_iv_system(y, X, Z)
        f = fit(sysm, FitPlan.iterated())
        # D_hat = I makes (I - D_hat) exactly singular in the kernel's iterated branch.
        monkeypatch.setattr(BatchGmm, "_d_hat",
                            lambda self, *args: np.broadcast_to(np.eye(self.k), (self.R,) + (self.k,) * 2))
        with pytest.raises(IllConditionedCorrectionError, match="condition number"):
            variance_report(sysm, f)
