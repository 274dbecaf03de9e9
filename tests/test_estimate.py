import numpy as np
import pytest

from gmmdc import (
    FitPlan,
    LinearMomentSystem,
    SingularNormalMatrixError,
    SingularWeightError,
    WeightSpec,
    build_iv_system,
    dgp_iv,
    fit,
    moment_stats,
    solve_weighted,
    ReplicationStreams,
)
from conftest import random_system
from reference_formulas import iv_closed_forms


class TestSolveWeighted:
    def test_just_identified_scalar_mean(self):
        h = np.array([[1.0], [2.0], [3.0]])
        G = np.full((3, 1, 1), -1.0)
        sysm = LinearMomentSystem(h=h, G_obs=G)
        for w in (np.eye(1), np.array([[7.0]])):
            assert np.allclose(solve_weighted(sysm, w), [2.0])

    def test_noise_free_iv_recovers_unit_coefficient(self, rng):
        X = rng.standard_normal((40, 1))
        Z = rng.standard_normal((40, 3))
        sysm = build_iv_system(X[:, 0], X, Z)
        for _ in range(3):
            f = rng.standard_normal((3, 3))
            weight = f @ f.T + 3 * np.eye(3)
            assert np.allclose(solve_weighted(sysm, weight), [1.0], atol=1e-10)

    def test_criterion_gradient_vanishes_at_solution(self, rng):
        sysm = random_system(rng, n=8 * 4, q=8, k=2)
        f = rng.standard_normal((8, 8))
        weight = f @ f.T + 8 * np.eye(8)
        theta = solve_weighted(sysm, weight)
        g_n = moment_stats(sysm, theta).g_n
        G_n = sysm.G_obs.mean(axis=0)
        grad = 2.0 * G_n.T @ np.linalg.solve(weight, g_n)
        assert np.abs(grad).max() < 1e-10

    def test_singular_weight_rejected(self, rng):
        sysm = random_system(rng, q=3, k=1)
        with pytest.raises(SingularWeightError):
            solve_weighted(sysm, np.zeros((3, 3)))

    def test_singular_normal_matrix_rejected(self, rng):
        h = rng.standard_normal((10, 3))
        G = np.zeros((10, 3, 2))
        G[:, 0, 0] = 1.0
        G[:, 0, 1] = 1.0        # collinear columns
        sysm = LinearMomentSystem(h=h, G_obs=G)
        with pytest.raises(SingularNormalMatrixError):
            solve_weighted(sysm, np.eye(3))


class TestFit:
    def test_just_identified_all_kinds_coincide(self, rng):
        y = rng.standard_normal(50)
        X = rng.standard_normal((50, 2))
        Z = rng.standard_normal((50, 2))
        sysm = build_iv_system(y, X, Z)
        f1 = fit(sysm, FitPlan.one_step())
        f2 = fit(sysm, FitPlan.two_step())
        fi = fit(sysm, FitPlan.iterated())
        assert np.allclose(f1.theta, f2.theta, rtol=1e-12)
        assert np.allclose(f1.theta, fi.theta, rtol=1e-12)
        assert np.linalg.norm(f1.g_n_hat) <= 1e-10 * np.linalg.norm(sysm.h.mean(axis=0))

    def test_two_step_matches_closed_form(self):
        y, X, Z = dgp_iv(120, 0.4, ReplicationStreams(1, 1))
        sysm = build_iv_system(y, X, Z)
        ref = iv_closed_forms(y, X[:, 0], Z, "two-step")
        f = fit(sysm, FitPlan.two_step())
        assert np.allclose(f.steps[0].theta, ref["theta1"], rtol=1e-10)
        assert np.allclose(f.theta, ref["theta2"], rtol=1e-10)

    def test_weight_scaling_invariance(self, rng):
        sysm = random_system(rng, n=50, q=4, k=2)
        base = fit(sysm, FitPlan.one_step()).theta
        w = sysm.weight_matrix(WeightSpec.data_average())
        for c in (1e-3, 5.0, 1e4):
            scaled = solve_weighted(sysm, c * w)
            assert np.allclose(scaled, base, rtol=1e-9)

    def test_iterated_fixed_point(self, rng):
        y, X, Z = dgp_iv(150, 0.0, ReplicationStreams(2, 0))
        sysm = build_iv_system(y, X, Z)
        f = fit(sysm, FitPlan.iterated())
        assert f.converged
        omega = moment_stats(sysm, f.theta).Omega
        refit = solve_weighted(sysm, omega)
        assert np.linalg.norm(refit - f.theta) < f.plan.tol * (1 + np.linalg.norm(f.theta))

    def test_iterated_records_step_chain(self, rng):
        y, X, Z = dgp_iv(80, 0.3, ReplicationStreams(2, 1))
        sysm = build_iv_system(y, X, Z)
        f = fit(sysm, FitPlan.iterated())
        assert f.iterations == len(f.steps) >= 2
        assert f.steps[-1].weight.shape == (4, 4)

    def test_non_convergence_is_flagged_not_raised(self, rng):
        y, X, Z = dgp_iv(60, 0.8, ReplicationStreams(2, 2))
        sysm = build_iv_system(y, X, Z)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            f = fit(sysm, FitPlan.iterated(max_iter=1, tol=1e-16))
        assert not f.converged

    @pytest.mark.parametrize("kind", ["one-step", "two-step", "iterated"])
    def test_first_order_condition_residual(self, kind):
        y, X, Z = dgp_iv(100, 0.6, ReplicationStreams(2, 3))
        sysm = build_iv_system(y, X, Z)
        f = fit(sysm, FitPlan(kind))
        weight = f.final_weight
        G_n = sysm.G_obs.mean(axis=0)
        h_n = sysm.h.mean(axis=0)
        lhs = np.linalg.norm(G_n.T @ np.linalg.solve(weight, f.g_n_hat))
        scale = 1.0 + np.linalg.norm(G_n.T @ np.linalg.solve(weight, h_n))
        assert lhs <= 1e-8 * scale

    def test_deterministic(self, rng):
        y, X, Z = dgp_iv(70, 0.1, ReplicationStreams(3, 0))
        sysm = build_iv_system(y, X, Z)
        a = fit(sysm, FitPlan.iterated())
        b = fit(sysm, FitPlan.iterated())
        assert np.array_equal(a.theta, b.theta)

    def test_one_step_with_frozen_efficient_weight_matches_two_step(self, rng):
        y, X, Z = dgp_iv(90, 0.2, ReplicationStreams(3, 1))
        sysm = build_iv_system(y, X, Z)
        f2 = fit(sysm, FitPlan.two_step())
        frozen = fit(sysm, FitPlan.one_step(WeightSpec.efficient_uncentered(f2.steps[0].theta)))
        assert np.allclose(frozen.theta, f2.theta, rtol=1e-12)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FitPlan("three-step")
        with pytest.raises(ValueError):
            FitPlan("iterated", tol=0.0)
        with pytest.raises(ValueError):
            FitPlan("iterated", max_iter=0)
        for tol in (np.inf, np.nan, -np.inf):   # inf stopped after one update, "converged"
            with pytest.raises(ValueError, match="tol must be a positive finite number"):
                FitPlan("iterated", tol=tol)
