import numpy as np
import pytest

from gmmdc import (
    DegenerateVarianceError,
    FitPlan,
    IllConditionedCorrectionError,
    JNotDefinedError,
    LinearMomentSystem,
    ReplicationStreams,
    WeightSpec,
    build_ab_system,
    build_iv_system,
    critical_value,
    dgp_iv,
    dgp_panel_rc,
    fit,
    j_test,
    mr_bootstrap,
    t_test,
    variance_report,
)
from gmmdc._batch import FATAL_REASONS, BatchGmm
from gmmdc.inference import _percentile_t, bootstrap_rng
from conftest import SHARED_STACK_PLANS, fit_and_twin


def _iv_fit(seed=0, n=60, alpha0=0.3, kind="two-step"):
    y, X, Z = dgp_iv(n, alpha0, ReplicationStreams(seed, 0))
    sysm = build_iv_system(y, X, Z)
    f = fit(sysm, FitPlan(kind))
    return sysm, f, variance_report(sysm, f)


class TestTTest:
    def test_zero_at_null(self):
        sysm, f, rep = _iv_fit()
        res = t_test(f, rep, "dc", 0, float(f.theta[0]))
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.reject_5pct

    def test_normal_quantile_identity(self):
        sysm, f, rep = _iv_fit()
        se = float(rep.se_dc[0])
        res = t_test(f, rep, "dc", 0, float(f.theta[0]) - 1.96 * se)
        assert res.statistic == pytest.approx(1.96, rel=1e-12)
        assert res.p_value == pytest.approx(0.0500, abs=2e-4)

    def test_confidence_interval_uses_975_quantile(self):
        sysm, f, rep = _iv_fit()
        res = t_test(f, rep, "conv", 0, 0.0)
        half = 1.959964 * float(rep.se_conv[0])
        assert res.ci_lower == pytest.approx(float(f.theta[0]) - half, rel=1e-6)
        assert res.ci_upper == pytest.approx(float(f.theta[0]) + half, rel=1e-6)

    def test_degenerate_se_raises(self, rng):
        X = rng.standard_normal((30, 1))
        Z = rng.standard_normal((30, 2))
        sysm = build_iv_system(X[:, 0] * 1.0, X, Z)   # exact fit: zero residuals
        f = fit(sysm, FitPlan.one_step())
        with pytest.warns(RuntimeWarning, match="rank below k"):
            rep = variance_report(sysm, f)
        with pytest.raises(DegenerateVarianceError):
            t_test(f, rep, "dc", 0, 0.0)

    def test_rescaled_instruments_leave_t_unchanged(self):
        y, X, Z = dgp_iv(100, 0.5, ReplicationStreams(8, 0))
        t_values = []
        for c in (1.0, 37.0):
            sysm = build_iv_system(y, X, c * Z)
            f = fit(sysm, FitPlan.two_step())
            rep = variance_report(sysm, f)
            t_values.append(t_test(f, rep, "dc", 0, 1.0).statistic)
        assert abs(t_values[0] - t_values[1]) < 1e-8


class TestJTest:
    def test_just_identified_not_defined(self, rng):
        y = rng.standard_normal(30)
        X = rng.standard_normal((30, 1))
        Z = rng.standard_normal((30, 1))
        sysm = build_iv_system(y, X, Z)
        with pytest.raises(JNotDefinedError):
            j_test(sysm, fit(sysm, FitPlan.one_step()))

    def test_zero_moment_mean_gives_zero_statistic(self, rng):
        # Constant Jacobians and constants whose mean solves the model exactly
        # keep g_n(theta_hat) = 0 while the moments still vary across i.
        n, q = 20, 3
        G = np.tile(rng.standard_normal((q, 1)), (n, 1, 1))
        noise = rng.standard_normal((n, q))
        noise -= noise.mean(axis=0)
        theta_star = np.array([0.7])
        h = noise - (G @ theta_star)
        sysm = LinearMomentSystem(h=h, G_obs=G)
        f = fit(sysm, FitPlan.one_step(WeightSpec.identity()))
        res = j_test(sysm, f)
        assert res.statistic == pytest.approx(0.0, abs=1e-16)
        assert res.p_value == pytest.approx(1.0)
        assert res.df == q - 1

    def test_moment_rescaling_invariance(self):
        y, X, Z = dgp_iv(90, 0.4, ReplicationStreams(8, 1))
        stats = []
        for c in (1.0, 11.0):
            sysm = build_iv_system(y, X, Z)
            scaled = LinearMomentSystem(h=c * sysm.h, G_obs=c * sysm.G_obs,
                                        W_obs=c**2 * sysm.W_obs)
            stats.append(j_test(scaled, fit(scaled, FitPlan.two_step())).statistic)
        assert abs(stats[0] - stats[1]) < 1e-8

    def test_two_step_uses_first_step_weight(self):
        sysm, f, _ = _iv_fit(kind="two-step")
        res = j_test(sysm, f)
        g_n = sysm.g_obs(f.theta).mean(axis=0)
        expected = sysm.n * g_n @ np.linalg.solve(f.final_weight, g_n)
        assert res.statistic == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("kind,centered,w0", SHARED_STACK_PLANS)
    def test_shared_stack_is_bit_identical_to_resume(self, kind, centered, w0):
        sysm, f, twin = fit_and_twin(kind, centered, w0)
        assert j_test(sysm, f) == j_test(twin, f)

    def test_failed_variance_does_not_fail_j(self, monkeypatch):
        sysm, f, _ = fit_and_twin("iterated", False, "data-average")
        expected = j_test(sysm, f)
        # D_hat = I makes (I - D_hat) exactly singular in the kernel's iterated branch.
        monkeypatch.setattr(BatchGmm, "_d_hat", lambda self, *args: np.broadcast_to(
            np.eye(self.k), (self.R,) + (self.k,) * 2))
        with pytest.raises(IllConditionedCorrectionError):
            variance_report(sysm, f)
        assert j_test(sysm, f) == expected


class TestCriticalValue:
    def test_order_statistic_rule_b99(self):
        values = np.arange(1.0, 100.0)   # 99 values
        assert critical_value(values) == 95.0

    def test_order_statistic_rule_b199(self, rng):
        t_abs = rng.standard_normal(199) ** 2
        crit = critical_value(t_abs)
        assert crit == np.sort(t_abs)[int(np.ceil(200 * 0.95)) - 1]


class TestMrBootstrap:
    def test_deterministic_given_seed(self):
        y, X, Z = dgp_iv(50, 0.0, ReplicationStreams(9, 0))
        sysm = build_iv_system(y, X, Z)
        a = mr_bootstrap(sysm, FitPlan.two_step(), 0, 99, seed=7, null_value=1.0)
        b = mr_bootstrap(sysm, FitPlan.two_step(), 0, 99, seed=7, null_value=1.0)
        assert np.array_equal(a.t_star, b.t_star)
        assert a.crit_abs == b.crit_abs
        assert a.reject_5pct == b.reject_5pct

    def test_quantile_matches_full_sort(self):
        y, X, Z = dgp_iv(12, 0.0, ReplicationStreams(9, 1))
        sysm = build_iv_system(y, X, Z)
        res = mr_bootstrap(sysm, FitPlan.one_step(), 0, 199, seed=3)
        ordered = np.sort(np.abs(res.t_star))
        rank = int(np.ceil((len(res.t_star) + 1) * 0.95))
        assert res.crit_abs == ordered[min(rank, len(ordered)) - 1]

    def test_batch_matches_per_resample_loop(self):
        y, X, Z = dgp_iv(40, 0.2, ReplicationStreams(9, 2))
        sysm = build_iv_system(y, X, Z)
        plan = FitPlan.two_step()
        res = mr_bootstrap(sysm, plan, 0, 99, seed=11)
        f0 = fit(sysm, plan)
        theta0 = float(f0.theta[0])
        for b in (0, 17, 98):
            idx = bootstrap_rng(11, b).integers(0, sysm.n, size=sysm.n)
            resys = LinearMomentSystem(h=sysm.h[idx], G_obs=sysm.G_obs[idx],
                                       W_obs=sysm.W_obs[idx])
            refit = fit(resys, plan)
            rerep = variance_report(resys, refit)
            t_b = (float(refit.theta[0]) - theta0) / float(rerep.se_dc[0])
            assert res.t_star[b] == pytest.approx(t_b, rel=1e-9, abs=1e-11)

    def test_panel_resamples_individuals(self):
        panel = dgp_panel_rc(30, 4, 0.0, ReplicationStreams(9, 3))
        sysm = build_ab_system(panel, mode="ar1")
        plan = FitPlan.two_step()
        res = mr_bootstrap(sysm, plan, 0, 99, seed=5, null_value=0.5)
        assert res.B == 99 and res.failures == 0
        theta0 = float(fit(sysm, plan).theta[0])
        for b in (0, 49, 98):
            idx = bootstrap_rng(5, b).integers(0, 30, 30)    # 30 individuals
            resys = LinearMomentSystem(h=sysm.h[idx], G_obs=sysm.G_obs[idx],
                                       Z_obs=sysm.Z_obs[idx], H=sysm.H)
            refit = fit(resys, plan)
            t_b = (float(refit.theta[0]) - theta0) / float(variance_report(resys, refit).se_dc[0])
            assert res.t_star[b] == pytest.approx(t_b, rel=1e-9, abs=1e-11)

    def test_input_validation(self):
        y, X, Z = dgp_iv(50, 0.0, ReplicationStreams(9, 4))
        sysm = build_iv_system(y, X, Z)
        with pytest.raises(ValueError, match="at least 99"):
            mr_bootstrap(sysm, FitPlan.one_step(), 0, 50, seed=1)
        tiny = build_iv_system(y[:8], X[:8], Z[:8, :2])
        with pytest.raises(ValueError, match="resampling units"):
            mr_bootstrap(tiny, FitPlan.one_step(), 0, 99, seed=1)

    @pytest.mark.parametrize("coef", [-1, 1])
    def test_coefficient_index_validated(self, coef):
        y, X, Z = dgp_iv(50, 0.0, ReplicationStreams(9, 4))
        sysm = build_iv_system(y, X, Z)
        with pytest.raises(IndexError, match="coefficient index .* out of range"):
            mr_bootstrap(sysm, FitPlan.one_step(), coef, 99, seed=1)

    def test_reliability_flag_off_for_clean_runs(self):
        y, X, Z = dgp_iv(60, 0.0, ReplicationStreams(9, 5))
        sysm = build_iv_system(y, X, Z)
        res = mr_bootstrap(sysm, FitPlan.one_step(), 0, 99, seed=2)
        assert res.failures == 0
        assert not res.reliability_warning

    def test_failures_are_counted_by_reason(self):
        # y = x except in unit 0, so a resample without unit 0 fits exactly:
        # its one-step dc standard error is exactly 0 and its two-step
        # efficient weight is the zero matrix.
        y, X, Z = dgp_iv(30, 0.0, ReplicationStreams(9, 6))
        y = X[:, 0].copy()
        y[0] += 1.0
        sysm = build_iv_system(y, X, Z[:, :2])
        without_0 = sum(0 not in bootstrap_rng(4, b).integers(0, 30, 30) for b in range(99))
        assert without_0 > 0
        plans = [FitPlan.one_step(), FitPlan.two_step()]
        (one,), (two,) = _percentile_t(sysm, 99, 4, plans, [0], [0.0])
        labels = {r.label for r in FATAL_REASONS} | {"degenerate-variance"}
        for res, reason in ((one, "degenerate-variance"), (two, "efficient-weight-not-pd")):
            assert set(res.failure_reasons) == labels
            assert res.failures == without_0 == res.failure_reasons[reason]
            assert sum(res.failure_reasons.values()) == res.failures
        for plan, res in zip(plans, (one, two)):
            single = mr_bootstrap(sysm, plan, 0, 99, seed=4)
            assert np.array_equal(single.t_star, res.t_star)
            assert single.failure_reasons == res.failure_reasons

    def test_clean_run_has_zero_reasons(self):
        y, X, Z = dgp_iv(60, 0.0, ReplicationStreams(9, 5))
        res = mr_bootstrap(build_iv_system(y, X, Z), FitPlan.two_step(), 0, 99, seed=2)
        assert len(res.failure_reasons) == len(FATAL_REASONS) + 1
        assert not any(res.failure_reasons.values())
