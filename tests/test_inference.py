import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    dgp_panel_lag,
    dgp_panel_rc,
    fit,
    j_test,
    mr_bootstrap,
    t_test,
    variance_report,
)
from gmmdc import inference
from gmmdc._batch import FATAL_REASONS, BatchGmm
from gmmdc.inference import _percentile_t, _stream_keys, bootstrap_draws, bootstrap_rng
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


    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5, float("nan")])
    def test_alpha_outside_the_unit_interval_is_rejected(self, alpha):
        # alpha = 1 used to index rank -1 and return the largest value
        with pytest.raises(ValueError, match="alpha must lie in"):
            critical_value(np.arange(1.0, 100.0), alpha)


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


_PROPERTY = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

# SeedSequence splits an int into little-endian 32-bit words, 0 as one word.
_ENTROPY_WORDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                           st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**130))


# Both routes of _stream_keys: the hash for more than 12 counters below 2**32,
# SeedSequence for 12 or fewer, or for any counter from 2**32 on.
_BELOW_2_32 = st.integers(0, 2**32 - 1)
_COUNTERS = st.one_of(
    st.lists(_BELOW_2_32, min_size=13, max_size=40),
    st.lists(st.one_of(_BELOW_2_32, st.integers(2**32, 2**63 - 1)), min_size=1, max_size=40))


@_PROPERTY
@given(_ENTROPY_WORDS, _COUNTERS, _ENTROPY_WORDS)
def test_property_stream_keys_match_seed_sequence(lead, counters, tail):
    keys = _stream_keys(lead, np.array(counters), tail)
    expected = np.array([np.random.SeedSequence((lead, c, tail)).generate_state(2, np.uint64)
                         for c in counters])
    assert keys.dtype == expected.dtype and np.array_equal(keys, expected)


class TestBootstrapDraws:
    @pytest.mark.parametrize("B", [99, 499])
    @pytest.mark.parametrize("n", [11, 37, 100, 1000])
    def test_rows_equal_bootstrap_rng_streams(self, B, n):
        # An odd n leaves half of a 64-bit output unused in every row, which
        # must not carry over into the next row.
        rows = np.array([bootstrap_rng(13, b).integers(0, n, size=n) for b in range(B)])
        draws = bootstrap_draws(13, B, n)
        assert draws.dtype == rows.dtype == np.int64
        assert np.array_equal(draws, rows)

    def test_large_and_numpy_seeds(self):
        for seed in (np.int64(0), np.uint32(2**32 - 1), 2**32, 2**70 + 3):
            rows = np.array([bootstrap_rng(seed, b).integers(0, 37, size=37) for b in range(99)])
            assert np.array_equal(bootstrap_draws(seed, 99, 37), rows)

    @pytest.mark.parametrize("seed", [-1, 2.5, np.float64(3.0), "3", None, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        y, X, Z = dgp_iv(50, 0.0, ReplicationStreams(9, 4))
        sysm = build_iv_system(y, X, Z)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            mr_bootstrap(sysm, FitPlan.one_step(), 0, 99, seed=seed)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            bootstrap_draws(seed, 99, 50)


class TestDrawsFromRawWords:
    """``bootstrap_draws`` applies numpy's bounded-integer step to raw Philox
    words; a row where that step would reject a draw is drawn again from
    ``bootstrap_rng``. A draw rejects with probability (2**32 mod n) / 2**32."""

    @pytest.mark.parametrize("B, n, redrawn", [
        (499, 6004, [18, 51, 251, 268, 360]),    # 2**32 mod n = 5896: five rows reject
        (8, 227_271, list(range(8))),            # 2**32 mod n = 227209: every row rejects
    ])
    def test_redrawn_rows_equal_bootstrap_rng_streams(self, monkeypatch, B, n, redrawn):
        rows = np.array([bootstrap_rng(13, b).integers(0, n, size=n) for b in range(B)])
        calls = []

        def spy(seed, replication):
            calls.append(int(replication))
            return bootstrap_rng(seed, replication)

        monkeypatch.setattr(inference, "bootstrap_rng", spy)
        draws = bootstrap_draws(13, B, n)
        assert calls == redrawn
        assert draws.dtype == np.int64 and np.array_equal(draws, rows)

    def test_one_unit_and_no_units(self):
        assert np.array_equal(bootstrap_draws(3, 5, 1), np.zeros((5, 1), dtype=np.int64))
        assert bootstrap_draws(3, 0, 7).shape == (0, 7)          # no resamples
        with pytest.raises(ValueError, match="n must be at least 1"):
            bootstrap_draws(3, 5, 0)


def _stored_systems():
    rng = np.random.default_rng(8)
    W = rng.standard_normal((40, 3, 3))
    return {
        "iv": build_iv_system(*dgp_iv(50, 0.2, ReplicationStreams(8, 0))),
        "predetermined": build_ab_system(dgp_panel_lag(40, 6, 0.2, ReplicationStreams(8, 1))),
        "ar1": build_ab_system(dgp_panel_rc(40, 6, 0.2, ReplicationStreams(8, 2)), mode="ar1"),
        "W_obs=": LinearMomentSystem(h=rng.standard_normal((40, 3)),
                                     G_obs=rng.standard_normal((40, 3, 1)),
                                     W_obs=W + np.swapaxes(W, 1, 2)),
    }


class TestResampleStack:
    """A bootstrap's resample stack holds each resample's stored rows: h, G
    and the weight-factor values, a panel unit's T values rather than its
    (T-1) x q block."""

    @pytest.mark.parametrize("label", ["iv", "predetermined", "ar1", "W_obs="])
    def test_bound_counts_the_gathered_bytes(self, label):
        sysm = _stored_systems()[label]
        batch = BatchGmm.from_system(sysm, bootstrap_draws(1, 99, sysm.n))
        stored = (batch.h, batch.G, batch.factors.values)
        assert inference._resample_bytes(sysm, 99) == sum(a.nbytes for a in stored)

    def test_a_panel_gather_allocates_its_compact_rows(self):
        """499 resamples of an N=500, T=6 panel: 15 + 15 + 6 float64 per unit,
        72 MB; with the dense 5 x 15 blocks it was 210 MB."""
        sysm = build_ab_system(dgp_panel_lag(500, 6, 0.0, ReplicationStreams(3, 0)))
        idx = bootstrap_draws(1, 499, 500)
        tracemalloc.start()
        try:
            BatchGmm.from_system(sysm, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.01 * 499 * 500 * (15 + 15 + 6) * 8, peak
