import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gmmdc
from gmmdc import (
    FitPlan,
    IvLocal,
    LinearMomentSystem,
    PanelLagMiss,
    PanelRandomCoef,
    ReplicationStreams,
    StudyConfig,
    build_iv_system,
    dgp_iv,
    dgp_panel_lag,
    dgp_panel_rc,
    draw_system,
    fit,
    mr_bootstrap,
    run_study,
)
from gmmdc import inference, montecarlo
from gmmdc._batch import BatchGmm, ok_rows
from gmmdc.montecarlo import worker_count


class TestDgpIv:
    def test_first_stage_strength(self):
        y, X, Z = dgp_iv(200_000, 0.0, ReplicationStreams(1, 0))
        slope = np.linalg.lstsq(Z, X[:, 0], rcond=None)[0]
        assert np.allclose(slope, 0.25, atol=0.01)
        fitted = Z @ slope
        r2 = fitted.var() / X[:, 0].var()
        assert r2 == pytest.approx(0.2, abs=0.01)
        # the design equation pinning the first-stage coefficient
        assert 4 * 0.25**2 / (4 * 0.25**2 + 1) == pytest.approx(0.2)

    def test_correct_specification_moment_validity(self):
        n = 1_000_000
        y, X, Z = dgp_iv(n, 0.0, ReplicationStreams(2, 0))
        e = y - X[:, 0]
        moments = Z * e[:, None]
        mc_se = moments.std(axis=0) / np.sqrt(n)
        assert (np.abs(moments.mean(axis=0)) < 4 * mc_se).all()

    def test_local_violation_scales_with_root_n(self):
        n = 400_000
        a = np.array([1.0, -1.0, 1.0, -1.0])
        y, X, Z = dgp_iv(n, 0.8, ReplicationStreams(2, 1))
        e = y - X[:, 0]
        target = 0.8 / np.sqrt(n) * a
        mc_se = (Z * e[:, None]).std(axis=0) / np.sqrt(n)
        assert (np.abs((Z * e[:, None]).mean(axis=0) - target) < 4 * mc_se).all()
        y, X, Z = dgp_iv(n, 0.8, ReplicationStreams(2, 1), fixed=True)
        e = y - X[:, 0]
        assert np.allclose((Z * e[:, None]).mean(axis=0), 0.8 * a, atol=0.02)

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValueError):
            dgp_iv(5, 0.0, ReplicationStreams(0, 0))


class TestDgpPanelRc:
    def test_homogeneous_coefficient_at_alpha_zero(self):
        # With rho = 0.5 for everyone, y_t - 0.5 y_{t-1} - 2 eta-hat must be
        # pure noise with variance 0.25; eta is recovered from the individual
        # mean of y_t - 0.5 y_{t-1}.
        panel = dgp_panel_rc(50_000, 6, 0.0, ReplicationStreams(3, 0))
        resid = panel.y[:, 1:] - 0.5 * panel.y[:, :-1]
        eta_hat = resid.mean(axis=1)
        noise = resid - eta_hat[:, None]
        assert noise.std() == pytest.approx(0.5 * np.sqrt(1 - 1 / 5), rel=0.02)

    def test_first_period_deviation_variance(self):
        # One transition after the drawn start: deviation variance
        # 0.25 * 4/3 + 0.25 = 7/12. The per-individual eta estimate from the
        # T - 1 residual means adds 4 * 0.25 / (T - 1) on top.
        T = 6
        panel = dgp_panel_rc(200_000, T, 0.0, ReplicationStreams(3, 1))
        resid = panel.y[:, 1:] - 0.5 * panel.y[:, :-1]
        eta_hat = resid.mean(axis=1)
        dev = panel.y[:, 0] - 2 * eta_hat
        expected = 7.0 / 12.0 + 4 * 0.25 / (T - 1)
        assert dev.var() == pytest.approx(expected, rel=0.02)

    def test_shapes_and_validation(self):
        panel = dgp_panel_rc(20, 4, 0.1, ReplicationStreams(3, 2))
        assert panel.y.shape == (20, 4) and panel.x is None
        with pytest.raises(ValueError):
            dgp_panel_rc(10, 2, 0.0, ReplicationStreams(3, 3))


class TestDgpPanelLag:
    def test_error_innovation_moments(self):
        draws = ReplicationStreams(4, 0).generator(3).chisquare(1, 1_000_000) - 1.0
        assert draws.mean() == pytest.approx(0.0, abs=4 * np.sqrt(2 / 1e6))
        assert draws.var() == pytest.approx(2.0, rel=0.02)

    def test_time_profile_and_scale(self):
        N = 300_000
        panel = dgp_panel_lag(N, 3, 0.0, ReplicationStreams(4, 1))
        # v_it = delta_i tau_t omega_it with E delta^2 = 13/12, var omega = 2
        v = panel.y - panel.x - panel.y.mean()  # crude: beta0 = 1, eta unknown
        # instead isolate v by differencing out eta via the model directly:
        # y - x = eta + v, so var over i of (y - x) at t is 1 + var(v_t)
        resid = panel.y - panel.x
        for t, tau in enumerate([0.5, 0.6, 0.7]):
            target = 1.0 + (13.0 / 12.0) * tau**2 * 2.0
            assert resid[:, t].var() == pytest.approx(target, rel=0.03)

    @pytest.mark.slow
    def test_two_period_pseudo_true_value(self):
        # With two kept periods the single moment E[x_1 (dy_2 - b dx_2)] = 0
        # identifies b* = beta0 - alpha0 exactly.
        alpha0 = 0.4
        estimates = []
        for r in range(400):
            panel = dgp_panel_lag(5000, 3, alpha0, ReplicationStreams(5, r))
            y2, x2 = panel.y[:, :2], panel.x[:, :2]
            sysm = build_iv_system(np.diff(y2, axis=1)[:, 0],
                                   np.diff(x2, axis=1), x2[:, :1])
            estimates.append(fit(sysm, FitPlan.one_step()).theta[0])
        estimates = np.asarray(estimates)
        mc_se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - (1.0 - alpha0)) < 3 * mc_se


class TestRunStudy:
    def test_single_replication_degenerate_sd(self):
        cfg = StudyConfig(design=IvLocal(n=60, alpha0=0.0), replications=1,
                          estimators=("two",), seed=1)
        summary = run_study(cfg)
        block = summary.estimators["two"]
        assert block.sd_theta == 0.0 and block.sd_degenerate
        sysm = draw_system(IvLocal(n=60, alpha0=0.0), ReplicationStreams(1, 0))
        f = fit(sysm, FitPlan.two_step())
        assert block.mean_theta == pytest.approx(float(f.theta[0]), rel=1e-12)

    def test_summary_config_names_the_design_kind(self):
        """Panel-rc and panel-lag studies of equal N, T and alpha0 differ in
        their summaries' ``config`` blocks: a design's kind is a field."""
        blocks = [dataclasses.asdict(run_study(StudyConfig(
            design=cls(N=30, T=4, alpha0=0.0), replications=2, estimators=("one",), seed=1)))
            ["config"] for cls in (PanelRandomCoef, PanelLagMiss)]
        assert [b["design"]["kind"] for b in blocks] == ["panel-rc", "panel-lag"]
        assert blocks[0] != blocks[1]
        assert {**blocks[0]["design"], "kind": None} == {**blocks[1]["design"], "kind": None}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_progress_counts_rise_to_replications(self, threads):
        cfg = StudyConfig(design=IvLocal(n=40, alpha0=0.0), replications=150,
                          estimators=("one",), seed=2)
        calls = []
        run_study(cfg, threads=threads, progress=lambda done, total: calls.append((done, total)))
        assert calls == [(64, 150), (128, 150), (150, 150)]

    def test_bit_identical_across_worker_counts(self):
        cfg = StudyConfig(design=IvLocal(n=50, alpha0=0.2), replications=150,
                          estimators=("one", "two", "iter"), seed=9,
                          bootstrap_B=99, bootstrap_estimators=("two",))
        serial = run_study(cfg, threads=1)
        parallel = run_study(cfg, threads=2)
        for est in cfg.estimators:
            a = dataclasses.asdict(serial.estimators[est])
            b = dataclasses.asdict(parallel.estimators[est])
            assert a == b

    def test_identical_across_blas_thread_counts(self):
        # The kernel's reductions over observations are BLAS matrix products;
        # the summary must not depend on how many threads BLAS runs them on.
        script = (
            "import dataclasses, json\n"
            "from gmmdc import IvLocal, StudyConfig, run_study\n"
            "cfg = StudyConfig(design=IvLocal(n=50, alpha0=0.2), replications=64,\n"
            "                  estimators=('one', 'two', 'iter'), seed=9)\n"
            "blocks = run_study(cfg, threads=1).estimators\n"
            "print(json.dumps({e: dataclasses.asdict(b) for e, b in blocks.items()},\n"
            "                 sort_keys=True))\n")
        src = os.path.dirname(os.path.dirname(gmmdc.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert set(json.loads(outputs[0])) == {"one", "two", "iter"}
        assert outputs[0] == outputs[1]

    def test_worker_count_is_bounded(self):
        cpus = os.cpu_count() or 1
        assert worker_count(None, 10) == 1
        assert worker_count(0, 10) == 1
        assert worker_count(-3, 10) == 1
        assert worker_count(1, 10) == 1
        assert worker_count(10**6, 3) == min(3, cpus)
        assert worker_count(10**6, 10**6) == cpus
        assert worker_count(2, 1) == 1

    def test_nonconverged_iterations_are_counted(self, monkeypatch):
        cfg = StudyConfig(design=IvLocal(n=60, alpha0=0.0), replications=20,
                          estimators=("two", "iter"), seed=12)
        assert run_study(cfg).estimators["iter"].nonconverged == 0
        monkeypatch.setitem(montecarlo._ESTIMATOR_PLANS, "iter",
                            lambda: FitPlan.iterated(max_iter=1))
        summary = run_study(cfg)
        it = summary.estimators["iter"]
        assert it.nonconverged == cfg.replications - it.failures > 0
        assert summary.estimators["two"].nonconverged == 0

    def test_failures_are_counted_by_reason(self, monkeypatch):
        draw = montecarlo.draw_system

        def draw_some_singular(design, streams, fixed_misspec=False):
            sysm = draw(design, streams, fixed_misspec)
            if streams.replication not in (3, 7):
                return sysm
            return LinearMomentSystem(h=np.zeros_like(sysm.h), G_obs=np.zeros_like(sysm.G_obs),
                                      Z_obs=np.zeros_like(sysm.Z_obs), H=sysm.H)

        monkeypatch.setattr(montecarlo, "draw_system", draw_some_singular)
        cfg = StudyConfig(design=IvLocal(n=60, alpha0=0.0), replications=12,
                          estimators=("one", "two"), seed=4)
        summary = run_study(cfg)
        assert summary.workers == 1
        for block in summary.estimators.values():
            assert block.failures == 2 == sum(block.failure_reasons.values())
            assert block.failure_reasons["preliminary-weight-not-pd"] == 2

    def test_panel_designs_run_end_to_end(self):
        for design in (PanelRandomCoef(N=40, T=4, alpha0=0.1),
                       PanelLagMiss(N=40, T=4, alpha0=0.1)):
            cfg = StudyConfig(design=design, replications=20, seed=3)
            summary = run_study(cfg)
            for est, block in summary.estimators.items():
                assert np.isfinite(block.mean_theta)
                assert 0.0 <= block.reject_j <= 1.0
                assert block.failures == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(design=IvLocal(n=50, alpha0=0.0), replications=0)
        with pytest.raises(ValueError):
            StudyConfig(design=IvLocal(n=50, alpha0=0.0), replications=10,
                        estimators=("two", "three"))
        with pytest.raises(ValueError):
            StudyConfig(design=IvLocal(n=50, alpha0=0.0), replications=10,
                        bootstrap_B=50)
        with pytest.raises(ValueError):
            StudyConfig(design=IvLocal(n=50, alpha0=0.0), replications=10,
                        estimators=("two",), bootstrap_B=99,
                        bootstrap_estimators=("one",))
        with pytest.raises(ValueError, match="IV design"):
            run_study(StudyConfig(design=PanelLagMiss(N=20, T=4, alpha0=0.0),
                                  replications=1, fixed_misspec=True))

    @pytest.mark.parametrize("design", [PanelRandomCoef(N=50, T=4, alpha0=0.0),
                                        PanelLagMiss(N=20, T=4, alpha0=0.0)])
    def test_fixed_misspec_with_a_panel_design_is_rejected_when_made(self, design):
        """A panel design has no fixed misspecification; the config says so
        when it is made, before a study could start a process pool."""
        with pytest.raises(ValueError, match="fixed_misspec applies to the IV design only"):
            StudyConfig(design=design, replications=130, fixed_misspec=True)

    @pytest.mark.parametrize("seed", [-1, 2.5, np.int64(-3)])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        """A bad seed is rejected when the config is made, before a study could
        start a process pool."""
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            StudyConfig(design=IvLocal(n=50, alpha0=0.0), replications=130, seed=seed)

    @pytest.mark.parametrize("lists", [{"estimators": ()}, {"bootstrap_estimators": ()}])
    def test_empty_estimator_lists_are_rejected(self, lists):
        """An empty list would run nothing, or (``bootstrap_estimators``) every estimator."""
        with pytest.raises(ValueError, match="must not be empty"):
            StudyConfig(design=IvLocal(n=50, alpha0=0.0), replications=10, bootstrap_B=99,
                        **lists)

    @pytest.mark.parametrize("seed, replication, field", [
        (2.5, 0, "seed"), (-1, 0, "seed"), (True, 0, "seed"), (0, -1, "replication")])
    def test_streams_reject_a_key_that_is_not_a_counter(self, seed, replication, field):
        """2.5 used to draw seed 2's streams; -1 failed inside numpy, naming no field."""
        message = f"{field} must be a non-negative integer"
        with pytest.raises(ValueError, match=message):
            dgp_iv(20, 0.0, ReplicationStreams(seed, replication))
        with pytest.raises(ValueError, match=message):
            inference.bootstrap_rng(seed, replication)

    def test_streams_are_independent_of_block_order(self):
        s = ReplicationStreams(11, 4)
        a_first = s.generator(0).standard_normal(5)
        b_first = s.generator(1).standard_normal(5)
        b_again = s.generator(1).standard_normal(5)
        a_again = s.generator(0).standard_normal(5)
        assert np.array_equal(a_first, a_again)
        assert np.array_equal(b_first, b_again)

    @pytest.mark.slow
    def test_panel_lag_j_power_at_large_n(self):
        cfg = StudyConfig(design=PanelLagMiss(N=500, T=4, alpha0=0.2),
                          replications=5000, estimators=("two",), seed=19)
        block = run_study(cfg, threads=2).estimators["two"]
        assert block.reject_j == pytest.approx(0.9426, abs=0.02)

    @pytest.mark.slow
    def test_misspecification_gap_widens_with_alpha(self):
        gaps = []
        for alpha0 in (0.0, 0.1, 0.2, 0.3):
            cfg = StudyConfig(design=PanelLagMiss(N=500, T=4, alpha0=alpha0),
                              replications=2000, estimators=("two",), seed=17)
            block = run_study(cfg, threads=2).estimators["two"]
            gaps.append(abs(block.sd_theta - block.mean_se_conv))
        assert gaps == sorted(gaps)

    @pytest.mark.slow
    def test_nominal_size_sanity_large_n(self):
        cfg = StudyConfig(design=IvLocal(n=5000, alpha0=0.0), replications=20_000,
                          estimators=("two",), seed=23)
        block = run_study(cfg, threads=2).estimators["two"]
        assert 0.04 <= block.reject_conv <= 0.06


class TestChunkMemory:
    """A study chunk holds one copy of its moment arrays: replications are
    drawn into the stack one at a time, and bootstrapped rows are views."""

    def test_chunk_peak_is_within_1_6_stacks(self):
        design = PanelRandomCoef(N=200, T=8, alpha0=0.0)
        cfg = StudyConfig(design=design, replications=64, estimators=("one", "two", "iter"),
                          seed=22)
        montecarlo._chunk_records(cfg, 0, 2)
        one = draw_system(design, ReplicationStreams(cfg.seed, 0))
        stack = 64 * (one.h.nbytes + one.G_obs.nbytes + one.Z_obs.nbytes)
        tracemalloc.start()
        try:
            montecarlo._chunk_records(cfg, 0, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * stack, (peak, stack)

    def test_panel_lag_chunk_peak_is_within_1_8_stacks(self):
        """The omitted-lag design draws 50 burn-in periods per individual; its
        stacked draw forms them in blocks of replications, so the kernel's
        fit, not the draw, sets the chunk's peak (1.74 stacks, as when every
        replication was drawn alone)."""
        design = PanelLagMiss(N=500, T=4, alpha0=0.0)
        cfg = StudyConfig(design=design, replications=64, estimators=("two",), seed=22)
        montecarlo._chunk_records(cfg, 0, 2)
        one = draw_system(design, ReplicationStreams(cfg.seed, 0))
        stack = 64 * (one.h.nbytes + one.G_obs.nbytes + one.Z_obs.nbytes)
        tracemalloc.start()
        try:
            montecarlo._chunk_records(cfg, 0, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * stack, (peak, stack)

    def test_panel_rc_chunk_peak_is_pinned(self):
        """panel-rc N=200, T=8, 64 replications: 13.03 MB measured (numpy 2.4,
        one BLAS thread), 25.2 MB when the chunk held each unit's zero-padded
        6 x 21 block instead of its 7 values; the bound is 7.5% above."""
        cfg = StudyConfig(design=PanelRandomCoef(N=200, T=8, alpha0=0.0), replications=64,
                          estimators=("one", "two", "iter"), seed=22)
        montecarlo._chunk_records(cfg, 0, 2)
        tracemalloc.start()
        try:
            montecarlo._chunk_records(cfg, 0, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14_000_000, peak

    def test_bootstrapped_rows_are_stack_views_taken_when_needed(self, monkeypatch):
        rows, seen = [], []
        system, percentile_t = BatchGmm.system, montecarlo._percentile_t

        def spy_system(self, r):
            rows.append(r)
            view = system(self, r)
            assert np.shares_memory(view.h, self.h)
            assert np.shares_memory(view.factors.values, self.factors.values)
            seen.append(view)
            return view

        def spy_percentile_t(sysm, *args):
            assert sysm is seen[-1]
            return percentile_t(sysm, *args)

        draw = montecarlo.draw_system

        def draw_some_singular(design, streams, fixed_misspec=False):
            sysm = draw(design, streams, fixed_misspec)
            if streams.replication != 2:
                return sysm
            return LinearMomentSystem(h=np.zeros_like(sysm.h), G_obs=np.zeros_like(sysm.G_obs),
                                      Z_obs=np.zeros_like(sysm.Z_obs), H=sysm.H)

        monkeypatch.setattr(BatchGmm, "system", spy_system)
        monkeypatch.setattr(montecarlo, "_percentile_t", spy_percentile_t)
        monkeypatch.setattr(montecarlo, "draw_system", draw_some_singular)
        cfg = StudyConfig(design=IvLocal(n=40, alpha0=0.2), replications=5,
                          estimators=("one", "two"), seed=4, bootstrap_B=99)
        records = montecarlo._chunk_records(cfg, 0, 5)
        assert rows == [0, 1, 3, 4]
        assert np.isnan(records["one"]["boot"][2]) and np.isfinite(records["one"]["boot"][rows]).all()


def _per_system_stack(cfg, reps):
    """The stack of ``reps`` made one system at a time, the stacked draw's definition."""
    return BatchGmm.from_stack([draw_system(cfg.design, ReplicationStreams(cfg.seed, r))
                                for r in reps])


class TestStackedDraws:
    """A study chunk draws from its chunk-wide streams, a panel chunk as
    (R, ...) arrays, bit for bit the rows of its replications' one-system
    draws."""

    @pytest.mark.parametrize("design", [PanelRandomCoef(N=40, T=5, alpha0=0.5),
                                        PanelLagMiss(N=30, T=4, alpha0=0.3),
                                        IvLocal(n=40, alpha0=0.5)])
    @pytest.mark.parametrize("seed, lo, hi", [(3, 0, 64), (3, 64, 70), (2**70 + 3, 5, 12),
                                              (7, 2**32 - 3, 2**32 + 3)])
    @pytest.mark.parametrize("block", [montecarlo.DRAW_BLOCK, 1, 5000])
    def test_stack_equals_the_one_system_rows(self, monkeypatch, design, seed, lo, hi, block):
        """Replications from 2**32 on take their keys from ``SeedSequence``;
        a bound of 1 entry draws one replication per block, 5000 a few."""
        monkeypatch.setattr(montecarlo, "DRAW_BLOCK", block)
        cfg = StudyConfig(design=design, replications=1, seed=seed)
        got, want = montecarlo._draw_stack(cfg, range(lo, hi)), _per_system_stack(cfg, range(lo, hi))
        for name in ("h", "G", "Z_obs", "H"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.flags.c_contiguous and a.shape == b.shape, name
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name

    @pytest.mark.parametrize("design", [PanelRandomCoef(N=30, T=4, alpha0=0.2),
                                        PanelLagMiss(N=30, T=3, alpha0=0.2)])
    def test_chunk_straddling_replication_2_32_records_equal(self, monkeypatch, design):
        cfg = StudyConfig(design=design, replications=1, estimators=("one", "two", "iter"),
                          seed=2**70 + 3, bootstrap_B=99, bootstrap_estimators=("two",))
        lo, hi = 2**32 - 3, 2**32 + 3
        got = montecarlo._chunk_records(cfg, lo, hi)
        monkeypatch.setattr(montecarlo, "_draw_stack", _per_system_stack)
        want = montecarlo._chunk_records(cfg, lo, hi)
        for est in cfg.estimators:
            assert ok_rows(got[est]["reason"]).all()
            for name, value in want[est].items():
                np.testing.assert_array_equal(got[est][name], value, err_msg=f"{est}.{name}")

    def test_iv_stays_on_the_one_system_draws(self, monkeypatch):
        drawn = []
        draw = montecarlo.draw_system

        def spy(design, streams, fixed_misspec=False):
            drawn.append(streams.replication)
            return draw(design, streams, fixed_misspec)

        monkeypatch.setattr(montecarlo, "draw_system", spy)
        cfg = StudyConfig(design=IvLocal(n=40, alpha0=0.0), replications=1, seed=5)
        montecarlo._draw_stack(cfg, range(8, 12))
        assert drawn == [8, 9, 10, 11]

    @pytest.mark.parametrize("design", [
        PanelRandomCoef(N=15, T=8, alpha0=0.0),      # N <= q = 21
        PanelRandomCoef(N=40, T=2, alpha0=0.0),
        PanelLagMiss(N=5, T=4, alpha0=0.0),          # N <= q = 6
        PanelLagMiss(N=40, T=2, alpha0=0.0),
        PanelLagMiss(N=40, T=1, alpha0=0.0),
        PanelRandomCoef(N=40, T=4, alpha0=50.0),     # rho = 1: non-finite cells
    ])
    def test_study_errors_are_the_one_system_errors(self, design):
        with pytest.raises(ValueError) as one:
            with np.errstate(all="ignore"):
                draw_system(design, ReplicationStreams(9, 0))
        cfg = StudyConfig(design=design, replications=3, seed=9)
        with pytest.raises(ValueError) as study:
            with np.errstate(all="ignore"):
                run_study(cfg)
        assert str(study.value) == str(one.value)


def _boot_seed(cfg, r):
    return int(np.random.SeedSequence((cfg.seed, r, montecarlo._BOOT_SEED_BLOCK)).generate_state(1)[0])


class TestSharedBootstrap:
    def test_one_resample_stack_per_replication(self, monkeypatch):
        calls = {"stack": 0, "draw": 0}
        from_system, draws = BatchGmm.from_system.__func__, inference.bootstrap_draws

        def counting_from_system(cls, sysm, idx):
            calls["stack"] += 1
            return from_system(cls, sysm, idx)

        def counting_draws(seed, B, n):
            calls["draw"] += 1
            return draws(seed, B, n)

        monkeypatch.setattr(BatchGmm, "from_system", classmethod(counting_from_system))
        monkeypatch.setattr(inference, "bootstrap_draws", counting_draws)
        cfg = StudyConfig(design=IvLocal(n=40, alpha0=0.2), replications=5,
                          estimators=("one", "two"), seed=4, bootstrap_B=99)
        summary = run_study(cfg)
        assert all(b.failures == b.bootstrap_failures == 0 for b in summary.estimators.values())
        assert calls == {"stack": 5, "draw": 5}

    @pytest.mark.parametrize("estimators", [
        ("one", "two"), pytest.param(("iter",), marks=pytest.mark.slow)])
    def test_records_equal_mr_bootstrap_across_chunks(self, estimators):
        design = IvLocal(n=60, alpha0=0.3)
        cfg = StudyConfig(design=design, replications=70, estimators=estimators,
                          seed=12, bootstrap_B=99)
        chunks = [montecarlo._chunk_records(cfg, 0, 64), montecarlo._chunk_records(cfg, 64, 70)]
        for est in cfg.estimators:
            rec = {f: np.concatenate([c[est][f] for c in chunks])
                   for f in ("reason", "boot", "boot_failures")}
            assert ok_rows(rec["reason"]).all()
            for r in range(cfg.replications):
                sysm = draw_system(design, ReplicationStreams(cfg.seed, r))
                try:
                    res = mr_bootstrap(sysm, cfg.plan(est), 0, 99, _boot_seed(cfg, r),
                                       design.true_value)
                except gmmdc.GmmError:
                    assert np.isnan(rec["boot"][r])
                    continue
                assert rec["boot"][r] == float(res.reject_5pct)
                assert rec["boot_failures"][r] == res.failures

    def test_resample_failures_inside_bootstraps_are_summed(self, monkeypatch):
        # Only unit 0 carries a Jacobian, so every resample without it has a
        # singular normal matrix and is skipped.
        draw = montecarlo.draw_system

        def sparse_jacobian(design, streams, fixed_misspec=False):
            sysm = draw(design, streams, fixed_misspec)
            G = np.zeros_like(sysm.G_obs)
            G[0] = sysm.G_obs[0]
            return LinearMomentSystem(h=sysm.h, G_obs=G, Z_obs=sysm.Z_obs, H=sysm.H)

        monkeypatch.setattr(montecarlo, "draw_system", sparse_jacobian)
        design = IvLocal(n=30, alpha0=0.0)
        cfg = StudyConfig(design=design, replications=3, estimators=("one", "two"),
                          seed=8, bootstrap_B=99)
        summary = run_study(cfg)
        for est, block in summary.estimators.items():
            expected = 0
            for r in range(cfg.replications):
                sysm = sparse_jacobian(design, ReplicationStreams(cfg.seed, r))
                res = mr_bootstrap(sysm, cfg.plan(est), 0, 99, _boot_seed(cfg, r),
                                   design.true_value)
                assert res.failure_reasons["singular-normal-matrix"] == res.failures
                expected += res.failures
            assert block.bootstrap_failures == 0
            assert block.bootstrap_resample_failures == expected > 0
