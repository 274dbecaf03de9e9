"""The vectorized replication kernel must agree with the single-system path.

Every estimator kind, preliminary weight, and centering option is compared
against fit/variance_report/j_test on both IV and panel systems; the scalar
implementations are the reference.
"""

import numpy as np
import pytest

from gmmdc import (
    FitPlan,
    LinearMomentSystem,
    ReplicationStreams,
    WeightSpec,
    build_ab_system,
    build_iv_system,
    dgp_iv,
    dgp_panel_lag,
    dgp_panel_rc,
    fit,
    j_test,
    mr_bootstrap,
    variance_report,
)
from gmmdc._batch import BatchGmm


def _systems():
    y, X, Z = dgp_iv(60, 0.5, ReplicationStreams(55, 0))
    yield "iv", build_iv_system(y, X, Z)
    panel = dgp_panel_rc(50, 4, 0.1, ReplicationStreams(55, 1))
    yield "panel", build_ab_system(panel, mode="ar1")


@pytest.mark.parametrize("kind", ["one-step", "two-step", "iterated"])
@pytest.mark.parametrize("weight", ["data-average", "identity"])
@pytest.mark.parametrize("centered", [False, True])
def test_batch_matches_scalar_path(kind, weight, centered):
    w0 = WeightSpec.identity() if weight == "identity" else WeightSpec.data_average()
    plan = FitPlan(kind, w0, centered)
    for label, sysm in _systems():
        batch = BatchGmm.from_stack([sysm])
        res = batch.run(plan, compute_j=True)
        assert res.ok[0], f"{label} flagged as failed"
        f = fit(sysm, plan)
        rep = variance_report(sysm, f)
        assert np.allclose(res.theta[0], f.theta, rtol=1e-11)
        assert np.allclose(res.se_conv[0], rep.se_conv, rtol=1e-9)
        assert np.allclose(res.se_dc[0], rep.se_dc, rtol=1e-9)
        if kind == "one-step":
            assert res.se_w is None
        else:
            assert np.allclose(res.se_w[0], rep.se_w, rtol=1e-9)
        jt = j_test(sysm, f)
        assert res.j_stat[0] == pytest.approx(jt.statistic, rel=1e-9)


def test_batch_stacks_many_distinct_systems():
    systems, fits = [], []
    plan = FitPlan.two_step()
    for r in range(8):
        y, X, Z = dgp_iv(45, 0.3, ReplicationStreams(56, r))
        sysm = build_iv_system(y, X, Z)
        systems.append(sysm)
        fits.append(fit(sysm, plan))
    res = BatchGmm.from_stack(systems).run(plan)
    for r in range(8):
        assert np.allclose(res.theta[r], fits[r].theta, rtol=1e-11)


def test_batch_flags_singular_replications():
    y, X, Z = dgp_iv(40, 0.0, ReplicationStreams(57, 0))
    sysm = build_iv_system(y, X, Z)
    singular = LinearMomentSystem(h=np.zeros_like(sysm.h), G_obs=np.zeros_like(sysm.G_obs),
                                  Z_obs=np.zeros_like(sysm.Z_obs), H=sysm.H)
    batch = BatchGmm.from_stack([sysm, singular])
    res = batch.run(FitPlan.two_step())
    assert res.ok[0] and not res.ok[1]
    assert np.isfinite(res.se_dc[0]).all()


def test_builder_systems_never_materialize_full_contributions(monkeypatch):
    """Builder-made systems reach every fit, variance and bootstrap path through
    their factors only: no (R, n, q, q) array is stacked, gathered or built."""
    y, X, Z = dgp_iv(60, 0.5, ReplicationStreams(58, 0))
    systems = [build_iv_system(y, X, Z),
               build_ab_system(dgp_panel_lag(40, 5, 0.2, ReplicationStreams(58, 1))),
               build_ab_system(dgp_panel_rc(40, 5, 0.2, ReplicationStreams(58, 2)), mode="ar1")]

    def refuse(self):
        raise AssertionError("full weight contributions materialized")

    monkeypatch.setattr(LinearMomentSystem, "W_obs", property(refuse))
    plans = [FitPlan(kind, centered=centered) for kind in ("one-step", "two-step", "iterated")
             for centered in (False, True)]
    for sysm in systems:
        idx = np.random.default_rng(0).integers(0, sysm.n, size=(3, sysm.n))
        for batch in (BatchGmm.from_stack([sysm, sysm]), BatchGmm.from_system(sysm, idx)):
            assert batch.W_obs is None
            shapes = [a.shape for a in vars(batch).values() if isinstance(a, np.ndarray)]
            assert (batch.R, batch.n, batch.q, batch.q) not in shapes
            for plan in plans:
                assert batch.run(plan, compute_j=True).ok.all()
        for plan in plans:
            variance_report(sysm, fit(sysm, plan))
        mr_bootstrap(sysm, FitPlan.two_step(), 0, 99, seed=1)


@pytest.mark.parametrize("kind", ["one-step", "two-step", "iterated"])
def test_supplied_tensor_matches_factors(kind):
    """A system given its contributions in full runs the same numbers as the
    builder's factored system, batched and scalar."""
    plan = FitPlan(kind)
    for label, sysm in _systems():
        full = LinearMomentSystem(h=sysm.h, G_obs=sysm.G_obs, W_obs=sysm.W_obs)
        a = BatchGmm.from_stack([sysm]).run(plan)
        b = BatchGmm.from_stack([full]).run(plan)
        assert b.ok[0], label
        assert np.allclose(a.theta, b.theta, rtol=1e-12)
        assert np.allclose(a.se_dc, b.se_dc, rtol=1e-10)
        rep = variance_report(full, fit(full, plan))
        assert np.allclose(b.se_dc[0], rep.se_dc, rtol=1e-9)
