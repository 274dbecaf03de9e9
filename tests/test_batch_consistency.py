"""The estimation kernel: stacking, reason codes and storage forms.

``fit``, ``variance_report`` and ``j_test`` are R = 1 views of
:class:`~gmmdc._batch.BatchGmm`, so these tests check that a system's row in a
stack of distinct systems equals its own one-system run, that failures carry
their reason, and that invariances the estimators must have hold. Agreement
with the closed-form oracle in ``reference_formulas.py`` is tested in
``test_variance.py`` and by acceptance criterion 6.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

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
from gmmdc._batch import BatchGmm, Reason
from gmmdc.linmoment import WeightFactors


def _systems():
    y, X, Z = dgp_iv(60, 0.5, ReplicationStreams(55, 0))
    yield "iv", build_iv_system(y, X, Z)
    panel = dgp_panel_rc(50, 4, 0.1, ReplicationStreams(55, 1))
    yield "panel", build_ab_system(panel, mode="ar1")


def _stacks():
    """Several distinct same-shaped systems per design."""
    iv = [build_iv_system(*dgp_iv(60, 0.5, ReplicationStreams(55, r))) for r in range(4)]
    panel = [build_ab_system(dgp_panel_rc(50, 4, 0.1, ReplicationStreams(55, 10 + r)),
                             mode="ar1") for r in range(4)]
    return {"iv": iv, "panel": panel}


def _close(a, b, rtol):
    return np.allclose(a, b, rtol=rtol, atol=rtol * np.abs(b).max())


@pytest.mark.parametrize("kind", ["one-step", "two-step", "iterated"])
@pytest.mark.parametrize("weight", ["data-average", "identity"])
@pytest.mark.parametrize("centered", [False, True])
def test_batch_matches_scalar_path(kind, weight, centered):
    """Each system's row in a stack of distinct systems equals the
    single-system views fit, variance_report and j_test."""
    w0 = WeightSpec.identity() if weight == "identity" else WeightSpec.data_average()
    plan = FitPlan(kind, w0, centered)
    for label, systems in _stacks().items():
        res = BatchGmm.from_stack(systems).run(plan, compute_j=True)
        assert res.ok.all(), f"{label} flagged as failed"
        for r, sysm in enumerate(systems):
            f = fit(sysm, plan)
            rep = variance_report(sysm, f)
            assert _close(res.theta[r], f.theta, 1e-12)
            for name in ("V_conv", "V_dc", "D_hat", "Sigma_n", "se_conv", "se_dc"):
                assert _close(getattr(res, name)[r], getattr(rep, name), 1e-12), (label, name)
            if kind == "one-step":
                assert res.se_w is None and rep.se_w is None
            else:
                assert _close(res.V_w[r], rep.V_w, 1e-12)
            assert (res.C_hat is None) == (rep.C_hat is None) == (kind != "two-step")
            assert res.iterations[r] == f.iterations == len(f.steps)
            assert res.j_stat[r] == pytest.approx(j_test(sysm, f).statistic, rel=1e-12)


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
    assert res.status.reason[0] == Reason.OK
    assert res.status.reason[1] == Reason.PRELIMINARY_WEIGHT_NOT_PD
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


def test_from_stack_rejects_different_weight_cores():
    y, X, Z = dgp_iv(40, 0.0, ReplicationStreams(57, 1))
    iv = build_iv_system(y, X, Z)
    rescaled = LinearMomentSystem(h=iv.h, G_obs=iv.G_obs, Z_obs=iv.Z_obs, H=[[2.0]])
    with pytest.raises(ValueError, match="same core H"):
        BatchGmm.from_stack([iv, rescaled])


def test_nonconvergence_is_a_nonfatal_reason():
    y, X, Z = dgp_iv(60, 0.8, ReplicationStreams(2, 2))
    res = BatchGmm.from_stack([build_iv_system(y, X, Z)]).run(
        FitPlan.iterated(max_iter=1, tol=1e-16))
    assert res.ok[0] and not res.converged[0]
    assert res.status.reason[0] == Reason.NOT_CONVERGED
    assert res.iterations[0] == 2


def test_data_average_weight_is_formed_once_per_stack(monkeypatch):
    """A study runs several plans on one stack; they share its data-average weight."""
    calls = []
    mean = WeightFactors.mean
    monkeypatch.setattr(WeightFactors, "mean", lambda self: calls.append(1) or mean(self))
    batch = BatchGmm.from_stack(_stacks()["panel"])
    for kind in ("one-step", "two-step", "iterated"):
        assert batch.run(FitPlan(kind), compute_j=True).ok.all()
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# properties over random systems

KINDS = ("one-step", "two-step", "iterated")
WEIGHTS = ("identity", "data-average", "efficient", "efficient-centered")


@st.composite
def _random_stack(draw, just_identified=False):
    """Three distinct random systems sharing (n, q, k), with factored
    data-average contributions Z_i' Z_i."""
    q = draw(st.integers(1, 5))
    k = q if just_identified else draw(st.integers(1, q))
    n = draw(st.integers(q + 8, 40))
    e = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G_mean = rng.standard_normal((q, k))
    return [LinearMomentSystem(h=rng.standard_normal((n, q)),
                               G_obs=G_mean + rng.standard_normal((n, q, k)),
                               Z_obs=rng.standard_normal((n, e, q)), H=np.eye(e))
            for _ in range(3)]


def _plan(kind, weight, centered, k):
    w0 = {"identity": WeightSpec.identity(),
          "data-average": WeightSpec.data_average(),
          "efficient": WeightSpec.efficient_uncentered(np.zeros(k)),
          "efficient-centered": WeightSpec.efficient_centered(np.full(k, 0.5))}[weight]
    return FitPlan(kind, w0, centered)


_PROPERTY = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _row(res, r):
    out = [res.theta[r], res.se_conv[r], res.se_dc[r]]
    return out + ([] if res.se_w is None else [res.se_w[r]])


@_PROPERTY
@given(_random_stack(), st.sampled_from(KINDS), st.sampled_from(WEIGHTS), st.booleans())
def test_property_stacking_invariance(systems, kind, weight, centered):
    plan = _plan(kind, weight, centered, systems[0].k)
    stacked = BatchGmm.from_stack(systems).run(plan, compute_j=systems[0].q > systems[0].k)
    for r, sysm in enumerate(systems):
        alone = BatchGmm.from_stack([sysm]).run(plan, compute_j=sysm.q > sysm.k)
        assert stacked.status.reason[r] == alone.status.reason[0]
        if alone.ok[0]:
            for a, b in zip(_row(stacked, r), _row(alone, 0)):
                assert _close(a, b, 1e-12)
            if alone.j_stat is not None:
                assert _close(stacked.j_stat[r], alone.j_stat[0], 1e-12)


@_PROPERTY
@given(_random_stack(), st.sampled_from(KINDS), st.sampled_from(WEIGHTS), st.booleans(),
       st.randoms(use_true_random=False))
def test_property_row_permutation_invariance(systems, kind, weight, centered, shuffle):
    sysm = systems[0]
    plan = _plan(kind, weight, centered, sysm.k)
    perm = list(range(sysm.n))
    shuffle.shuffle(perm)
    permuted = LinearMomentSystem(h=sysm.h[perm], G_obs=sysm.G_obs[perm],
                                  Z_obs=sysm.Z_obs[perm], H=sysm.H)
    res = BatchGmm.from_stack([sysm, permuted]).run(plan)
    assume(res.ok.all() and res.converged.all())
    for a, b in zip(_row(res, 0), _row(res, 1)):
        assert _close(a, b, 1e-6 if kind == "iterated" else 1e-8)


@_PROPERTY
@given(_random_stack(just_identified=True), st.sampled_from(KINDS),
       st.sampled_from(WEIGHTS), st.booleans())
def test_property_just_identified_collapse(systems, kind, weight, centered):
    res = BatchGmm.from_stack(systems).run(_plan(kind, weight, centered, systems[0].k))
    assume(res.ok.all())
    for r in range(len(systems)):
        scale = np.abs(res.V_conv[r]).max()
        assert np.abs(res.D_hat[r]).max() < 1e-8 * (1 + np.abs(res.theta[r]).max())
        assert np.allclose(res.V_dc[r], res.V_conv[r], rtol=1e-7, atol=1e-7 * scale)
        if res.V_w is not None:
            assert np.allclose(res.V_w[r], res.V_conv[r], rtol=1e-7, atol=1e-7 * scale)


@st.composite
def _iv_data_and_rotation(draw):
    """IV data with heteroskedastic errors and a nonsingular q x q matrix A
    with singular values in [0.5, 2]."""
    q = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(q, 2)))
    n = draw(st.integers(q + 10, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = rng.standard_normal((n, q))
    X = Z @ rng.standard_normal((q, k)) + rng.standard_normal((n, k))
    y = X @ rng.standard_normal(k) + (0.5 + np.abs(Z[:, 0])) * rng.standard_normal(n)
    Q1, _ = np.linalg.qr(rng.standard_normal((q, q)))
    Q2, _ = np.linalg.qr(rng.standard_normal((q, q)))
    return y, X, Z, (Q1 * rng.uniform(0.5, 2.0, q)) @ Q2


@_PROPERTY
@given(_iv_data_and_rotation(), st.sampled_from(KINDS), st.sampled_from(WEIGHTS[1:]),
       st.booleans())
def test_property_instrument_rescaling_invariance(data, kind, weight, centered):
    """Instruments Z A turn g_i into A' g_i and every weight W into A' W A,
    which leaves the estimate and all three t statistics unchanged. The
    identity weight does not transform that way and is left out."""
    y, X, Z, A = data
    plan = _plan(kind, weight, centered, X.shape[1])
    res = BatchGmm.from_stack([build_iv_system(y, X, Z), build_iv_system(y, X, Z @ A)]).run(plan)
    assume(res.ok.all() and res.converged.all())
    assert _close(res.theta[1], res.theta[0], 1e-8)
    for se in (res.se_conv, res.se_dc, res.se_w):
        if se is not None:
            assert _close(res.theta[1] / se[1], res.theta[0] / se[0], 1e-8)
