"""The estimation kernel: stacking, reason codes and storage forms.

``fit``, ``variance_report`` and ``j_test`` are R = 1 views of
:class:`~gmmdc._batch.BatchGmm`, so these tests check that a system's row in a
stack of distinct systems equals its own one-system run, that failures carry
their reason, and that invariances the estimators must have hold. Agreement
with the closed-form oracle in ``reference_formulas.py`` is tested in
``test_variance.py`` and by acceptance criterion 6.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from gmmdc import (
    FitPlan,
    GmmError,
    IvLocal,
    LinearMomentSystem,
    ReplicationStreams,
    SingularWeightError,
    WeightSpec,
    build_ab_system,
    build_iv_system,
    dgp_iv,
    dgp_panel_lag,
    dgp_panel_rc,
    fit,
    j_test,
    m_contributions,
    mr_bootstrap,
    solve_weighted,
    variance_report,
)
from gmmdc import _batch
from gmmdc._batch import FATAL_REASONS, BatchGmm, Reason, fatal_counts
from gmmdc.inference import bootstrap_rng
from gmmdc.linmoment import WeightFactors
from gmmdc.montecarlo import _BOOT_SEED_BLOCK, draw_system
from reference_formulas import iv_closed_forms


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
    assert fatal_counts(res.status.reason) == {
        "preliminary-weight-not-pd": 1, "efficient-weight-not-pd": 0,
        "singular-normal-matrix": 0, "ill-conditioned-correction": 0}


@pytest.mark.parametrize("kind", ["one-step", "two-step", "iterated"])
@pytest.mark.parametrize("scaled", ["h", "Z_obs"])
def test_overflowing_system_is_a_fatal_row(kind, scaled):
    """A system whose weight or moments overflow to inf gets a fatal reason
    with condition number inf; its clean neighbour is untouched, and the
    R = 1 views raise a GmmError."""
    y, X, Z = dgp_iv(60, 0.5, ReplicationStreams(55, 0))
    clean = build_iv_system(y, X, Z)
    parts = {"h": clean.h, "G_obs": clean.G_obs, "Z_obs": clean.Z_obs, "H": clean.H}
    parts[scaled] = parts[scaled] * 1e160
    bad = LinearMomentSystem(**parts)
    plan = FitPlan(kind)
    with np.errstate(over="ignore", invalid="ignore"):
        res = BatchGmm.from_stack([clean, bad]).run(plan, compute_j=True)
        alone = BatchGmm.from_stack([clean]).run(plan, compute_j=True)
        with pytest.raises(GmmError, match="condition number inf"):
            variance_report(bad, fit(bad, plan))
    assert res.ok[0] and res.status.reason[0] == alone.status.reason[0]
    for name in ("theta", "se_conv", "se_dc", "se_w", "j_stat", "iterations"):
        if getattr(alone, name) is not None:
            assert np.array_equal(getattr(res, name)[0], getattr(alone, name)[0]), name
    expected = (Reason.EFFICIENT_WEIGHT_NOT_PD if scaled == "h"
                else Reason.PRELIMINARY_WEIGHT_NOT_PD)
    assert res.status.reason[1] == expected and res.status.cond[1] == np.inf


def test_weight_that_lu_finds_singular_fails_in_the_views():
    """A weight with collinear columns whose eigenvalues still come out
    positive, but in which LU meets an exact zero pivot, fails as a weight
    (condition number inf) instead of raising numpy's LinAlgError."""
    rng = np.random.default_rng(1)
    for _ in range(200):
        Z = rng.standard_normal((30, 4))
        Z[:, -1] = Z[:, 0]
        weight = Z.T @ Z / 30
        if np.linalg.eigvalsh(weight)[0] > 0:
            try:
                np.linalg.solve(weight, np.ones(4))
            except np.linalg.LinAlgError:
                break
    else:
        pytest.skip("this LAPACK met no exact zero pivot in 200 draws")
    sysm = LinearMomentSystem(h=rng.standard_normal((30, 4)),
                              G_obs=rng.standard_normal((30, 4, 1)))
    with pytest.raises(SingularWeightError, match="condition number inf"):
        m_contributions(sysm, np.zeros(1), weight, None)
    with pytest.raises(SingularWeightError, match="condition number inf"):
        solve_weighted(sysm, weight)


def test_iterated_updates_run_on_live_rows_only(monkeypatch):
    """Bootstrap stacks where a few resamples never converge: once the others
    have frozen, every update forms Omega for the stuck rows only, from a
    live stack that holds no per-observation array, and each row's estimate,
    iteration count and chain equal its own R = 1 fit."""
    sizes, live_shapes = [], set()
    omega = _batch._Live.omega

    def counting_omega(live, theta):
        sizes.append(len(live.S))
        live_shapes.update(a.shape for a in live)
        return omega(live, theta)

    monkeypatch.setattr(_batch._Live, "omega", counting_omega)
    plan = FitPlan.iterated()
    for r in (0, 2):
        sysm = draw_system(IvLocal(n=30, alpha0=0.0), ReplicationStreams(12, r))
        seed = int(np.random.SeedSequence((12, r, _BOOT_SEED_BLOCK)).generate_state(1)[0])
        idx = np.array([bootstrap_rng(seed, b).integers(0, sysm.n, size=sysm.n)
                        for b in range(99)])
        sizes.clear()
        state = BatchGmm.from_system(sysm, idx).fit(plan)
        updates, stuck = list(sizes), int((~state.converged).sum())
        assert 0 < stuck < 3 and state.status.ok.all()
        assert not any(len(shape) > 1 and shape[1] == sysm.n for shape in live_shapes)
        assert len(updates) == plan.max_iter and updates == sorted(updates, reverse=True)
        assert sum(size > stuck for size in updates) == state.iterations[state.converged].max() - 1
        assert updates[-1] == stuck
        for b in range(len(idx)):
            one = BatchGmm.from_system(sysm, idx[b:b + 1]).fit(plan)
            assert np.array_equal(state.theta[b], one.theta[0])
            assert state.iterations[b] == one.iterations[0]
            assert state.converged[b] == one.converged[0]
            chain = [t[b] for t in state.iterates[:state.iterations[b]]]
            assert np.array_equal(chain, [t[0] for t in one.iterates[:one.iterations[0]]])


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


class _SpySequence:
    """A sequence of systems that records every item read."""

    def __init__(self, systems):
        self.systems, self.reads = systems, []

    def __len__(self):
        return len(self.systems)

    def __getitem__(self, i):
        self.reads.append(i)
        return self.systems[i]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestStackFromSequence:
    """``from_stack`` reads its sequence once, in order, into arrays sized
    from the first system: a lazy sequence never holds a list of systems."""

    @pytest.mark.parametrize("label", ["iv", "panel"])
    def test_reads_each_item_once_in_order(self, label):
        systems = _stacks()[label]
        spy = _SpySequence(systems)
        batch = BatchGmm.from_stack(spy)
        assert spy.reads == list(range(len(systems)))
        for got, attr in ((batch.h, "h"), (batch.G, "G_obs"), (batch.Z_obs, "Z_obs")):
            assert np.array_equal(_bits(got), _bits(np.stack([getattr(s, attr) for s in systems])))
        assert batch.H is systems[0].H
        listed = BatchGmm.from_stack(list(systems))
        for a, b in ((batch.h, listed.h), (batch.G, listed.G), (batch.Z_obs, listed.Z_obs)):
            assert np.array_equal(_bits(a), _bits(b))

    def test_a_later_row_with_another_core_raises(self):
        iv = _stacks()["iv"]
        rescaled = LinearMomentSystem(h=iv[2].h, G_obs=iv[2].G_obs, Z_obs=iv[2].Z_obs, H=[[2.0]])
        bare = LinearMomentSystem(h=iv[2].h, G_obs=iv[2].G_obs)
        for rows in ([iv[0], iv[1], rescaled], [iv[0], iv[1], bare], [bare, iv[0]]):
            with pytest.raises(ValueError, match="same core H"):
                BatchGmm.from_stack(rows)
        plain = BatchGmm.from_stack([bare, bare])
        assert plain.Z_obs is None and plain.H is None

    def test_a_later_row_of_another_shape_raises(self):
        y, X, Z = dgp_iv(40, 0.0, ReplicationStreams(57, 2))
        two = build_iv_system(y, np.column_stack([X, Z[:, 0]]), Z)
        one = build_iv_system(y, X, Z)
        with pytest.raises(ValueError, match="share their shapes"):
            BatchGmm.from_stack([two, one])

    def test_an_empty_sequence_raises_value_error(self):
        with pytest.raises(ValueError, match="empty"):
            BatchGmm.from_stack([])

    def test_system_rows_are_views_of_the_stack(self):
        systems = _stacks()["panel"]
        batch = BatchGmm.from_stack(systems)
        for r, sysm in enumerate(systems):
            row = batch.system(r)
            for got, want, stacked in ((row.h, sysm.h, batch.h), (row.G_obs, sysm.G_obs, batch.G),
                                       (row.factors.values, sysm.factors.values,
                                        batch.factors.values)):
                assert np.array_equal(_bits(got), _bits(want))
                assert np.shares_memory(got, stacked[r])
            assert np.array_equal(_bits(row.Z_obs), _bits(sysm.Z_obs))
            assert row.H is batch.H and row.factors.idx is batch.factors.idx


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


def test_plans_on_a_stack_share_one_preliminary_solve(monkeypatch):
    """A study's one-, two-step and iterated plans solve with the preliminary
    weight once per stack; the efficient solves stay one per plan."""
    codes = []
    solve = BatchGmm.solve

    def counting_solve(self, weight, status, code=Reason.PRELIMINARY_WEIGHT_NOT_PD):
        codes.append(code)
        return solve(self, weight, status, code)

    monkeypatch.setattr(BatchGmm, "solve", counting_solve)
    batch = BatchGmm.from_stack(_stacks()["iv"])
    for kind in ("one-step", "two-step", "iterated"):
        assert batch.run(FitPlan(kind), compute_j=True).ok.all()
    assert codes.count(Reason.PRELIMINARY_WEIGHT_NOT_PD) == 1
    assert codes.count(Reason.EFFICIENT_WEIGHT_NOT_PD) == 2


def _step_systems():
    """IV with k = 1 and k = 2, and a difference-GMM panel."""
    y, X, Z = dgp_iv(60, 0.5, ReplicationStreams(55, 0))
    return {**dict(_systems()), "iv-k2": build_iv_system(y, np.column_stack([X, Z[:, 0]]), Z)}


@pytest.mark.parametrize("max_iter", [1000, 2])
@pytest.mark.parametrize("centered", [False, True])
@pytest.mark.parametrize("kind", ["one-step", "two-step", "iterated"])
def test_steps_hold_the_weights_the_kernel_solved_with(kind, centered, max_iter, monkeypatch):
    """``GmmFit.steps[t].weight`` is, bit for bit, the weight of the kernel's
    t-th solve: ``w0``, the two-step's Omega_n, and each iterated update's
    Omega_n from the second moments, whether the fit converged or stopped
    at ``max_iter``. An iterated fit then solves once more, with Omega_n at
    its estimate, for the variance stage."""
    weights = []
    solve = _batch._solve

    def recording_solve(h_n, G_n, weight, status, code):
        weights.append(np.array(weight[0]))
        return solve(h_n, G_n, weight, status, code)

    monkeypatch.setattr(_batch, "_solve", recording_solve)
    for label, sysm in _step_systems().items():
        weights.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            f = fit(sysm, FitPlan(kind, centered=centered, max_iter=max_iter))
        assert f.converged == (kind != "iterated" or max_iter == 1000), label
        assert len(f.steps) == f.iterations == len(weights) - (kind == "iterated"), label
        for t, (step, weight) in enumerate(zip(f.steps, weights)):
            assert np.array_equal(step.weight, weight), (label, t)
        assert f.final_weight is f.steps[-1].weight


@pytest.mark.parametrize("kind, passes", [("one-step", 1), ("two-step", 2), ("iterated", 2)])
def test_one_pass_over_the_data_per_value(kind, passes, monkeypatch):
    """A fit forms g_i at the one-step estimate and, unless one-step, at its
    estimate, once: ``variance_report``, ``j_test`` and ``GmmFit.steps``
    read them. A stacked ``run`` makes one pass per plan."""
    calls = []
    g_obs = BatchGmm.g_obs

    def counting_g_obs(self, theta):
        calls.append(self.R)
        return g_obs(self, theta)

    monkeypatch.setattr(BatchGmm, "g_obs", counting_g_obs)
    sysm = dict(_systems())["panel"]
    f = fit(sysm, FitPlan(kind))
    variance_report(sysm, f)
    j_test(sysm, f)
    assert calls == [1] * passes
    calls.clear()
    batch = BatchGmm.from_stack(_stacks()["panel"])
    for plans, kind in enumerate(("one-step", "two-step", "iterated"), 1):
        assert batch.run(FitPlan(kind), compute_j=True).ok.all()
        assert calls == [4] * plans


@pytest.mark.parametrize("kind", ["one-step", "two-step", "iterated"])
def test_fit_state_holds_the_cached_first_stage(kind):
    """A fit and a resumed fit point at the stack's one first stage."""
    batch = BatchGmm.from_stack(_stacks()["iv"])
    plan = FitPlan(kind)
    state = batch.fit(plan)
    stage = batch._first_stage(plan.w0)
    assert state.stage is stage
    assert batch.resume(plan, state.theta).stage is stage


def test_iterated_fit_is_anchored_on_a_near_perfect_fit():
    """y = 3 x + 10 plus heteroskedastic noise of scale 1e-8: Omega_n is about
    1e-16 while h_i is about 10, so second moments of [h_i, G_i] would cancel
    to noise. Those of [g_i(theta1), G_i] do not: the iterated fit passes and
    its estimate and iteration count are the oracle's. The tolerance 1e-12
    takes it three updates from the anchor."""
    rng = np.random.default_rng(12)
    n = 200
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
    x = Z[:, 1:] @ np.array([0.8, -0.5, 0.4]) + rng.standard_normal(n)
    X = np.column_stack([x, np.ones(n)])
    y = 3.0 * x + 10.0 + 1e-8 * (0.5 + np.abs(Z[:, 1])) * rng.standard_normal(n)
    plan = FitPlan.iterated(tol=1e-12)
    batch = BatchGmm.from_stack([build_iv_system(y, X, Z)])
    state = batch.fit(plan)
    assert batch.variance(state, compute_j=True).ok.all() and state.converged[0]
    ref = iv_closed_forms(y, X, Z, "iterated", tol=plan.tol)
    assert state.iterations[0] == 4
    assert np.allclose(state.theta[0], ref["theta"], rtol=1e-10, atol=0)
    chain = [iv_closed_forms(y, X, Z, "iterated", tol=plan.tol, max_iter=j)["theta"]
             for j in range(1, state.iterations[0])]
    assert np.allclose(chain[-1], ref["theta"], rtol=1e-10, atol=0)
    for j, (prev, theta) in enumerate(zip([ref["theta1"]] + chain[:-1], chain), 1):
        step = np.linalg.norm(theta - prev) < plan.tol * (1 + np.linalg.norm(prev))
        assert step == (j == len(chain))    # the oracle stops where the kernel does
        assert np.allclose(state.iterates[j][0], theta, rtol=1e-10, atol=0)


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


HOSTILE = ("clean", "zero", "rank-deficient", "near-singular", "indefinite", "overflow")


@st.composite
def _hostile_stack(draw):
    """Two to five systems sharing (n, q, k) and the indefinite core
    H = diag(1, -1): clean ones, whose second factor is zero, mixed with zero,
    rank-deficient, near-singular, indefinite-weight and overflowing ones."""
    q = draw(st.integers(2, 5))
    k = draw(st.integers(1, q))
    n = draw(st.integers(q + 8, 40))
    kinds = draw(st.lists(st.sampled_from(HOSTILE), min_size=2, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G_mean = rng.standard_normal((q, k))
    systems = []
    for kind in kinds:
        h = rng.standard_normal((n, q))
        G = G_mean + rng.standard_normal((n, q, k))
        Z = np.stack([rng.standard_normal((n, q)), np.zeros((n, q))], axis=1)
        if kind == "zero":
            h, G, Z = 0 * h, 0 * G, 0 * Z
        elif kind == "rank-deficient":          # collinear columns of G and of Z
            G[..., -1] = G[..., 0] if k > 1 else 0.0
            Z[:, 0, -1] = Z[:, 0, 0]
        elif kind == "near-singular":
            G[..., -1] = G[..., 0] + 1e-9 * rng.standard_normal((n, q))
        elif kind == "indefinite":
            Z[:, 1] = 2.0 * rng.standard_normal((n, q))
        elif kind == "overflow":
            scaled = draw(st.sampled_from(("h", "G", "Z")))
            h, G, Z = [a * 1e160 if name == scaled else a
                       for name, a in (("h", h), ("G", G), ("Z", Z))]
        systems.append(LinearMomentSystem(h=h, G_obs=G, Z_obs=Z, H=np.diag([1.0, -1.0])))
    return systems


@_PROPERTY
@given(_hostile_stack(), st.sampled_from(KINDS), st.sampled_from(WEIGHTS), st.booleans())
def test_property_hostile_stacks(systems, kind, weight, centered):
    """A stack of hostile systems raises nothing, every fatal row records the
    condition number that failed, and each row's reason and (if it passes)
    numbers are those of the system run alone."""
    plan = _plan(kind, weight, centered, systems[0].k)
    compute_j = systems[0].q > systems[0].k
    with np.errstate(all="ignore"):
        try:
            stacked = BatchGmm.from_stack(systems).run(plan, compute_j=compute_j)
        except np.linalg.LinAlgError:    # a ValueError, but a numerical breakdown
            raise
        except (GmmError, ValueError):
            return
        fatal = np.isin(stacked.status.reason, FATAL_REASONS)
        assert (fatal == ~stacked.ok).all()
        counts = fatal_counts(stacked.status.reason)
        assert list(counts) == [r.label for r in FATAL_REASONS]
        assert sum(counts.values()) == fatal.sum()
        assert not np.isnan(stacked.status.cond[fatal]).any()
        for r, sysm in enumerate(systems):
            alone = BatchGmm.from_stack([sysm]).run(plan, compute_j=compute_j)
            assert stacked.status.reason[r] == alone.status.reason[0]
            if alone.ok[0]:
                for a, b in zip(_row(stacked, r), _row(alone, 0)):
                    assert _close(a, b, 1e-12)
                if compute_j:
                    assert _close(stacked.j_stat[r], alone.j_stat[0], 1e-12)


@_PROPERTY
@given(_random_stack(), st.booleans(), st.integers(0, 2**32 - 1))
def test_property_anchored_omega_matches_direct_pass(systems, centered, seed):
    """Omega_n(theta) from the second moments anchored at theta1 equals the
    direct pass over g_i(theta), for any theta1 and theta."""
    batch = BatchGmm.from_stack(systems)
    rng = np.random.default_rng(seed)
    theta1, theta = rng.standard_normal((2, batch.R, batch.k))
    live = batch._live(theta1, batch.g_obs(theta1), centered)
    got, want = live.omega(theta), _batch._omega(batch.g_obs(theta), centered)
    for r in range(batch.R):
        assert _close(got[r], want[r], 1e-12)


_RESULT_FIELDS = ("theta", "V_conv", "V_dc", "V_w", "D_hat", "Sigma_n", "C_hat", "se_conv",
                  "se_dc", "se_w", "j_stat", "converged", "iterations")


@_PROPERTY
@given(st.one_of(_random_stack(), _hostile_stack()), st.permutations(KINDS),
       st.sampled_from(WEIGHTS), st.lists(st.booleans(), min_size=3, max_size=3))
def test_property_shared_first_stage_is_invisible(systems, kinds, weight, centered):
    """Plans run in any order on one stack, sharing its first stage, give
    bit for bit what each gives on a stack of its own."""
    compute_j = systems[0].q > systems[0].k
    plans = [_plan(kind, weight, c, systems[0].k) for kind, c in zip(kinds, centered)]
    with np.errstate(all="ignore"):
        try:
            shared = BatchGmm.from_stack(systems)
            results = [shared.run(plan, compute_j=compute_j) for plan in plans]
        except np.linalg.LinAlgError:    # a ValueError, but a numerical breakdown
            raise
        except (GmmError, ValueError):
            return
        for plan, res in zip(plans, results):
            alone = BatchGmm.from_stack(systems).run(plan, compute_j=compute_j)
            assert np.array_equal(res.status.reason, alone.status.reason)
            assert np.array_equal(res.status.cond, alone.status.cond, equal_nan=True)
            for name in _RESULT_FIELDS:
                a, b = getattr(res, name), getattr(alone, name)
                assert (a is None) == (b is None)
                if a is not None:
                    assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
