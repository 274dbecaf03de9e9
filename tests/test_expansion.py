import numpy as np
import pytest

from gmmdc import (
    ExpansionTruth,
    FitPlan,
    LinearMomentSystem,
    ReplicationStreams,
    WeightSpec,
    build_ab_system,
    build_iv_system,
    dgp_iv,
    dgp_panel_rc,
    fit,
    moment_stats,
    omega_derivative,
    neumann_inverse,
    onestep_expansion,
    twostep_expansion,
    variance_report,
)
from conftest import iv_population_truth


class TestNeumannInverse:
    def test_zero_perturbation_is_exact(self, rng):
        X = rng.standard_normal((4, 4)) + 5 * np.eye(4)
        for order in (0, 1, 5):
            out = neumann_inverse(X, np.zeros((4, 4)), 100, order)
            assert np.allclose(out, np.linalg.inv(X), rtol=1e-12)

    def test_scalar_first_order(self):
        out = neumann_inverse(np.array([[1.0]]), np.array([[1.0]]), 100.0, 1)
        assert out[0, 0] == pytest.approx(0.9, abs=1e-15)
        exact = 1.0 / 1.1
        assert abs(out[0, 0] - exact) == pytest.approx(9.0909e-3, rel=1e-3)

    def test_truncation_error_decays_geometrically(self, rng):
        f = rng.standard_normal((3, 3))
        X = f @ f.T + 3 * np.eye(3)
        Y = 0.5 * rng.standard_normal((3, 3))
        n = 400.0
        exact = np.linalg.inv(X + Y / np.sqrt(n))
        rho = np.linalg.norm(np.linalg.inv(X) @ Y, 2) / np.sqrt(n)
        errs = [np.linalg.norm(neumann_inverse(X, Y, n, q) - exact, 2)
                for q in range(4)]
        for q in range(3):
            assert errs[q + 1] < errs[q]
            assert errs[q + 1] / errs[q] == pytest.approx(rho, rel=0.5)

    def test_singular_x_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            neumann_inverse(np.zeros((2, 2)), np.eye(2), 10, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            neumann_inverse(np.eye(2), np.eye(2), 10, -1)


def _degenerate_truth(q=3, k=1):
    G = np.full((q, k), -1.0)
    return ExpansionTruth(G=G, W=np.eye(q), Omega=np.eye(q),
                          dOmega=np.zeros((k, q, q)), delta=np.zeros(q),
                          theta0=np.zeros(k))


class TestExpansions:
    def test_all_zero_for_degenerate_sample(self):
        # Constant moments that vanish at theta0 = 0 leave every deviation
        # process at zero, so every expansion term must vanish too.
        truth = _degenerate_truth()
        n, q = 10, 3
        sysm = LinearMomentSystem(h=np.zeros((n, q)),
                                  G_obs=np.tile(truth.G, (n, 1, 1)),
                                  W_obs=np.tile(np.eye(q), (n, 1, 1)))
        terms = onestep_expansion(sysm, truth)
        for value in (terms.eta, terms.psi0, terms.psi1, terms.q_term,
                      terms.B_term, terms.predicted):
            assert np.allclose(value, 0.0, atol=1e-14)

    def test_zero_delta_kills_delta_linear_terms(self):
        truth = iv_population_truth(400, 0.0)
        y, X, Z = dgp_iv(400, 0.0, ReplicationStreams(14, 0))
        sysm = build_iv_system(y, X, Z)
        one = onestep_expansion(sysm, truth)
        two = twostep_expansion(sysm, truth)
        assert np.allclose(one.eta, 0.0) and np.allclose(one.psi1, 0.0)
        assert np.allclose(two.eta, 0.0) and np.allclose(two.psi1, 0.0)
        assert np.allclose(two.D, 0.0)

    def test_terms_scale_linearly_in_delta(self):
        t1 = iv_population_truth(900, 0.5)
        t2 = ExpansionTruth(G=t1.G, W=t1.W, Omega=t1.Omega, dOmega=t1.dOmega,
                            delta=2.0 * t1.delta, theta0=t1.theta0)
        y, X, Z = dgp_iv(900, 0.5, ReplicationStreams(14, 1))
        sysm = build_iv_system(y, X, Z)
        a = twostep_expansion(sysm, t1)
        b = twostep_expansion(sysm, t2)
        assert np.allclose(b.eta, 2.0 * a.eta)
        assert np.allclose(b.psi1, 2.0 * a.psi1)
        assert np.allclose(b.D, 2.0 * a.D)
        # claiming a larger delta shifts the centered process g_tilde by
        # -delta, so psi0 and C_tilde move by exactly -eta and -D.
        assert np.allclose(b.psi0 - a.psi0, -(b.eta - a.eta))
        assert np.allclose(b.C_tilde - a.C_tilde, -a.D)

    def test_just_identified_prediction_is_exact_leading_term(self, rng):
        # q = k with delta = 0: the estimator solves g_n = 0, psi0 is the
        # whole story up to the sample deviation remainder.
        q = 1
        truth = ExpansionTruth(G=np.array([[-1.0]]), W=np.eye(1), Omega=np.eye(1),
                               dOmega=np.zeros((1, 1, 1)), delta=np.zeros(1),
                               theta0=np.zeros(1))
        h = rng.standard_normal((50, 1)) * 0.1
        sysm = LinearMomentSystem(h=h, G_obs=np.tile(truth.G, (50, 1, 1)),
                                  W_obs=np.tile(np.eye(1), (50, 1, 1)))
        f = fit(sysm, FitPlan.two_step())
        terms = twostep_expansion(sysm, truth)
        target = np.sqrt(50) * (f.theta - truth.theta0)
        assert np.allclose(terms.psi0, target, rtol=1e-10)

    @pytest.mark.slow
    def test_dc_variance_matches_expansion_target(self):
        # The doubly corrected estimator targets the variance of
        # psi0 + (psi1 + D psi0_W) / sqrt(n) under a drifting violation.
        n, alpha0, reps = 1600, 1.0, 600
        truth = iv_population_truth(n, alpha0)
        combos, v_dc = [], []
        for r in range(reps):
            y, X, Z = dgp_iv(n, alpha0, ReplicationStreams(15, r))
            sysm = build_iv_system(y, X, Z)
            terms = twostep_expansion(sysm, truth)
            one = onestep_expansion(sysm, truth)
            combos.append(terms.psi0 + (terms.psi1 + terms.D @ one.psi0) / np.sqrt(n))
            rep = variance_report(sysm, fit(sysm, FitPlan.two_step()))
            v_dc.append(rep.V_dc[0, 0])
        mc_var = np.var(np.asarray(combos)[:, 0], ddof=1)
        assert mc_var == pytest.approx(np.mean(v_dc), rel=0.10)


def test_builder_systems_expand_from_factors(monkeypatch):
    """The weight deviation comes from the factored contributions: the
    (n, q, q) tensor is never built, and both predictions equal those of the
    same system given the tensor in full."""
    y, X, Z = dgp_iv(400, 1.0, ReplicationStreams(16, 0))
    iv = build_iv_system(y, X, Z)
    panel = build_ab_system(dgp_panel_rc(60, 5, 0.2, ReplicationStreams(16, 1)), mode="ar1")
    theta0 = np.array([0.5])
    stats = moment_stats(panel, theta0)
    panel_truth = ExpansionTruth(
        G=stats.G_n, W=panel.weight_matrix(WeightSpec.data_average()) + 0.1 * np.eye(panel.q),
        Omega=stats.Omega, dOmega=omega_derivative(panel, theta0, 0)[None],
        delta=0.3 * np.ones(panel.q), theta0=theta0)
    cases = [(iv, iv_population_truth(400, 1.0)), (panel, panel_truth)]
    expansions = (onestep_expansion, twostep_expansion)
    want = [[e(LinearMomentSystem(h=s.h, G_obs=s.G_obs, W_obs=s.W_obs), t).predicted
             for e in expansions] for s, t in cases]

    def refuse(self):
        raise AssertionError("full weight contributions materialized")

    monkeypatch.setattr(LinearMomentSystem, "W_obs", property(refuse))
    for (sysm, truth), targets in zip(cases, want):
        for expansion, target in zip(expansions, targets):
            got = expansion(sysm, truth).predicted
            assert np.abs(got - target).max() <= 1e-12 * np.abs(target).max()
