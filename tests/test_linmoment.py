import numpy as np
import pytest

from gmmdc import (
    FitPlan,
    LinearMomentSystem,
    PanelDataset,
    ReplicationStreams,
    SingularWeightError,
    WeightSpec,
    build_ab_system,
    build_iv_system,
    dgp_iv,
    dgp_panel_lag,
    dgp_panel_rc,
    differencing_weight,
    fit,
    m_contributions,
    moment_stats,
    omega_derivative,
)
from gmmdc.linmoment import WeightFactors
from conftest import random_system


class TestBuildIvSystem:
    def test_zero_residual_moments_vanish(self, rng):
        X = rng.standard_normal((30, 2))
        Z = rng.standard_normal((30, 4))
        beta = np.array([0.5, -1.5])
        sysm = build_iv_system(X @ beta, X, Z)
        assert np.allclose(sysm.g_obs(beta), 0.0, atol=1e-12)

    def test_hand_computed_entries(self):
        y = np.array([1.0, 2.0, -1.0, 0.5, 3.0])
        X = np.array([[2.0], [1.0], [0.0], [-1.0], [4.0]])
        Z = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        sysm = build_iv_system(y, X, Z)
        for i in range(5):
            assert np.allclose(sysm.h[i], Z[i] * y[i])
            assert np.allclose(sysm.G_obs[i], -np.outer(Z[i], X[i]))
            assert np.allclose(sysm.W_obs[i], np.outer(Z[i], Z[i]))

    def test_just_identified_equals_ols(self, rng):
        n = 60
        X = rng.standard_normal((n, 2))
        y = X @ np.array([1.0, 2.0]) + rng.standard_normal(n)
        sysm = build_iv_system(y, X, X)
        theta = fit(sysm, FitPlan.one_step()).theta
        ols = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.allclose(theta, ols, rtol=1e-10)

    def test_data_average_weight_is_instrument_gram(self, rng):
        y = rng.standard_normal(25)
        X = rng.standard_normal((25, 1))
        Z = rng.standard_normal((25, 3))
        sysm = build_iv_system(y, X, Z)
        assert np.allclose(sysm.weight_matrix(WeightSpec.data_average()), Z.T @ Z / 25)

    @pytest.mark.parametrize("name", ["y", "X", "Z"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, rng, name, bad):
        data = {"y": rng.standard_normal(20), "X": rng.standard_normal((20, 1)),
                "Z": rng.standard_normal((20, 3))}
        data[name].flat[7] = bad
        with pytest.raises(ValueError, match=f"{name} has missing or non-finite"):
            build_iv_system(data["y"], data["X"], data["Z"])

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            build_iv_system(rng.standard_normal(10), rng.standard_normal((9, 1)),
                            rng.standard_normal((10, 2)))
        with pytest.raises(ValueError, match="instruments"):
            build_iv_system(rng.standard_normal(10), rng.standard_normal((10, 3)),
                            rng.standard_normal((10, 2)))

    def test_rank_deficient_instruments_rejected(self, rng):
        Z1 = rng.standard_normal((20, 1))
        Z = np.column_stack([Z1, 2.0 * Z1])
        with pytest.raises(SingularWeightError):
            build_iv_system(rng.standard_normal(20), rng.standard_normal((20, 1)), Z)


class TestBuildAbSystem:
    def test_smallest_shape_block_structure(self, rng):
        x = rng.standard_normal((5, 3))
        y = rng.standard_normal((5, 3))
        sysm = build_ab_system(PanelDataset(y=y, x=x))
        assert (sysm.n, sysm.q, sysm.k) == (5, 3, 1)
        dy = np.diff(y, axis=1)
        # block for t=2 holds x_i1 * dy_i2; block for t=3 holds (x_i1, x_i2) * dy_i3
        for i in range(5):
            expected = np.array([x[i, 0] * dy[i, 0],
                                 x[i, 0] * dy[i, 1],
                                 x[i, 1] * dy[i, 1]])
            assert np.allclose(sysm.h[i], expected)

    def test_differencing_weight_t4(self):
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        assert np.array_equal(differencing_weight(3), expected)

    def test_toy_panel_matches_triple_loop(self, rng):
        N, T = 5, 3
        y = rng.standard_normal((N, T))
        x = rng.standard_normal((N, T))
        sysm = build_ab_system(PanelDataset(y=y, x=x))
        q = T * (T - 1) // 2
        for i in range(N):
            h = np.zeros(q)
            gx = np.zeros(q)
            col = 0
            for t in range(2, T + 1):           # differenced equation at t
                for s in range(1, t):           # instrument x_{i,s}
                    h[col] = x[i, s - 1] * (y[i, t - 1] - y[i, t - 2])
                    gx[col] = -x[i, s - 1] * (x[i, t - 1] - x[i, t - 2])
                    col += 1
            assert np.allclose(sysm.h[i], h)
            assert np.allclose(sysm.G_obs[i, :, 0], gx)
            Zi = np.zeros((T - 1, q))
            Zi[0, 0] = x[i, 0]
            Zi[1, 1:] = x[i, :2]
            assert np.allclose(sysm.W_obs[i], Zi.T @ differencing_weight(T - 1) @ Zi)

    def test_ar1_mode_dimensions_and_cluster(self, rng):
        y = rng.standard_normal((8, 4))
        sysm = build_ab_system(PanelDataset(y=y), mode="ar1")
        assert (sysm.n, sysm.q, sysm.k) == (8, 3, 1)

    def test_short_panel_rejected(self, rng):
        with pytest.raises(ValueError, match="T >= 3"):
            build_ab_system(PanelDataset(y=rng.standard_normal((4, 2)),
                                         x=rng.standard_normal((4, 2))))

    def test_unbalanced_panel_rejected(self, rng):
        y = rng.standard_normal((4, 3))
        y[1, 2] = np.nan
        with pytest.raises(ValueError, match="unbalanced"):
            PanelDataset(y=y, x=rng.standard_normal((4, 3)))
        with pytest.raises(ValueError, match="not supported"):
            PanelDataset(y=rng.standard_normal((4, 3)), balanced=False)


class TestMomentStats:
    def test_zero_moments(self, rng):
        X = rng.standard_normal((20, 1))
        Z = rng.standard_normal((20, 2))
        sysm = build_iv_system(X[:, 0] * 2.0, X, Z)
        stats = moment_stats(sysm, np.array([2.0]))
        assert np.allclose(stats.g_n, 0.0, atol=1e-12)
        assert np.allclose(stats.Omega, 0.0, atol=1e-12)
        assert np.allclose(stats.Omega_c, 0.0, atol=1e-12)

    def test_hand_outer_product_average(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0], [1.0, 1.0], [0.0, 0.0]])
        G = np.zeros((5, 2, 1))
        sysm = LinearMomentSystem(h=h, G_obs=G)
        stats = moment_stats(sysm, np.array([0.0]))
        expected = sum(np.outer(h[i], h[i]) for i in range(5)) / 5
        assert np.allclose(stats.Omega, expected)

    def test_centering_identity(self, rng):
        sysm = random_system(rng)
        for _ in range(5):
            theta = rng.standard_normal(sysm.k)
            stats = moment_stats(sysm, theta)
            assert np.allclose(stats.Omega_c,
                               stats.Omega - np.outer(stats.g_n, stats.g_n),
                               atol=1e-12)

    def test_matches_direct_matrix_products(self, rng):
        y = rng.standard_normal(30)
        X = rng.standard_normal((30, 2))
        Z = rng.standard_normal((30, 3))
        sysm = build_iv_system(y, X, Z)
        theta = rng.standard_normal(2)
        stats = moment_stats(sysm, theta)
        assert np.allclose(stats.G_n, -(Z.T @ X) / 30, rtol=1e-14)
        assert np.allclose(stats.g_n, Z.T @ (y - X @ theta) / 30, atol=1e-14)


class TestOmegaDerivative:
    def test_constant_moments_give_zero(self, rng):
        h = rng.standard_normal((10, 3))
        sysm = LinearMomentSystem(h=h, G_obs=np.zeros((10, 3, 2)))
        assert np.allclose(omega_derivative(sysm, np.zeros(2), 0), 0.0)
        assert np.allclose(omega_derivative(sysm, np.zeros(2), 1), 0.0)

    @pytest.mark.parametrize("centered", [False, True])
    def test_matches_finite_differences(self, rng, centered):
        sysm = random_system(rng, n=25, q=3, k=2)
        theta = rng.standard_normal(2)
        step = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            key = "Omega_c" if centered else "Omega"
            hi = getattr(moment_stats(sysm, theta + e), key)
            lo = getattr(moment_stats(sysm, theta - e), key)
            fd = (hi - lo) / (2 * step)
            got = omega_derivative(sysm, theta, j, centered=centered)
            assert np.allclose(got, fd, rtol=1e-6)

    def test_symmetric_output(self, rng):
        sysm = random_system(rng)
        for j in range(sysm.k):
            d = omega_derivative(sysm, rng.standard_normal(sysm.k), j)
            assert np.allclose(d, d.T)

    def test_index_out_of_range(self, rng):
        sysm = random_system(rng)
        with pytest.raises(IndexError):
            omega_derivative(sysm, np.zeros(sysm.k), sysm.k)


class TestSystemInvariants:
    def test_linearity_exact(self, rng):
        sysm = random_system(rng)
        for _ in range(10):
            t1 = rng.standard_normal(sysm.k)
            t2 = rng.standard_normal(sysm.k)
            lhs = sysm.g_obs(t2) - sysm.g_obs(t1)
            rhs = sysm.G_obs @ (t2 - t1)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_invalid_shapes_rejected(self, rng):
        with pytest.raises(ValueError, match="q >= k"):
            LinearMomentSystem(h=rng.standard_normal((10, 1)),
                               G_obs=rng.standard_normal((10, 1, 2)))
        with pytest.raises(ValueError, match="n > q"):
            LinearMomentSystem(h=rng.standard_normal((3, 3)),
                               G_obs=rng.standard_normal((3, 3, 1)))
        with pytest.raises(ValueError, match="symmetric"):
            LinearMomentSystem(h=rng.standard_normal((10, 2)),
                               G_obs=rng.standard_normal((10, 2, 1)),
                               W_obs=rng.standard_normal((10, 2, 2)))
        W = np.tile(np.eye(2), (10, 1, 1))
        W[3, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            LinearMomentSystem(h=rng.standard_normal((10, 2)),
                               G_obs=rng.standard_normal((10, 2, 1)), W_obs=W)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["h", "G_obs", "Z_obs", "H"])
    def test_non_finite_arrays_rejected(self, name, bad):
        y, X, Z = dgp_iv(40, 0.5, ReplicationStreams(61, 3))
        sysm = build_iv_system(y, X, Z)
        arrays = {a: np.array(getattr(sysm, a)) for a in ("h", "G_obs", "Z_obs", "H")}
        arrays[name].flat[arrays[name].size // 2] = bad
        with pytest.raises(ValueError, match=f"{name} has missing or non-finite"):
            LinearMomentSystem(**arrays)

    def test_weight_specs_validate(self):
        with pytest.raises(ValueError):
            WeightSpec.efficient_uncentered(None)
        with pytest.raises(ValueError):
            WeightSpec(kind=WeightSpec.identity().kind, theta=np.zeros(1))


def _builder_systems():
    y, X, Z = dgp_iv(80, 0.5, ReplicationStreams(61, 0))
    yield "iv", build_iv_system(y, X, Z)
    panel = dgp_panel_lag(40, 5, 0.3, ReplicationStreams(61, 1))
    yield "predetermined", build_ab_system(panel, mode="predetermined")
    panel = dgp_panel_rc(40, 6, 0.2, ReplicationStreams(61, 2))
    yield "ar1", build_ab_system(panel, mode="ar1")


def _rel_dev(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestFactoredWeightContributions:
    @pytest.mark.parametrize("label", ["iv", "predetermined", "ar1"])
    def test_builders_store_factors(self, label):
        sysm = dict(_builder_systems())[label]
        n, e, q = sysm.Z_obs.shape
        assert (n, q) == (sysm.n, sysm.q)
        if label == "iv":
            assert e == 1 and np.array_equal(sysm.H, np.ones((1, 1)))
        else:
            assert np.array_equal(sysm.H, differencing_weight(e))
        W = sysm.W_obs
        assert W.shape == (n, q, q)
        for i in (0, n // 2, n - 1):
            assert np.allclose(W[i], sysm.Z_obs[i].T @ sysm.H @ sysm.Z_obs[i], rtol=1e-14)

    @pytest.mark.parametrize("label", ["iv", "predetermined", "ar1"])
    def test_data_average_weight_matches_tensor_mean(self, label):
        sysm = dict(_builder_systems())[label]
        got = sysm.weight_matrix(WeightSpec.data_average())
        assert _rel_dev(got, sysm.W_obs.mean(axis=0)) <= 1e-12
        assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("label", ["iv", "predetermined", "ar1"])
    def test_m_contributions_factored_equal_tensor(self, label, rng):
        sysm = dict(_builder_systems())[label]
        spec = WeightSpec.data_average()
        factors = sysm.weight_obs(spec)
        assert isinstance(factors, WeightFactors)
        weight = sysm.weight_matrix(spec)
        theta = fit(sysm, FitPlan.one_step()).theta + 0.1 * rng.standard_normal(sysm.k)
        got = m_contributions(sysm, theta, weight, factors)
        want = m_contributions(sysm, theta, weight, sysm.W_obs)
        assert _rel_dev(got, want) <= 1e-12

    def test_supplied_tensor_is_stored_as_exact_factors(self, rng):
        f = rng.standard_normal((40, 4, 4))
        full_rank = np.einsum("nqj,npj->nqp", f, f) + 2.0 * np.eye(4)   # as random_system
        y, X, Z = dgp_iv(80, 0.5, ReplicationStreams(61, 0))
        rank_one = build_iv_system(y, X, Z).W_obs
        for W in (full_rank, rank_one):
            n, q, _ = W.shape
            sysm = LinearMomentSystem(h=rng.standard_normal((n, q)),
                                      G_obs=rng.standard_normal((n, q, 1)), W_obs=W)
            assert sysm.Z_obs.shape == (n, 2 * q, q)
            assert np.array_equal(sysm.W_obs, W)
            got = sysm.weight_matrix(WeightSpec.data_average())
            assert _rel_dev(got, W.mean(axis=0)) <= 1e-12

    def test_invalid_factors_rejected(self, rng):
        h = rng.standard_normal((10, 2))
        G = rng.standard_normal((10, 2, 1))
        Z = rng.standard_normal((10, 3, 2))
        with pytest.raises(ValueError, match="together"):
            LinearMomentSystem(h=h, G_obs=G, Z_obs=Z)
        with pytest.raises(ValueError, match="H must be symmetric"):
            LinearMomentSystem(h=h, G_obs=G, Z_obs=Z, H=rng.standard_normal((3, 3)))
        with pytest.raises(ValueError, match="not both"):
            LinearMomentSystem(h=h, G_obs=G, Z_obs=Z, H=np.eye(3),
                               W_obs=np.tile(np.eye(2), (10, 1, 1)))
        with pytest.raises(ValueError, match=r"\(n, e, q\)"):
            LinearMomentSystem(h=h, G_obs=G, Z_obs=Z[:, :, :1], H=np.eye(3))

    def test_systems_are_immutable(self, rng):
        sysm = random_system(rng)
        with pytest.raises(AttributeError):
            sysm.h = np.zeros_like(sysm.h)
