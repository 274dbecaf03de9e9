import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmmdc import (
    FitPlan,
    LinearMomentSystem,
    PanelDataset,
    PanelRandomCoef,
    ReplicationStreams,
    SingularWeightError,
    WeightSpec,
    build_ab_system,
    build_iv_system,
    dgp_iv,
    dgp_panel_lag,
    dgp_panel_rc,
    differencing_weight,
    draw_system,
    fit,
    m_contributions,
    moment_stats,
    omega_derivative,
)
from gmmdc import _batch
from gmmdc._batch import BatchGmm
from gmmdc import linmoment
from gmmdc.linmoment import WeightFactors, _obs_mean, full_factors
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

    def test_rank_one_times_is_the_outer_product_form(self, rng):
        for shape in ((30, 4), (3, 30, 4)):
            f = rng.standard_normal(shape)
            b = rng.standard_normal(shape[:-2] + shape[-1:])
            got = WeightFactors.rank_one(f).times(b)
            assert np.array_equal(got, f * (f @ b[..., None]))

    @pytest.mark.parametrize("spec", [WeightSpec.efficient_uncentered([0.3]),
                                      WeightSpec.efficient_centered([0.3])])
    def test_efficient_weight_obs_are_rank_one_factors(self, spec):
        sysm = dict(_builder_systems())["iv"]
        factors = sysm.weight_obs(spec)
        assert isinstance(factors, WeightFactors)
        assert np.allclose(factors.mean(), sysm.weight_matrix(spec), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bad", [np.ones(12), np.ones((1, 12, 3, 3))])
    def test_weight_obs_of_wrong_rank_rejected(self, rng, bad):
        sysm = random_system(rng, n=12, q=3, k=1)
        with pytest.raises(ValueError, match=r"weight_obs must be None, WeightFactors, "
                                             r"\(n, q\) rank-one factors or \(n, q, q\)"):
            m_contributions(sysm, np.zeros(1), np.eye(3), bad)

    def test_systems_are_immutable(self, rng):
        sysm = random_system(rng)
        with pytest.raises(AttributeError):
            sysm.h = np.zeros_like(sysm.h)


@functools.cache
def _pinned_systems():
    """IV, panel-rc and panel-lag systems, and two random k = 2 systems."""
    y, X, Z = dgp_iv(200, 0.3, ReplicationStreams(71, 0))
    rng = np.random.default_rng(71)
    return {
        "iv": build_iv_system(y, X, Z),
        "panel-rc": build_ab_system(dgp_panel_rc(100, 5, 0.2, ReplicationStreams(71, 1)),
                                    mode="ar1"),
        "panel-lag": build_ab_system(dgp_panel_lag(100, 5, 0.2, ReplicationStreams(71, 2))),
        "random-0": random_system(rng),
        "random-1": random_system(rng),
    }


#: Every preliminary weight kind, for a system with k parameters.
_SPECS = {
    "identity": lambda k: WeightSpec.identity(),
    "data-average": lambda k: WeightSpec.data_average(),
    "efficient": lambda k: WeightSpec.efficient_uncentered(np.full(k, 0.2)),
    "efficient-centered": lambda k: WeightSpec.efficient_centered(np.full(k, 0.2)),
}


@pytest.mark.parametrize("w0", list(_SPECS))
@pytest.mark.parametrize("label", ["iv", "panel-rc", "panel-lag", "random-0", "random-1"])
class TestHelpersAreKernelViews:
    """The public moment helpers return the numbers the kernel fits with, bit
    for bit: their formulas are the kernel's, on a one-system stack."""

    def test_weight_matrix_and_obs_are_the_preliminary_weight(self, label, w0):
        sysm = _pinned_systems()[label]
        spec = _SPECS[w0](sysm.k)
        stage = BatchGmm.from_stack([sysm]).fit(FitPlan.one_step(spec)).stage
        assert np.array_equal(sysm.weight_matrix(spec), stage.w0[0])
        factors = sysm.weight_obs(spec)
        if stage.w0_obs is None:
            assert factors is None
        else:
            assert np.array_equal(factors.Z, stage.w0_obs.Z[0])
            assert np.array_equal(factors.H, stage.w0_obs.H)

    @pytest.mark.parametrize("centered", [False, True])
    @pytest.mark.parametrize("kind", ["one-step", "two-step", "iterated"])
    def test_moment_helpers_are_the_fits_values(self, monkeypatch, label, w0, kind, centered):
        sysm = _pinned_systems()[label]
        domegas, j_moments = [], []
        omega_derivatives, j_stat = _batch._omega_derivatives, BatchGmm.j_stat

        def recording_omega_derivatives(*args):
            domegas.append(omega_derivatives(*args))
            return domegas[-1]

        def recording_j_stat(self, fit, g_n=None):
            j_moments.append(g_n)
            return j_stat(self, fit, g_n)

        monkeypatch.setattr(_batch, "_omega_derivatives", recording_omega_derivatives)
        monkeypatch.setattr(BatchGmm, "j_stat", recording_j_stat)
        f = fit(sysm, FitPlan(kind, _SPECS[w0](sysm.k), centered))
        batch, state = f._kernel[1:]
        batch.variance(state, compute_j=True)
        # The weight's evaluation point: the one-step estimate, or the estimate if iterated.
        point = state.theta[0] if kind == "iterated" else state.stage.solve.theta[0]
        stats = moment_stats(sysm, point)
        assert np.array_equal(stats.Omega_c if centered else stats.Omega, state.omega[0])
        assert np.array_equal(stats.G_n, batch.G_n[0])
        assert np.array_equal(moment_stats(sysm, f.theta).g_n, j_moments[0][0])
        assert np.array_equal(f.g_n_hat, j_moments[0][0])
        assert len(domegas) == (kind != "one-step")
        for domega in domegas:
            for j in range(sysm.k):
                assert np.array_equal(omega_derivative(sysm, point, j, centered),
                                      domega[0, :, :, j])


@settings(max_examples=120, deadline=None)
@given(R=st.sampled_from([1, 2, 7, 8, 64]), n=st.integers(1, 60),
       tail=st.sampled_from([(1,), (2,), (4,), (16,), (17,), (21,), (4, 1), (4, 2), (8, 2),
                             (21, 1), (3, 7)]),
       contiguous=st.booleans(), keepdims=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_property_obs_mean_is_numpy_mean_bit_for_bit(R, n, tail, contiguous, keepdims, seed):
    """Both sides of the shape rule (R below and from 8, row width m = 1,
    2 <= m <= 16, m >= 17, strided input) give ``a.mean(axis=1)``'s bits, on values spread
    over 16 decades, where any change of summation order shows."""
    rng = np.random.default_rng(seed)
    shape = (R, n if contiguous else 2 * n, *tail)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    if not contiguous:
        a = a[:, ::2]
    got, want = _obs_mean(a, keepdims), a.mean(axis=1, keepdims=keepdims)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _one_product_mean(Z, H):
    """The data-average weight as one product over the whole stack."""
    *lead, n, e, q = Z.shape
    Zf = Z.reshape(*lead, n * e, q)
    prod = np.swapaxes(Zf, -1, -2) @ (H @ Z).reshape(*lead, n * e, q) / n
    return 0.5 * (prod + np.swapaxes(prod, -1, -2))


def _factor_stacks():
    panel = [draw_system(PanelRandomCoef(N=200, T=8, alpha0=0.0), ReplicationStreams(22, r))
             for r in range(64)]
    rng = np.random.default_rng(31)
    W = rng.standard_normal((5, 40, 6, 6))
    return {
        "panel (64, 200, 6, 21)": WeightFactors(np.stack([s.Z_obs for s in panel]), panel[0].H),
        "full factors": full_factors(W + np.swapaxes(W, -1, -2)),
        "R = 1": WeightFactors(panel[0].Z_obs[None], panel[0].H),
        "one system": WeightFactors(panel[0].Z_obs, panel[0].H),
        "iv (499, 100, 1, 4)": WeightFactors(rng.standard_normal((499, 100, 1, 4)), np.ones((1, 1))),
    }


class TestBlockedWeightMean:
    """``WeightFactors.mean`` forms H Z_i in blocks of replications, bit for
    bit the single product over the whole stack."""

    @pytest.mark.parametrize("rows_per_block", [None, 1, 3])
    def test_blocks_equal_the_single_product(self, monkeypatch, rows_per_block):
        for label, w in _factor_stacks().items():
            if rows_per_block is not None:
                n, e, q = w.Z.shape[-3:]
                monkeypatch.setattr(linmoment, "MEAN_BLOCK", rows_per_block * n * e * q)
            got, want = w.mean(), _one_product_mean(w.Z, w.H)
            assert got.shape == want.shape, label
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), label

    def test_a_panel_chunk_spans_several_blocks_of_many_iv_rows(self):
        """The default bound splits the panel case above, and never loops
        over narrow IV replications one at a time."""
        assert 64 * 200 * 6 * 21 > 8 * linmoment.MEAN_BLOCK
        assert linmoment.MEAN_BLOCK // (100 * 1 * 4) >= 100
