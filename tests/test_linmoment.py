import functools
import math

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
from gmmdc import linmoment, montecarlo
from gmmdc.inference import _Streams
from gmmdc.linmoment import WeightFactors, _build_diff_gmm, _obs_mean, full_factors
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

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_too_few_observations_rejected_before_the_gram_matrix(self, rng, n):
        """n <= q is a size error; the Gram matrix check used to call it rank deficient."""
        with pytest.raises(ValueError, match=rf"need n > q .*, got n={n}, q=3$"):
            build_iv_system(rng.standard_normal(n), rng.standard_normal((n, 1)),
                            rng.standard_normal((n, 3)))

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

    def test_rank_one_bilinear_is_the_outer_product_form(self, rng):
        """b' f_i f_i' A = (f_i' b)(f_i' A), within :func:`_bilinear_bound`."""
        for shape in ((30, 4), (3, 30, 4)):
            f = rng.standard_normal(shape)
            b = rng.standard_normal(shape[:-2] + shape[-1:])
            A = rng.standard_normal(shape[:-2] + shape[-1:] + (2,))
            got = WeightFactors.rank_one(f).bilinear(b, A)
            want = (f @ b[..., None]) * (f @ A)
            bound = _bilinear_bound(f[..., None, :], np.ones((1, 1)), b, A)
            assert np.all(np.abs(got - want) <= bound)

    def test_iv_systems_share_one_read_only_core(self):
        """Every IV system holds the same H = [[1]], so stacking them compares
        the cores by identity; the shared core cannot be written."""
        a, b = (build_iv_system(*dgp_iv(40, 0.3, ReplicationStreams(9, r))) for r in range(2))
        assert a.H is b.H and a.H is WeightFactors.rank_one(a.h).H
        assert np.array_equal(a.H, np.ones((1, 1))) and not a.H.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.H[0, 0] = 2.0
        assert BatchGmm.from_stack([a, b]).H is a.H

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

        def recording_j_stat(self, fit):
            j_moments.append(fit.g_n)
            return j_stat(self, fit)

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


#: Machine epsilon of float64.
_EPS = np.finfo(float).eps


def _aligned(a: np.ndarray, shift: int) -> np.ndarray:
    """A C-contiguous copy of ``a`` that starts ``shift`` float64 slots into a
    fresh buffer, so that its alignment in memory varies with ``shift``."""
    buf = np.empty(a.size + 8)
    out = buf[shift:shift + a.size].reshape(a.shape)
    out[...] = a
    return out


_TAILS = [(1,), (2,), (4,), (16,), (17,), (21,), (4, 1), (4, 2), (8, 2), (21, 1), (3, 7)]


@settings(max_examples=120, deadline=None)
@given(R=st.sampled_from([1, 2, 7, 8, 64, 499]), n=st.integers(1, 60),
       tail=st.sampled_from(_TAILS), data=st.data(), contiguous=st.booleans(),
       keepdims=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_property_obs_mean_row_is_its_one_row_mean(R, n, tail, data, contiguous, keepdims,
                                                   seed):
    """Row r of any stack, at any position and any alignment of either
    operand, is bit for bit the mean of its one-row stack: a stack's rows
    agree with their R = 1 views. Values spread over 16 decades, where any
    change of summation order shows."""
    rng = np.random.default_rng(seed)
    r = data.draw(st.integers(0, R - 1), label="r")
    shift, row_shift = data.draw(st.integers(0, 7), label="shift"), data.draw(st.integers(0, 7))
    shape = (R, n if contiguous else 2 * n, *tail)
    a = _aligned(rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape), shift)
    if not contiguous:
        a = a[:, ::2]
    row = _aligned(a[r:r + 1], row_shift)
    got, want = _obs_mean(a, keepdims)[r], _obs_mean(row, keepdims)[0]
    assert got.shape == want.shape == a.mean(axis=1, keepdims=keepdims)[r].shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=120, deadline=None)
@given(R=st.sampled_from([1, 2, 8, 64]), n=st.integers(1, 200), tail=st.sampled_from(_TAILS),
       seed=st.integers(0, 2**32 - 1))
def test_property_obs_mean_is_within_the_summation_bound(R, n, tail, seed):
    """Every entry lies within n eps sum_i |a_i| / n of the exact mean (the
    correctly rounded ``math.fsum``, divided by n): the forward error bound of
    a sum of n terms in any order, with the division's rounding, doubled."""
    rng = np.random.default_rng(seed)
    shape = (R, n, *tail)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    got = _obs_mean(a).reshape(R, -1)
    cols = np.moveaxis(a.reshape(R, n, -1), 1, -1)
    for r, j in np.ndindex(got.shape):
        col = cols[r, j]
        exact = math.fsum(col) / n
        assert abs(got[r, j] - exact) <= n * _EPS * math.fsum(np.abs(col)) / n


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


def _mean_bound(Z, H):
    """The bound on a data-average weight against :func:`_one_product_mean`:
    (n e + e + 2) eps times the mean of |Z_i|' |H| |Z_i|, the forward error
    bound of either order of the products and the sum over observations."""
    *lead, n, e, q = Z.shape
    absZ = np.abs(Z).reshape(*lead, n * e, q)
    return (n * e + e + 2) * _EPS * (np.swapaxes(absZ, -1, -2)
                                     @ (np.abs(H) @ np.abs(Z)).reshape(absZ.shape) / n)


class TestWeightMean:
    """``WeightFactors.mean`` is the single product Z'(H Z) over the stack, to
    :func:`_mean_bound`; a mapped stack's mean never forms Z, and row r of a
    stack is bit for bit the mean of its one-replication stack."""

    def test_mean_is_within_the_bound_of_the_single_product(self):
        for label, w in _factor_stacks().items():
            got, want = w.mean(), _one_product_mean(w.Z, w.H)
            assert got.shape == want.shape, label
            assert np.all(np.abs(got - want) <= _mean_bound(w.Z, w.H)), label

    def test_stack_rows_are_their_one_replication_products(self):
        """Also for b' W(X_i) A, and for the mapped stacks of every design."""
        rng = np.random.default_rng(6)
        stacks = {**_factor_stacks(), **{label: w for label, (w, _) in _factor_cases().items()
                                         if label.endswith(", stack")}}
        for label, w in stacks.items():
            if len(w.shape) < 4:
                continue
            R, q = w.shape[0], w.shape[-1]
            b, A = rng.standard_normal((R, q)), rng.standard_normal((R, q, 2))
            mean, bilinear = w.mean(), w.bilinear(b, A)
            for r in {0, 1 % R, R - 1}:
                one = w._replace(values=w.values[r:r + 1].copy())
                assert _same_bits(mean[r], one.mean()[0]), label
                assert _same_bits(bilinear[r], one.bilinear(b[r:r + 1], A[r:r + 1])[0]), label


def _dense_diff_gmm(y, x, mode):
    """h, G_obs and Z_obs of difference-GMM systems as the zero-padded
    (T-1) x q instrument blocks gave them: the dense oracle of the compact build."""
    if mode == "ar1":
        y, x = y[..., 1:], y[..., :-1]
    *lead, N, T = y.shape
    Z = np.zeros((*lead, N, T - 1, T * (T - 1) // 2))
    off = 0
    for t in range(2, T + 1):
        Z[..., t - 2, off:off + t - 1] = x[..., :t - 1]
        off += t - 1
    h = np.einsum("...net,...ne->...nt", Z, np.diff(y, axis=-1))
    G = np.einsum("...net,...ne->...nt", Z, np.diff(x, axis=-1))[..., None]
    np.negative(G, out=G)
    return h, G, Z


def _dense_bilinear(Z, H, b, A):
    """b' W(X_i) A of dense factors Z (..., n, e, q), with W(X_i) formed in full."""
    W = np.swapaxes(Z, -1, -2) @ (H @ Z)
    return np.einsum("...p,...npq,...qk->...nk", b, W, A)


def _bilinear_bound(Z, H, b, A):
    """The bound on ``bilinear`` against :func:`_dense_bilinear`: 2 (q + e + 1)
    eps times |b|' |Z_i|' |H| |Z_i| |A|, the forward error bound of either
    order of the three products."""
    absW = np.swapaxes(np.abs(Z), -1, -2) @ (np.abs(H) @ np.abs(Z))
    e, q = Z.shape[-2:]
    return 2 * (q + e + 1) * _EPS * np.einsum("...p,...npq,...qk->...nk", np.abs(b), absW,
                                                  np.abs(A))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


#: Leading axes of the compared forms: a stack, a one-replication stack and one system.
_LEADS = {"stack": slice(None), "R = 1": slice(0, 1), "one system": 0}


@functools.cache
def _panel_draws():
    """Stacked panel draws of both designs, panel-rc at the study chunk shape."""
    y_rc, _ = montecarlo._panel_rc(200, 8, 0.0, _Streams.of(22, np.arange(64)))
    y_lag, x_lag = montecarlo._panel_lag(100, 5, 0.3, _Streams.of(23, np.arange(16)))
    return {"ar1": (y_rc, None), "predetermined": (y_lag, x_lag)}


@functools.cache
def _factor_cases():
    """Label -> (stored factors, their dense oracle Z), for every form the
    package stores, on stacks, at R = 1 and for one system."""
    cases = {}
    for mode, (y, x) in _panel_draws().items():
        for lead, rows in _LEADS.items():
            ys, xs = y[rows], None if x is None else x[rows]
            cases[f"{mode}, {lead}"] = (_build_diff_gmm(ys, xs, mode)[2],
                                        _dense_diff_gmm(ys, xs, mode)[2])
    rng = np.random.default_rng(41)
    draws = [dgp_iv(60, 0.3, ReplicationStreams(41, r)) for r in range(5)]
    iv = [build_iv_system(*d) for d in draws]
    iv_Z = np.stack([Z[:, None, :] for _, _, Z in draws])
    W = rng.standard_normal((5, 30, 4, 4))
    W = W + np.swapaxes(W, -1, -2)
    supplied = [LinearMomentSystem(h=rng.standard_normal((30, 4)),
                                   G_obs=rng.standard_normal((30, 4, 1)), W_obs=w) for w in W]
    supplied_Z = np.concatenate([np.broadcast_to(np.eye(4), W.shape), W], axis=-2)
    f = rng.standard_normal((5, 50, 6))
    for lead, rows in _LEADS.items():
        stack = [iv[rows]] if lead == "one system" else iv[rows]
        cases[f"iv, {lead}"] = (iv[0].factors if lead == "one system"
                                else BatchGmm.from_stack(stack).factors, iv_Z[rows])
        cases[f"W_obs=, {lead}"] = (supplied[0].factors if lead == "one system"
                                    else BatchGmm.from_stack(supplied[rows]).factors,
                                    supplied_Z[rows])
        cases[f"rank_one, {lead}"] = (WeightFactors.rank_one(f[rows]), f[rows][..., None, :])
    return cases


class TestCompactFactors:
    """Difference-GMM factors are stored as each unit's instrument values and
    one shared index map; every other form under the identity map. Z_obs is
    bit for bit that of the zero-padded dense blocks, and the data-average
    weight and b' W(X_i) A are within the stated bounds of the dense forms."""

    @pytest.mark.parametrize("mode", ["ar1", "predetermined"])
    @pytest.mark.parametrize("lead", list(_LEADS))
    def test_build_equals_the_zero_padded_einsum(self, mode, lead):
        y, x = _panel_draws()[mode]
        ys, xs = y[_LEADS[lead]], None if x is None else x[_LEADS[lead]]
        h, G, factors = _build_diff_gmm(ys, xs, mode)
        want = _dense_diff_gmm(ys, xs, mode)
        for got, dense in zip((h, G, factors.Z), want):
            assert got.flags.c_contiguous and _same_bits(got, dense)
        e = want[2].shape[-2]
        assert factors.values.shape == (*ys.shape[:-1], e + 1)
        assert factors.idx is linmoment._diff_gmm_map(e)
        assert np.array_equal(factors.H, differencing_weight(e))

    def test_a_zero_product_keeps_the_sign_of_the_sum(self):
        """A zero cell gives the einsum's +0.0 in h and -0.0 in G, whatever the
        sign of the difference it multiplies."""
        y = np.array([[0.0, 1.0, -2.0, 0.5], [3.0, 0.0, 1.0, 1.0]] * 3)
        x = np.array([[0.0, -1.0, 2.0, 1.0], [0.0, 0.0, -3.0, 2.0]] * 3)
        for mode in ("ar1", "predetermined"):
            for got, want in zip(_build_diff_gmm(y, x, mode)[:2], _dense_diff_gmm(y, x, mode)):
                assert _same_bits(got, want)

    def test_z_mean_and_bilinear_match_the_dense_forms(self):
        rng = np.random.default_rng(5)
        for label, (w, Z) in _factor_cases().items():
            *lead, n, e, q = Z.shape
            b, A = rng.standard_normal((*lead, q)), rng.standard_normal((*lead, q, 2))
            assert w.shape == Z.shape, label
            assert _same_bits(w.Z, Z), label
            got = w.mean()
            assert np.all(np.abs(got - _one_product_mean(Z, w.H)) <= _mean_bound(Z, w.H)), label
            got = w.bilinear(b, A)
            assert got.shape == (*lead, n, 2), label
            want = _dense_bilinear(Z, w.H, b, A)
            assert np.all(np.abs(got - want) <= _bilinear_bound(Z, w.H, b, A)), label

    def test_mapped_products_never_form_z(self, monkeypatch):
        """The mean and b' W(X_i) A of mapped factors come from their values."""
        cases = {label: case for label, case in _factor_cases().items()
                 if label.startswith(("ar1", "predetermined"))}
        monkeypatch.setattr(WeightFactors, "Z", property(lambda f: pytest.fail("Z formed")))
        for label, (w, Z) in cases.items():
            q = Z.shape[-1]
            w.mean()
            w.bilinear(np.ones((*Z.shape[:-3], q)), np.ones((*Z.shape[:-3], q, 1)))

    def test_dense_factors_are_their_own_values(self):
        """Identity-map factors are read without a copy."""
        for label, (w, _) in _factor_cases().items():
            if not label.startswith(("ar1", "predetermined")):
                assert w.idx is None and w.Z is w.values, label

    @pytest.mark.parametrize("label", ["iv", "predetermined", "ar1"])
    def test_systems_and_stacks_read_the_dense_blocks(self, label):
        if label == "iv":
            y, X, Z = dgp_iv(80, 0.5, ReplicationStreams(61, 0))
            sysm, want = build_iv_system(y, X, Z), Z[:, None, :]
        else:
            streams = ReplicationStreams(61, 1 if label == "predetermined" else 2)
            panel = (dgp_panel_lag(40, 5, 0.3, streams) if label == "predetermined"
                     else dgp_panel_rc(40, 6, 0.2, streams))
            sysm = build_ab_system(panel, mode=label)
            want = _dense_diff_gmm(panel.y, panel.x, label)[2]
        idx = np.random.default_rng(3).integers(0, sysm.n, (7, sysm.n))
        assert _same_bits(sysm.Z_obs, want)
        assert _same_bits(BatchGmm.from_stack([sysm, sysm]).Z_obs, np.stack([want, want]))
        gathered = BatchGmm.from_system(sysm, idx)
        assert _same_bits(gathered.Z_obs, np.take(want, idx, axis=0))
        assert gathered.factors.idx is sysm.factors.idx
        assert _same_bits(gathered.system(2).Z_obs, want[idx[2]])

    def test_stacks_of_different_maps_are_refused(self):
        """``from_stack`` keeps the stored values under the systems' one index
        map; systems whose maps differ are refused, as a different H is."""
        compact = dict(_builder_systems())["ar1"]
        dense = LinearMomentSystem(h=compact.h, G_obs=compact.G_obs, Z_obs=compact.Z_obs,
                                   H=compact.H)
        assert dense.factors.idx is None
        for rows in ([compact, compact, dense], [dense, compact], [compact, dense, compact]):
            with pytest.raises(ValueError, match="index map"):
                BatchGmm.from_stack(rows)
        kept = BatchGmm.from_stack([compact, compact]).factors
        assert kept.idx is compact.factors.idx
        assert kept.values.shape == (2, *compact.factors.values.shape)
