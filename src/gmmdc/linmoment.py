"""Linear-in-parameter moment condition systems.

A system stores, per observation unit i, the constant ``h_i`` and Jacobian
``G_i`` of a moment function that is exactly linear in the parameter:

    g_i(theta) = h_i + G_i theta.

Builders are provided for cross-sectional IV data and for balanced dynamic
panels estimated by first-differenced GMM (one moment block per individual,
so the observation unit for panels is the individual and every n-denominated
formula downstream uses N).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import SingularWeightError

#: Condition number beyond which a weight, normal or correction matrix is
#: declared numerically singular.
COND_LIMIT = 1e12


class WeightKind(Enum):
    """Supported one-step / preliminary weight matrix choices."""

    IDENTITY = "identity"
    DATA_AVERAGE = "data-average"
    EFFICIENT = "efficient"
    EFFICIENT_CENTERED = "efficient-centered"


@dataclass(frozen=True)
class WeightSpec:
    """A weight matrix specification.

    ``IDENTITY`` is the q x q identity; ``DATA_AVERAGE`` is the mean of the
    per-observation contributions ``W(X_i)`` stored on the system (Z_i Z_i'
    for IV, Z_i' H Z_i for difference GMM); the efficient kinds are
    the (un)centered second-moment matrix of g_i evaluated at ``theta``.
    """

    kind: WeightKind
    theta: Optional[np.ndarray] = None

    def __post_init__(self):
        needs_theta = self.kind in (WeightKind.EFFICIENT, WeightKind.EFFICIENT_CENTERED)
        if needs_theta and self.theta is None:
            raise ValueError(f"{self.kind.value} weight requires an evaluation point")
        if not needs_theta and self.theta is not None:
            raise ValueError(f"{self.kind.value} weight takes no evaluation point")

    @staticmethod
    def identity() -> "WeightSpec":
        return WeightSpec(WeightKind.IDENTITY)

    @staticmethod
    def data_average() -> "WeightSpec":
        return WeightSpec(WeightKind.DATA_AVERAGE)

    @staticmethod
    def efficient_uncentered(theta) -> "WeightSpec":
        if theta is None:
            raise ValueError("efficient weight requires an evaluation point")
        return WeightSpec(WeightKind.EFFICIENT, np.asarray(theta, dtype=float))

    @staticmethod
    def efficient_centered(theta) -> "WeightSpec":
        if theta is None:
            raise ValueError("efficient weight requires an evaluation point")
        return WeightSpec(WeightKind.EFFICIENT_CENTERED, np.asarray(theta, dtype=float))


#: Entries of H Z_i that :meth:`WeightFactors.mean` forms at once (512 kB).
MEAN_BLOCK = 2**16


class WeightFactors(NamedTuple):
    """Per-observation weight contributions W(X_i) = Z_i' H Z_i in factored form.

    ``Z`` has shape (..., n, e, q), with any leading replication axes, and
    ``H`` is the symmetric (e, e) core shared by every observation. Every
    contribution Xi_i of the package takes this form: data-average weights
    store it, and efficient weights' g_i g_i' are :meth:`rank_one`.
    """

    Z: np.ndarray
    H: np.ndarray

    @staticmethod
    def rank_one(f: np.ndarray) -> "WeightFactors":
        """Rank-one contributions f_i f_i' of rows f, shape (..., n, q): e = 1, H = [[1]]."""
        return WeightFactors(f[..., None, :], np.ones((1, 1)))

    def mean(self) -> np.ndarray:
        """The mean of W(X_i) over observations, shape (..., q, q), bit for
        bit one product Z' (H Z) over the whole stack.

        H Z_i is formed for blocks of replications of at most
        :data:`MEAN_BLOCK` = 2**16 entries (one replication at least), so no
        second copy of the factors is held. With one BLAS thread that bound
        took 5.9 instead of 8.1 ms on a panel-rc chunk (64, 200, 6, 21) and
        74 instead of 140 ms on a panel bootstrap stack (499, 500, 5, 15),
        where 2**17 and 2**18 were slower, and the same time on IV stacks.
        """
        *lead, n, e, q = self.Z.shape
        Zf = self.Z.reshape(-1, n * e, q)
        out = np.empty((len(Zf), q, q))
        step = max(1, MEAN_BLOCK // (n * e * q))
        for lo in range(0, len(Zf), step):
            block = Zf[lo:lo + step]
            HZ = (self.H @ block.reshape(-1, n, e, q)).reshape(block.shape)
            out[lo:lo + step] = np.swapaxes(block, -1, -2) @ HZ
        return _sym(out.reshape(*lead, q, q) / n)

    def times(self, b: np.ndarray) -> np.ndarray:
        """W(X_i) b = Z_i' H (Z_i b) for every observation, shape (..., n, q)."""
        *lead, n, e, q = self.Z.shape
        Zb = (self.Z.reshape(*lead, n * e, q) @ b[..., None]).reshape(*lead, n, e)
        return np.einsum("...neq,...ne->...nq", self.Z, Zb @ self.H.T)


def full_factors(W: np.ndarray) -> WeightFactors:
    """Exact factors of full contributions W_i, shape (..., n, q, q).

    Z_i = [I; W_i] (2q x q) and H = [[0, I/2], [I/2, 0]], so Z_i' H Z_i =
    (W_i + W_i')/2, which is W_i itself for a symmetric slice: the halving is
    exact in binary and every other term is an exact zero.
    """
    W = np.asarray(W, dtype=float)
    q = W.shape[-1]
    Z = np.concatenate([np.broadcast_to(np.eye(q), W.shape), W], axis=-2)
    half, zero = 0.5 * np.eye(q), np.zeros((q, q))
    return WeightFactors(Z, np.block([[zero, half], [half, zero]]))


# Formulas on stacks of R systems, h (R, n, q) and G (R, n, q, k). The kernel applies
# them to its stacks and a system's helpers to its one-system stack, so both agree.


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _obs_mean(a: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """The mean over the observations (axis 1) of a stack a (R, n, ...), bit
    for bit ``a.mean(axis=1)``.

    numpy reduces that middle axis one observation at a time over rows of
    width m, slowly when they are short. For R >= 8, 2 <= m <= 16 and at most
    2**20 entries, the sum runs over the (n, R m) copy ``moveaxis(a, 1, 0)``:
    the same terms in the same order. Measured with one BLAS thread, that
    took 0.40-0.65 of the plain mean's time at R = 64 and 499, and longer at
    m = 1, at R <= 4, at m >= 24 and beyond about 1.3e6 entries.
    """
    R, n = a.shape[:2]
    if R >= 8 and 2 <= a[0, 0].size <= 16 and a.size <= 2**20 and a.flags.c_contiguous:
        mean = np.moveaxis(a, 1, 0).reshape(n, -1).sum(axis=0).reshape(R, *a.shape[2:]) / n
    else:
        mean = a.mean(axis=1)
    return mean[:, None] if keepdims else mean


def _moments(h: np.ndarray, G: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """g_i(theta) = h_i + G_i theta (R, n, q) for per-replication parameters theta (R, k)."""
    return h + np.einsum("rnqk,rk->rnq", G, theta)


def _omega(g: np.ndarray, centered: bool = False) -> np.ndarray:
    """Omega_n (R, q, q): the mean of g_i g_i' over the n rows of g (R, n, q),
    or of (g_i - g_n)(g_i - g_n)' when centered."""
    n = g.shape[1]
    if centered:
        g = g - _obs_mean(g, keepdims=True)
    return _sym(np.swapaxes(g, 1, 2) @ g / n)


def _omega_derivatives(g: np.ndarray, G: np.ndarray, centered: bool) -> np.ndarray:
    """dOmega_n/dtheta_j (R, q, q, k) for all k columns j at the moments g (R, n, q):
    Upsilon_j + Upsilon_j', where Upsilon_j is the mean of g_i times column j
    of G_i transposed (both demeaned when centered), formed by one GEMM."""
    R, n, q, k = G.shape
    if centered:
        g = g - _obs_mean(g, keepdims=True)
        G = G - _obs_mean(G, keepdims=True)
    ups = (np.swapaxes(g, 1, 2) @ G.reshape(R, n, q * k) / n).reshape(R, q, q, k)
    return ups + np.swapaxes(ups, 1, 2)


def _preliminary_weight(spec: WeightSpec, h: np.ndarray, G: np.ndarray,
                        Z_obs: Optional[np.ndarray], H: Optional[np.ndarray]):
    """The weight (R, q, q) of ``spec`` and its per-observation contributions
    (see :meth:`LinearMomentSystem.weight_obs`), from factors Z_obs (R, n, e, q)."""
    R, _, q = h.shape
    if spec.kind is WeightKind.IDENTITY:
        return np.broadcast_to(np.eye(q), (R, q, q)), None
    if spec.kind is WeightKind.DATA_AVERAGE:
        if Z_obs is None:
            raise ValueError("system has no per-observation weight contributions")
        w = WeightFactors(Z_obs, H)
        return w.mean(), w
    theta = _check_theta(spec.theta, G.shape[-1])
    g = _moments(h, G, np.broadcast_to(theta, (R, theta.size)))
    if spec.kind is WeightKind.EFFICIENT_CENTERED:
        g = g - _obs_mean(g, keepdims=True)
    return _omega(g), WeightFactors.rank_one(g)


class LinearMomentSystem:
    """Per-observation moment constants and Jacobians of a linear GMM model.

    Systems are immutable once built, and every array must be finite (a
    NaN or inf entry raises ``ValueError``).

    Attributes
    ----------
    h : ndarray, shape (n, q)
        Moment function at theta = 0, one row per observation unit.
    G_obs : ndarray, shape (n, q, k)
        Per-observation Jacobians (constant in theta by linearity).
    Z_obs : ndarray, shape (n, e, q), optional
    H : ndarray, shape (e, e), optional
        Factors of the per-observation weight contributions
        W(X_i) = Z_i' H Z_i, whose mean is the ``DATA_AVERAGE`` weight. The
        builders store these: for IV, Z_i is the instrument row (e = 1,
        H = [[1]]); for difference GMM it is the (T-1) x q instrument block
        and H the 2/-1 band. Given together; ``H`` must be exactly symmetric.
    W_obs : ndarray, shape (n, q, q), optional
        The contributions in full, as an alternative to ``Z_obs`` and ``H``.
        A supplied tensor must have symmetric slices; it is stored as its
        exact factors (:func:`full_factors`, e = 2q). Reading ``W_obs``
        builds Z_i' H Z_i on demand on every access; :meth:`weight_matrix`
        and :meth:`weight_obs` never materialize it.

    Clustered data enter as one row per cluster: sum each cluster's moment
    rows into one block before building the system, as the panel builder
    does per individual.
    """

    def __init__(self, h, G_obs, W_obs=None, Z_obs=None, H=None):
        h = np.asarray(h, dtype=float)
        G = np.asarray(G_obs, dtype=float)
        if h.ndim != 2:
            raise ValueError("h must be an (n, q) array")
        n, q = h.shape
        if G.ndim != 3 or G.shape[:2] != (n, q):
            raise ValueError("G_obs must be an (n, q, k) array matching h")
        k = G.shape[2]
        if not (q >= k >= 1):
            raise ValueError(f"need q >= k >= 1, got q={q}, k={k}")
        if n <= q:
            raise ValueError(f"need n > q for nonsingular sample moments, got n={n}, q={q}")
        if (Z_obs is None) != (H is None):
            raise ValueError("Z_obs and H must be given together")
        if W_obs is not None:
            if Z_obs is not None:
                raise ValueError("give W_obs or its factors Z_obs and H, not both")
            W_obs = np.asarray(W_obs, dtype=float)
            if W_obs.shape != (n, q, q):
                raise ValueError("W_obs must be an (n, q, q) array")
            if not np.all(np.isfinite(W_obs)):     # its factors would turn inf into 0 * inf
                raise ValueError("W_obs has missing or non-finite entries")
            if not np.allclose(W_obs, np.swapaxes(W_obs, 1, 2), rtol=1e-10, atol=1e-12):
                raise ValueError("every W(X_i) must be symmetric")
            Z_obs, H = full_factors(W_obs)
        elif Z_obs is not None:
            Z_obs = np.asarray(Z_obs, dtype=float)
            H = np.asarray(H, dtype=float)
            if Z_obs.ndim != 3 or Z_obs.shape[0] != n or Z_obs.shape[2] != q:
                raise ValueError("Z_obs must be an (n, e, q) array")
            if H.shape != (Z_obs.shape[1],) * 2:
                raise ValueError("H must be an (e, e) array matching Z_obs")
        for name, a in (("h", h), ("G_obs", G), ("Z_obs", Z_obs), ("H", H)):
            if a is not None and not np.isfinite(a).all():
                raise ValueError(f"{name} has missing or non-finite entries")
        if H is not None and not np.array_equal(H, H.T):
            raise ValueError("H must be symmetric")
        vars(self).update(h=h, G_obs=G, Z_obs=Z_obs, H=H)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def W_obs(self) -> Optional[np.ndarray]:
        """Per-observation weight contributions in full, shape (n, q, q), or None."""
        if self.Z_obs is None:
            return None
        return np.swapaxes(self.Z_obs, 1, 2) @ (self.H @ self.Z_obs)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def q(self) -> int:
        return self.h.shape[1]

    @property
    def k(self) -> int:
        return self.G_obs.shape[2]

    def g_obs(self, theta: np.ndarray) -> np.ndarray:
        """Per-observation moments g_i(theta) = h_i + G_i theta, shape (n, q)."""
        theta = _check_theta(theta, self.k)
        return _moments(self.h[None], self.G_obs[None], theta[None])[0]

    def _weight(self, spec: WeightSpec):
        Z_obs = None if self.Z_obs is None else self.Z_obs[None]
        return _preliminary_weight(spec, self.h[None], self.G_obs[None], Z_obs, self.H)

    def weight_matrix(self, spec: WeightSpec) -> np.ndarray:
        """Materialize a weight specification as a q x q matrix (the efficient
        kinds' Omega_n, centered for the centered kind)."""
        return np.array(self._weight(spec)[0][0])

    def weight_obs(self, spec: WeightSpec):
        """Per-observation contributions Xi(X_i) of a weight specification.

        Returns ``None`` for the identity weight (the third term of the
        influence contributions drops) and :class:`WeightFactors` otherwise:
        ``Z_obs`` and ``H`` for the data-average weight, the rank-one factors
        of g_i (centered for the centered kind) for the efficient kinds.
        """
        w = self._weight(spec)[1]
        return None if w is None else WeightFactors(w.Z[0], w.H)


@dataclass(frozen=True)
class MomentStats:
    """Sample moment mean, Jacobian, and second-moment matrices at a point."""

    g_n: np.ndarray
    G_n: np.ndarray
    Omega: np.ndarray
    Omega_c: np.ndarray


@dataclass(frozen=True)
class PanelDataset:
    """A balanced panel with a scalar regressor.

    ``y`` is N x T; ``x`` is N x T and may be omitted for pure AR(1) panels
    where the regressor is the lagged outcome. Missing cells are rejected:
    unbalanced panels are out of scope.
    """

    y: np.ndarray
    x: Optional[np.ndarray] = None
    balanced: bool = field(default=True)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if y.ndim != 2:
            raise ValueError("y must be an N x T array")
        if not self.balanced:
            raise ValueError("unbalanced panels are not supported")
        if not np.all(np.isfinite(y)):
            raise ValueError("panel has missing or non-finite cells; unbalanced panels are not supported")
        if self.x is not None:
            x = np.asarray(self.x, dtype=float)
            object.__setattr__(self, "x", x)
            if x.shape != y.shape:
                raise ValueError("x must match the shape of y")
            if not np.all(np.isfinite(x)):
                raise ValueError("panel has missing or non-finite cells; unbalanced panels are not supported")

    @property
    def N(self) -> int:
        return self.y.shape[0]

    @property
    def T(self) -> int:
        return self.y.shape[1]


def build_iv_system(y: np.ndarray, X: np.ndarray, Z: np.ndarray) -> LinearMomentSystem:
    """Build the moment system of a linear IV regression y_i = X_i' theta + e_i.

    The moments are g_i(theta) = Z_i (y_i - X_i' theta), so h_i = Z_i y_i and
    G_i = -Z_i X_i'. The weight contributions Z_i Z_i' are stored as their
    factors (``Z_obs`` holds each instrument row, ``H`` = [[1]]), making the
    data-average weight equal to Z'Z / n (the 2SLS weight).

    Parameters
    ----------
    y : ndarray, shape (n,)
    X : ndarray, shape (n, k) or (n,)
    Z : ndarray, shape (n, q) or (n,)

    Raises
    ------
    ValueError
        On dimension mismatch, missing or non-finite entries, or q < k.
    SingularWeightError
        If Z'Z is rank deficient (never silently pseudo-inverted).
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if Z.ndim == 1:
        Z = Z[:, None]
    n = y.shape[0]
    if X.shape[0] != n or Z.shape[0] != n:
        raise ValueError("y, X, Z must have the same number of rows")
    for name, a in (("y", y), ("X", X), ("Z", Z)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} has missing or non-finite entries")
    k, q = X.shape[1], Z.shape[1]
    if q < k:
        raise ValueError(f"need at least as many instruments as regressors, got q={q} < k={k}")
    gram = Z.T @ Z
    w = np.linalg.eigvalsh(gram)
    if w.min() <= w.max() / COND_LIMIT:
        cond = np.inf if w.min() <= 0 else w.max() / w.min()
        raise SingularWeightError(
            f"instrument Gram matrix Z'Z is rank deficient (condition number {cond:.3e})"
        )
    h = Z * y[:, None]
    G_obs = -np.einsum("nq,nk->nqk", Z, X)
    return LinearMomentSystem(h=h, G_obs=G_obs, Z_obs=Z[:, None, :].copy(), H=np.ones((1, 1)))


def differencing_weight(m: int) -> np.ndarray:
    """The m x m band matrix with 2 on the diagonal and -1 on the first off-diagonals.

    This is the covariance (up to scale) of first-differenced white noise and
    the standard one-step weight core for difference GMM.
    """
    H = 2.0 * np.eye(m)
    idx = np.arange(m - 1)
    H[idx, idx + 1] = -1.0
    H[idx + 1, idx] = -1.0
    return H


def build_ab_system(panel: PanelDataset, mode: str = "predetermined") -> LinearMomentSystem:
    """Build the first-differenced GMM system of a balanced dynamic panel.

    In ``"predetermined"`` mode the model is y_it = x_it beta + eta_i + v_it
    with x predetermined; the differenced equation at t = 2..T is instrumented
    by z_it = (x_i1, ..., x_{i,t-1}), giving q = T(T-1)/2 moments. In
    ``"ar1"`` mode the regressor is the lagged outcome (x_it := y_{i,t-1});
    equations run over t = 3..T with instruments (y_i1, ..., y_{i,t-2}) and
    q = (T-1)(T-2)/2.

    Each individual contributes one moment block Z_i' dy_i, so the returned
    system has n = N rows and the individual is the unit of standard errors
    and of bootstrap resampling. The weight
    contributions Z_i' H Z_i are stored as their factors: ``Z_obs`` holds the
    (T-1) x q instrument blocks Z_i (T-2 rows in ``"ar1"`` mode) and ``H`` is
    the usual 2/-1 band matrix.

    Raises
    ------
    ValueError
        If T < 3 or the panel is unbalanced.
    """
    if mode not in ("predetermined", "ar1"):
        raise ValueError(f"unknown mode {mode!r}")
    if panel.T < 3:
        raise ValueError("difference GMM needs T >= 3")
    if mode == "ar1":
        # Relabel so the lagged outcome is an ordinary predetermined regressor
        # observed over T-1 periods.
        return _build_diff_gmm(panel.y[:, 1:], panel.y[:, :-1])
    if panel.x is None:
        raise ValueError("predetermined mode requires a regressor column")
    return _build_diff_gmm(panel.y, panel.x)


def _build_diff_gmm(y: np.ndarray, x: np.ndarray) -> LinearMomentSystem:
    N, T = y.shape
    e = T - 1                      # differenced equations t = 2..T
    q = T * (T - 1) // 2
    dy = np.diff(y, axis=1)        # (N, T-1)
    dx = np.diff(x, axis=1)

    # Zmat[i] is the (T-1) x q instrument matrix diag(z_i2', ..., z_iT').
    Zmat = np.zeros((N, e, q))
    off = 0
    for t in range(2, T + 1):
        width = t - 1
        Zmat[:, t - 2, off:off + width] = x[:, :width]
        off += width

    h = np.einsum("net,ne->nt", Zmat, dy)
    G_obs = -np.einsum("net,ne->nt", Zmat, dx)[:, :, None]
    return LinearMomentSystem(h=h, G_obs=G_obs, Z_obs=Zmat, H=differencing_weight(e))


def moment_stats(sys: LinearMomentSystem, theta: np.ndarray) -> MomentStats:
    """Sample mean, Jacobian, and (un)centered second moments of g_i(theta).

    Returns g_n(theta), G_n, Omega_n(theta) = mean of g_i g_i', and the
    centered variant, the mean of (g_i - g_n)(g_i - g_n)'.
    """
    g = sys.g_obs(theta)[None]
    return MomentStats(g_n=_obs_mean(g)[0], G_n=_obs_mean(sys.G_obs[None])[0],
                       Omega=_omega(g)[0], Omega_c=_omega(g, True)[0])


def omega_derivative(sys: LinearMomentSystem, theta: np.ndarray, j: int,
                     centered: bool = False) -> np.ndarray:
    """Derivative of the weight matrix Omega_n(theta) in coordinate j.

    Returns Upsilon_j + Upsilon_j' where Upsilon_j(theta) is the sample mean
    of g_i(theta) times the j-th Jacobian column transposed; with
    ``centered=True`` both factors are demeaned, giving the derivative of the
    centered second-moment matrix. ``j`` is a 0-based coordinate index.
    """
    if not 0 <= j < sys.k:
        raise IndexError(f"coordinate index {j} out of range for k={sys.k}")
    return _omega_derivatives(sys.g_obs(theta)[None], sys.G_obs[None], centered)[0, :, :, j]


def _check_theta(theta, k: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape != (k,):
        raise ValueError(f"theta must have length {k}, got {theta.shape}")
    return theta
