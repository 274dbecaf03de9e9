"""The GMM estimation kernel, over stacks of R same-shaped moment systems.

Every fit, variance matrix and J statistic in the package is computed here:
Monte Carlo chunks and bootstrap resamples run as one stack, and ``fit``,
``solve_weighted``, ``variance_report``, ``m_contributions``, ``d_hat`` and
``j_test`` are R = 1 views. :meth:`BatchGmm.fit` is the fit stage,
:meth:`BatchGmm.variance` the variance stage and :meth:`BatchGmm.run` both.
A replication that fails a check gets a :class:`Reason` code and the
condition number that failed; its numbers are unusable. The R = 1 views raise
the matching :class:`~gmmdc.errors.GmmError` instead. The independent oracle
is the closed forms in ``tests/reference_formulas.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import TYPE_CHECKING, List, NamedTuple, Optional

import numpy as np

from .errors import IllConditionedCorrectionError, SingularNormalMatrixError, SingularWeightError
from .linmoment import COND_LIMIT, LinearMomentSystem, WeightFactors, WeightKind, contribution_times

if TYPE_CHECKING:
    from .estimate import FitPlan


class Reason(IntEnum):
    """Outcome of one replication. Codes from ``PRELIMINARY_WEIGHT_NOT_PD`` on
    are fatal; a replication keeps the first fatal reason it meets."""

    OK = 0
    NOT_CONVERGED = 1                # iterated fit hit max_iter; the last iterate is kept
    PRELIMINARY_WEIGHT_NOT_PD = 2    # the preliminary (or a supplied fixed) weight
    EFFICIENT_WEIGHT_NOT_PD = 3
    SINGULAR_NORMAL_MATRIX = 4       # cond(G_n' W^-1 G_n) > COND_LIMIT
    ILL_CONDITIONED_CORRECTION = 5   # cond(I - D_hat) > COND_LIMIT

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")


FATAL_REASONS = tuple(r for r in Reason if r >= Reason.PRELIMINARY_WEIGHT_NOT_PD)

#: The error each fatal reason raises in the R = 1 views.
_ERRORS = {
    Reason.PRELIMINARY_WEIGHT_NOT_PD:
        (SingularWeightError, "preliminary weight is not positive definite"),
    Reason.EFFICIENT_WEIGHT_NOT_PD:
        (SingularWeightError, "efficient weight is not positive definite"),
    Reason.SINGULAR_NORMAL_MATRIX:
        (SingularNormalMatrixError, "G_n' W^-1 G_n is numerically singular"),
    Reason.ILL_CONDITIONED_CORRECTION:
        (IllConditionedCorrectionError, "(I - D_hat) is too ill-conditioned to invert"),
}


class Status:
    """Per-replication :class:`Reason` codes, the condition number behind each
    fatal one (NaN elsewhere) and ``ok``, the mask of rows with no fatal one."""

    def __init__(self, R: int):
        self.reason = np.zeros(R, dtype=np.int8)
        self.cond = np.full(R, np.nan)
        self.ok = np.ones(R, dtype=bool)

    def flag(self, bad: np.ndarray, code: Reason, cond: Optional[np.ndarray] = None) -> None:
        """Record ``code`` on the rows ``bad`` that have no fatal reason yet."""
        rows = bad & self.ok
        if not rows.any():
            return
        self.reason[rows] = code
        if code in FATAL_REASONS:
            self.ok[rows] = False
        if cond is not None:
            self.cond[rows] = cond[rows]

    def raise_for(self, r: int = 0) -> None:
        """Raise the error matching replication ``r``'s fatal reason, if any."""
        code = Reason(self.reason[r])
        if code in _ERRORS:
            error, what = _ERRORS[code]
            raise error(f"{what} (condition number {self.cond[r]:.3e})")


class _Solve(NamedTuple):
    theta: np.ndarray    # (R, k)
    aG: np.ndarray       # (R, q, k): W^-1 G_n
    M: np.ndarray        # (R, k, k): G_n' W^-1 G_n
    M_inv: np.ndarray
    passed: np.ndarray   # (R,) rows whose weight and normal matrix passed


@dataclass
class BatchFit:
    """Fitted estimates of a stack: the input of the variance stage.

    ``first`` is the solve with the preliminary weight ``w0`` (its estimate
    is the one-step estimate). ``omega`` is the second-moment weight at the J
    point, Omega_n(first.theta) for one- and two-step fits and
    Omega_n(theta) for iterated fits, ``g_w`` the moments g_i it is built
    from, and ``final`` the solve with it (the two-step's second step;
    ``first`` for one-step fits). ``iterates`` holds
    the estimate after every solve, so replication r's chain is
    ``iterates[:iterations[r]]``.
    """

    plan: "FitPlan"
    theta: np.ndarray                        # (R, k)
    w0: np.ndarray                           # (R, q, q)
    w0_obs: object                           # its contributions, as for contribution_times
    g_w: np.ndarray                          # (R, n, q): g_i where omega is evaluated
    omega: np.ndarray                        # (R, q, q)
    first: _Solve
    final: _Solve
    status: Status
    converged: Optional[np.ndarray] = None   # (R,) bool
    iterations: Optional[np.ndarray] = None  # (R,) int
    iterates: Optional[List[np.ndarray]] = None


@dataclass
class BatchResult:
    """Per-replication estimates, variance matrices, standard errors and J.

    ``V_w``/``se_w`` are None for one-step fits; ``C_hat`` (the cross block of
    the two-step double correction) is set for two-step fits only.
    """

    theta: np.ndarray            # (R, k)
    V_conv: np.ndarray           # (R, k, k)
    V_dc: np.ndarray             # (R, k, k)
    D_hat: np.ndarray            # (R, k, k)
    Sigma_n: np.ndarray          # (R, k, k)
    se_conv: np.ndarray          # (R, k)
    se_dc: np.ndarray            # (R, k)
    status: Status
    V_w: Optional[np.ndarray] = None
    se_w: Optional[np.ndarray] = None
    C_hat: Optional[np.ndarray] = None
    j_stat: Optional[np.ndarray] = None
    converged: Optional[np.ndarray] = None
    iterations: Optional[np.ndarray] = None

    @property
    def ok(self) -> np.ndarray:
        """(R,) mask of replications with no fatal reason."""
        return self.status.ok


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _cond(w: np.ndarray) -> np.ndarray:
    """Condition numbers max|w| / min|w| from the eigenvalues ``w`` of each
    symmetric matrix (infinite when singular or non-finite)."""
    aw = np.abs(w)
    lo, hi = aw.min(axis=-1), aw.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isfinite(w).all(axis=-1) & (lo > 0), hi / lo, np.inf)


def _masked_solve(a: np.ndarray, b: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Batched solve with failed rows replaced by the identity system."""
    a = np.where(ok[:, None, None], a, np.eye(a.shape[-1])[None])
    if b.ndim == a.ndim - 1:        # stack of vectors
        return np.linalg.solve(a, b[..., None])[..., 0]
    return np.linalg.solve(a, b)


def _omega(g: np.ndarray, centered: bool) -> np.ndarray:
    n = g.shape[1]
    if centered:
        g = g - g.mean(axis=1, keepdims=True)
    return _sym(np.swapaxes(g, 1, 2) @ g / n)


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-replication cross moment of two (R, n, k) stacks of contributions."""
    return np.swapaxes(a, 1, 2) @ b / a.shape[1]


def _sandwich(bread: np.ndarray, meat: np.ndarray) -> np.ndarray:
    return bread @ meat @ np.swapaxes(bread, 1, 2)


def _se(v: Optional[np.ndarray], n: int) -> Optional[np.ndarray]:
    if v is None:
        return None
    return np.sqrt(np.maximum(np.diagonal(v, axis1=1, axis2=2), 0.0) / n)


class BatchGmm:
    """A stack of R linear moment systems sharing shapes (n, q, k).

    Data-average weight contributions are held as factors ``Z_obs``
    (R, n, e, q) with a shared core ``H``, the one form systems store.
    """

    def __init__(self, h: np.ndarray, G: np.ndarray, Z_obs: Optional[np.ndarray] = None,
                 H: Optional[np.ndarray] = None):
        self.h = h
        self.G = G
        self.Z_obs = Z_obs
        self.H = H
        self.R, self.n, self.q = h.shape
        self.k = G.shape[-1]
        self.h_n = h.mean(axis=1)
        self.G_n = G.mean(axis=1)

    @classmethod
    def from_system(cls, sys: LinearMomentSystem, idx: np.ndarray) -> "BatchGmm":
        """Resampled copies of one system; ``idx`` is (R, n) row indices."""
        Z_obs = None if sys.Z_obs is None else sys.Z_obs[idx]
        return cls(sys.h[idx], sys.G_obs[idx], Z_obs, sys.H)

    @classmethod
    def from_stack(cls, systems) -> "BatchGmm":
        """The stack of ``systems``, whose weight factors (if any) must share ``H``."""
        h = np.stack([s.h for s in systems])
        G = np.stack([s.G_obs for s in systems])
        first = systems[0]
        if all(s.Z_obs is None for s in systems):
            return cls(h, G)
        if not all(s.Z_obs is not None and np.array_equal(s.H, first.H) for s in systems):
            raise ValueError("stacked systems must all have weight factors with the same core H")
        return cls(h, G, np.stack([s.Z_obs for s in systems]), first.H)

    @cached_property
    def _data_average(self):
        """The data-average weight (R, q, q) and its factors, formed once per stack."""
        if self.Z_obs is None:
            raise ValueError("systems have no per-observation weight contributions")
        w = WeightFactors(self.Z_obs, self.H)
        return w.mean(), w

    def g_obs(self, theta: np.ndarray) -> np.ndarray:
        """Per-observation moments for per-replication parameters (R, k)."""
        return self.h + np.einsum("rnqk,rk->rnq", self.G, theta)

    def _efficient(self, plan: "FitPlan", theta: np.ndarray):
        """g_i(theta) and the second-moment weight Omega_n(theta) built from it,
        centered if ``plan`` says so."""
        g = self.g_obs(theta)
        return g, _omega(g, plan.centered)

    def _w0(self, plan: "FitPlan"):
        """Preliminary weight (R, q, q) and its per-observation contributions
        (None for the identity, whose influence term drops)."""
        kind = plan.w0.kind
        if kind is WeightKind.IDENTITY:
            return np.broadcast_to(np.eye(self.q), (self.R, self.q, self.q)), None
        if kind is WeightKind.DATA_AVERAGE:
            return self._data_average
        g = self.g_obs(np.broadcast_to(plan.w0.theta, (self.R, self.k)))
        if kind is WeightKind.EFFICIENT_CENTERED:
            g = g - g.mean(axis=1, keepdims=True)
        return _omega(g, False), g

    def _check_pd(self, weight, status: Status, code: Reason, live: np.ndarray) -> np.ndarray:
        """Flag ``code`` on the ``live`` rows whose weight is not positive
        definite; returns the positive definite mask."""
        w = np.linalg.eigvalsh(_sym(weight))
        pd = w[..., 0] > 0.0
        if (live & ~pd).any():
            status.flag(live & ~pd, code, _cond(w))
        return pd

    def solve(self, weight, status: Status, code: Reason = Reason.PRELIMINARY_WEIGHT_NOT_PD,
              live: Optional[np.ndarray] = None) -> _Solve:
        """One weighted solve theta = -(G_n' W^-1 G_n)^-1 G_n' W^-1 h_n.

        Rows in ``live`` (default: all) whose weight is not positive definite
        get ``code``, those whose normal matrix fails the condition limit
        ``SINGULAR_NORMAL_MATRIX``. Rows that fail, here or before, are solved
        against identity matrices and marked False in ``passed``.
        """
        live = np.ones(self.R, dtype=bool) if live is None else live
        passed = status.ok & self._check_pd(weight, status, code, live)
        aG = _masked_solve(weight, self.G_n, passed)
        M = _sym(np.swapaxes(self.G_n, 1, 2) @ aG)
        cond = _cond(np.linalg.eigvalsh(M))
        status.flag(live & passed & ~(cond <= COND_LIMIT), Reason.SINGULAR_NORMAL_MATRIX, cond)
        passed &= cond <= COND_LIMIT
        M_safe = np.where(passed[:, None, None], M, np.eye(self.k)[None])
        rhs = np.swapaxes(aG, 1, 2) @ self.h_n[..., None]
        theta = -np.linalg.solve(M_safe, rhs)[..., 0]
        M_inv = np.linalg.inv(M_safe)
        return _Solve(theta, aG, M, M_inv, passed)

    def _m_contrib(self, g, aG, b, w_obs):
        """Influence contributions (R, n, k); ``w_obs`` as for contribution_times."""
        m = g @ aG + np.einsum("rnqk,rq->rnk", self.G, b)
        if w_obs is not None:
            m = m - contribution_times(w_obs, b) @ aG
        return m

    def _d_hat(self, g_weight, aG, u, M_inv, centered):
        """Weight-estimation correction (R, k, k): column j is M^-1 aG' (dOmega/dtheta_j) u,
        with the cross moments of g and all k columns of G formed by one GEMM."""
        R, n, q, k = self.G.shape
        g, G = g_weight, self.G
        if centered:
            g = g - g.mean(axis=1, keepdims=True)
            G = G - self.G_n[:, None]
        ups = (np.swapaxes(g, 1, 2) @ G.reshape(R, n, q * k) / n).reshape(R, q, q, k)
        domega = ups + np.swapaxes(ups, 1, 2)   # symmetric, so u' dOmega_j = (dOmega_j u)'
        domega_u = (u[:, None, :] @ domega.reshape(R, q, q * k)).reshape(R, q, k)
        return M_inv @ np.swapaxes(aG, 1, 2) @ domega_u

    # ------------------------------------------------------------------
    # fit stage

    def fit(self, plan: "FitPlan") -> BatchFit:
        """Run ``plan``'s estimator on every replication.

        The two-step estimator reweights with the second-moment matrix at the
        one-step estimate; the iterated estimator repeats that update until
        the step is below ``tol * (1 + ||previous||)`` or ``max_iter`` updates
        are spent, which leaves the reason ``NOT_CONVERGED``.
        """
        status = Status(self.R)
        w0, w0_obs = self._w0(plan)
        first = final = self.solve(w0, status)
        theta, iterates = first.theta, [first.theta]
        converged = np.ones(self.R, dtype=bool)
        iterations = np.ones(self.R, dtype=int)
        g_w, omega = self._efficient(plan, theta)
        if plan.kind == "two-step":
            final = self.solve(omega, status, Reason.EFFICIENT_WEIGHT_NOT_PD)
            theta = final.theta
            iterates.append(theta)
            iterations += 1
        elif plan.kind == "iterated":
            theta, converged = self._iterate(plan, theta, omega, status, iterates, iterations)
            status.flag(~converged, Reason.NOT_CONVERGED)
            g_w, omega = self._efficient(plan, theta)
            final = self.solve(omega, status, Reason.EFFICIENT_WEIGHT_NOT_PD)
        return BatchFit(plan, theta, w0, w0_obs, g_w, omega, first, final, status, converged,
                        iterations, iterates)

    def _iterate(self, plan, theta1, omega, status, iterates, iterations):
        """Iterated updates from ``theta1`` (whose weight is ``omega``);
        replications freeze once converged or failed."""
        theta_prev = theta1
        theta = theta1.copy()
        frozen = np.zeros(self.R, dtype=bool)
        converged = np.zeros(self.R, dtype=bool)
        for _ in range(plan.max_iter):
            step = self.solve(omega, status, Reason.EFFICIENT_WEIGHT_NOT_PD, live=~frozen)
            active = ~frozen & step.passed
            iterates.append(step.theta)
            iterations += active
            size = np.linalg.norm(step.theta - theta_prev, axis=1)
            hit = active & (size < plan.tol * (1 + np.linalg.norm(theta_prev, axis=1)))
            theta[active] = step.theta[active]
            converged |= hit
            frozen |= hit | ~status.ok
            if frozen.all():
                break
            theta_prev = np.where(frozen[:, None], theta_prev, step.theta)
            _, omega = self._efficient(plan, theta_prev)
        return theta, converged

    def resume(self, plan: "FitPlan", theta: np.ndarray) -> BatchFit:
        """The fit state of estimates ``theta`` found earlier by :meth:`fit`
        with ``plan``: the solves and weights the variance stage needs."""
        status = Status(self.R)
        w0, w0_obs = self._w0(plan)
        first = final = self.solve(w0, status)
        g_w, omega = self._efficient(plan, theta if plan.kind == "iterated" else first.theta)
        if plan.kind != "one-step":
            final = self.solve(omega, status, Reason.EFFICIENT_WEIGHT_NOT_PD)
        return BatchFit(plan, theta, w0, w0_obs, g_w, omega, first, final, status)

    def chain(self, fit: BatchFit):
        """The (estimate, weight) pair of every solve of a one-replication fit."""
        thetas = [t[0] for t in fit.iterates[:fit.iterations[0]]]
        weights = [np.array(fit.w0[0])]
        weights += [self._efficient(fit.plan, t[None])[1][0] for t in thetas[:-1]]
        return list(zip(thetas, weights))

    # ------------------------------------------------------------------
    # variance stage

    def variance(self, fit: BatchFit, compute_j: bool = False) -> BatchResult:
        """All three variance estimators (and optionally J) of every fit.

        One-step fits get the conventional sandwich and the doubly corrected
        sandwich of the influence contributions. Two-step fits add the
        Windmeijer correction and assemble the double correction from the
        fitted and preliminary contributions plus their cross block. Iterated
        fits use the fixed-point forms, with the correction folded into the
        bread. Failures are added to ``fit.status``.
        """
        plan, status, n, k = fit.plan, fit.status, self.n, self.k
        theta, omega, s1, s = fit.theta, fit.omega, fit.first, fit.final
        D = np.zeros((self.R, k, k))
        V_w = C = None

        if plan.kind != "iterated":
            g = g1 = fit.g_w                   # g_i(theta) too for one-step fits
            V1_conv = _sandwich(s1.M_inv, np.swapaxes(s1.aG, 1, 2) @ omega @ s1.aG)
            m1 = self._m_contrib(g1, s1.aG, _masked_solve(fit.w0, g1.mean(axis=1), status.ok),
                                 fit.w0_obs)
            Sigma = _gram(m1, m1)
            V1_dc = _sandwich(s1.M_inv, Sigma)
            V_conv, V_dc = V1_conv, V1_dc

        if plan.kind != "one-step":
            g_w = fit.g_w
            g = self.g_obs(theta) if plan.kind == "two-step" else g_w
            u = _masked_solve(omega, g.mean(axis=1), status.ok)
            D = self._d_hat(g_w, s.aG, u, s.M_inv, plan.centered)
            Dt = np.swapaxes(D, 1, 2)
            if plan.centered:
                g_w = g_w - g_w.mean(axis=1, keepdims=True)
            m = self._m_contrib(g, s.aG, u, g_w)
            Sigma = _gram(m, m)
            V_conv = s.M_inv

        if plan.kind == "two-step":
            V_w = V_conv + D @ V_conv + V_conv @ Dt + D @ V1_conv @ Dt
            C = s1.M_inv @ _gram(m1, m) @ s.M_inv
            V_dc = _sandwich(s.M_inv, Sigma) + D @ C + np.swapaxes(C, 1, 2) @ Dt + D @ V1_dc @ Dt

        elif plan.kind == "iterated":
            eye_d = np.eye(k)[None] - D
            cond = np.linalg.cond(eye_d)
            status.flag(~(cond <= COND_LIMIT), Reason.ILL_CONDITIONED_CORRECTION, cond)
            ok = status.ok[:, None, None]
            V_w = _sandwich(np.linalg.inv(np.where(ok, eye_d, np.eye(k)[None])), s.M_inv)
            V_dc = _sandwich(np.linalg.inv(np.where(ok, s.M @ eye_d, np.eye(k)[None])), Sigma)

        V_conv, V_dc = _sym(V_conv), _sym(V_dc)
        V_w = None if V_w is None else _sym(V_w)
        return BatchResult(
            theta=theta, V_conv=V_conv, V_dc=V_dc, D_hat=D, Sigma_n=Sigma,
            se_conv=_se(V_conv, n), se_dc=_se(V_dc, n), status=status,
            V_w=V_w, se_w=_se(V_w, n), C_hat=C,
            j_stat=self.j_stat(fit, g) if compute_j else None,
            converged=fit.converged, iterations=fit.iterations,
        )

    def j_stat(self, fit: BatchFit, g: Optional[np.ndarray] = None) -> np.ndarray:
        """J = n g_n(theta)' Omega^-1 g_n(theta) with Omega = ``fit.omega``;
        rows whose Omega is not positive definite are flagged. ``g`` passes
        g_i(theta) when the caller has it."""
        if fit.plan.kind == "one-step":     # the other kinds have solved against omega
            self._check_pd(fit.omega, fit.status, Reason.EFFICIENT_WEIGHT_NOT_PD, fit.status.ok)
        g_n = (self.g_obs(fit.theta) if g is None else g).mean(axis=1)
        return self.n * (g_n * _masked_solve(fit.omega, g_n, fit.status.ok)).sum(axis=1)

    def run(self, plan: "FitPlan", compute_j: bool = False) -> BatchResult:
        """Fit ``plan`` on every replication and compute all variance kinds."""
        return self.variance(self.fit(plan), compute_j)

    # ------------------------------------------------------------------
    # the pieces of the variance formulas at supplied estimates and weights

    def m_contributions(self, theta, weight, weight_obs):
        """Influence contributions (R, n, k) at ``theta`` under ``weight``
        (R, q, q), with the third term from ``weight_obs``; returns them with
        the :class:`Status` of the weight check."""
        status = Status(self.R)
        self._check_pd(weight, status, Reason.PRELIMINARY_WEIGHT_NOT_PD, status.ok)
        g = self.g_obs(theta)
        aG = _masked_solve(weight, self.G_n, status.ok)
        b = _masked_solve(weight, g.mean(axis=1), status.ok)
        return self._m_contrib(g, aG, b, weight_obs), status

    def d_hat(self, theta_weight, theta_eval, weight, centered):
        """Weight-estimation correction (R, k, k) of ``weight``'s derivative at
        ``theta_weight``, applied to g_n(theta_eval); returns it with its
        :class:`Status`."""
        status = Status(self.R)
        s = self.solve(weight, status)
        g_eval = self.h_n + (self.G_n @ theta_eval[..., None])[..., 0]
        u = _masked_solve(weight, g_eval, status.ok)
        return self._d_hat(self.g_obs(theta_weight), s.aG, u, s.M_inv, centered), status
