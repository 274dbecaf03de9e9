"""Vectorized GMM kernels over stacks of same-shaped moment systems.

These mirror the single-system code paths in :mod:`estimate` and
:mod:`variance` with a leading replication axis, and exist purely for speed:
bootstrap resamples and Monte Carlo replications share (n, q, k) shapes, so
fits and variance matrices for hundreds of systems reduce to a handful of
einsums. Tests assert agreement with the single-system implementations.

Replications whose weight or normal matrices fail the same positive
definiteness / conditioning checks as the scalar path are flagged in the
returned ``ok`` mask; their numbers are unusable and must be discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._linalg import COND_LIMIT
from .estimate import FitPlan
from .linmoment import LinearMomentSystem, WeightFactors, WeightKind, contribution_times


@dataclass
class BatchResult:
    """Per-replication estimates, standard errors, and J statistics."""

    theta: np.ndarray            # (R, k)
    se_conv: np.ndarray          # (R, k)
    se_dc: np.ndarray            # (R, k)
    ok: np.ndarray               # (R,) bool
    se_w: Optional[np.ndarray] = None
    j_stat: Optional[np.ndarray] = None
    converged: Optional[np.ndarray] = None


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _pd_mask(a: np.ndarray) -> np.ndarray:
    """Rows whose symmetric matrix is numerically positive definite."""
    w = np.linalg.eigvalsh(_sym(a))
    finite = np.isfinite(w).all(axis=-1)
    return finite & (w[..., 0] > 0.0)


def _cond_mask(a: np.ndarray) -> np.ndarray:
    """Rows whose symmetric matrix passes the 1e12 condition-number check."""
    w = np.abs(np.linalg.eigvalsh(_sym(a)))
    finite = np.isfinite(w).all(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = w[..., -1] / w[..., 0]
    return finite & (w[..., 0] > 0.0) & (cond <= COND_LIMIT)


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
    return _sym(np.einsum("rnq,rnp->rqp", g, g) / n)


class BatchGmm:
    """A stack of R linear moment systems sharing shapes (n, q, k).

    Data-average weight contributions are held as factors ``Z_obs``
    (R, n, e, q) with a shared core ``H``, as the builders make them, or in
    full as ``W_obs`` (R, n, q, q) for systems supplied that way.
    """

    def __init__(self, h: np.ndarray, G: np.ndarray, W_obs: Optional[np.ndarray] = None,
                 Z_obs: Optional[np.ndarray] = None, H: Optional[np.ndarray] = None):
        self.h = h
        self.G = G
        self.W_obs = W_obs
        self.Z_obs = Z_obs
        self.H = H
        self.R, self.n, self.q = h.shape
        self.k = G.shape[-1]
        self.h_n = h.mean(axis=1)
        self.G_n = G.mean(axis=1)

    @classmethod
    def from_system(cls, sys: LinearMomentSystem, idx: np.ndarray) -> "BatchGmm":
        """Resampled copies of one system; ``idx`` is (R, n) row indices."""
        if sys.Z_obs is not None:
            return cls(sys.h[idx], sys.G_obs[idx], Z_obs=sys.Z_obs[idx], H=sys.H)
        W = sys.W_obs
        return cls(sys.h[idx], sys.G_obs[idx], W_obs=None if W is None else W[idx])

    @classmethod
    def from_stack(cls, systems) -> "BatchGmm":
        h = np.stack([s.h for s in systems])
        G = np.stack([s.G_obs for s in systems])
        first = systems[0]
        if all(s.Z_obs is not None and np.array_equal(s.H, first.H) for s in systems):
            return cls(h, G, Z_obs=np.stack([s.Z_obs for s in systems]), H=first.H)
        if first.W_obs is not None:
            return cls(h, G, W_obs=np.stack([s.W_obs for s in systems]))
        return cls(h, G)

    def _data_average_obs(self):
        """Data-average contributions: factors, or the full (R, n, q, q) stack."""
        if self.Z_obs is not None:
            return WeightFactors(self.Z_obs, self.H)
        if self.W_obs is None:
            raise ValueError("systems have no per-observation weight contributions")
        return self.W_obs

    def g_obs(self, theta: np.ndarray) -> np.ndarray:
        """Per-observation moments for per-replication parameters (R, k)."""
        return self.h + np.einsum("rnqk,rk->rnq", self.G, theta)

    def _w0(self, plan: FitPlan):
        """Preliminary weight matrix (R, q, q) or None for the identity."""
        kind = plan.w0.kind
        if kind is WeightKind.IDENTITY:
            return None
        if kind is WeightKind.DATA_AVERAGE:
            w = self._data_average_obs()
            return w.mean() if isinstance(w, WeightFactors) else _sym(w.mean(axis=1))
        theta = np.broadcast_to(plan.w0.theta, (self.R, self.k))
        g = self.g_obs(theta)
        return _omega(g, kind is WeightKind.EFFICIENT_CENTERED)

    def _w0_obs(self, plan: FitPlan):
        """Per-observation contributions of the preliminary weight."""
        kind = plan.w0.kind
        if kind is WeightKind.IDENTITY:
            return None
        if kind is WeightKind.DATA_AVERAGE:
            return self._data_average_obs()
        theta = np.broadcast_to(plan.w0.theta, (self.R, self.k))
        g = self.g_obs(theta)
        if kind is WeightKind.EFFICIENT_CENTERED:
            g = g - g.mean(axis=1, keepdims=True)
        return g

    def _solve_step(self, weight, ok: np.ndarray):
        """One weighted solve; returns (theta, aG, M, M_inv, updated ok)."""
        if weight is None:
            aG = self.G_n
        else:
            ok = ok & _pd_mask(weight)
            aG = _masked_solve(weight, self.G_n, ok)
        M = _sym(np.einsum("rqk,rql->rkl", self.G_n, aG))
        ok = ok & _cond_mask(M)
        M_safe = np.where(ok[:, None, None], M, np.eye(self.k)[None])
        M_inv = np.linalg.inv(M_safe)
        rhs = np.einsum("rqk,rq->rk", aG, self.h_n)
        theta = -np.einsum("rkl,rl->rk", M_inv, rhs)
        return theta, aG, M, M_inv, ok

    def _solve_weight(self, weight, b, ok):
        if weight is None:
            return b
        return _masked_solve(weight, b, ok)

    def _m_contrib(self, g, aG, b, w_obs):
        """Influence contributions (R, n, k); ``w_obs`` as in the scalar path."""
        m = np.einsum("rnq,rqk->rnk", g, aG)
        m = m + np.einsum("rnqk,rq->rnk", self.G, b)
        if w_obs is not None:
            m = m - np.einsum("rnq,rqk->rnk", contribution_times(w_obs, b), aG)
        return m

    def _d_hat(self, g_weight, G_demeaned, aG, u, M_inv, centered):
        """Weight-estimation correction (R, k, k) with a loop over the k columns."""
        g = g_weight
        if centered:
            g = g - g.mean(axis=1, keepdims=True)
        D = np.empty((self.R, self.k, self.k))
        for j in range(self.k):
            gj = G_demeaned[:, :, :, j] if centered else self.G[:, :, :, j]
            ups = np.einsum("rnq,rnp->rqp", g, gj) / self.n
            domega = ups + np.swapaxes(ups, 1, 2)
            v = np.einsum("rqk,rq->rk", aG, np.einsum("rqp,rp->rq", domega, u))
            D[:, :, j] = np.einsum("rkl,rl->rk", M_inv, v)
        return D

    def run(self, plan: FitPlan, compute_j: bool = False) -> BatchResult:
        """Fit ``plan`` on every replication and compute all variance kinds."""
        R, n, k = self.R, self.n, self.k
        ok = np.ones(R, dtype=bool)
        w0 = self._w0(plan)
        theta1, aG1, M1, M1_inv, ok = self._solve_step(w0, ok)
        converged = np.ones(R, dtype=bool)

        if plan.kind == "one-step":
            theta = theta1
        elif plan.kind == "two-step":
            g1 = self.g_obs(theta1)
            omega1 = _omega(g1, plan.centered)
            theta, aG2, M2, M2_inv, ok = self._solve_step(omega1, ok)
        else:
            theta_prev = theta1
            theta = theta1.copy()
            frozen = np.zeros(R, dtype=bool)
            converged = np.zeros(R, dtype=bool)
            for _ in range(plan.max_iter):
                omega_it = _omega(self.g_obs(theta_prev), plan.centered)
                theta_new, _, _, _, step_ok = self._solve_step(omega_it, ok)
                active = ~frozen & step_ok
                ok = ok & (step_ok | frozen)
                step = np.linalg.norm(theta_new - theta_prev, axis=1)
                hit = active & (step < plan.tol * (1 + np.linalg.norm(theta_prev, axis=1)))
                theta[active] = theta_new[active]
                converged |= hit
                frozen |= hit | ~ok
                if frozen.all():
                    break
                theta_prev = np.where(frozen[:, None], theta_prev, theta_new)

        # Variance assembly mirrors variance.variance_report.
        G_dm = None
        if plan.centered:
            G_dm = self.G - self.G_n[:, None, :, :]

        if plan.kind == "one-step":
            g1 = self.g_obs(theta1)
            omega1 = _omega(g1, plan.centered)
            meat = np.einsum("rqk,rqp,rpl->rkl", aG1, omega1, aG1)
            V_conv = M1_inv @ meat @ np.swapaxes(M1_inv, 1, 2)
            b1 = self._solve_weight(w0, self.h_n + np.einsum("rqk,rk->rq", self.G_n, theta1), ok)
            m1 = self._m_contrib(g1, aG1, b1, self._w0_obs(plan))
            Sigma = np.einsum("rnk,rnl->rkl", m1, m1) / n
            V_dc = M1_inv @ Sigma @ np.swapaxes(M1_inv, 1, 2)
            V_w = None
            j_weight, g_for_j = omega1, g1

        elif plan.kind == "two-step":
            g2 = self.g_obs(theta)
            g2_n = g2.mean(axis=1)
            u = self._solve_weight(omega1, g2_n, ok)
            D = self._d_hat(g1, G_dm, aG2, u, M2_inv, plan.centered)
            V_conv = M2_inv
            meat1 = np.einsum("rqk,rqp,rpl->rkl", aG1, omega1, aG1)
            V1_conv = M1_inv @ meat1 @ np.swapaxes(M1_inv, 1, 2)
            Dt = np.swapaxes(D, 1, 2)
            V_w = V_conv + D @ V_conv + V_conv @ Dt + D @ V1_conv @ Dt
            b1 = self._solve_weight(w0, g1.mean(axis=1), ok)
            m1 = self._m_contrib(g1, aG1, b1, self._w0_obs(plan))
            g1_factors = g1 - g1.mean(axis=1, keepdims=True) if plan.centered else g1
            m2 = self._m_contrib(g2, aG2, u, g1_factors)
            Sigma2 = np.einsum("rnk,rnl->rkl", m2, m2) / n
            Sigma1 = np.einsum("rnk,rnl->rkl", m1, m1) / n
            Cross = np.einsum("rnk,rnl->rkl", m1, m2) / n
            V2 = M2_inv @ Sigma2 @ np.swapaxes(M2_inv, 1, 2)
            V1_dc = M1_inv @ Sigma1 @ np.swapaxes(M1_inv, 1, 2)
            C = M1_inv @ Cross @ M2_inv
            V_dc = V2 + D @ C + np.swapaxes(C, 1, 2) @ Dt + D @ V1_dc @ Dt
            j_weight, g_for_j = omega1, g2

        else:
            g_hat = self.g_obs(theta)
            omega = _omega(g_hat, plan.centered)
            _, aG, M, M_inv, ok = self._solve_step(omega, ok)
            g_n_hat = g_hat.mean(axis=1)
            u = self._solve_weight(omega, g_n_hat, ok)
            D = self._d_hat(g_hat, G_dm, aG, u, M_inv, plan.centered)
            eye_d = np.eye(k)[None] - D
            ok = ok & (np.linalg.cond(eye_d) <= COND_LIMIT)
            V_conv = M_inv
            eye_d_inv = np.linalg.inv(np.where(ok[:, None, None], eye_d, np.eye(k)[None]))
            V_w = eye_d_inv @ M_inv @ np.swapaxes(eye_d_inv, 1, 2)
            g_factors = g_hat - g_n_hat[:, None, :] if plan.centered else g_hat
            m_final = self._m_contrib(g_hat, aG, u, g_factors)
            Sigma = np.einsum("rnk,rnl->rkl", m_final, m_final) / n
            bread = np.linalg.inv(np.where(ok[:, None, None], M @ eye_d, np.eye(k)[None]))
            V_dc = bread @ Sigma @ np.swapaxes(bread, 1, 2)
            j_weight, g_for_j = omega, g_hat

        def se_of(v):
            diag = np.diagonal(v, axis1=1, axis2=2)
            return np.sqrt(np.maximum(diag, 0.0) / n)

        j_stat = None
        if compute_j:
            gj_n = g_for_j.mean(axis=1)
            j_stat = n * np.einsum("rq,rq->r", gj_n, self._solve_weight(j_weight, gj_n, ok))

        return BatchResult(
            theta=theta,
            se_conv=se_of(V_conv),
            se_dc=se_of(V_dc),
            ok=ok,
            se_w=se_of(V_w) if V_w is not None else None,
            j_stat=j_stat,
            converged=converged,
        )
