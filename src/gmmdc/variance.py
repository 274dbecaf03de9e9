"""Conventional, Windmeijer-corrected, and doubly corrected variance estimators.

The doubly corrected estimator additionally accounts for the nonzero sample
moment of over-identified models through three-term influence contributions
m_i, which makes it consistent whether or not the moment condition holds in
the population. Standard errors are sqrt(diag(V / n)) with n the number of
moment blocks (individuals for panel systems).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._linalg import COND_LIMIT, PdSolver, cond_sym, inv_sym
from .errors import IllConditionedCorrectionError
from .estimate import GmmFit
from .linmoment import (
    LinearMomentSystem,
    WeightFactors,
    contribution_times,
    moment_stats,
    omega_derivative,
)


@dataclass(frozen=True)
class VarianceReport:
    """Variance matrices and standard errors for one fitted estimator.

    ``V_w`` is populated for the two-step and iterated estimators only; the
    weight-estimation correction does not apply to one-step fits. ``C_hat``
    is the cross-moment block of the two-step double correction and is absent
    otherwise. ``rank_warning`` flags a contribution covariance with rank
    below k (possible in tiny samples); standard errors are still reported
    from the diagonal.
    """

    V_conv: np.ndarray
    V_dc: np.ndarray
    D_hat: np.ndarray
    Sigma_n: np.ndarray
    se_conv: np.ndarray
    se_dc: np.ndarray
    n_units: int
    V_w: Optional[np.ndarray] = None
    se_w: Optional[np.ndarray] = None
    C_hat: Optional[np.ndarray] = None
    rank_warning: bool = False

    def se(self, kind: str) -> np.ndarray:
        """Standard errors for ``kind`` in {"conv", "w", "dc"}."""
        if kind == "conv":
            return self.se_conv
        if kind == "dc":
            return self.se_dc
        if kind == "w":
            if self.se_w is None:
                raise ValueError("the Windmeijer-corrected variance is not defined for one-step fits")
            return self.se_w
        raise ValueError(f"unknown standard error kind {kind!r}")


def m_contributions(sys: LinearMomentSystem, theta: np.ndarray,
                    weight: Union[np.ndarray, PdSolver],
                    weight_obs: Union[None, np.ndarray, WeightFactors]) -> np.ndarray:
    """Per-observation influence contributions of a weighted GMM fit.

    Row i is

        m_i = G_n' Xi^-1 g_i(theta) + G_i' Xi^-1 g_n(theta)
              - G_n' Xi^-1 Xi_i Xi^-1 g_n(theta),

    where Xi is the weight matrix and Xi_i its per-observation contribution.
    ``weight_obs=None`` marks the identity weight, for which the last term
    drops; an (n, q) array gives rank-one contributions f_i f_i' (efficient
    weights); :class:`~gmmdc.linmoment.WeightFactors` gives data-average
    contributions Z_i' H Z_i, applied as Z_i' H (Z_i b) without forming them;
    an (n, q, q) array gives them in full.

    Returns an (n, k) array whose column means vanish at the fitted estimate
    by the first-order condition.
    """
    solver = weight if isinstance(weight, PdSolver) else PdSolver(np.asarray(weight, dtype=float))
    g = sys.g_obs(theta)
    g_n = g.mean(axis=0)
    G_n = sys.G_obs.mean(axis=0)
    aG = solver.solve(G_n)                      # Xi^-1 G_n, (q, k)
    b = solver.solve(g_n)                       # Xi^-1 g_n, (q,)
    m = g @ aG + np.einsum("nqk,q->nk", sys.G_obs, b)
    if weight_obs is not None:
        m = m - contribution_times(weight_obs, b) @ aG
    return m


def d_hat(sys: LinearMomentSystem, theta_weight: np.ndarray, theta_eval: np.ndarray,
          weight: Union[np.ndarray, PdSolver], centered: bool = False) -> np.ndarray:
    """Weight-estimation correction matrix.

    Column j is (G_n' Xi^-1 G_n)^-1 G_n' Xi^-1 (dOmega_j) Xi^-1 g_n(theta_eval)
    with dOmega_j the derivative of the second-moment weight in coordinate j
    evaluated at ``theta_weight`` (centered variant when ``centered``). The
    matrix vanishes for just-identified systems where g_n(theta_eval) = 0.
    """
    solver = weight if isinstance(weight, PdSolver) else PdSolver(np.asarray(weight, dtype=float))
    G_n = sys.G_obs.mean(axis=0)
    g_eval = sys.h.mean(axis=0) + G_n @ np.asarray(theta_eval, dtype=float)
    aG = solver.solve(G_n)
    u = solver.solve(g_eval)
    m = 0.5 * ((G_n.T @ aG) + (G_n.T @ aG).T)
    msolver = PdSolver(m, "normal matrix")
    k = sys.k
    D = np.empty((k, k))
    for j in range(k):
        domega = omega_derivative(sys, theta_weight, j, centered=centered)
        D[:, j] = msolver.solve(aG.T @ (domega @ u))
    return D


def variance_report(sys: LinearMomentSystem, fit: GmmFit) -> VarianceReport:
    """All three variance estimators for a fit produced from ``sys``.

    One-step fits get the conventional sandwich and the doubly corrected
    sandwich built from the influence contributions. Two-step fits add the
    Windmeijer correction and assemble the double correction from the fitted
    and preliminary contributions plus their cross block. Iterated fits use
    the fixed-point forms, with the correction folded into the bread.
    """
    plan = fit.plan
    n = sys.n
    G_n = sys.G_obs.mean(axis=0)
    theta1 = fit.steps[0].theta
    w0_matrix = fit.steps[0].weight
    w0_solver = PdSolver(w0_matrix, "preliminary weight")
    w0_obs = sys.weight_obs(plan.w0)

    def normal_inv(solver: PdSolver) -> np.ndarray:
        m = G_n.T @ solver.solve(G_n)
        return inv_sym(0.5 * (m + m.T), "normal matrix")

    def sandwich(bread_inv: np.ndarray, meat: np.ndarray) -> np.ndarray:
        v = bread_inv @ meat @ bread_inv.T
        return 0.5 * (v + v.T)

    def efficient_obs(theta_point: np.ndarray) -> np.ndarray:
        g = sys.g_obs(theta_point)
        if plan.centered:
            g = g - g.mean(axis=0)
        return g

    if plan.kind == "one-step":
        stats = moment_stats(sys, theta1)
        omega1 = stats.Omega_c if plan.centered else stats.Omega
        minv1 = normal_inv(w0_solver)
        aG = w0_solver.solve(G_n)
        V_conv = sandwich(minv1, aG.T @ omega1 @ aG)
        m1 = m_contributions(sys, theta1, w0_solver, w0_obs)
        Sigma = m1.T @ m1 / n
        V_dc = sandwich(minv1, Sigma)
        D = np.zeros((sys.k, sys.k))
        V_w = se_w = C = None

    elif plan.kind == "two-step":
        theta2 = fit.steps[1].theta
        omega1 = fit.steps[1].weight
        om_solver = PdSolver(omega1, "efficient weight")
        minv1 = normal_inv(w0_solver)
        minv2 = normal_inv(om_solver)
        D = d_hat(sys, theta1, theta2, om_solver, centered=plan.centered)

        V_conv = minv2
        aG = w0_solver.solve(G_n)
        V1_conv = sandwich(minv1, aG.T @ omega1 @ aG)
        V_w = V_conv + D @ V_conv + V_conv @ D.T + D @ V1_conv @ D.T
        V_w = 0.5 * (V_w + V_w.T)

        m1 = m_contributions(sys, theta1, w0_solver, w0_obs)
        m2 = m_contributions(sys, theta2, om_solver, efficient_obs(theta1))
        Sigma = m2.T @ m2 / n
        V2 = sandwich(minv2, Sigma)
        V1_dc = sandwich(minv1, m1.T @ m1 / n)
        C = minv1 @ (m1.T @ m2 / n) @ minv2
        V_dc = V2 + D @ C + C.T @ D.T + D @ V1_dc @ D.T
        V_dc = 0.5 * (V_dc + V_dc.T)

    else:  # iterated: weight recomputed at the final iterate
        theta_hat = fit.theta
        stats = moment_stats(sys, theta_hat)
        omega = stats.Omega_c if plan.centered else stats.Omega
        om_solver = PdSolver(omega, "efficient weight")
        minv = normal_inv(om_solver)
        D = d_hat(sys, theta_hat, theta_hat, om_solver, centered=plan.centered)
        eye_d = np.eye(sys.k) - D
        cond = np.linalg.cond(eye_d)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise IllConditionedCorrectionError(
                f"(I - D_hat) has condition number {cond:.3e}"
            )
        eye_d_inv = np.linalg.inv(eye_d)
        V_conv = minv
        V_w = eye_d_inv @ minv @ eye_d_inv.T
        V_w = 0.5 * (V_w + V_w.T)
        m_final = m_contributions(sys, theta_hat, om_solver, efficient_obs(theta_hat))
        Sigma = m_final.T @ m_final / n
        bread = np.linalg.inv((G_n.T @ om_solver.solve(G_n)) @ eye_d)
        V_dc = bread @ Sigma @ bread.T
        V_dc = 0.5 * (V_dc + V_dc.T)
        C = None

    rank_warning = bool(np.linalg.matrix_rank(Sigma) < sys.k)
    if rank_warning:
        warnings.warn(
            "influence contribution covariance has rank below k; "
            "doubly corrected standard errors may be unreliable",
            RuntimeWarning,
            stacklevel=2,
        )

    def se_of(v: Optional[np.ndarray]) -> Optional[np.ndarray]:
        if v is None:
            return None
        return np.sqrt(np.maximum(np.diag(v), 0.0) / n)

    return VarianceReport(
        V_conv=V_conv,
        V_dc=V_dc,
        D_hat=D,
        Sigma_n=Sigma,
        se_conv=se_of(V_conv),
        se_dc=se_of(V_dc),
        n_units=n,
        V_w=V_w if plan.kind != "one-step" else None,
        se_w=se_of(V_w) if plan.kind != "one-step" else None,
        C_hat=C,
        rank_warning=rank_warning,
    )
