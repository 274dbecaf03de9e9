"""Stochastic-expansion diagnostics for drifting (local-to-zero) moment means.

Given a sample drawn from a design whose population moment mean at the truth
is delta / sqrt(n), these routines evaluate the higher-order expansion terms
of the one-step and two-step estimators around the known population
quantities, so the remainder orders can be checked empirically. A truncated
geometric (Neumann) matrix inverse is included for ordering perturbed
inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linmoment import LinearMomentSystem, WeightSpec, moment_stats


@dataclass(frozen=True)
class ExpansionTruth:
    """Population quantities of a drifting-mean design at sample size n.

    ``dOmega`` stacks the k derivative slices of the population second-moment
    matrix at the truth; ``delta`` is the scaled moment-mean violation, i.e.
    the population mean of g_i at ``theta0`` is delta / sqrt(n).
    """

    G: np.ndarray          # (q, k)
    W: np.ndarray          # (q, q)
    Omega: np.ndarray      # (q, q)
    dOmega: np.ndarray     # (k, q, q)
    delta: np.ndarray      # (q,)
    theta0: np.ndarray     # (k,)

    def __post_init__(self):
        q, k = self.G.shape
        if self.W.shape != (q, q) or self.Omega.shape != (q, q):
            raise ValueError("W and Omega must be q x q")
        if self.dOmega.shape != (k, q, q):
            raise ValueError("dOmega must stack k slices of q x q derivatives")
        if self.delta.shape != (q,) or self.theta0.shape != (k,):
            raise ValueError("delta must be length q and theta0 length k")


@dataclass(frozen=True)
class ExpansionTerms:
    """Evaluated expansion terms and the assembled prediction.

    The one-step expansion fills ``eta`` through ``B_term``; the two-step
    expansion additionally fills the derivative-driven matrices ``D``,
    ``C_tilde``, ``H_eta``, ``H_psi0``. ``predicted`` reproduces the
    expansion of sqrt(n) (theta_hat - theta0) up to the stated remainder.
    """

    eta: np.ndarray
    psi0: np.ndarray
    psi1: np.ndarray
    q_term: np.ndarray
    B_term: np.ndarray
    predicted: np.ndarray
    D: Optional[np.ndarray] = None
    C_tilde: Optional[np.ndarray] = None
    H_eta: Optional[np.ndarray] = None
    H_psi0: Optional[np.ndarray] = None


def neumann_inverse(X: np.ndarray, Y: np.ndarray, n: float, q_order: int) -> np.ndarray:
    """Truncated geometric expansion of (X + Y / sqrt(n))^-1.

    Returns sum_{j=0}^{q_order} (-X^-1 Y / sqrt(n))^j X^-1; the truncation
    error is of order n^-(q_order+1)/2.
    """
    if q_order < 0:
        raise ValueError("q_order must be nonnegative")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    cond = np.linalg.cond(X)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError(f"X is singular (condition number {cond:.3e})")
    X_inv = np.linalg.solve(X, np.eye(X.shape[0]))
    P = -(X_inv @ Y) / np.sqrt(n)
    out = X_inv.copy()
    for _ in range(q_order):
        out = X_inv + P @ out
    return out


class _Deviations:
    """Root-n deviations of the sample moments from their population values."""

    def __init__(self, sample: LinearMomentSystem, truth: ExpansionTruth):
        rn = np.sqrt(sample.n)
        stats = moment_stats(sample, truth.theta0)
        self.g_tilde = rn * stats.g_n - truth.delta
        self.G_tilde = rn * (stats.G_n - truth.G)
        self.W_tilde = np.zeros_like(truth.W)
        if sample.factors is not None:      # the system has per-observation weight contributions
            self.W_tilde = rn * (sample.weight_matrix(WeightSpec.data_average()) - truth.W)
        self.Omega_tilde = rn * (stats.Omega - truth.Omega)


def _weighted_terms(G, weight, weight_tilde, delta, g_tilde, G_tilde):
    """The five generic expansion pieces for a fixed population weight."""
    wsolve = lambda b: np.linalg.solve(weight, b)  # noqa: E731
    aG = wsolve(G)
    A = np.linalg.inv(G.T @ aG)
    w_delta = wsolve(delta)
    w_gt = wsolve(g_tilde)
    eta = -A @ (G.T @ w_delta)
    psi0 = -A @ (G.T @ w_gt)
    psi1 = -A @ (G_tilde.T @ w_delta - G.T @ wsolve(weight_tilde @ w_delta))
    q_term = -A @ (G_tilde.T @ w_gt - G.T @ wsolve(weight_tilde @ w_gt))
    B_term = -A @ (G_tilde.T @ aG - G.T @ wsolve(weight_tilde @ aG) + G.T @ wsolve(G_tilde))
    return eta, psi0, psi1, q_term, B_term, A, wsolve, aG


def onestep_expansion(sample: LinearMomentSystem, truth: ExpansionTruth) -> ExpansionTerms:
    """Expansion terms of the one-step estimator for one sample.

    The prediction is eta + psi0 + (psi1 + q + B (eta + psi0)) / sqrt(n) and
    tracks sqrt(n) (theta_hat_1 - theta0) up to an order-1/n remainder.
    """
    dev = _Deviations(sample, truth)
    eta, psi0, psi1, q_term, B_term, _, _, _ = _weighted_terms(
        truth.G, truth.W, dev.W_tilde, truth.delta, dev.g_tilde, dev.G_tilde
    )
    rn = np.sqrt(sample.n)
    predicted = eta + psi0 + (psi1 + q_term + B_term @ (eta + psi0)) / rn
    return ExpansionTerms(eta=eta, psi0=psi0, psi1=psi1, q_term=q_term,
                          B_term=B_term, predicted=predicted)


def twostep_expansion(sample: LinearMomentSystem, truth: ExpansionTruth) -> ExpansionTerms:
    """Expansion terms of the two-step estimator for one sample.

    Assembles the three-line grouping: the deterministic drift block
    eta + (D + H_eta) eta_W / sqrt(n); the stochastic block psi0 plus all
    order-1/sqrt(n) pieces; and the order-1/n cross term D psi1_W.
    """
    dev = _Deviations(sample, truth)
    k = truth.G.shape[1]
    rn = np.sqrt(sample.n)

    eta_w, psi0_w, psi1_w, _, _, _, _, _ = _weighted_terms(
        truth.G, truth.W, dev.W_tilde, truth.delta, dev.g_tilde, dev.G_tilde
    )
    eta, psi0, psi1, q_term, B_term, A, osolve, aG = _weighted_terms(
        truth.G, truth.Omega, dev.Omega_tilde, truth.delta, dev.g_tilde, dev.G_tilde
    )

    def deriv_matrix(rhs: np.ndarray) -> np.ndarray:
        cols = [A @ (aG.T @ (truth.dOmega[j] @ osolve(rhs))) for j in range(k)]
        return np.column_stack(cols)

    D = deriv_matrix(truth.delta)
    C_tilde = deriv_matrix(dev.g_tilde)
    H_eta = deriv_matrix(truth.G @ eta)
    H_psi0 = deriv_matrix(truth.G @ psi0)

    predicted = (
        eta + (D + H_eta) @ eta_w / rn
        + psi0
        + (psi1 + (D + C_tilde + H_eta + H_psi0) @ psi0_w
           + q_term + B_term @ (eta + psi0)
           + (C_tilde + H_psi0) @ eta_w) / rn
        + D @ psi1_w / sample.n
    )
    return ExpansionTerms(eta=eta, psi0=psi0, psi1=psi1, q_term=q_term,
                          B_term=B_term, predicted=predicted, D=D,
                          C_tilde=C_tilde, H_eta=H_eta, H_psi0=H_psi0)
