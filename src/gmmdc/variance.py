"""Conventional, Windmeijer-corrected, and doubly corrected variance estimators.

The doubly corrected estimator additionally accounts for the nonzero sample
moment of over-identified models through three-term influence contributions
m_i, which makes it consistent whether or not the moment condition holds in
the population. Standard errors are sqrt(diag(V / n)) with n the number of
moment blocks (individuals for panel systems). Each function here is the
R = 1 view of the estimation kernel in :mod:`gmmdc._batch`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._batch import BatchGmm
from .estimate import GmmFit, _fit_state
from .linmoment import LinearMomentSystem, WeightFactors, _rows, full_factors


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


def _lift(weight_obs) -> Optional[WeightFactors]:
    """Per-observation contributions of one system as factors with a leading
    R = 1 axis: (n, q) rows f_i become rank-one factors, full (n, q, q)
    contributions their exact factors."""
    if weight_obs is None:
        return None
    if isinstance(weight_obs, WeightFactors):
        return _rows(weight_obs, None)
    w = np.asarray(weight_obs, dtype=float)[None]
    if w.ndim == 3:
        return WeightFactors.rank_one(w)
    if w.ndim == 4:
        return full_factors(w)
    raise ValueError("weight_obs must be None, WeightFactors, (n, q) rank-one factors "
                     "or (n, q, q) contributions")


def m_contributions(sys: LinearMomentSystem, theta: np.ndarray, weight: np.ndarray,
                    weight_obs: Union[None, np.ndarray, WeightFactors]) -> np.ndarray:
    """Per-observation influence contributions of a weighted GMM fit.

    Row i is

        m_i = G_n' Xi^-1 g_i(theta) + G_i' Xi^-1 g_n(theta)
              - G_n' Xi^-1 Xi_i Xi^-1 g_n(theta),

    where Xi is the weight matrix and Xi_i its per-observation contribution.
    ``weight_obs=None`` marks the identity weight, for which the last term
    drops; :class:`~gmmdc.linmoment.WeightFactors` gives contributions
    Z_i' H Z_i, applied as (H Z_i b)' (Z_i A) with b = Xi^-1 g_n and
    A = Xi^-1 G_n, without forming them; an (n, q) array gives rank-one
    contributions f_i f_i' (efficient weights), taken as
    :meth:`~gmmdc.linmoment.WeightFactors.rank_one`; an (n, q, q) array gives
    them in full and is applied through its exact factors
    (:func:`~gmmdc.linmoment.full_factors`).

    Returns an (n, k) array whose column means vanish at the fitted estimate
    by the first-order condition.
    """
    batch = BatchGmm.from_stack([sys])
    m, status = batch.m_contributions(np.asarray(theta, dtype=float)[None],
                                      np.asarray(weight, dtype=float)[None], _lift(weight_obs))
    status.raise_for(0)
    return m[0]


def d_hat(sys: LinearMomentSystem, theta_weight: np.ndarray, theta_eval: np.ndarray,
          weight: np.ndarray, centered: bool = False) -> np.ndarray:
    """Weight-estimation correction matrix.

    Column j is (G_n' Xi^-1 G_n)^-1 G_n' Xi^-1 (dOmega_j) Xi^-1 g_n(theta_eval)
    with dOmega_j the derivative of the second-moment weight in coordinate j
    evaluated at ``theta_weight`` (centered variant when ``centered``). The
    matrix vanishes for just-identified systems where g_n(theta_eval) = 0.
    """
    batch = BatchGmm.from_stack([sys])
    D, status = batch.d_hat(np.asarray(theta_weight, dtype=float)[None],
                            np.asarray(theta_eval, dtype=float)[None],
                            np.asarray(weight, dtype=float)[None], centered)
    status.raise_for(0)
    return D[0]


def variance_report(sys: LinearMomentSystem, fit: GmmFit) -> VarianceReport:
    """All three variance estimators for a fit produced from ``sys``.

    The kernel's variance stage (:meth:`BatchGmm.variance`) on a one-system
    stack: one-step fits get the conventional and doubly corrected
    sandwiches, two-step fits add the Windmeijer correction and the cross
    block of the double correction, and iterated fits use the fixed-point
    forms with the correction folded into the bread. It reuses the fit's
    stack when ``sys`` is the system ``fit`` was fitted on.
    """
    batch, state = _fit_state(sys, fit)
    res = batch.variance(state)
    res.status.raise_for(0)
    rank_warning = bool(np.linalg.matrix_rank(res.Sigma_n[0]) < sys.k)
    if rank_warning:
        warnings.warn("influence contribution covariance has rank below k; doubly corrected "
                      "standard errors may be unreliable", RuntimeWarning, stacklevel=2)
    rows = {name: None if getattr(res, name) is None else getattr(res, name)[0]
            for name in ("V_conv", "V_dc", "D_hat", "Sigma_n", "se_conv", "se_dc",
                         "V_w", "se_w", "C_hat")}
    return VarianceReport(n_units=sys.n, rank_warning=rank_warning, **rows)
