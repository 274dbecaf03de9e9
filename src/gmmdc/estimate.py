"""Linear GMM estimators: one-step, two-step, and iterated.

The plan and result types live here; the fitting itself is the R = 1 view of
the estimation kernel in :mod:`gmmdc._batch`.
"""

from __future__ import annotations

import copy
import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ._batch import BatchGmm, Status
from .linmoment import LinearMomentSystem, WeightSpec

#: Default relative convergence tolerance for the iterated estimator.
DEFAULT_TOL = 1e-8
#: Default iteration cap; iteration can cycle, so hitting it is a warning state.
DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class FitPlan:
    """Which estimator to run and with what weights.

    ``kind`` is one of ``"one-step"``, ``"two-step"``, ``"iterated"``.
    ``w0`` is the preliminary weight; efficient steps use the uncentered
    second-moment weight unless ``centered`` is set, in which case the
    centered weight (and its centered derivative) is used throughout.
    """

    kind: str
    w0: WeightSpec = field(default_factory=WeightSpec.data_average)
    centered: bool = False
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if self.kind not in ("one-step", "two-step", "iterated"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    @staticmethod
    def one_step(w0: Optional[WeightSpec] = None) -> "FitPlan":
        return FitPlan("one-step", w0 or WeightSpec.data_average())

    @staticmethod
    def two_step(w0: Optional[WeightSpec] = None, centered: bool = False) -> "FitPlan":
        return FitPlan("two-step", w0 or WeightSpec.data_average(), centered)

    @staticmethod
    def iterated(w0: Optional[WeightSpec] = None, centered: bool = False,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> "FitPlan":
        return FitPlan("iterated", w0 or WeightSpec.data_average(), centered, tol, max_iter)


@dataclass(frozen=True)
class FitStep:
    """One solve in the estimation chain: the estimate and the weight used."""

    theta: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class GmmFit:
    """A fitted linear GMM estimator.

    ``steps`` records the full chain of (estimate, weight matrix) pairs so
    the variance estimators can be assembled without refitting; the final
    entry's weight is the one the reported estimate minimizes against.
    """

    theta: np.ndarray
    steps: Tuple[FitStep, ...]
    g_n_hat: np.ndarray
    converged: bool
    iterations: int
    plan: FitPlan
    # (system, BatchGmm, BatchFit) behind the fit, which the views reuse on that
    # system; set by fit() only, so a dataclasses.replace() copy does not carry it
    _kernel: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    @property
    def k(self) -> int:
        return self.theta.shape[0]

    @property
    def final_weight(self) -> np.ndarray:
        return self.steps[-1].weight


def solve_weighted(sys: LinearMomentSystem, weight: np.ndarray) -> np.ndarray:
    """Minimize g_n(theta)' weight^-1 g_n(theta) in closed form.

    Returns theta = -(G_n' W^-1 G_n)^-1 G_n' W^-1 h_n, the kernel's solve
    (:meth:`BatchGmm.solve`) on a one-system stack.

    Raises
    ------
    SingularWeightError
        If ``weight`` is not positive definite.
    SingularNormalMatrixError
        If G_n' W^-1 G_n has condition number above 1e12.
    """
    batch = BatchGmm.from_stack([sys])
    status = Status(1)
    theta = batch.solve(np.asarray(weight, dtype=float)[None], status).theta
    status.raise_for(0)
    return theta[0]


def fit(sys: LinearMomentSystem, plan: FitPlan) -> GmmFit:
    """Run the one-step, two-step, or iterated GMM estimator.

    The kernel's fit stage (:meth:`BatchGmm.fit`) on a one-system stack. The
    two-step estimator reweights with the second-moment matrix evaluated at
    the one-step estimate; the iterated estimator repeats that update from
    the one-step estimate until the step size falls below
    ``tol * (1 + ||previous||)`` or ``max_iter`` is hit. Non-convergence is
    reported through ``converged=False`` (with a warning), not an error.
    """
    batch = BatchGmm.from_stack([sys])
    state = batch.fit(plan)
    state.status.raise_for(0)
    steps = tuple(FitStep(theta, weight) for theta, weight in batch.chain(state))
    converged = bool(state.converged[0])
    if not converged:
        warnings.warn(f"iterated GMM did not converge within {plan.max_iter} updates; "
                      "returning the last iterate", RuntimeWarning, stacklevel=2)
    theta = state.theta[0]
    result = GmmFit(theta, steps, batch.h_n[0] + batch.G_n[0] @ theta, converged, len(steps), plan)
    object.__setattr__(result, "_kernel", (sys, batch, state))
    return result


def _fit_state(sys: LinearMomentSystem, fit_result: GmmFit):
    """The one-system stack and fit state behind ``fit_result``: the fit's own
    when ``sys`` is the system it was fitted on, else resumed from its
    estimate. The state carries its own :class:`Status`, so the caller's
    flags do not reach other views."""
    if fit_result._kernel is not None and fit_result._kernel[0] is sys:
        _, batch, state = fit_result._kernel
        return batch, dataclasses.replace(state, status=copy.deepcopy(state.status))
    batch = BatchGmm.from_stack([sys])
    return batch, batch.resume(fit_result.plan, fit_result.theta[None])
