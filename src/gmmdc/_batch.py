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

A study chunk or a bootstrap stack runs several plans on one stack. They
share its first stage: the solve with each preliminary weight, and Omega_n
and the one-step variance pieces at its estimate, are formed once per stack
and kept read-only. Iterated updates form Omega_n(theta) from the second
moments of [g_i(theta1), G_i] anchored at the one-step estimate theta1, not
from a pass over the observations. A fit state holds g_i and g_n at its
estimate, formed once, which the variance stage and J read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

import numpy as np

from .errors import IllConditionedCorrectionError, SingularNormalMatrixError, SingularWeightError
from .linmoment import (COND_LIMIT, LinearMomentSystem, WeightFactors, WeightSpec, _moments,
                        _obs_mean, _omega, _omega_derivatives, _preliminary_weight, _rows, _sym)

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


#: The first fatal code, as a plain int: numpy compares an array with an
#: ``IntEnum`` member about five times slower.
_FIRST_FATAL = int(Reason.PRELIMINARY_WEIGHT_NOT_PD)


def ok_rows(reason: np.ndarray) -> np.ndarray:
    """Mask of the rows whose :class:`Reason` code in ``reason`` is not fatal."""
    return reason < _FIRST_FATAL


FATAL_REASONS = tuple(r for r in Reason if not ok_rows(r))


def fatal_counts(reason: np.ndarray) -> Dict[str, int]:
    """Rows per fatal reason label in ``reason``, in :data:`FATAL_REASONS` order, zeros included."""
    return {r.label: int((reason == int(r)).sum()) for r in FATAL_REASONS}


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
    """Per-replication :class:`Reason` codes and the condition number behind
    each fatal one (NaN elsewhere)."""

    def __init__(self, R: int):
        self.reason = np.zeros(R, dtype=np.int8)
        self.cond = np.full(R, np.nan)

    @property
    def ok(self) -> np.ndarray:
        """(R,) mask of the rows with no fatal reason."""
        return ok_rows(self.reason)

    def flag(self, bad: np.ndarray, code: Reason, cond=None) -> None:
        """Record ``code`` on the rows ``bad`` that have no fatal reason yet,
        with ``cond``: per-row condition numbers or one for all of them."""
        rows = bad & self.ok
        if not rows.any():
            return
        self.reason[rows] = code
        if cond is not None:
            self.cond[rows] = cond[rows] if np.ndim(cond) else cond

    def copy(self) -> "Status":
        out = Status(0)
        out.reason, out.cond = self.reason.copy(), self.cond.copy()
        return out

    def put(self, rows: np.ndarray, sub: "Status") -> None:
        """Record the fatal reasons of ``sub``, the status of the replications ``rows``."""
        bad = ~sub.ok
        self.reason[rows[bad]], self.cond[rows[bad]] = sub.reason[bad], sub.cond[bad]

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


@dataclass
class BatchFit:
    """Fitted estimates of a stack: the input of the variance stage.

    ``stage`` is the stack's shared first stage: the preliminary weight and
    the solve with it, whose estimate is the one-step estimate. ``g`` and
    ``g_n`` are g_i and g_n at the estimate, formed once (``stage.g`` for
    one-step fits). ``omega`` is the second-moment weight at the J point:
    Omega_n at the one-step estimate for one- and two-step fits, and built
    from ``g`` for iterated fits. ``final`` is the solve with it (the
    two-step's second step; ``stage.solve`` for one-step fits). ``iterates``
    holds the estimate after every solve, so replication r's chain is
    ``iterates[:iterations[r]]``. ``stage`` and, unless iterated, ``omega``
    are read-only.
    """

    plan: "FitPlan"
    theta: np.ndarray                        # (R, k)
    stage: "_FirstStage"
    g: np.ndarray                            # (R, n, q): g_i(theta)
    g_n: np.ndarray                          # (R, q): g_n(theta), J's moment
    omega: np.ndarray                        # (R, q, q)
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


def _cond(w: np.ndarray) -> np.ndarray:
    """Condition numbers max|w| / min|w| from the eigenvalues ``w`` of each
    symmetric matrix (infinite when singular or non-finite)."""
    aw = np.abs(w)
    lo, hi = aw.min(axis=-1), aw.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isfinite(w).all(axis=-1) & (lo > 0), hi / lo, np.inf)


def _eigvalsh(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric matrices ``a`` on the ``rows`` whose entries
    are finite; NaN on the other rows, whose :func:`_cond` is then infinite."""
    rows = rows & np.isfinite(a).all(axis=(-2, -1))
    if rows.all():
        return np.linalg.eigvalsh(a)
    w = np.full(a.shape[:-1], np.nan)
    if rows.any():
        w[rows] = np.linalg.eigvalsh(a[rows])
    return w


def _rowwise(f, *stacks: np.ndarray) -> np.ndarray:
    """``f`` of stacks of matrices, NaN on the rows where it raises
    ``LinAlgError``: a stack that raises is split in halves until those rows
    are found. The result has the shape of the last stack."""
    try:
        return f(*stacks)
    except np.linalg.LinAlgError:
        if len(stacks[0]) == 1:
            return np.full_like(stacks[-1], np.nan)
        half = len(stacks[0]) // 2
        return np.concatenate([_rowwise(f, *(a[:half] for a in stacks)),
                               _rowwise(f, *(a[half:] for a in stacks))])


def _masked_solve(a: np.ndarray, b: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Batched solve with failed rows replaced by the identity system; NaN on
    the rows whose matrix LU finds exactly singular."""
    a = np.where(ok[:, None, None], a, np.eye(a.shape[-1])[None])
    if b.ndim == a.ndim - 1:        # stack of vectors
        return _rowwise(np.linalg.solve, a, b[..., None])[..., 0]
    return _rowwise(np.linalg.solve, a, b)


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-replication cross moment of two (R, n, k) stacks of contributions."""
    return np.swapaxes(a, 1, 2) @ b / a.shape[1]


def _sandwich(bread: np.ndarray, meat: np.ndarray) -> np.ndarray:
    return bread @ meat @ np.swapaxes(bread, 1, 2)


def _se(v: Optional[np.ndarray], n: int) -> Optional[np.ndarray]:
    if v is None:
        return None
    return np.sqrt(np.maximum(np.diagonal(v, axis1=1, axis2=2), 0.0) / n)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _check_pd(weight, status: Status, code: Reason) -> None:
    """Flag ``code`` on the rows with no fatal reason yet whose weight is not
    positive definite.

    One batched Cholesky factorization clears the positive definite rows.
    Eigenvalues are computed only for the finite rows it fails on: they
    decide those rows and give their condition numbers. A non-finite
    weight fails with condition number inf.
    """
    w = _sym(weight)
    pd = status.ok & np.isfinite(_rowwise(np.linalg.cholesky, w)).all(axis=(1, 2))
    rest = status.ok & ~pd
    if rest.any():
        ev = _eigvalsh(w, rest)
        pd |= ev[:, 0] > 0.0
        status.flag(~pd, code, _cond(ev))


def _weight_solve(weight, b, status: Status, code: Reason) -> np.ndarray:
    """W^-1 b on the rows with no fatal reason; a row whose weight LU
    finds exactly singular gets ``code`` with condition number inf."""
    x = _masked_solve(weight, b, status.ok)
    status.flag(~np.isfinite(x).all(axis=(1, 2)), code, np.inf)
    return x


def _solve(h_n: np.ndarray, G_n: np.ndarray, weight, status: Status, code: Reason) -> _Solve:
    """One weighted solve theta = -(G_n' W^-1 G_n)^-1 G_n' W^-1 h_n from the
    sample means h_n (R, q) and G_n (R, q, k); see :meth:`BatchGmm.solve`."""
    _check_pd(weight, status, code)
    aG = _weight_solve(weight, G_n, status, code)
    M = _sym(np.swapaxes(G_n, 1, 2) @ aG)
    cond = _cond(_eigvalsh(M, status.ok))
    status.flag(~(cond <= COND_LIMIT), Reason.SINGULAR_NORMAL_MATRIX, cond)
    M_safe = np.where(status.ok[:, None, None], M, np.eye(G_n.shape[-1])[None])
    rhs = np.swapaxes(aG, 1, 2) @ h_n[..., None]
    theta = -np.linalg.solve(M_safe, rhs)[..., 0]
    M_inv = np.linalg.inv(M_safe)
    return _Solve(theta, aG, M, M_inv)


def _spec_key(spec: WeightSpec) -> tuple:
    """A preliminary weight's cache key: its kind, and its evaluation point
    for the efficient kinds."""
    return spec.kind, None if spec.theta is None else np.asarray(spec.theta, float).tobytes()


class _FirstStage(NamedTuple):
    """The solve with one preliminary weight, shared by every plan of a stack
    that uses it; each fit starts from a copy of ``status``."""

    w0: np.ndarray                    # (R, q, q)
    w0_obs: Optional[WeightFactors]   # its contributions (None for the identity)
    solve: _Solve
    status: Status                    # the flags the solve raised
    g: np.ndarray                     # (R, n, q): g_i at the one-step estimate


class _OneStep(NamedTuple):
    """g_n and Omega_n at the one-step estimate and the one-step variance
    pieces, shared by the one- and two-step plans of a stack."""

    g_n: np.ndarray      # (R, q): g_n(theta1), J's moment for one-step fits
    omega: np.ndarray    # (R, q, q), centered if the plan is
    V_conv: np.ndarray   # (R, k, k)
    m: np.ndarray        # (R, n, k): influence contributions
    Sigma: np.ndarray    # (R, k, k)
    V_dc: np.ndarray     # (R, k, k)


class _Live(NamedTuple):
    """The live rows of an iterated fit, with no per-observation array.

    ``S`` holds the second moments of x_i = [g_i(theta1), G_i] (centered if
    the plan is), laid out as (q, k + 1) blocks: g_i(theta) = x_i c with
    c = [1, theta - theta1], so Omega_n(theta) = c' S c needs no pass over
    n. The anchor theta1 keeps the terms of that sum as small as Omega
    itself: moments of [h_i, G_i] would cancel on a near-perfect fit.
    """

    S: np.ndarray        # (R, q (k + 1), q (k + 1))
    theta1: np.ndarray   # (R, k)
    h_n: np.ndarray      # (R, q)
    G_n: np.ndarray      # (R, q, k)

    def rows(self, keep: np.ndarray) -> "_Live":
        return _Live(*(a[keep] for a in self))

    def omega(self, theta: np.ndarray) -> np.ndarray:
        """Omega_n(theta) (R, q, q) from the second moments."""
        R, a = theta.shape[0], theta.shape[1] + 1
        q = self.S.shape[-1] // a
        c = np.concatenate([np.ones((R, 1)), theta - self.theta1], axis=1)
        Sc = (self.S.reshape(R, q * a * q, a) @ c[..., None]).reshape(R, q, a, q)
        return _sym((c[:, None, None, :] @ Sc)[:, :, 0])


class BatchGmm:
    """A stack of R linear moment systems sharing shapes (n, q, k).

    Data-average weight contributions are held as ``factors`` (values
    (R, n, p), one index map and core ``H``), the form systems store;
    ``Z_obs`` (R, n, e, q) is built from them on every access.
    """

    def __init__(self, h: np.ndarray, G: np.ndarray, factors: Optional[WeightFactors] = None):
        self.h = h
        self.G = G
        self.factors = factors
        self.R, self.n, self.q = h.shape
        self.k = G.shape[-1]
        self._first_stages = {}
        self._one_steps = {}

    Z_obs = LinearMomentSystem.Z_obs
    H = LinearMomentSystem.H

    @cached_property
    def h_n(self) -> np.ndarray:
        return _obs_mean(self.h)

    @cached_property
    def G_n(self) -> np.ndarray:
        return _obs_mean(self.G)

    @classmethod
    def from_system(cls, sys: LinearMomentSystem, idx: np.ndarray) -> "BatchGmm":
        """Resampled copies of one system's stored rows; ``idx`` is (R, n) row indices.
        ``np.take`` along axis 0 makes the same copy as ``a[idx]``, faster."""
        f = sys.factors
        f = None if f is None else f._replace(values=np.take(f.values, idx, axis=0))
        return cls(np.take(sys.h, idx, axis=0), np.take(sys.G_obs, idx, axis=0), f)

    @classmethod
    def from_stack(cls, systems) -> "BatchGmm":
        """The stack of the sequence ``systems``, whose weight factors (if any)
        must share ``H`` and the index map.

        The sequence is read once, item by item in order, and each system is
        copied into (R, ...) arrays allocated from the first one and
        ``len(systems)``: a lazy sequence that draws its items when read
        holds one system at a time beside the stack, and the stack holds the
        stored values under their shared map.
        """
        R = len(systems)
        if R == 0:
            raise ValueError("cannot stack an empty sequence of systems")
        first = systems[0]
        h, G = np.empty((R, *first.h.shape)), np.empty((R, *first.G_obs.shape))
        f = first.factors
        values = None if f is None else np.empty((R, *f.values.shape))
        for r in range(R):
            s = systems[r] if r else first
            if s.G_obs.shape != G.shape[1:]:
                raise ValueError("stacked systems must share their shapes (n, q, k)")
            if (s.factors is None) != (f is None) or f is not None and not (
                    (s.H is f.H or np.array_equal(s.H, f.H))
                    and (s.factors.idx is f.idx or np.array_equal(s.factors.idx, f.idx))):
                raise ValueError("stacked systems must all have weight factors with the same "
                                 "core H and index map")
            h[r], G[r] = s.h, s.G_obs
            if f is not None:
                values[r] = s.factors.values
        return cls(h, G, None if f is None else WeightFactors(values, f.H, f.idx))

    def system(self, r: int) -> LinearMomentSystem:
        """Replication ``r`` as a :class:`LinearMomentSystem` whose arrays are
        views of its stack rows."""
        return LinearMomentSystem._of(self.h[r], self.G[r], _rows(self.factors, r))

    def g_obs(self, theta: np.ndarray) -> np.ndarray:
        """Per-observation moments for per-replication parameters (R, k)."""
        return _moments(self.h, self.G, theta)

    def _first_stage(self, spec: WeightSpec) -> _FirstStage:
        """The solve with preliminary weight ``spec``, formed once per stack
        and weight, its arrays read-only."""
        key = _spec_key(spec)
        if key not in self._first_stages:
            status = Status(self.R)
            w0, w0_obs = _preliminary_weight(spec, self.h, self.G, self.factors)
            s1 = self.solve(w0, status)
            stage = _FirstStage(w0, w0_obs, s1, status, self.g_obs(s1.theta))
            _read_only(w0, *s1, status.reason, status.cond, stage.g)
            self._first_stages[key] = stage
        return self._first_stages[key]

    def _one_step(self, plan: "FitPlan") -> _OneStep:
        """g_n and Omega_n at the one-step estimate and the one-step variance
        pieces, formed once per stack, preliminary weight and centering,
        read-only.
        The weight solve of m's third term uses the first stage's mask, so a
        row that fails later keeps the numbers of a row that did not."""
        key = (*_spec_key(plan.w0), plan.centered)
        if key not in self._one_steps:
            stage = self._first_stage(plan.w0)
            s1, g1 = stage.solve, stage.g
            g_n, omega = _obs_mean(g1), _omega(g1, plan.centered)
            V_conv = _sandwich(s1.M_inv, np.swapaxes(s1.aG, 1, 2) @ omega @ s1.aG)
            b = _masked_solve(stage.w0, g_n, stage.status.ok)
            m = self._m_contrib(g1, s1.aG, b, stage.w0_obs)
            Sigma = _gram(m, m)
            one = _OneStep(g_n, omega, V_conv, m, Sigma, _sandwich(s1.M_inv, Sigma))
            _read_only(*one)
            self._one_steps[key] = one
        return self._one_steps[key]

    def solve(self, weight, status: Status,
              code: Reason = Reason.PRELIMINARY_WEIGHT_NOT_PD) -> _Solve:
        """One weighted solve theta = -(G_n' W^-1 G_n)^-1 G_n' W^-1 h_n.

        Rows whose weight is not positive definite, or that LU finds exactly
        singular, get ``code``; those whose normal matrix is non-finite or
        fails the condition limit ``SINGULAR_NORMAL_MATRIX``. Rows that fail,
        here or before, are solved against identity matrices.
        """
        return _solve(self.h_n, self.G_n, weight, status, code)

    def _m_contrib(self, g, aG, b, w_obs: Optional[WeightFactors]):
        """Influence contributions (R, n, k); ``w_obs`` holds the weight's
        contributions Xi_i, None for the identity, whose term drops."""
        R, n, q, k = self.G.shape      # G_i' b for every i: G (n, q k) times b kron I_k
        b_kron = (b[..., None, None] * np.eye(k)).reshape(R, q * k, k)
        m = g @ aG + self.G.reshape(R, n, q * k) @ b_kron
        if w_obs is not None:
            m = m - w_obs.bilinear(b, aG)
        return m

    def _d_hat(self, g_weight, aG, u, M_inv, centered):
        """Weight-estimation correction (R, k, k): column j is M^-1 aG' (dOmega/dtheta_j) u,
        with dOmega/dtheta_j taken at the moments ``g_weight``."""
        R, _, q, k = self.G.shape
        # dOmega_j is symmetric, so u' dOmega_j = (dOmega_j u)'
        domega = _omega_derivatives(g_weight, self.G, centered).reshape(R, q, q * k)
        domega_u = (u[:, None, :] @ domega).reshape(R, q, k)
        return M_inv @ np.swapaxes(aG, 1, 2) @ domega_u

    # ------------------------------------------------------------------
    # fit stage

    def fit(self, plan: "FitPlan") -> BatchFit:
        """Run ``plan``'s estimator on every replication.

        The two-step estimator reweights with the second-moment matrix at the
        one-step estimate; the iterated estimator repeats that update until
        the step is below ``tol * (1 + ||previous||)`` or ``max_iter`` updates
        are spent, which leaves the reason ``NOT_CONVERGED``. The plans of a
        stack share its first stage (the preliminary solve, and Omega_n at
        the one-step estimate), so only the first plan with a given
        preliminary weight solves with it; each fit starts from a copy of the
        flags that solve raised.
        """
        stage = self._first_stage(plan.w0)
        status = stage.status.copy()
        theta, iterates = None, [stage.solve.theta]
        converged, iterations = np.ones(self.R, dtype=bool), np.ones(self.R, dtype=int)
        if plan.kind == "iterated":
            theta, converged = self._iterate(plan, stage, status, iterates, iterations)
            status.flag(~converged, Reason.NOT_CONVERGED)
        fit = self._state(plan, stage, status, theta, converged, iterations, iterates)
        if plan.kind == "two-step":
            iterates.append(fit.theta)
            iterations += 1
        return fit

    def _state(self, plan: "FitPlan", stage: _FirstStage, status: Status,
               theta: Optional[np.ndarray], *chain) -> BatchFit:
        """The fit state at ``theta`` (None: the one- or two-step solve's): g_i
        and g_n there, Omega_n at the J point and the solve with it, flagged
        in ``status``; ``chain`` is a fit's convergence and iterates."""
        g = None if theta is None else self.g_obs(theta)
        omega = _omega(g, plan.centered) if plan.kind == "iterated" else self._one_step(plan).omega
        final = stage.solve if plan.kind == "one-step" else self.solve(
            omega, status, Reason.EFFICIENT_WEIGHT_NOT_PD)
        if theta is None:
            theta = final.theta
            g = stage.g if plan.kind == "one-step" else self.g_obs(theta)
        g_n = self._one_step(plan).g_n if g is stage.g else _obs_mean(g)
        return BatchFit(plan, theta, stage, g, g_n, omega, final, status, *chain)

    def _iterate(self, plan, stage: _FirstStage, status, iterates, iterations):
        """Iterated updates from the one-step estimate theta1.

        One GEMM per replication forms the second moments of
        x_i = [g_i(theta1), G_i] (:class:`_Live`); each update then forms
        Omega_n(theta) from them instead of from a pass over g_i(theta). A
        replication freezes once converged or failed; each update solves on
        the live rows only, a stack cut down whenever a row freezes. A
        frozen row repeats its last iterate.
        """
        theta1 = stage.solve.theta
        sub = self._live(theta1, stage.g, plan.centered)
        theta = theta1.copy()
        converged = np.zeros(self.R, dtype=bool)
        live, sub_status, theta_prev, keep = np.arange(self.R), status, theta1, status.ok
        for _ in range(plan.max_iter):
            if not keep.all():
                live, theta_prev = live[keep], theta_prev[keep]
                sub, sub_status = sub.rows(keep), Status(live.size)
                if not live.size:
                    break
            step = _solve(sub.h_n, sub.G_n, sub.omega(theta_prev), sub_status,
                          Reason.EFFICIENT_WEIGHT_NOT_PD)
            status.put(live, sub_status)
            passed = sub_status.ok
            iterates.append(iterates[-1].copy())
            iterates[-1][live] = step.theta
            iterations[live] += passed
            size = np.linalg.norm(step.theta - theta_prev, axis=1)
            hit = passed & (size < plan.tol * (1 + np.linalg.norm(theta_prev, axis=1)))
            theta[live[passed]] = step.theta[passed]
            converged[live[hit]] = True
            keep, theta_prev = passed & ~hit, step.theta
        return theta, converged

    def _live(self, theta1: np.ndarray, g1: np.ndarray, centered: bool) -> _Live:
        """Every row as a :class:`_Live` stack anchored at ``theta1``, where
        the moments are ``g1``: one GEMM per replication."""
        x = np.concatenate([g1[..., None], self.G], axis=-1)
        if centered:
            x -= _obs_mean(x, keepdims=True)
        x = x.reshape(self.R, self.n, -1)
        return _Live(_gram(x, x), theta1, self.h_n, self.G_n)

    def resume(self, plan: "FitPlan", theta: np.ndarray) -> BatchFit:
        """The fit state of estimates ``theta`` found earlier by :meth:`fit`
        with ``plan``: the solves and weights the variance stage needs."""
        stage = self._first_stage(plan.w0)
        return self._state(plan, stage, stage.status.copy(), theta)

    def chain(self, fit: BatchFit):
        """The (estimate, weight) pair of every solve of a one-replication fit:
        ``w0``, the two-step's ``omega`` or each iterated update's Omega_n,
        rebuilt from one :meth:`_live` GEMM."""
        thetas = [t[0] for t in fit.iterates[:fit.iterations[0]]]
        weights = [fit.stage.w0, fit.omega]     # a one-step fit's one solve takes w0 only
        if fit.plan.kind == "iterated":
            live = self._live(fit.stage.solve.theta, fit.stage.g, fit.plan.centered)
            weights[1:] = [live.omega(t[None]) for t in thetas[:-1]]
        return [(t, np.array(w[0])) for t, w in zip(thetas, weights)]

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
        theta, g, omega, s1, s = fit.theta, fit.g, fit.omega, fit.stage.solve, fit.final
        D = np.zeros((self.R, k, k))
        V_w = C = None
        finite = np.isfinite(g).all(axis=(1, 2)) & np.isfinite(omega).all(axis=(1, 2))
        status.flag(~finite, Reason.EFFICIENT_WEIGHT_NOT_PD, np.inf)

        if plan.kind != "iterated":
            _, _, V1_conv, m1, Sigma, V1_dc = self._one_step(plan)
            V_conv, V_dc = V1_conv, V1_dc

        if plan.kind != "one-step":
            g_w = g if plan.kind == "iterated" else fit.stage.g     # where omega is evaluated
            u = _masked_solve(omega, fit.g_n, status.ok)
            D = self._d_hat(g_w, s.aG, u, s.M_inv, plan.centered)
            Dt = np.swapaxes(D, 1, 2)
            if plan.centered:
                g_w = g_w - _obs_mean(g_w, keepdims=True)
            m = self._m_contrib(g, s.aG, u, WeightFactors.rank_one(g_w))
            Sigma = _gram(m, m)
            V_conv = s.M_inv

        if plan.kind == "two-step":
            V_w = V_conv + D @ V_conv + V_conv @ Dt + D @ V1_conv @ Dt
            C = s1.M_inv @ _gram(m1, m) @ s.M_inv
            V_dc = _sandwich(s.M_inv, Sigma) + D @ C + np.swapaxes(C, 1, 2) @ Dt + D @ V1_dc @ Dt

        elif plan.kind == "iterated":
            eye_d = np.eye(k)[None] - D
            fin = status.ok & np.isfinite(eye_d).all(axis=(1, 2))
            cond = np.where(fin, np.linalg.cond(np.where(fin[:, None, None], eye_d, np.eye(k))),
                            np.inf)
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
            j_stat=self.j_stat(fit) if compute_j else None,
            converged=fit.converged, iterations=fit.iterations,
        )

    def j_stat(self, fit: BatchFit) -> np.ndarray:
        """J = n g_n(theta)' Omega^-1 g_n(theta) with g_n(theta) = ``fit.g_n``
        and Omega = ``fit.omega``; rows whose Omega is not positive definite,
        or whose J is not finite, are flagged."""
        if fit.plan.kind == "one-step":     # the other kinds have solved against omega
            _check_pd(fit.omega, fit.status, Reason.EFFICIENT_WEIGHT_NOT_PD)
        j = self.n * (fit.g_n * _masked_solve(fit.omega, fit.g_n, fit.status.ok)).sum(axis=1)
        fit.status.flag(~np.isfinite(j), Reason.EFFICIENT_WEIGHT_NOT_PD, np.inf)
        return j

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
        _check_pd(weight, status, Reason.PRELIMINARY_WEIGHT_NOT_PD)
        g = self.g_obs(theta)
        aG = _weight_solve(weight, self.G_n, status, Reason.PRELIMINARY_WEIGHT_NOT_PD)
        b = _masked_solve(weight, _obs_mean(g), status.ok)
        return self._m_contrib(g, aG, b, weight_obs), status

    def d_hat(self, theta_weight, theta_eval, weight, centered):
        """Weight-estimation correction (R, k, k) of ``weight``'s derivative at
        ``theta_weight``, applied to g_n(theta_eval); returns it with its
        :class:`Status`."""
        status = Status(self.R)
        s = self.solve(weight, status)
        u = _masked_solve(weight, _obs_mean(self.g_obs(theta_eval)), status.ok)
        return self._d_hat(self.g_obs(theta_weight), s.aG, u, s.M_inv, centered), status
