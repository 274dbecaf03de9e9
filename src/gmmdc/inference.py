"""Tests and confidence intervals: t statistics, the J test, and the
misspecification-robust percentile-t bootstrap.

The bootstrap resamples observation units (cluster blocks for panels) with
replacement, studentizes by the doubly corrected standard error, and needs no
moment recentering; critical values are symmetric quantiles of |t*|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats as spstats

from ._batch import BatchGmm
from .errors import DegenerateVarianceError, GmmError, JNotDefinedError
from .estimate import FitPlan, GmmFit, fit
from .linmoment import LinearMomentSystem
from .variance import VarianceReport, variance_report

#: Stream-domain tag so bootstrap draws never collide with DGP draws.
BOOTSTRAP_STREAM = 104729


@dataclass(frozen=True)
class TestResult:
    """A single test: statistic, p-value, and 95% confidence bounds."""

    statistic: float
    p_value: float
    reject_5pct: bool
    df: Optional[int] = None
    ci_lower: Optional[float] = None
    ci_upper: Optional[float] = None


@dataclass(frozen=True)
class BootstrapResult:
    """Percentile-t bootstrap output.

    ``t_star`` holds the studentized statistics of the successful resamples;
    ``failures`` counts degenerate resamples that were skipped. When more
    than 5% of resamples fail, ``reliability_warning`` is set.
    """

    B: int
    t_star: np.ndarray
    crit_abs: float
    reject_5pct: bool
    failures: int
    t_original: float
    reliability_warning: bool


def t_test(fit_result: GmmFit, report: VarianceReport, se_kind: str,
           coef: int, null_value: float) -> TestResult:
    """Two-sided asymptotic t test for one coefficient.

    ``se_kind`` is one of ``"conv"``, ``"w"``, ``"dc"``. The confidence
    interval is the estimate plus/minus the 97.5% normal quantile times the
    standard error.
    """
    se = report.se(se_kind)
    if not 0 <= coef < fit_result.k:
        raise IndexError(f"coefficient index {coef} out of range")
    se_c = float(se[coef])
    if se_c <= 0.0 or not math.isfinite(se_c):
        raise DegenerateVarianceError(f"standard error for coefficient {coef} is degenerate")
    est = float(fit_result.theta[coef])
    t = (est - null_value) / se_c
    p = 2.0 * float(spstats.norm.sf(abs(t)))
    z = float(spstats.norm.ppf(0.975))
    return TestResult(
        statistic=t,
        p_value=p,
        reject_5pct=p < 0.05,
        ci_lower=est - z * se_c,
        ci_upper=est + z * se_c,
    )


def j_test(sys: LinearMomentSystem, fit_result: GmmFit) -> TestResult:
    """Test of the overidentifying restrictions.

    The statistic is n g_n(theta)' Xi^-1 g_n(theta) with Xi the efficient
    second-moment weight at the one-step estimate for one- and two-step fits
    (the two-step's second weight) and at the estimate for iterated fits,
    referred to chi-square with q - k degrees of freedom. This is the
    kernel's :meth:`BatchGmm.j_stat` on a one-system stack.

    Raises
    ------
    JNotDefinedError
        For just-identified systems (q = k).
    """
    df = sys.q - sys.k
    if df <= 0:
        raise JNotDefinedError("the J test requires more moments than parameters")
    batch = BatchGmm.from_stack([sys])
    state = batch.resume(fit_result.plan, fit_result.theta[None])
    j = float(batch.j_stat(state)[0])
    state.status.raise_for(0)
    p = float(spstats.chi2.sf(j, df))
    return TestResult(statistic=float(j), p_value=p, reject_5pct=p < 0.05, df=df)


def bootstrap_rng(seed: int, replication: int) -> np.random.Generator:
    """Counter-based stream for one bootstrap replication."""
    ss = np.random.SeedSequence((int(seed), int(replication), BOOTSTRAP_STREAM))
    return np.random.Generator(np.random.Philox(ss))


def critical_value(t_abs: np.ndarray, alpha: float = 0.05) -> float:
    """Symmetric bootstrap critical value: the ceil((B+1)(1-alpha)) order statistic."""
    b = t_abs.shape[0]
    if b == 0:
        raise GmmError("no successful bootstrap replications")
    rank = min(math.ceil((b + 1) * (1.0 - alpha)), b)
    return float(np.sort(t_abs)[rank - 1])


def mr_bootstrap(sys: LinearMomentSystem, plan: FitPlan, coef: int, B: int,
                 seed: int, null_value: float = 0.0) -> BootstrapResult:
    """Misspecification-robust percentile-t bootstrap for one coefficient.

    Draws ``B`` nonparametric resamples of the observation units with
    replacement (individuals for panel systems), refits ``plan`` on each, and
    studentizes the deviation from the full-sample estimate by the resample's
    doubly corrected standard error. No recentering of the moments is
    applied. The test rejects when the full-sample t statistic against
    ``null_value`` (also dc-studentized) exceeds the symmetric critical
    value. Degenerate resamples are skipped and counted.

    Replication b draws its indices from a stream keyed by (seed, b), so
    results are reproducible and independent of scheduling.
    """
    if B < 99:
        raise ValueError("B must be at least 99")
    units = _resampling_units(sys)
    n_units = len(units)
    if n_units < 10:
        raise ValueError("bootstrap needs at least 10 resampling units")

    base_fit = fit(sys, plan)
    base_report = variance_report(sys, base_fit)
    se0 = float(base_report.se_dc[coef])
    if se0 <= 0.0 or not math.isfinite(se0):
        raise DegenerateVarianceError("doubly corrected standard error is degenerate")
    theta0 = float(base_fit.theta[coef])
    t_original = (theta0 - null_value) / se0

    draws = np.empty((B, n_units), dtype=np.intp)
    for b in range(B):
        draws[b] = bootstrap_rng(seed, b).integers(0, n_units, size=n_units)

    singleton = all(len(u) == 1 for u in units)
    if singleton:
        rows = np.asarray([u[0] for u in units], dtype=np.intp)
        batch = BatchGmm.from_system(sys, rows[draws])
        result = batch.run(plan)
        ok = result.ok & np.isfinite(result.se_dc[:, coef]) & (result.se_dc[:, coef] > 0)
        t_star = (result.theta[ok, coef] - theta0) / result.se_dc[ok, coef]
        failures = int(B - ok.sum())
    else:
        t_list = []
        failures = 0
        for b in range(B):
            rows = np.concatenate([units[u] for u in draws[b]])
            resys = sys.take(rows)
            try:
                refit = fit(resys, plan)
                rereport = variance_report(resys, refit)
                se_b = float(rereport.se_dc[coef])
                if se_b <= 0.0 or not math.isfinite(se_b):
                    raise DegenerateVarianceError("zero bootstrap standard error")
                t_list.append((float(refit.theta[coef]) - theta0) / se_b)
            except GmmError:
                failures += 1
        t_star = np.asarray(t_list)

    if t_star.size == 0:
        raise GmmError("all bootstrap resamples were degenerate")
    crit = critical_value(np.abs(t_star))
    return BootstrapResult(
        B=B,
        t_star=t_star,
        crit_abs=crit,
        reject_5pct=abs(t_original) > crit,
        failures=failures,
        t_original=t_original,
        reliability_warning=failures / B >= 0.05,
    )


def _resampling_units(sys: LinearMomentSystem):
    """Row-index groups forming the exchangeable resampling units."""
    if sys.cluster_id is None:
        return [np.asarray([i]) for i in range(sys.n)]
    order = {}
    for i, label in enumerate(sys.cluster_id):
        order.setdefault(label, []).append(i)
    return [np.asarray(rows, dtype=np.intp) for rows in order.values()]
