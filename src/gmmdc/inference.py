"""Tests and confidence intervals: t statistics, the J test, and the
misspecification-robust percentile-t bootstrap.

The bootstrap resamples observation units (individuals for panel systems)
with replacement, studentizes by the doubly corrected standard error, and
needs no moment recentering; critical values are symmetric quantiles of |t*|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
from scipy import stats as spstats

from ._batch import FATAL_REASONS, BatchGmm
from .errors import DegenerateVarianceError, GmmError, JNotDefinedError
from .estimate import FitPlan, GmmFit, _fit_state, fit
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
    ``failures`` counts degenerate resamples that were skipped, and
    ``failure_reasons`` splits it by fatal reason label, zeros included, plus
    ``"degenerate-variance"`` (se_dc not finite and positive). When at least
    5% of resamples fail, ``reliability_warning`` is set.
    """

    B: int
    t_star: np.ndarray
    crit_abs: float
    reject_5pct: bool
    failures: int
    t_original: float
    reliability_warning: bool
    failure_reasons: Dict[str, int] = field(default_factory=dict)


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
    kernel's :meth:`BatchGmm.j_stat` on the fit's stack when ``sys`` is the
    system ``fit_result`` was fitted on, else on a new one-system stack.

    Raises
    ------
    JNotDefinedError
        For just-identified systems (q = k).
    """
    df = sys.q - sys.k
    if df <= 0:
        raise JNotDefinedError("the J test requires more moments than parameters")
    batch, state = _fit_state(sys, fit_result)
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
    value. Degenerate resamples are skipped and counted by reason.

    Replication b draws its indices from a stream keyed by (seed, b), so
    results are reproducible and independent of scheduling. Studies and
    ``gmmdc estimate`` run all their plans and coefficients on one such set
    of resamples; this is its one-plan, one-coefficient view.
    """
    return _unwrap(_percentile_t(sys, B, seed, [plan], [coef], [null_value])[0][0])


def _unwrap(result):
    """A bootstrap result of :func:`_percentile_t`, or raise the error that ended it."""
    if isinstance(result, GmmError):
        raise result
    return result


def _percentile_t(sys: LinearMomentSystem, B: int, seed: int, plans, coefs, nulls, bases=None):
    """The bootstrap of each plan in ``plans`` and coefficient in ``coefs``
    (against ``nulls``) on one stack of ``B`` resamples of ``sys``, each plan
    run on it once.

    ``bases`` gives each plan's full-sample (theta, se_dc); by default it is
    fitted here. Entry [p][j] is the :class:`BootstrapResult` of ``plans[p]``
    and ``coefs[j]``, or the :class:`GmmError` that ended it.
    """
    if B < 99:
        raise ValueError("B must be at least 99")
    if sys.n < 10:
        raise ValueError("bootstrap needs at least 10 resampling units")
    for coef in coefs:
        if not 0 <= coef < sys.k:
            raise IndexError(f"coefficient index {coef} out of range")
    if bases is None:
        bases = [(f.theta, variance_report(sys, f).se_dc) for f in (fit(sys, p) for p in plans)]

    batch, out = None, []
    for plan, (theta, se) in zip(plans, bases):
        row = [None if se[c] > 0.0 and math.isfinite(se[c]) else
               DegenerateVarianceError("doubly corrected standard error is degenerate")
               for c in coefs]
        out.append(row)
        if None not in row:
            continue
        if batch is None:
            draws = np.array([bootstrap_rng(seed, b).integers(0, sys.n, size=sys.n)
                              for b in range(B)])
            batch = BatchGmm.from_system(sys, draws)
        result = batch.run(plan)
        reasons = {r.label: int((result.status.reason == r).sum()) for r in FATAL_REASONS}
        for j, (coef, null_value) in enumerate(zip(coefs, nulls)):
            if row[j] is not None:
                continue
            se_star = result.se_dc[:, coef]
            usable = np.isfinite(se_star) & (se_star > 0)
            ok = result.ok & usable
            if not ok.any():
                row[j] = GmmError("all bootstrap resamples were degenerate")
                continue
            theta0 = float(theta[coef])
            t_star = (result.theta[ok, coef] - theta0) / se_star[ok]
            t_original = (theta0 - null_value) / float(se[coef])
            crit = critical_value(np.abs(t_star))
            failures = int(B - ok.sum())
            row[j] = BootstrapResult(
                B=B, t_star=t_star, crit_abs=crit, reject_5pct=abs(t_original) > crit,
                failures=failures, t_original=t_original,
                reliability_warning=failures / B >= 0.05,
                failure_reasons={**reasons, "degenerate-variance": int((result.ok & ~usable).sum())},
            )
    return out
