"""Simulation designs and a seeded, parallel replication harness.

Three data-generating processes are provided: a cross-sectional IV model
whose exclusion restriction is violated locally (scaled by 1/sqrt(n)) or at a
fixed magnitude; a dynamic panel AR(1) with a random coefficient tied to the
individual effect; and a dynamic panel whose estimated equation omits a lag.
Every random variable block of every replication draws from its own
counter-based stream keyed by (seed, replication, block), so studies are
reproducible independent of draw order and scheduling; a replication's
bootstrapped estimators share one set of resamples, keyed the same way.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Tuple, Union

import numpy as np
from scipy import special

from ._batch import BatchGmm, fatal_counts, ok_rows
from .errors import GmmError
from .estimate import FitPlan
from .inference import Z_975, BootstrapResult, _check_B, _check_seed, _percentile_t, _stream
from .inference import mr_bootstrap  # noqa: F401  (kept as a name; perfbench's tracer wraps it)
from .linmoment import (
    LinearMomentSystem,
    PanelDataset,
    build_ab_system,
    build_iv_system,
)

#: Replications evaluated per vectorized batch; fixed so that results do not
#: depend on the worker count.
CHUNK_SIZE = 64

#: Stream-domain tag for deriving per-replication bootstrap seeds.
_BOOT_SEED_BLOCK = 7919

_ESTIMATOR_PLANS = {
    "one": FitPlan.one_step,
    "two": FitPlan.two_step,
    "iter": FitPlan.iterated,
}


@dataclass(frozen=True)
class ReplicationStreams:
    """Counter-based random streams for one replication."""

    seed: int
    replication: int

    def generator(self, block: int) -> np.random.Generator:
        return _stream(self.seed, self.replication, block)


@dataclass(frozen=True)
class IvLocal:
    """Cross-sectional IV with four instruments and a local exclusion violation."""

    n: int
    alpha0: float

    label = "iv"
    true_value = 1.0


@dataclass(frozen=True)
class PanelRandomCoef:
    """Dynamic panel AR(1) whose autoregressive coefficient varies by individual."""

    N: int
    T: int
    alpha0: float

    label = "panel-rc"
    true_value = 0.5


@dataclass(frozen=True)
class PanelLagMiss:
    """Dynamic panel with a predetermined regressor and an omitted-lag violation."""

    N: int
    T: int
    alpha0: float

    label = "panel-lag"
    true_value = 1.0


Design = Union[IvLocal, PanelRandomCoef, PanelLagMiss]


def dgp_iv(n: int, alpha0: float, streams: ReplicationStreams,
           fixed: bool = False) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one IV sample (y, X, Z).

    Four standard normal instruments; the first stage has R^2 = 0.2
    (coefficient 0.25 on each instrument); the error mixes the endogenous
    shock with a conditionally heteroskedastic one and carries an exclusion
    violation of size alpha0/sqrt(n) (or alpha0 when ``fixed``) on the
    alternating instrument combination.
    """
    if n < 10:
        raise ValueError("need n >= 10")
    z = streams.generator(0).standard_normal((n, 4))
    u = streams.generator(1).standard_normal(n)
    v = z[:, 0] * streams.generator(2).standard_normal(n)
    x = 0.25 * z.sum(axis=1) + u
    scale = alpha0 if fixed else alpha0 / math.sqrt(n)
    e = scale * (z[:, 0] - z[:, 1] + z[:, 2] - z[:, 3]) + 0.5 * u + math.sqrt(0.75) * v
    y = x * IvLocal.true_value + e
    return y, x[:, None], z


def dgp_panel_rc(N: int, T: int, alpha0: float, streams: ReplicationStreams) -> PanelDataset:
    """Draw one random-coefficient AR(1) panel.

    rho_i = Phi(alpha0 * eta_i) so that alpha0 = 0 gives rho_i = 0.5 for
    everyone. A pre-sample value is drawn around the individual mean
    eta_i / (1 - rho_i) with innovation variance 1 / (1 - rho_i^2) and
    advanced one transition before the first retained period; the first
    retained observation therefore deviates from the individual mean with
    variance rho^2 / (1 - rho^2) + 0.25.
    """
    if T < 3:
        raise ValueError("need T >= 3")
    eta = streams.generator(0).standard_normal(N)
    rho = special.ndtr(alpha0 * eta)
    u1 = streams.generator(1).standard_normal(N) / np.sqrt(1.0 - rho**2)
    nu = 0.5 * streams.generator(2).standard_normal((N, T))
    y = np.empty((N, T))
    prev = eta / (1.0 - rho) + u1
    for t in range(T):
        y[:, t] = rho * prev + eta + nu[:, t]
        prev = y[:, t]
    return PanelDataset(y=y)


def dgp_panel_lag(N: int, T: int, alpha0: float, streams: ReplicationStreams,
                  burn_in: int = 50) -> PanelDataset:
    """Draw one panel from the omitted-lag design.

    The outcome loads on x_it and alpha0 * x_{i,t-1}; the estimated model
    omits the lag, so alpha0 != 0 misspecifies the moment conditions. Errors
    are centered chi-square scaled by an individual factor delta_i in
    [0.5, 1.5] and a time profile tau_t = 0.5 + 0.1 (t - 1) over the kept
    sample; ``burn_in`` periods with tau = 0.5 precede it.
    """
    if T < 2:
        raise ValueError("need T >= 2")
    total = burn_in + T
    delta = streams.generator(0).uniform(0.5, 1.5, N)
    eta = streams.generator(1).standard_normal(N)
    eps = streams.generator(2).standard_normal((N, total))
    omega = streams.generator(3).chisquare(1, (N, total)) - 1.0
    tau = np.full(total, 0.5)
    tau[burn_in:] = 0.5 + 0.1 * np.arange(T)
    v = delta[:, None] * tau[None, :] * omega
    x = np.empty((N, total))
    x[:, 0] = eta / 0.5 + streams.generator(4).standard_normal(N) / math.sqrt(0.75)
    for t in range(1, total):
        x[:, t] = 0.5 * x[:, t - 1] + eta + 0.5 * v[:, t - 1] + eps[:, t]
    y = (PanelLagMiss.true_value * x[:, burn_in:] + alpha0 * x[:, burn_in - 1:-1]
         + eta[:, None] + v[:, burn_in:])
    return PanelDataset(y=y, x=x[:, burn_in:])


def draw_system(design: Design, streams: ReplicationStreams,
                fixed_misspec: bool = False) -> LinearMomentSystem:
    """Draw one replication of ``design`` and build its moment system."""
    if isinstance(design, IvLocal):
        y, X, Z = dgp_iv(design.n, design.alpha0, streams, fixed=fixed_misspec)
        return build_iv_system(y, X, Z)
    if fixed_misspec:
        raise ValueError("fixed_misspec applies to the IV design only")
    if isinstance(design, PanelRandomCoef):
        return build_ab_system(dgp_panel_rc(design.N, design.T, design.alpha0, streams),
                               mode="ar1")
    if isinstance(design, PanelLagMiss):
        return build_ab_system(dgp_panel_lag(design.N, design.T, design.alpha0, streams),
                               mode="predetermined")
    raise TypeError(f"unknown design {design!r}")


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of one Monte Carlo study."""

    design: Design
    replications: int
    estimators: Tuple[str, ...] = ("one", "two", "iter")
    seed: int = 0
    bootstrap_B: Optional[int] = None
    bootstrap_estimators: Optional[Tuple[str, ...]] = None
    fixed_misspec: bool = False
    centered: bool = False

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        _check_seed(self.seed)
        if self.fixed_misspec and not isinstance(self.design, IvLocal):
            raise ValueError("fixed_misspec applies to the IV design only")
        if not self.estimators:
            raise ValueError("estimators must not be empty")
        for est in self.estimators:
            if est not in _ESTIMATOR_PLANS:
                raise ValueError(f"unknown estimator {est!r}")
        if self.bootstrap_B is not None:
            _check_B(self.bootstrap_B, "bootstrap_B")
        if self.bootstrap_estimators is not None:
            if not self.bootstrap_estimators:
                raise ValueError("bootstrap_estimators must not be empty")
            for est in self.bootstrap_estimators:
                if est not in self.estimators:
                    raise ValueError(f"bootstrap estimator {est!r} not in estimators")

    def plan(self, estimator: str) -> FitPlan:
        return dataclasses.replace(_ESTIMATOR_PLANS[estimator](), centered=self.centered)

    def wants_bootstrap(self, estimator: str) -> bool:
        if self.bootstrap_B is None:
            return False
        enabled = self.bootstrap_estimators or self.estimators
        return estimator in enabled


@dataclass(frozen=True)
class EstimatorSummary:
    """Aggregates for one estimator across replications.

    ``failures`` counts replications excluded from the aggregates and
    ``failure_reasons`` splits that count by :class:`~gmmdc._batch.Reason`
    label (every fatal reason, zeros included); ``nonconverged`` counts
    included ones whose iterated fit stopped at ``max_iter`` without
    converging. ``bootstrap_failures`` counts included replications whose
    bootstrap failed, and ``bootstrap_resample_failures`` the resamples
    skipped inside the bootstraps that succeeded.
    """

    mean_theta: float
    sd_theta: float
    mean_se_conv: float
    mean_se_dc: float
    reject_conv: float
    reject_dc: float
    reject_j: float
    failures: int
    mean_se_w: Optional[float] = None
    reject_w: Optional[float] = None
    reject_boot: Optional[float] = None
    bootstrap_failures: int = 0
    sd_degenerate: bool = False
    nonconverged: int = 0
    failure_reasons: Dict[str, int] = field(default_factory=dict)
    bootstrap_resample_failures: int = 0


@dataclass(frozen=True)
class StudySummary:
    """Aggregated study output: one block per estimator, and the number of
    worker processes the study ran on (1 when serial)."""

    config: StudyConfig
    estimators: Dict[str, EstimatorSummary]
    failure_warning: bool = field(default=False)
    workers: int = 1


class _Draws(Sequence):
    """The moment systems of a study's replications ``reps``, each drawn when
    its item is read."""

    def __init__(self, cfg: StudyConfig, reps: range):
        self.cfg, self.reps = cfg, reps

    def __len__(self) -> int:
        return len(self.reps)

    def __getitem__(self, i: int) -> LinearMomentSystem:
        cfg = self.cfg
        return draw_system(cfg.design, ReplicationStreams(cfg.seed, self.reps[i]),
                           cfg.fixed_misspec)


def _chunk_records(cfg: StudyConfig, lo: int, hi: int) -> Dict[str, Dict[str, np.ndarray]]:
    """Evaluate replications lo..hi-1 and return per-estimator record arrays:
    what the kernel and the bootstrap produced, from which :func:`run_study`
    derives the usable rows and the rejection rates.

    The replications are drawn one at a time as the stack is filled, so the
    chunk holds one copy of its moment arrays. Each replication that a
    bootstrapped estimator left ``ok`` gets one resample stack of its system,
    a view of its stack rows, run once per such estimator and studentized
    against that estimator's chunk estimate and doubly corrected standard
    error.
    """
    reps = range(lo, hi)
    batch = BatchGmm.from_stack(_Draws(cfg, reps))
    df = batch.q - batch.k
    # the 95% chi-square(df) quantile, as scipy.stats.chi2.ppf computes it
    j_crit = 2.0 * float(special.gammaincinv(df / 2, 0.95)) if df > 0 else np.inf

    out: Dict[str, Dict[str, np.ndarray]] = {}
    results = {}
    R = batch.R
    for est in cfg.estimators:
        res = results[est] = batch.run(cfg.plan(est), compute_j=df > 0)
        out[est] = {"reason": res.status.reason, "converged": res.converged,
                    "theta": res.theta[:, 0], "se_conv": res.se_conv[:, 0], "se_dc": res.se_dc[:, 0],
                    "se_w": res.se_w[:, 0] if res.se_w is not None else np.full(R, np.nan),
                    "rej_j": res.j_stat > j_crit if res.j_stat is not None else np.zeros(R, bool),
                    "boot": np.full(R, np.nan), "boot_failures": np.zeros(R)}

    boot_ests = [est for est in cfg.estimators if cfg.wants_bootstrap(est)]
    for i, r in enumerate(reps):
        ests = [est for est in boot_ests if results[est].ok[i]]
        if not ests:
            continue
        boot_seed = int(np.random.SeedSequence(
            (cfg.seed, r, _BOOT_SEED_BLOCK)).generate_state(1)[0])
        found = _percentile_t(batch.system(i), cfg.bootstrap_B, boot_seed,
                              [cfg.plan(est) for est in ests], [0], [cfg.design.true_value],
                              [(results[est].theta[i], results[est].se_dc[i]) for est in ests])
        for est, (bres,) in zip(ests, found):
            if isinstance(bres, BootstrapResult):   # a GmmError leaves NaN
                out[est]["boot"][i] = float(bres.reject_5pct)
                out[est]["boot_failures"][i] = bres.failures
    return out


def worker_count(threads: Optional[int], chunks: int) -> int:
    """Process-pool size for ``threads`` requested workers and ``chunks`` chunks.

    Never more than one worker per chunk or per CPU; 1 means run serially.
    """
    if threads is None:
        return 1
    return max(1, min(threads, chunks, os.cpu_count() or 1))


def run_study(cfg: StudyConfig, threads: Optional[int] = None,
              progress=None) -> StudySummary:
    """Run a Monte Carlo study and aggregate it into a summary.

    ``threads`` > 1 distributes fixed-size replication chunks over a process
    pool of at most :func:`worker_count` workers; chunk boundaries and
    per-replication streams are independent of the worker count, so the
    summary is a pure function of ``cfg``. Chunks come back in order, and
    ``progress(done, R)`` is called after each. Replications that fail numerically
    are excluded from the aggregates and counted; iterated fits that stop at
    ``max_iter`` without converging stay in the aggregates and are counted
    as ``nonconverged``.
    """
    R = cfg.replications
    los = range(0, R, CHUNK_SIZE)
    his = [min(lo + CHUNK_SIZE, R) for lo in los]
    workers = worker_count(threads, len(los))
    chunks = []
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        run = partial(_chunk_records, cfg)
        for hi, records in zip(his, pool.map(run, los, his) if pool else map(run, los, his)):
            chunks.append(records)
            if progress:
                progress(hi, R)
    store = {est: {f: np.concatenate([c[est][f] for c in chunks]) for f in chunks[0][est]}
             for est in cfg.estimators}

    summaries: Dict[str, EstimatorSummary] = {}
    worst_failure_rate = 0.0
    for est in cfg.estimators:
        rec = store[est]
        ok = ok_rows(rec["reason"])
        n_ok = int(ok.sum())
        failures = R - n_ok
        worst_failure_rate = max(worst_failure_rate, failures / R)
        if n_ok == 0:
            raise GmmError(f"all replications failed for estimator {est!r}")
        theta = rec["theta"][ok]
        miss = np.abs(theta - cfg.design.true_value)
        sd_degenerate = n_ok < 2
        boot_vals = rec["boot"][ok]
        boot_ok = np.isfinite(boot_vals)
        one_step = est == "one"
        summaries[est] = EstimatorSummary(
            mean_theta=float(theta.mean()),
            sd_theta=0.0 if sd_degenerate else float(theta.std(ddof=1)),
            mean_se_conv=float(rec["se_conv"][ok].mean()),
            mean_se_dc=float(rec["se_dc"][ok].mean()),
            reject_conv=float((miss > Z_975 * rec["se_conv"][ok]).mean()),
            reject_dc=float((miss > Z_975 * rec["se_dc"][ok]).mean()),
            reject_j=float(rec["rej_j"][ok].mean()),
            failures=failures,
            mean_se_w=None if one_step else float(rec["se_w"][ok].mean()),
            reject_w=None if one_step else float((miss > Z_975 * rec["se_w"][ok]).mean()),
            reject_boot=float(boot_vals[boot_ok].mean())
            if cfg.wants_bootstrap(est) and boot_ok.any() else None,
            bootstrap_failures=int((~boot_ok).sum()) if cfg.wants_bootstrap(est) else 0,
            bootstrap_resample_failures=int(rec["boot_failures"][ok][boot_ok].sum()),
            sd_degenerate=sd_degenerate,
            nonconverged=int((~rec["converged"][ok]).sum()),
            failure_reasons=fatal_counts(rec["reason"]),
        )
    return StudySummary(
        config=cfg,
        estimators=summaries,
        failure_warning=worst_failure_rate > 1e-3,
        workers=workers,
    )
