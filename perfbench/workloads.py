"""The four benchmark workloads: inputs from a seed, one timed unit, output checks.

Each workload is a closed loop with one client: the next unit starts when the
previous one returns. All load runs in one process with one study worker, so
it stays within two cores; ``run_study``'s process pool is deliberately not
exercised (on shared cores its wall-clock scaling measures the neighbours).

Every call into gmmdc goes through a module attribute (``montecarlo.run_study``,
``cli.main``) looked up at call time, which is what lets the traced run wrap
the layers without the untraced run depending on the wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np
from scipy import stats as spstats

from gmmdc import cli, montecarlo
from gmmdc import (
    FitPlan,
    GmmError,
    IvLocal,
    LinearMomentSystem,
    PanelRandomCoef,
    ReplicationStreams,
    StudyConfig,
    draw_system,
    fit,
    j_test,
    mr_bootstrap,
    variance_report,
)
from gmmdc.inference import bootstrap_rng

#: Relative tolerance of the batch-versus-scalar and bootstrap checks. Loose
#: enough for a change of solver (LU versus Cholesky) or of summation order.
BATCH_RTOL = 1e-9
#: Relative tolerance of CLI standard errors against the closed-form oracle.
ORACLE_RTOL = 1e-10
#: Tail probability outside each side of the bootstrap rejection-rate band.
BAND_ALPHA = 1e-4


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Unit:
    """Outcome of one timed unit."""

    reps: int
    attempted: int
    failed: int


def unit_seed(seed: int, u: int) -> int:
    """Study seed of unit ``u``: a pure function of the run seed."""
    return int(np.random.SeedSequence((int(seed), int(u))).generate_state(1)[0])


def _rel_close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# Monte Carlo studies


@dataclass
class StudyState:
    seed: int
    first: Optional[Tuple[StudyConfig, object]] = None
    boot_reject: dict = field(default_factory=dict)   # estimator -> rejections
    boot_count: dict = field(default_factory=dict)


class StudyWorkload:
    """``run_study`` on a fixed design; one unit is one ``run_study`` call."""

    def __init__(self, name, why, design, estimators, reps_per_unit, bootstrap_B=None,
                 boot_targets=None):
        self.name = name
        self.why = why
        self.design = design
        self.estimators = estimators
        self.reps_per_unit = reps_per_unit
        self.bootstrap_B = bootstrap_B
        self.boot_targets = boot_targets or {}

    def prepare(self, seed: int, workdir: Path) -> StudyState:
        return StudyState(seed=seed)

    def config(self, state: StudyState, u: int) -> StudyConfig:
        return StudyConfig(design=self.design, replications=self.reps_per_unit,
                           estimators=self.estimators, seed=unit_seed(state.seed, u),
                           bootstrap_B=self.bootstrap_B)

    def unit(self, state: StudyState, u: int) -> Unit:
        cfg = self.config(state, u)
        summary = montecarlo.run_study(cfg)
        if state.first is None and u > 0:
            state.first = (cfg, summary)
        failed = 0
        for est, s in summary.estimators.items():
            failed += s.failures + s.bootstrap_failures
            if s.reject_boot is not None:
                n_boot = cfg.replications - s.failures - s.bootstrap_failures
                state.boot_reject[est] = (state.boot_reject.get(est, 0)
                                          + round(s.reject_boot * n_boot))
                state.boot_count[est] = state.boot_count.get(est, 0) + n_boot
        per_rep = len(self.estimators) * (2 if self.bootstrap_B else 1)
        return Unit(reps=cfg.replications, attempted=cfg.replications * per_rep,
                    failed=failed)

    def checks(self, state: StudyState) -> List[Check]:
        if self.bootstrap_B:
            return self._bootstrap_checks(state)
        return [scalar_summary_check(*state.first)]

    def _bootstrap_checks(self, state: StudyState) -> List[Check]:
        out = []
        cfg, _ = state.first
        system = draw_system(cfg.design, ReplicationStreams(cfg.seed, 0))
        for est in self.estimators:
            out.append(bootstrap_t_check(system, cfg.plan(est), self.bootstrap_B,
                                         seed=cfg.seed, label=est))
        for est, target in self.boot_targets.items():
            out.append(rejection_band_check(est, target, state.boot_reject.get(est, 0),
                                            state.boot_count.get(est, 0)))
        return out


def scalar_summary_check(cfg: StudyConfig, summary) -> Check:
    """One chunk's summary against the same replications through fit + variance_report."""
    truth = cfg.design.true_value
    z = float(spstats.norm.ppf(0.975))
    systems = [draw_system(cfg.design, ReplicationStreams(cfg.seed, r), cfg.fixed_misspec)
               for r in range(cfg.replications)]
    df = systems[0].q - systems[0].k
    j_crit = float(spstats.chi2.ppf(0.95, df)) if df > 0 else math.inf
    problems = []
    for est in cfg.estimators:
        plan = cfg.plan(est)
        rows, failures = [], 0
        for s in systems:
            try:
                f = fit(s, plan)
                rep = variance_report(s, f)
                j = j_test(s, f).statistic if df > 0 else 0.0
            except GmmError:
                failures += 1
                continue
            se_w = float(rep.se_w[0]) if rep.se_w is not None else math.nan
            rows.append((float(f.theta[0]), float(rep.se_conv[0]), float(rep.se_dc[0]), se_w, j))
        a = np.asarray(rows)
        theta, se_conv, se_dc, se_w, jstat = a.T
        dev = np.abs(theta - truth)
        want = {
            "mean_theta": theta.mean(),
            "sd_theta": theta.std(ddof=1),
            "mean_se_conv": se_conv.mean(),
            "mean_se_dc": se_dc.mean(),
            "mean_se_w": None if est == "one" else se_w.mean(),
        }
        exact = {
            "reject_conv": (dev > z * se_conv).mean(),
            "reject_dc": (dev > z * se_dc).mean(),
            "reject_w": None if est == "one" else (dev > z * se_w).mean(),
            "reject_j": (jstat > j_crit).mean(),
            "failures": failures,
        }
        got = summary.estimators[est]
        for key, value in want.items():
            g = getattr(got, key)
            if (value is None) != (g is None) or (
                    value is not None and not _rel_close(g, float(value), BATCH_RTOL)):
                problems.append(f"{est}.{key}: batch {g!r} scalar {value!r}")
        for key, value in exact.items():
            g = getattr(got, key)
            if (value is None) != (g is None) or (value is not None and g != value):
                problems.append(f"{est}.{key}: batch {g!r} scalar {value!r}")
    detail = "; ".join(problems) or (
        f"{cfg.replications} reps x {len(cfg.estimators)} estimators agree to {BATCH_RTOL:g}")
    return Check("batch summary == scalar fit+variance_report", not problems, detail)


def bootstrap_t_check(system: LinearMomentSystem, plan: FitPlan, B: int, seed: int,
                      label: str) -> Check:
    """A few t* of ``mr_bootstrap`` against per-resample scalar refits, and its
    t statistic, critical value and decision recomputed without refits."""
    res = mr_bootstrap(system, plan, coef=0, B=B, seed=seed)
    name = f"bootstrap t*, critical value and decision ({label})"
    if res.failures:
        return Check(name, False, f"{res.failures} of {B} resamples failed")
    base = fit(system, plan)
    theta0 = float(base.theta[0])
    problems = []
    for b in (0, B // 2, B - 1):
        idx = bootstrap_rng(seed, b).integers(0, system.n, size=system.n)
        resys = LinearMomentSystem(h=system.h[idx], G_obs=system.G_obs[idx],
                                   W_obs=system.W_obs[idx])
        refit = fit(resys, plan)
        t_b = (float(refit.theta[0]) - theta0) / float(variance_report(resys, refit).se_dc[0])
        if not _rel_close(float(res.t_star[b]), t_b, BATCH_RTOL, atol=1e-11):
            problems.append(f"b={b}: batch {res.t_star[b]!r} scalar {t_b!r}")
    t0 = theta0 / float(variance_report(system, base).se_dc[0])
    if not _rel_close(res.t_original, t0, BATCH_RTOL):
        problems.append(f"t_original: bootstrap {res.t_original!r} scalar {t0!r}")
    # The symmetric critical value is the ceil((B+1)*0.95)-th order statistic of |t*|.
    t_abs = np.sort(np.abs(res.t_star))
    crit = float(t_abs[min(math.ceil((t_abs.size + 1) * 0.95), t_abs.size) - 1])
    if not _rel_close(res.crit_abs, crit, BATCH_RTOL):
        problems.append(f"crit_abs: bootstrap {res.crit_abs!r} order statistic {crit!r}")
    if res.reject_5pct != (abs(res.t_original) > crit):
        problems.append(f"reject_5pct {res.reject_5pct} with |t| {abs(res.t_original)!r} "
                        f"and critical value {crit!r}")
    return Check(name, not problems, "; ".join(problems) or
                 f"3 of {B} t* agree; t, critical value and decision recomputed")


def rejection_band_check(est: str, target: float, rejections: int, count: int) -> Check:
    """Bootstrap rejections within exact binomial limits around criterion 5's target.

    The limits are the ``BAND_ALPHA`` lower quantile of Binomial(count,
    target - 0.015) and upper quantile of Binomial(count, target + 0.015).
    The lower limit is above zero once zero rejections have probability below
    ``BAND_ALPHA``: from 166 replications on for two-step, 184 for one-step.
    """
    name = f"bootstrap rejection rate ({est})"
    if count == 0:
        return Check(name, False, "no bootstrap replications")
    lo = int(spstats.binom.ppf(BAND_ALPHA, count, target - 0.015))
    hi = int(spstats.binom.isf(BAND_ALPHA, count, target + 0.015))
    ok = lo <= rejections <= hi
    return Check(name, ok, f"{rejections} rejections over {count} reps "
                           f"({rejections / count:.4f}), band [{lo}, {hi}] around {target}")


# ---------------------------------------------------------------------------
# gmmdc estimate on CSV files


PANEL_N, PANEL_T, PANEL_FILES = 500, 6, 8
CLI_ESTIMATORS = ("one-step", "two-step", "iterated")


@dataclass
class CsvState:
    workdir: Path
    panels: list
    checked: dict = field(default_factory=dict)


def make_panel(rng: np.random.Generator, N: int, T: int):
    """Balanced panel with a predetermined regressor (feedback from past errors)."""
    eta = rng.standard_normal(N)
    v = rng.standard_normal((N, T + 1)) * rng.uniform(0.5, 1.5, N)[:, None]
    x = np.empty((N, T + 1))
    x[:, 0] = eta + rng.standard_normal(N)
    for t in range(1, T + 1):
        x[:, t] = 0.5 * x[:, t - 1] + eta + 0.5 * v[:, t - 1] + rng.standard_normal(N)
    y = x + eta[:, None] + v
    return y[:, 1:], x[:, 1:]


def write_panel_csv(path: Path, y: np.ndarray, x: np.ndarray) -> None:
    N, T = y.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,t,y,x\n")
        for i in range(N):
            for t in range(T):
                fh.write(f"i{i},{t + 1},{float(y[i, t])!r},{float(x[i, t])!r}\n")


class CsvWorkload:
    """``gmmdc.cli.main(["estimate", "panel", ...])``: one unit estimates one file
    three ways (one-step, two-step, iterated), rotating over the files.

    A unit of three calls keeps the unit times unimodal; single calls of the
    three estimators differ in cost, and the median of their mixture jumps
    between modes from run to run.
    """

    name = "estimate_csv"
    why = ("scalar path: CLI estimate on panel CSVs (N=500, T=6, q=15), one client; "
           "a unit is one file estimated one-step, two-step and iterated")
    reps_per_unit = 1

    def prepare(self, seed: int, workdir: Path) -> CsvState:
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.Generator(np.random.PCG64(seed))
        panels = []
        for f in range(PANEL_FILES):
            y, x = make_panel(rng, PANEL_N, PANEL_T)
            path = workdir / f"panel{f}.csv"
            write_panel_csv(path, y, x)
            panels.append((path, y, x))
        return CsvState(workdir=workdir, panels=panels)

    def unit(self, state: CsvState, u: int) -> Unit:
        path = state.panels[u % PANEL_FILES][0]
        failed = 0
        for estimator in CLI_ESTIMATORS:
            out = state.workdir / (f"check-{estimator}.json" if u == 1 else "out.json")
            argv = ["estimate", "panel", "--data", str(path), "--y", "y", "--x", "x",
                    "--id", "id", "--time", "t", "--estimator", estimator, "--json", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            failed += code != 0
            if u == 1:
                state.checked[estimator] = (code, out)
        return Unit(reps=1, attempted=len(CLI_ESTIMATORS), failed=failed)

    def checks(self, state: CsvState) -> List[Check]:
        tests_dir = str(Path(__file__).resolve().parent.parent / "tests")
        if tests_dir not in sys.path:
            sys.path.insert(0, tests_dir)
        from reference_formulas import panel_closed_forms

        out = []
        _, y, x = state.panels[1 % PANEL_FILES]
        for estimator, (code, path) in state.checked.items():
            name = f"CLI JSON == closed forms ({estimator})"
            if code != 0:
                out.append(Check(name, False, f"exit code {code}"))
                continue
            result = json.loads(path.read_text(encoding="utf-8"))
            ref = panel_closed_forms(y, x, estimator)
            pairs = [("estimate", result["coefficients"][0]["estimate"], ref["theta"][0])]
            for kind in ("conv", "w", "dc"):
                got, want = result["variance"][f"se_{kind}"], ref[f"se_{kind}"]
                if (got is None) != (want is None):
                    pairs.append((f"se_{kind}", got, want))
                elif got is not None:
                    pairs.append((f"se_{kind}", got[0], float(want[0])))
            problems = [f"{key}: cli {g!r} oracle {w!r}" for key, g, w in pairs
                        if g is None or w is None or not _rel_close(g, w, ORACLE_RTOL)]
            out.append(Check(name, not problems,
                             "; ".join(problems) or f"estimate and se agree to {ORACLE_RTOL:g}"))
        return out


# ---------------------------------------------------------------------------


WORKLOADS = {
    w.name: w for w in (
        StudyWorkload(
            "mc_iv",
            "narrow-q large-n study (IV n=500, q=4, one/two/iter, 64-rep chunks): "
            "batch kernel heavy; bypasses the bootstrap",
            IvLocal(n=500, alpha0=0.0), ("one", "two", "iter"), reps_per_unit=64),
        StudyWorkload(
            "mc_panel",
            "wide-q small-n study (panel-rc N=200, T=8, q=21, 64-rep chunks): "
            "draw and build of the (n, q, q) weight tensor dominate time and memory",
            PanelRandomCoef(N=200, T=8, alpha0=0.0), ("one", "two", "iter"),
            reps_per_unit=64),
        StudyWorkload(
            "boot_iv",
            "criterion-5 shape (IV n=100, one/two, B=499, 1 rep per call): "
            "mr_bootstrap is over 99% of the time",
            IvLocal(n=100, alpha0=0.0), ("one", "two"), reps_per_unit=1, bootstrap_B=499,
            boot_targets={"two": 0.069, "one": 0.064}),
        CsvWorkload(),
    )
}
