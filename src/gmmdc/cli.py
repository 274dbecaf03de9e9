"""Command-line front end: estimate from CSV files or run simulation studies.

Results go to stdout (a human-readable table, plus a JSON mirror written with
``--json``); logs and progress go to stderr. Exit codes: 0 on success, 2 on
data errors, 3 on numerical failure. Table and JSON are rendered from the
same result dictionary, so they always agree.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import os
import sys
import time
from typing import List, Optional

import numpy as np
import scipy

from . import __version__
from .errors import GmmError, JNotDefinedError
from .estimate import DEFAULT_TOL, FitPlan, fit
from .inference import _check_B, _check_seed, _percentile_t, _unwrap, j_test, t_test
from .linmoment import PanelDataset, WeightSpec, build_ab_system, build_iv_system
from .montecarlo import IvLocal, PanelLagMiss, PanelRandomCoef, StudyConfig, run_study
from .variance import variance_report

SCHEMA = "gmm-dc/1"


class DataError(Exception):
    """Invalid input data or request (exit code 2)."""


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        target = os.path.dirname(args.json or "") or "."
        if not os.path.isdir(target):       # before any work, not after it
            raise DataError(f"--json: directory {target!r} does not exist")
        if args.command == "estimate":
            result = cmd_estimate(args)
            _print_estimate_table(result)
        else:
            result = cmd_simulate(args)
            _print_simulate_table(result)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=2)
                fh.write("\n")
    except (DataError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GmmError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def _names(text: str) -> List[str]:
    return text.split(",")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmmdc",
        description="Linear GMM estimation with doubly corrected standard errors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a model from a CSV file")
    est_sub = est.add_subparsers(dest="model", required=True)
    for model in ("iv", "panel"):
        p = est_sub.add_parser(model)
        p.add_argument("--data", required=True, help="CSV file with a header row")
        p.add_argument("--y", required=True, help="outcome column")
        p.add_argument("--x", required=(model == "iv"),
                       help="regressor column(s), comma separated; "
                            "ignored in panel ar1 mode")
        if model == "iv":
            p.add_argument("--z", required=True, help="instrument columns, comma separated")
        else:
            p.add_argument("--id", required=True, help="individual identifier column")
            p.add_argument("--time", required=True, help="time period column")
            p.add_argument("--mode", choices=["predetermined-x", "ar1"],
                           default="predetermined-x")
        p.add_argument("--estimator", choices=["one-step", "two-step", "iterated"],
                       default="two-step")
        p.add_argument("--weight", choices=["data-average", "identity"],
                       default="data-average")
        p.add_argument("--centered", action="store_true",
                       help="use the centered second-moment weight in efficient steps")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="convergence tolerance for the iterated estimator")
        p.add_argument("--se-kind", choices=["conv", "w", "dc"], default="dc",
                       help="standard error used for the t/p/CI columns")
        p.add_argument("--null", default=None,
                       help="null values for the t tests, comma separated (default 0)")
        p.add_argument("--bootstrap", type=int, default=None, metavar="B",
                       help="run the percentile-t bootstrap with B replications")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", default=None, help="write the JSON mirror to this path")

    # The dests are the field names of StudyConfig and the designs, which
    # _config_from_args reads them by.
    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--config", default=None, help="JSON study configuration file")
    sim.add_argument("--design", choices=list(_DESIGNS), default=None)
    sim.add_argument("--n", type=int, default=None, help="sample size (iv design)")
    sim.add_argument("--N", type=int, default=None, help="individuals (panel designs)")
    sim.add_argument("--T", type=int, default=None, help="periods (panel designs)")
    sim.add_argument("--alpha0", type=float, default=0.0)
    sim.add_argument("--reps", dest="replications", metavar="REPS", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--estimators", type=_names, default="one,two,iter")
    sim.add_argument("--bootstrap-B", type=int, default=None)
    sim.add_argument("--bootstrap-estimators", type=_names, default=None)
    sim.add_argument("--fixed-misspec", action="store_true")
    sim.add_argument("--centered", action="store_true")
    sim.add_argument("--threads", type=int, default=None,
                     help="worker processes (default: GMMDC_THREADS or all cores)")
    sim.add_argument("--json", default=None, help="write the JSON mirror to this path")
    return parser


# ---------------------------------------------------------------------------
# estimate


#: numpy's reader of the accepted dialect (README, "CSV dialect").
_DIALECT = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)


def _read_csv(path: str):
    """Column positions by name (the last of repeated names) and the data
    lines of a CSV file, blank lines dropped."""
    with open(path, encoding="utf-8-sig") as fh:       # a byte-order mark is skipped
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataError(f"{path}: missing header row")
    header = next(csv.reader(lines[:1]))
    return {name: i for i, name in enumerate(header)}, [line for line in lines[1:] if line]


def _load(table, names: List[str], dtype=float) -> np.ndarray:
    """The named columns of every data line, as an (n, len(names)) array."""
    index, lines = table
    for name in names:
        if name not in index:
            raise DataError(f"column {name!r} not found; available: {sorted(index)}")
    if not lines:       # numpy warns on input without data
        return np.empty((0, len(names)), dtype)
    return np.loadtxt(lines, dtype, usecols=[index[name] for name in names], **_DIALECT)


def _numeric(table, names: List[str]) -> np.ndarray:
    try:
        return _load(table, names)
    except ValueError:
        for name in names:      # name the first column, in the order asked, that fails
            try:
                _load(table, [name])
            except ValueError as exc:
                raise DataError(f"column {name!r} has non-numeric cells: {exc}") from None
        raise


def _panel_arrays(table, id_col: str, time_col: str, value_cols: List[str]):
    """One (N, T) array per value column: ids in order of first appearance, times sorted."""
    if id_col not in table[0]:
        raise DataError(f"column {id_col!r} not found")
    data = _numeric(table, [time_col] + value_cols)
    times = data[:, 0]
    if np.isnan(times).any():
        raise DataError(f"column {time_col!r} has NaN cells")
    labels = _load(table, [id_col], str)[:, 0]
    _, first, ids = np.unique(labels, return_index=True, return_inverse=True)
    periods, t_of = np.unique(times, return_inverse=True)
    N, T = len(first), len(periods)
    cells = np.argsort(np.argsort(first))[ids] * T + t_of
    _, seen = np.unique(cells, return_index=True)
    if len(seen) < len(cells):
        row = np.setdiff1d(np.arange(len(cells)), seen)[0]     # first to meet a filled cell
        raise DataError(f"duplicate (id, time) cell for id {str(labels[row])!r}, "
                        f"time {times[row]}")
    if len(cells) != N * T:
        raise DataError("panel is unbalanced: some (id, time) cells are missing")
    panels = np.empty((len(value_cols), N * T))
    panels[:, cells] = data[:, 1:].T
    return list(panels.reshape(len(value_cols), N, T))


class _Stages:
    """Wall milliseconds per stage of one command: ``with stages("fit"): ...``."""

    def __init__(self, *names: str):
        self.ms = {f"{name}_ms": 0.0 for name in names}

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ms[f"{name}_ms"] += (time.perf_counter() - start) * 1e3


def _provenance(seed: int, started: float) -> dict:
    """Versions, BLAS, threads, seed and wall time of a run that began at ``started``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):    # numpy < 1.26 has no dict form
        blas = {}
    return {
        "gmmdc": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "wall_ms": (time.time() - started) * 1e3,
    }


def _nulls(text: Optional[str], k: int) -> List[float]:
    """The ``--null`` values of k coefficients: one for all of them or one
    each, 0 when not given."""
    if not text:
        return [0.0] * k
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (1, k) or not np.isfinite(parts).all():
        raise DataError(f"--null takes 1 or {k} finite values, got {text!r}")
    return parts * k if len(parts) == 1 else parts


def cmd_estimate(args) -> dict:
    started = time.time()
    # every flag is checked before the data file is read
    if args.model == "iv":
        coef_names = args.x.split(",")
    elif args.mode == "ar1":
        coef_names = [f"lag({args.y})"]
    elif not args.x or len(args.x.split(",")) != 1:
        raise DataError("panel models take a single regressor column")
    else:
        coef_names = [args.x]
    nulls = _nulls(args.null, len(coef_names))
    if args.se_kind == "w" and args.estimator == "one-step":
        raise DataError("--se-kind w needs a two-step or iterated --estimator: the "
                        "Windmeijer-corrected variance is not defined for one-step fits")
    if args.bootstrap is not None:
        _check_B(args.bootstrap, "--bootstrap B")
        _check_seed(args.seed, "--seed")
    w0 = WeightSpec.identity() if args.weight == "identity" else WeightSpec.data_average()
    plan = FitPlan(args.estimator, w0, centered=args.centered, tol=args.tol)

    stages = _Stages("read", "build", "fit", "variance", "j", "bootstrap")
    with stages("read"):
        table = _read_csv(args.data)
        if args.model == "iv":
            data = _numeric(table, [args.y] + coef_names + args.z.split(","))
            y, X, Z = (np.ascontiguousarray(a)
                       for a in np.split(data, [1, 1 + len(coef_names)], axis=1))
        elif args.mode == "ar1":
            (ypanel,) = _panel_arrays(table, args.id, args.time, [args.y])
            panel = PanelDataset(y=ypanel)
        else:
            ypanel, xpanel = _panel_arrays(table, args.id, args.time, [args.y] + coef_names)
            panel = PanelDataset(y=ypanel, x=xpanel)
    with stages("build"):
        if args.model == "iv":
            sys_ = build_iv_system(y[:, 0], X, Z)
        else:
            sys_ = build_ab_system(panel, mode="ar1" if args.mode == "ar1" else "predetermined")

    with stages("fit"):
        fit_result = fit(sys_, plan)
    with stages("variance"):
        report = variance_report(sys_, fit_result)

    boots = [None] * sys_.k
    if args.bootstrap is not None:
        with stages("bootstrap"):
            (boots,) = _percentile_t(sys_, args.bootstrap, args.seed, [plan], range(sys_.k),
                                     nulls, [(fit_result.theta, report.se_dc)], "--bootstrap B")

    coefficients = []
    for c, name in enumerate(coef_names):
        test = t_test(fit_result, report, args.se_kind, c, nulls[c])
        entry = {
            "name": name,
            "estimate": float(fit_result.theta[c]),
            "se_conv": float(report.se_conv[c]),
            "se_w": float(report.se_w[c]) if report.se_w is not None else None,
            "se_dc": float(report.se_dc[c]),
            "se_kind": args.se_kind,
            "null_value": nulls[c],
            "t": test.statistic,
            "p_value": test.p_value,
            "ci_lower": test.ci_lower,
            "ci_upper": test.ci_upper,
            "bootstrap": None,
        }
        if boots[c] is not None:
            boot = _unwrap(boots[c])
            entry["bootstrap"] = {key: getattr(boot, key) for key in (
                "B", "crit_abs", "reject_5pct", "failures", "t_original", "failure_reasons")}
        coefficients.append(entry)

    j_entry = j_note = None
    try:
        with stages("j"):
            j = j_test(sys_, fit_result)
        j_entry = {"statistic": j.statistic, "df": j.df, "p_value": j.p_value}
    except JNotDefinedError:
        j_note = "model is just-identified (q = k); the J test is not defined"

    return {
        "schema": SCHEMA,
        "command": "estimate",
        "model": args.model,
        "estimator": args.estimator,
        "weight": args.weight,
        "centered": args.centered,
        "n_units": sys_.n,
        "q": sys_.q,
        "k": sys_.k,
        "converged": fit_result.converged,
        "iterations": fit_result.iterations,
        "coefficients": coefficients,
        "j_test": j_entry,
        "j_note": j_note,
        "variance": {key: None if (value := getattr(report, key)) is None else value.tolist()
                     for key in ("V_conv", "V_w", "V_dc", "D_hat", "Sigma_n", "C_hat",
                                 "se_conv", "se_w", "se_dc")},
        "timings": stages.ms,
        "provenance": _provenance(args.seed, started),
    }


def _print_estimate_table(result: dict) -> None:
    print(f"{result['model']} {result['estimator']} GMM  "
          f"(n={result['n_units']}, q={result['q']}, k={result['k']})")
    header = (f"{'coef':<12}{'estimate':>12}{'se_conv':>11}{'se_w':>11}"
              f"{'se_dc':>11}{'t':>9}{'p':>8}  95% CI")
    print(header)
    for c in result["coefficients"]:
        se_w = f"{c['se_w']:.4f}" if c["se_w"] is not None else "-"
        print(f"{c['name']:<12}{c['estimate']:>12.6f}{c['se_conv']:>11.4f}"
              f"{se_w:>11}{c['se_dc']:>11.4f}{c['t']:>9.3f}{c['p_value']:>8.4f}"
              f"  [{c['ci_lower']:.4f}, {c['ci_upper']:.4f}]")
        if c["bootstrap"]:
            b = c["bootstrap"]
            verdict = "reject" if b["reject_5pct"] else "fail to reject"
            print(f"{'':<12}bootstrap(B={b['B']}): |t|={abs(b['t_original']):.3f} "
                  f"vs crit {b['crit_abs']:.3f} -> {verdict} at 5% "
                  f"({b['failures']} degenerate resamples)")
    if result["j_test"]:
        j = result["j_test"]
        print(f"J = {j['statistic']:.4f}  (df = {j['df']}, p = {j['p_value']:.4f})")
    elif result["j_note"]:
        print(f"note: {result['j_note']}")


# ---------------------------------------------------------------------------
# simulate


#: Study designs by ``kind``; a design's size fields are its init fields but ``alpha0``.
_DESIGNS = {cls.kind: cls for cls in (IvLocal, PanelRandomCoef, PanelLagMiss)}
_JSON_TYPES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", list: "a list of names", dict: "an object"}
_REQUIRED = object()


def _field(d: dict, name: str, kind: type, default=_REQUIRED):
    """Study field ``name`` ("design.n" is the design's "n"), a JSON value of
    type ``kind`` (a bool is no number); a null or absent field is ``default``.
    An integer field but ``seed`` (a stream key, unbounded) must fit in int64."""
    value = d.get(name.rsplit(".", 1)[-1])
    if value is None:
        if default is _REQUIRED:
            raise DataError(f"study field {name!r} is required")
        return default
    if (not isinstance(value, (int, float) if kind is float else kind)
            or isinstance(value, bool) != (kind is bool)
            or kind is float and not abs(value) <= sys.float_info.max    # NaN, inf, 10**400
            or kind is list and not all(isinstance(x, str) for x in value)):
        raise DataError(f"study field {name!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    if kind is int and name != "seed" and not -2**63 <= value < 2**63:
        raise DataError(f"study field {name!r} must fit in a signed 64-bit integer")
    return value


def _known(d: dict, names: List[str], prefix: str = "") -> None:
    """Reject the first key of ``d`` that is not one of ``names``."""
    for key in d:
        if key not in names:
            raise DataError(f"unknown study field {prefix + key!r}")


def _study_config(raw) -> StudyConfig:
    """The study a dict describes: a ``--config`` file, the simulate flags or
    the simulate JSON's ``config`` block, which has the same fields (its
    ``threads`` is accepted and ignored)."""
    if not isinstance(raw, dict):
        raise DataError(f"a study configuration must be a JSON object, got {type(raw).__name__}")
    _known(raw, [f.name for f in dataclasses.fields(StudyConfig)] + ["threads"])
    d = _field(raw, "design", dict)
    cls = _DESIGNS.get(_field(d, "design.kind", str))
    if cls is None:
        raise DataError(f"unknown design kind {d['kind']!r}")
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    _known(d, ["kind"] + names, "design.")
    sizes = {name: _field(d, f"design.{name}", int) for name in names if name != "alpha0"}
    boot_ests = _field(raw, "bootstrap_estimators", list, None)
    return StudyConfig(
        design=cls(alpha0=float(_field(d, "design.alpha0", float, 0.0)), **sizes),
        replications=_field(raw, "replications", int),
        estimators=tuple(_field(raw, "estimators", list, ["one", "two", "iter"])),
        seed=_field(raw, "seed", int, 0),
        bootstrap_B=_field(raw, "bootstrap_B", int, None),
        bootstrap_estimators=None if boot_ests is None else tuple(boot_ests),
        fixed_misspec=_field(raw, "fixed_misspec", bool, False),
        centered=_field(raw, "centered", bool, False),
    )


def _study_dict(cfg: StudyConfig) -> dict:
    """The fields of ``cfg``, as :func:`_study_config` reads them."""
    d = dataclasses.asdict(cfg)
    return {**d, "design": {"kind": cfg.design.kind, "alpha0": cfg.design.alpha0, **d["design"]}}


def _config_from_args(args) -> StudyConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            return _study_config(json.load(fh))
    if args.design is None:
        raise DataError("either --config or --design is required")
    flags = {**vars(args), "kind": args.design}
    raw = {f.name: flags[f.name] for f in dataclasses.fields(StudyConfig)}
    raw["design"] = {f.name: flags[f.name] for f in dataclasses.fields(_DESIGNS[args.design])}
    return _study_config(raw)


def _resolve_threads(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("GMMDC_THREADS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise DataError(f"GMMDC_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def cmd_simulate(args) -> dict:
    started = time.time()
    cfg = _config_from_args(args)
    threads = _resolve_threads(args.threads)

    def progress(done, total):
        print(f"\r{done}/{total} replications", end="", file=sys.stderr, flush=True)

    summary = run_study(cfg, threads=threads, progress=progress)
    print(file=sys.stderr)

    return {
        "schema": SCHEMA,
        "command": "simulate",
        "config": {**_study_dict(cfg), "threads": summary.workers},
        "estimators": {est: dataclasses.asdict(s) for est, s in summary.estimators.items()},
        "failure_warning": summary.failure_warning,
        "provenance": _provenance(cfg.seed, started),
    }


def _print_simulate_table(result: dict) -> None:
    cfg = result["config"]
    d = cfg["design"]
    size = f"n={d['n']}" if "n" in d else f"N={d['N']}, T={d['T']}"
    print(f"design {d['kind']} ({size}, alpha0={d['alpha0']}), "
          f"{cfg['replications']} replications, seed {cfg['seed']}")
    names = {"one": "one-step", "two": "two-step", "iter": "iterated"}
    rows = [
        ("mean", "mean_theta"), ("sd", "sd_theta"),
        ("se", "mean_se_conv"), ("se_w", "mean_se_w"), ("se_dc", "mean_se_dc"),
        ("rej t", "reject_conv"), ("rej t_w", "reject_w"), ("rej t_dc", "reject_dc"),
        ("rej t_dc-bs", "reject_boot"), ("rej J", "reject_j"),
    ]
    ests = list(result["estimators"])
    print(f"{'':<14}" + "".join(f"{names[e]:>12}" for e in ests))
    for label, key in rows:
        values = [result["estimators"][e][key] for e in ests]
        if all(v is None for v in values):
            continue
        cells = "".join(f"{v:>12.4f}" if v is not None else f"{'-':>12}" for v in values)
        print(f"{label:<14}{cells}")
    failures = {e: result["estimators"][e]["failures"] for e in ests}
    if any(failures.values()):
        reasons = {e: {r: c for r, c in result["estimators"][e]["failure_reasons"].items() if c}
                   for e in ests}
        print(f"failures: {failures}, by reason: {reasons}")
    nonconverged = {e: result["estimators"][e]["nonconverged"] for e in ests}
    if any(nonconverged.values()):
        print(f"not converged (kept in the aggregates): {nonconverged}")
    if result["failure_warning"]:
        print("warning: replication failure rate above 0.1%")


if __name__ == "__main__":
    sys.exit(main())
