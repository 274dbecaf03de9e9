"""Golden outputs: the canonical results of the estimate command, a set of
small studies and the one-system views, recomputed and compared with
``tests/golden/outputs.json``.

    PYTHONPATH=src python tests/golden_outputs.py                 # compare
    PYTHONPATH=src python tests/golden_outputs.py --write         # regenerate the file
    PYTHONPATH=src python tests/golden_outputs.py --cases criteria [--write]

The default case set is what ``tests/test_golden.py`` checks:

- ``estimate/...``: the 48 estimate JSONs, without ``timings`` and
  ``provenance``, of four data sets (IV with k = 1 and k = 2, panel
  predetermined and ar1) under each estimator and four variants (default,
  ``--centered``, ``--weight identity``, ``--bootstrap 199``);
- ``study/...``: the ``asdict`` summaries, without ``workers``, of small
  studies that cover every study path, each run under 1 and 2 workers;
- ``view/...``: the arrays of ``fit``, ``variance_report``, ``j_test``,
  ``mr_bootstrap`` (its ``t_star``) and the moment helpers on three
  systems.

``--cases criteria`` adds the summaries of acceptance criteria 1-5 and 9
under 1 and 2 workers (several minutes). The file records the platform key
it was written on; bits are defined only per numpy, BLAS and CPU build, so on
another platform the comparison falls back to a stated tolerance
(:data:`RTOL`, :data:`ATOL`) and says so. This file checks sameness, not
truth: ``tests/reference_formulas.py`` is the independent oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gmmdc import (  # noqa: E402
    FitPlan,
    IvLocal,
    LinearMomentSystem,
    PanelLagMiss,
    PanelRandomCoef,
    ReplicationStreams,
    StudyConfig,
    WeightSpec,
    build_ab_system,
    build_iv_system,
    d_hat,
    dgp_iv,
    dgp_panel_lag,
    dgp_panel_rc,
    fit,
    j_test,
    m_contributions,
    moment_stats,
    mr_bootstrap,
    omega_derivative,
    run_study,
    variance_report,
)
from gmmdc.cli import main  # noqa: E402

PATH = Path(__file__).resolve().parent / "golden" / "outputs.json"

#: The comparison on a platform other than the file's: |got - want| <= ATOL + RTOL |want|.
RTOL, ATOL = 1e-8, 1e-12

ESTIMATORS = ("one-step", "two-step", "iterated")
VARIANTS = {"default": [], "centered": ["--centered"], "identity": ["--weight", "identity"],
            "bootstrap": ["--bootstrap", "199", "--seed", "3"]}


def platform_key() -> dict:
    """What the bits depend on: numpy, its BLAS build, the machine and the CPU
    features numpy dispatches on."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": [blas.get("name"), blas.get("version")],
            "machine": platform.machine(), "simd": config["SIMD Extensions"]["found"]}


def _canonical(value):
    """``value`` as JSON data: arrays as nested lists, dataclasses as dicts."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


# ---------------------------------------------------------------------------
# estimate JSONs


def _write_csv(path: Path, header, columns) -> None:
    rows = np.column_stack(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _panel_columns(panel, with_x: bool):
    N, T = panel.y.shape
    cols = [np.repeat(np.arange(N), T), np.tile(np.arange(T), N), panel.y.reshape(-1)]
    return cols + [panel.x.reshape(-1)] if with_x else cols


def _datasets(tmp: Path) -> dict:
    """The four CSV data sets and the flags that select their columns."""
    y, X, Z = dgp_iv(120, 0.3, ReplicationStreams(1, 1))
    _write_csv(tmp / "iv.csv", ["y", "x0", "z0", "z1", "z2", "z3"], [y, X, Z])
    iv = ["iv", "--data", str(tmp / "iv.csv"), "--y", "y", "--z", "z0,z1,z2,z3"]
    lag = dgp_panel_lag(60, 5, 0.5, ReplicationStreams(2, 0))
    _write_csv(tmp / "lag.csv", ["id", "time", "y", "x"], _panel_columns(lag, True))
    rc = dgp_panel_rc(60, 6, 0.5, ReplicationStreams(3, 0))
    _write_csv(tmp / "rc.csv", ["id", "time", "y"], _panel_columns(rc, False))
    panel = ["--id", "id", "--time", "time", "--y", "y"]
    return {
        "iv-k1": iv + ["--x", "x0"],
        "iv-k2": iv + ["--x", "x0,z0"],
        "panel-predetermined": ["panel", "--data", str(tmp / "lag.csv"), *panel, "--x", "x"],
        "panel-ar1": ["panel", "--data", str(tmp / "rc.csv"), *panel, "--mode", "ar1"],
    }


def estimate_cases() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, flags in _datasets(tmp).items():
            for est in ESTIMATORS:
                for variant, extra in VARIANTS.items():
                    argv = ["estimate", *flags, "--estimator", est, *extra,
                            "--json", str(tmp / "out.json")]
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main(argv)
                    if code != 0:
                        raise RuntimeError(f"{argv} exited {code}")
                    result = json.loads((tmp / "out.json").read_text())
                    del result["timings"], result["provenance"]
                    out[f"estimate/{name}/{est}/{variant}"] = result
    return out


# ---------------------------------------------------------------------------
# studies


def _iv(n, alpha0=0.5):
    return IvLocal(n=n, alpha0=alpha0)


#: Small studies covering every study path; 70 replications make two chunks.
STUDIES = {
    "iv-bootstrap": StudyConfig(design=_iv(40), replications=70, seed=3, bootstrap_B=99),
    "iv-centered": StudyConfig(design=_iv(60), replications=70, seed=4, centered=True),
    "panel-rc-centered-iter": StudyConfig(design=PanelRandomCoef(N=40, T=5, alpha0=0.5),
                                          replications=70, estimators=("iter",), seed=5,
                                          centered=True),
    "panel-lag": StudyConfig(design=PanelLagMiss(N=40, T=4, alpha0=0.5), replications=70,
                             estimators=("two",), seed=6),
    "fixed-misspec": StudyConfig(design=_iv(80, 1.0), replications=70,
                                 estimators=("one", "two"), seed=7, fixed_misspec=True),
    "seed-2**70+3": StudyConfig(design=_iv(50), replications=70, estimators=("two",),
                                seed=2**70 + 3, bootstrap_B=99),
}

#: Acceptance criteria 1-5 and 9, as ``tests/test_acceptance.py`` runs them.
CRITERIA = {
    "criterion-1": StudyConfig(design=IvLocal(n=500, alpha0=0.0), replications=20_000,
                               estimators=("two",), seed=101),
    "criterion-2-alpha0": StudyConfig(design=IvLocal(n=50, alpha0=0.0), replications=20_000,
                                      estimators=("two",), seed=102),
    "criterion-2-alpha1": StudyConfig(design=IvLocal(n=50, alpha0=1.0), replications=20_000,
                                      estimators=("two",), seed=102),
    "criterion-3": StudyConfig(design=PanelRandomCoef(N=500, T=4, alpha0=0.0),
                               replications=20_000, estimators=("two",), seed=103),
    "criterion-4": StudyConfig(design=PanelLagMiss(N=100, T=4, alpha0=0.0),
                               replications=20_000, estimators=("two",), seed=104),
    "criterion-5": StudyConfig(design=IvLocal(n=100, alpha0=0.0), replications=2_000,
                               estimators=("one", "two"), seed=105, bootstrap_B=499),
    "criterion-9": StudyConfig(design=IvLocal(n=4000, alpha0=1.0), replications=5_000,
                               estimators=("one", "two", "iter"), seed=111,
                               fixed_misspec=True),
}


def _summary(cfg: StudyConfig, threads: int) -> dict:
    summary = _canonical(run_study(cfg, threads=threads))
    del summary["workers"]
    return summary


def study_cases(studies: dict) -> dict:
    return {f"study/{name}/threads-{threads}": _summary(cfg, threads)
            for name, cfg in studies.items() for threads in (1, 2)}


# ---------------------------------------------------------------------------
# one-system views


def _view_systems() -> dict:
    y, X, Z = dgp_iv(80, 0.4, ReplicationStreams(41, 2))
    rng = np.random.default_rng(20240811)
    n, q, k = 40, 4, 2
    f = rng.standard_normal((n, q, q))
    full = LinearMomentSystem(h=rng.standard_normal((n, q)),
                              G_obs=rng.standard_normal((n, q, k)) - 1.0,
                              W_obs=np.einsum("nqj,npj->nqp", f, f) + 2.0 * np.eye(q))
    return {
        "iv-k2": build_iv_system(y, np.column_stack([X[:, 0], Z[:, 0]]), Z),
        "panel": build_ab_system(dgp_panel_lag(50, 5, 0.5, ReplicationStreams(8, 0))),
        "full-w-obs": full,
    }


def view_cases() -> dict:
    out = {}
    for name, sysm in _view_systems().items():
        for kind in ESTIMATORS:
            for centered in (False, True):
                plan = FitPlan(kind, WeightSpec.data_average(), centered)
                f = fit(sysm, plan)
                rep = variance_report(sysm, f)
                j = j_test(sysm, f)
                boot = mr_bootstrap(sysm, plan, 0, 99, seed=11, null_value=0.0)
                out[f"view/{name}/{kind}/centered-{centered}"] = _canonical({
                    "theta": f.theta, "g_n_hat": f.g_n_hat, "iterations": f.iterations,
                    "steps": [[s.theta, s.weight] for s in f.steps],
                    "report": {key: getattr(rep, key) for key in (
                        "V_conv", "V_w", "V_dc", "D_hat", "Sigma_n", "C_hat",
                        "se_conv", "se_w", "se_dc")},
                    "j": [j.statistic, j.p_value],
                    "bootstrap": {"t_star": boot.t_star, "crit_abs": boot.crit_abs,
                                  "failures": boot.failures},
                })
        theta = fit(sysm, FitPlan.two_step()).theta
        weight = sysm.weight_matrix(WeightSpec.efficient_centered(theta))
        stats = moment_stats(sysm, theta)
        out[f"view/{name}/helpers"] = _canonical({
            "moment_stats": stats,
            "omega_derivative": [omega_derivative(sysm, theta, j, c)
                                 for j in range(sysm.k) for c in (False, True)],
            "weight_matrix": weight,
            "m_contributions": m_contributions(
                sysm, theta, weight, sysm.weight_obs(WeightSpec.efficient_centered(theta))),
            "d_hat": d_hat(sysm, theta, theta, weight, centered=True),
        })
    return out


def compute(cases: str = "default") -> dict:
    if cases == "criteria":
        return study_cases(CRITERIA)
    return {**estimate_cases(), **study_cases(STUDIES), **view_cases()}


# ---------------------------------------------------------------------------
# comparison


def _leaves(value, path=""):
    """(path, leaf) pairs of a JSON value, in order."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaves(v, f"{path}/{key}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def _same(got, want) -> bool:
    return got == want or (isinstance(got, float) and isinstance(want, float)
                           and math.isnan(got) and math.isnan(want))


def _numbers(*leaves) -> bool:
    return all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in leaves)


def _structure(got: dict, want: dict) -> str:
    """How the leaf paths of ``got`` differ from those of ``want``: the count
    and first path of the leaves added and dropped, in order."""
    added = [p for p in got if p not in want]
    dropped = [p for p in want if p not in got]
    parts = [f"{len(paths)} {'leaf' if len(paths) == 1 else 'leaves'} {verb} (first {paths[0]})"
             for verb, paths in (("added", added), ("dropped", dropped)) if paths]
    return "structure differs: " + (", ".join(parts) or "leaves reordered")


def compare(got: dict, want: dict, exact: bool) -> list:
    """One line per case of ``want`` that ``got`` misses or does not match:
    how its structure differs, if it does, and the worst relative deviation
    of the leaves both hold, with the count of those that moved. A leaf
    matches when it is equal, or, unless ``exact``, when both are numbers
    within ATOL + RTOL |want|."""
    problems = []
    for case, expected in want.items():
        if case not in got:
            problems.append(f"{case}: missing")
            continue
        a, b = dict(_leaves(got[case])), dict(_leaves(expected))
        notes = [] if list(a) == list(b) else [_structure(a, b)]
        worst, where, moved = -1.0, None, 0
        shared = [(path, a[path], y) for path, y in b.items() if path in a]
        for path, x, y in shared:
            if _same(x, y) or not exact and _numbers(x, y) and abs(x - y) <= ATOL + RTOL * abs(y):
                continue
            moved += 1
            dev = abs(x - y) / abs(y) if _numbers(x, y) and y else math.inf
            if dev > worst:
                worst, where = dev, path
        if where is not None:
            notes.append(f"worst relative deviation {worst:.3e} at {where}, "
                         f"{moved} of {len(shared)} leaves moved")
        if notes:
            problems.append(f"{case}: " + "; ".join(notes))
    problems += [f"{case}: not in the golden file" for case in got if case not in want]
    return problems


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def write(outputs: dict, section: str) -> None:
    data = load() if PATH.exists() else {}
    data["platform"] = platform_key()
    data[section] = outputs
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(data, indent=1, sort_keys=False) + "\n", encoding="utf-8")


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the golden file")
    parser.add_argument("--cases", choices=["default", "criteria"], default="default")
    args = parser.parse_args(argv)
    outputs = compute(args.cases)
    if args.write:
        write(outputs, args.cases)
        print(f"wrote {len(outputs)} {args.cases} cases to {PATH}")
        return 0
    data = load()
    exact = data["platform"] == platform_key()
    if not exact:
        print(f"platform differs from the golden file's {data['platform']}: "
              f"comparing at rtol {RTOL}, atol {ATOL}")
    problems = compare(outputs, data[args.cases], exact)
    for line in problems:
        print(line)
    print(f"{len(outputs)} cases, {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main_cli())
