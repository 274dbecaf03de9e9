"""gmmdc calls the ``scipy.special`` functions behind ``scipy.stats`` and never
imports ``scipy.stats`` itself, which alone takes most of a cold start.

``scipy.stats`` stays the oracle here: every call gmmdc makes must equal the
``scipy.stats`` call it replaces bit for bit.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import special, stats

import gmmdc
from gmmdc import FitPlan, ReplicationStreams, build_iv_system, dgp_iv, fit, j_test
from gmmdc import t_test, variance_report
from gmmdc.inference import Z_975

SRC = Path(gmmdc.__file__).resolve().parent

#: A grid over the range where the functions move, with 0, -0, +-inf and NaN.
GRID = np.concatenate([np.linspace(-40.0, 40.0, 4001),
                       np.random.default_rng(0).standard_normal(2000) * 5.0,
                       [0.0, -0.0, np.inf, -np.inf, np.nan]])
PROBS = np.concatenate([np.linspace(0.0, 1.0, 2001), [0.025, 0.05, 0.95, 0.975, np.nan]])
DFS = range(1, 61)


def same(a, b):
    return np.array_equal(np.asarray(a, float), np.asarray(b, float), equal_nan=True)


def test_import_loads_no_scipy_stats():
    code = ("import sys, json, gmmdc, gmmdc.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.stats'))))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert json.loads(done.stdout) == []


def test_import_loads_no_scipy_linalg():
    """numpy.linalg is the one linear-algebra library gmmdc calls."""
    code = ("import sys, json, gmmdc, gmmdc.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.linalg'))))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert json.loads(done.stdout) == []


def test_scipy_is_imported_at_module_top_only():
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                assert not any(n.split(".")[0] == "scipy" for n in names), \
                    f"{path.name}:{node.lineno} imports scipy inside {func.name}"


def test_normal_functions_equal_scipy_stats():
    assert same(special.ndtr(GRID), stats.norm.cdf(GRID))          # dgp_panel_rc
    assert same(special.ndtr(-np.abs(GRID)), stats.norm.sf(np.abs(GRID)))     # t_test
    assert same(special.ndtri(PROBS), stats.norm.ppf(PROBS))
    assert Z_975 == float(stats.norm.ppf(0.975))


def test_chi2_functions_equal_scipy_stats():
    x = GRID[::10]
    for df in DFS:
        # j_test, scalar by scalar as it is called
        got = [float(special.chdtrc(df, max(v, 0.0))) for v in x]
        assert same(got, stats.chi2.sf(x, df)), df
        # the J critical value of a study
        assert same(2.0 * special.gammaincinv(df / 2, PROBS), stats.chi2.ppf(PROBS, df)), df
        assert 2.0 * float(special.gammaincinv(df / 2, 0.95)) == float(stats.chi2.ppf(0.95, df))


def test_tests_equal_their_scipy_stats_values():
    y, X, Z = dgp_iv(80, 0.4, ReplicationStreams(41, 2))
    sysm = build_iv_system(y, X, Z)
    for plan in (FitPlan.one_step(), FitPlan.two_step(), FitPlan.iterated()):
        f = fit(sysm, plan)
        report = variance_report(sysm, f)
        for kind in ("conv", "dc") if plan.kind == "one-step" else ("conv", "w", "dc"):
            se = float(report.se(kind)[0])
            t = t_test(f, report, kind, 0, 0.5)
            assert t.p_value == 2.0 * float(stats.norm.sf(abs(t.statistic)))
            z = float(stats.norm.ppf(0.975))
            assert (t.ci_lower, t.ci_upper) == (float(f.theta[0]) - z * se,
                                                float(f.theta[0]) + z * se)
        j = j_test(sysm, f)
        assert j.p_value == float(stats.chi2.sf(j.statistic, j.df))
