"""Guards for the public API and the ``gmm-dc/1`` JSON schema.

Both may grow: a change may add names to ``gmmdc.__all__`` and keys to the
JSON documents, but removing or renaming one needs a deliberate schema bump.
The sets below are therefore required subsets, not exact lists.
"""

import json

import gmmdc
from gmmdc import ReplicationStreams, dgp_iv
from gmmdc.cli import SCHEMA, main
from test_cli import write_iv_csv

PUBLIC_NAMES = {
    "BootstrapResult", "DegenerateVarianceError", "EstimatorSummary", "ExpansionTerms",
    "ExpansionTruth", "FitPlan", "FitStep", "GmmError", "GmmFit",
    "IllConditionedCorrectionError", "IvLocal", "JNotDefinedError", "LinearMomentSystem",
    "MomentStats", "PanelDataset", "PanelLagMiss", "PanelRandomCoef", "ReplicationStreams",
    "SingularNormalMatrixError", "SingularWeightError", "StudyConfig", "StudySummary",
    "TestResult", "VarianceReport", "WeightKind", "WeightSpec", "build_ab_system",
    "build_iv_system", "critical_value", "d_hat", "dgp_iv", "dgp_panel_lag", "dgp_panel_rc",
    "differencing_weight", "draw_system", "fit", "j_test", "m_contributions", "moment_stats",
    "mr_bootstrap", "neumann_inverse", "omega_derivative", "onestep_expansion", "run_study",
    "solve_weighted", "t_test", "twostep_expansion", "variance_report",
}

ESTIMATE_KEYS = {
    "schema", "command", "model", "estimator", "weight", "centered", "n_units", "q", "k",
    "converged", "iterations", "coefficients", "j_test", "j_note", "variance",
}
COEFFICIENT_KEYS = {
    "name", "estimate", "se_conv", "se_w", "se_dc", "se_kind", "null_value", "t", "p_value",
    "ci_lower", "ci_upper", "bootstrap",
}
BOOTSTRAP_KEYS = {"B", "crit_abs", "reject_5pct", "failures", "t_original", "failure_reasons"}
J_KEYS = {"statistic", "df", "p_value"}
TIMINGS_KEYS = {"read_ms", "build_ms", "fit_ms", "variance_ms", "j_ms", "bootstrap_ms"}
PROVENANCE_KEYS = {"gmmdc", "numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS", "seed",
                   "started_utc", "wall_ms"}
VARIANCE_KEYS = {"V_conv", "V_w", "V_dc", "D_hat", "Sigma_n", "C_hat", "se_conv", "se_w", "se_dc"}

SIMULATE_KEYS = {"schema", "command", "config", "estimators", "failure_warning"}
CONFIG_KEYS = {"design", "replications", "estimators", "seed", "bootstrap_B", "fixed_misspec",
               "centered", "threads"}
DESIGN_KEYS = {"kind", "alpha0", "n"}
ESTIMATOR_KEYS = {
    "mean_theta", "sd_theta", "mean_se_conv", "mean_se_w", "mean_se_dc", "reject_conv",
    "reject_w", "reject_dc", "reject_boot", "reject_j", "failures", "bootstrap_failures",
    "sd_degenerate", "nonconverged", "failure_reasons", "bootstrap_resample_failures",
}


def test_public_names_are_kept():
    assert PUBLIC_NAMES <= set(gmmdc.__all__)
    for name in gmmdc.__all__:
        assert getattr(gmmdc, name) is not None


def test_estimate_json_keeps_its_keys(tmp_path):
    y, X, Z = dgp_iv(80, 0.3, ReplicationStreams(31, 0))
    path = tmp_path / "d.csv"
    x_cols, z_cols = write_iv_csv(path, y, X, Z)
    out = tmp_path / "e.json"
    assert main(["estimate", "iv", "--data", str(path), "--y", "y", "--x", x_cols,
                 "--z", z_cols, "--bootstrap", "99", "--json", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["schema"] == SCHEMA == "gmm-dc/1"
    assert ESTIMATE_KEYS <= set(result)
    coef = result["coefficients"][0]
    assert COEFFICIENT_KEYS <= set(coef)
    assert BOOTSTRAP_KEYS <= set(coef["bootstrap"])
    assert coef["bootstrap"]["failures"] == sum(coef["bootstrap"]["failure_reasons"].values())
    assert J_KEYS <= set(result["j_test"])
    assert VARIANCE_KEYS <= set(result["variance"])
    assert TIMINGS_KEYS <= set(result["timings"])
    assert all(ms >= 0.0 for ms in result["timings"].values())
    assert result["timings"]["bootstrap_ms"] > 0.0
    assert PROVENANCE_KEYS <= set(result["provenance"])
    assert {"name", "version"} <= set(result["provenance"]["blas"])
    assert result["provenance"]["gmmdc"] == gmmdc.__version__
    assert result["provenance"]["seed"] == 0


def test_simulate_json_keeps_its_keys(tmp_path):
    out = tmp_path / "s.json"
    assert main(["simulate", "--design", "iv", "--n", "60", "--reps", "8", "--seed", "3",
                 "--threads", "1", "--estimators", "one,two", "--json", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["schema"] == "gmm-dc/1"
    assert SIMULATE_KEYS <= set(result)
    assert CONFIG_KEYS <= set(result["config"])
    assert DESIGN_KEYS <= set(result["config"]["design"])
    for block in result["estimators"].values():
        assert ESTIMATOR_KEYS <= set(block)
        assert block["failures"] == sum(block["failure_reasons"].values())
