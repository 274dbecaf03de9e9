import csv
import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as spstats

from gmmdc import (
    FitPlan,
    ReplicationStreams,
    build_iv_system,
    dgp_iv,
    dgp_panel_lag,
    fit,
    j_test,
    mr_bootstrap,
    variance_report,
)
from gmmdc import cli, montecarlo
from gmmdc._batch import BatchGmm
from gmmdc.cli import main
import csv_oracle


def write_iv_csv(path, y, X, Z):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        x_names = [f"x{j}" for j in range(X.shape[1])]
        z_names = [f"z{j}" for j in range(Z.shape[1])]
        writer.writerow(["y"] + x_names + z_names)
        for i in range(len(y)):
            writer.writerow([repr(float(y[i]))]
                            + [repr(float(v)) for v in X[i]]
                            + [repr(float(v)) for v in Z[i]])
    return ",".join(x_names), ",".join(z_names)


def write_panel_csv(path, panel):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "y", "x"])
        for i in range(panel.N):
            for t in range(panel.T):
                writer.writerow([i, t, repr(float(panel.y[i, t])),
                                 repr(float(panel.x[i, t]))])


@pytest.fixture
def iv_csv(tmp_path):
    y, X, Z = dgp_iv(120, 0.3, ReplicationStreams(1, 1))
    path = tmp_path / "d.csv"
    x_cols, z_cols = write_iv_csv(path, y, X, Z)
    return path, x_cols, z_cols, (y, X, Z)


class TestEstimateCommand:
    def test_iv_json_matches_library_exactly(self, iv_csv, tmp_path, capsys):
        path, x_cols, z_cols, (y, X, Z) = iv_csv
        out = tmp_path / "out.json"
        code = main(["estimate", "iv", "--data", str(path), "--y", "y",
                     "--x", x_cols, "--z", z_cols, "--estimator", "two-step",
                     "--json", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["schema"] == "gmm-dc/1"
        sysm = build_iv_system(y, X, Z)
        f = fit(sysm, FitPlan.two_step())
        rep = variance_report(sysm, f)
        coef = result["coefficients"][0]
        assert coef["estimate"] == float(f.theta[0])
        assert coef["se_conv"] == float(rep.se_conv[0])
        assert coef["se_w"] == float(rep.se_w[0])
        assert coef["se_dc"] == float(rep.se_dc[0])
        assert result["variance"]["V_dc"] == [[float(rep.V_dc[0, 0])]]
        jt = j_test(sysm, f)
        assert result["j_test"]["statistic"] == jt.statistic
        assert result["j_test"]["df"] == jt.df

    def test_json_round_trip_reproduces_t(self, iv_csv, tmp_path):
        path, x_cols, z_cols, _ = iv_csv
        out = tmp_path / "out.json"
        main(["estimate", "iv", "--data", str(path), "--y", "y", "--x", x_cols,
              "--z", z_cols, "--null", "1.0", "--json", str(out)])
        result = json.loads(out.read_text())
        coef = result["coefficients"][0]
        recomputed = (coef["estimate"] - coef["null_value"]) / coef["se_dc"]
        assert abs(recomputed - coef["t"]) < 1e-12

    def test_table_agrees_with_json(self, iv_csv, tmp_path, capsys):
        path, x_cols, z_cols, _ = iv_csv
        out = tmp_path / "out.json"
        main(["estimate", "iv", "--data", str(path), "--y", "y", "--x", x_cols,
              "--z", z_cols, "--json", str(out)])
        table = capsys.readouterr().out
        result = json.loads(out.read_text())
        coef = result["coefficients"][0]
        assert f"{coef['estimate']:.6f}" in table
        assert f"{coef['se_dc']:.4f}" in table
        assert f"J = {result['j_test']['statistic']:.4f}" in table

    def test_just_identified_prints_note_and_equal_se(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 1))
        Z = rng.standard_normal((60, 1))
        y = X[:, 0] + rng.standard_normal(60)
        path = tmp_path / "ji.csv"
        x_cols, z_cols = write_iv_csv(path, y, X, Z)
        out = tmp_path / "out.json"
        code = main(["estimate", "iv", "--data", str(path), "--y", "y",
                     "--x", x_cols, "--z", z_cols, "--json", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "just-identified" in table
        result = json.loads(out.read_text())
        assert result["j_test"] is None
        coef = result["coefficients"][0]
        assert coef["se_w"] == pytest.approx(coef["se_conv"], rel=1e-8)

    def test_bootstrap_deterministic(self, iv_csv, tmp_path):
        path, x_cols, z_cols, _ = iv_csv
        outputs = []
        for run in range(2):
            out = tmp_path / f"b{run}.json"
            main(["estimate", "iv", "--data", str(path), "--y", "y",
                  "--x", x_cols, "--z", z_cols, "--bootstrap", "999",
                  "--seed", "7", "--json", str(out)])
            outputs.append(json.dumps(_run_free(out)))
        assert outputs[0] == outputs[1]

    def test_bootstrap_below_99_exits_2(self, iv_csv, capsys):
        path, x_cols, z_cols, _ = iv_csv
        for B in ("0", "50", "-3"):
            code = main(["estimate", "iv", "--data", str(path), "--y", "y", "--x", x_cols,
                         "--z", z_cols, "--bootstrap", B])
            assert code == 2, B
            assert "B must be at least 99" in capsys.readouterr().err

    def test_negative_bootstrap_seed_exits_2(self, iv_csv, capsys):
        path, x_cols, z_cols, _ = iv_csv
        code = main(["estimate", "iv", "--data", str(path), "--y", "y", "--x", x_cols,
                     "--z", z_cols, "--bootstrap", "99", "--seed", "-1"])
        assert code == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_one_parser_serves_every_call(self, iv_csv, tmp_path, capsys):
        path, x_cols, z_cols, _ = iv_csv
        base = ["estimate", "iv", "--data", str(path), "--y", "y", "--x", x_cols,
                "--z", z_cols]
        calls = [base + ["--centered", "--bootstrap", "199"], base,
                 base + ["--estimator", "four-step"], base + ["--bootstrap", "199"]]
        assert cli._build_parser() is cli._build_parser()
        for i, argv in enumerate(calls):
            out = tmp_path / f"in{i}.json"
            if "four-step" in argv:
                with pytest.raises(SystemExit) as exc:
                    main(argv + ["--json", str(out)])
                assert exc.value.code == 2
                assert "invalid choice" in capsys.readouterr().err
                continue
            assert main(argv + ["--json", str(out)]) == 0
            fresh = tmp_path / f"fresh{i}.json"
            subprocess.run([sys.executable, "-m", "gmmdc", *argv, "--json", str(fresh)],
                           capture_output=True, check=True)
            assert _run_free(out) == _run_free(fresh)

    def test_bootstrap_shares_one_stack_across_coefficients(self, tmp_path, monkeypatch):
        y, X, Z = dgp_iv(80, 0.3, ReplicationStreams(5, 2))
        X = np.column_stack([X[:, 0], Z[:, 0]])     # an exogenous second regressor
        path = tmp_path / "d.csv"
        x_cols, z_cols = write_iv_csv(path, y, X, Z)
        stacks = []
        from_system = BatchGmm.from_system.__func__

        def counting_from_system(cls, sysm, idx):
            stacks.append(idx.shape)
            return from_system(cls, sysm, idx)

        monkeypatch.setattr(BatchGmm, "from_system", classmethod(counting_from_system))
        out = tmp_path / "b.json"
        assert main(["estimate", "iv", "--data", str(path), "--y", "y", "--x", x_cols,
                     "--z", z_cols, "--bootstrap", "99", "--seed", "3", "--null", "1,0",
                     "--json", str(out)]) == 0
        assert stacks == [(99, 80)]
        result = json.loads(out.read_text())
        sysm = build_iv_system(y, X, Z)
        for c, null in enumerate((1.0, 0.0)):
            boot = mr_bootstrap(sysm, FitPlan.two_step(), c, 99, seed=3, null_value=null)
            assert result["coefficients"][c]["bootstrap"] == {
                "B": boot.B, "crit_abs": boot.crit_abs, "reject_5pct": boot.reject_5pct,
                "failures": boot.failures, "t_original": boot.t_original,
                "failure_reasons": boot.failure_reasons}

    def test_panel_modes(self, tmp_path):
        panel = dgp_panel_lag(30, 4, 0.0, ReplicationStreams(2, 2))
        path = tmp_path / "p.csv"
        write_panel_csv(path, panel)
        out = tmp_path / "out.json"
        code = main(["estimate", "panel", "--data", str(path), "--id", "id",
                     "--time", "time", "--y", "y", "--x", "x", "--json", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["q"] == 6 and result["n_units"] == 30
        code = main(["estimate", "panel", "--data", str(path), "--id", "id",
                     "--time", "time", "--y", "y", "--x", "x", "--mode", "ar1",
                     "--json", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["q"] == 3

    @pytest.mark.parametrize("null", ["nan", "inf", "1,-inf"])
    def test_non_finite_null_exits_2(self, iv_csv, capsys, null):
        """--null nan wrote "t": NaN, which is not JSON, and exited 0."""
        path, x_cols, z_cols, _ = iv_csv
        assert main(["estimate", "iv", "--data", str(path), "--y", "y", "--x", x_cols,
                     "--z", z_cols, f"--null={null}"]) == 2
        captured = capsys.readouterr()
        assert "--null takes 1 or 1 finite values" in captured.err and captured.out == ""

    def test_non_finite_tol_exits_2(self, iv_csv, capsys):
        path, x_cols, z_cols, _ = iv_csv
        assert main(["estimate", "iv", "--data", str(path), "--y", "y", "--x", x_cols,
                     "--z", z_cols, "--estimator", "iterated", "--tol", "inf"]) == 2
        captured = capsys.readouterr()
        assert "tol must be a positive finite number" in captured.err and captured.out == ""

    def test_missing_column_exits_2(self, iv_csv, capsys):
        path, x_cols, _, _ = iv_csv
        code = main(["estimate", "iv", "--data", str(path), "--y", "y",
                     "--x", x_cols, "--z", "nope"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_non_numeric_cells_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x,z\n1.0,2.0,3.0\nlow,2.0,3.0\n")
        code = main(["estimate", "iv", "--data", str(path), "--y", "y",
                     "--x", "x", "--z", "z"])
        assert code == 2
        assert "non-numeric" in capsys.readouterr().err

    def test_unbalanced_panel_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("id,time,y,x\n1,1,0.1,0.2\n1,2,0.3,0.1\n2,1,0.5,0.2\n")
        code = main(["estimate", "panel", "--data", str(path), "--id", "id",
                     "--time", "time", "--y", "y", "--x", "x"])
        assert code == 2
        assert "unbalanced" in capsys.readouterr().err

    def test_non_finite_cell_exits_2(self, iv_csv, tmp_path, capsys):
        _, x_cols, z_cols, (y, X, Z) = iv_csv
        y = y.copy()
        y[5] = np.nan
        path = tmp_path / "nan.csv"
        write_iv_csv(path, y, X, Z)
        code = main(["estimate", "iv", "--data", str(path), "--y", "y",
                     "--x", x_cols, "--z", z_cols])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_collinear_instruments_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 1))
        Z1 = rng.standard_normal((30, 1))
        Z = np.column_stack([Z1, Z1])
        y = X[:, 0] + rng.standard_normal(30)
        path = tmp_path / "sing.csv"
        x_cols, z_cols = write_iv_csv(path, y, X, Z)
        code = main(["estimate", "iv", "--data", str(path), "--y", "y",
                     "--x", x_cols, "--z", z_cols])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestFlagsCheckedFirst:
    """A bad ``--bootstrap``, ``--null`` or ``--seed``, or ``--se-kind w`` with a
    one-step fit, exits 2 naming the flag before the data file is read or any
    fit runs; no huge stack is allocated."""

    @pytest.mark.parametrize("flags, message", [
        (["--bootstrap", "10000000000000"], "--bootstrap B must be at least 99 and at most 100000"),
        (["--bootstrap", "50"], "--bootstrap B must be at least 99"),
        (["--bootstrap", "99", "--seed", "-1"], "--seed must be a non-negative integer"),
        (["--null", "abc"], "--null takes 1 or 2 finite values, got 'abc'"),
        (["--null", "1,2,3"], "--null takes 1 or 2 finite values"),
        (["--null", "1e400"], "--null takes 1 or 2 finite values"),
        (["--se-kind", "w", "--estimator", "one-step"],
         "--se-kind w needs a two-step or iterated --estimator"),
    ])
    def test_bad_flag_exits_2_before_the_read(self, iv_csv, capsys, monkeypatch, flags, message):
        def refuse(*args, **kwargs):
            raise AssertionError("the request was not checked first")

        monkeypatch.setattr(cli, "_read_csv", refuse)
        monkeypatch.setattr(cli, "fit", refuse)
        path, x_cols, z_cols, _ = iv_csv
        assert main(["estimate", "iv", "--data", str(path), "--y", "y", "--x", f"{x_cols},z0",
                     "--z", z_cols, *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_panel_null_count_is_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_read_csv", lambda path: pytest.fail("read"))
        assert main(["estimate", "panel", "--data", "p.csv", "--id", "id", "--time", "t",
                     "--y", "y", "--mode", "ar1", "--null", "0.5,0.5"]) == 2
        assert "--null takes 1 or 1 finite values" in capsys.readouterr().err

    def test_valid_null_and_bootstrap_still_run(self, iv_csv, tmp_path):
        path, x_cols, z_cols, _ = iv_csv
        out = tmp_path / "o.json"
        assert main(["estimate", "iv", "--data", str(path), "--y", "y", "--x", x_cols,
                     "--z", z_cols, "--null", " 0.5", "--bootstrap", "99",
                     "--json", str(out)]) == 0
        coef = json.loads(out.read_text())["coefficients"][0]
        assert coef["null_value"] == 0.5 and coef["bootstrap"]["B"] == 99

    @pytest.mark.parametrize("B", [10**6, 10**13])
    def test_study_bootstrap_size_is_bounded(self, tmp_path, capsys, monkeypatch, B):
        monkeypatch.setattr(cli, "run_study", lambda *a, **k: pytest.fail("the study started"))
        assert main(["simulate", "--design", "iv", "--n", "60", "--reps", "2",
                     "--bootstrap-B", str(B), "--threads", "1"]) == 2
        assert "bootstrap_B must be at least 99 and at most 100000" in capsys.readouterr().err
        with pytest.raises(ValueError, match="bootstrap_B"):
            montecarlo.StudyConfig(design=montecarlo.IvLocal(n=60, alpha0=0.0),
                                   replications=2, bootstrap_B=B)


def _panel_rows(panel):
    """Header and rows (id, time, y, x) of a panel, as cell strings."""
    rows = [[str(i), str(t), repr(float(panel.y[i, t])), repr(float(panel.x[i, t]))]
            for i in range(panel.N) for t in range(panel.T)]
    return ["id", "time", "y", "x"], rows


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _run_free(path):
    """An estimate JSON file without the run's clock and host."""
    result = json.loads(path.read_text())
    del result["timings"], result["provenance"]
    return result


def _estimate_panel(path, tmp_path):
    """The estimate JSON of a panel file, without the run-specific timings and provenance."""
    out = tmp_path / "out.json"
    assert main(["estimate", "panel", "--data", str(path), "--id", "id", "--time", "time",
                 "--y", "y", "--x", "x", "--json", str(out)]) == 0
    return _run_free(out)


class TestCsvReader:
    """The reader's contract: what it accepts, what it rejects with exit 2, and how."""

    @pytest.fixture
    def panel(self):
        return dgp_panel_lag(30, 4, 0.0, ReplicationStreams(2, 2))

    def _main_panel(self, path):
        return main(["estimate", "panel", "--data", str(path), "--id", "id", "--time", "time",
                     "--y", "y", "--x", "x"])

    def test_duplicate_cell_names_id_and_time(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("id,time,y,x\na,1,0.1,0.2\na,2,0.3,0.1\nb,1,0.5,0.2\n"
                        "b,2,0.4,0.3\nb,1,0.6,0.1\na,2,0.2,0.2\n")
        assert self._main_panel(path) == 2
        err = capsys.readouterr().err
        assert "duplicate" in err
        assert "id 'b', time 1.0" in err

    def test_empty_file_is_missing_header(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["estimate", "iv", "--data", str(path), "--y", "y",
                     "--x", "x", "--z", "z"]) == 2
        assert "missing header" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["1.0,2.0,3.0\n,2.0,3.0\n", "1.0,2.0,3.0\n1.0,2.0\n"],
                             ids=["empty-cell", "short-row"])
    def test_empty_cell_and_short_row_are_non_numeric(self, tmp_path, capsys, body):
        path = tmp_path / "bad.csv"
        path.write_text("y,x,z\n" + body)
        assert main(["estimate", "iv", "--data", str(path), "--y", "y",
                     "--x", "x", "--z", "z"]) == 2
        assert "non-numeric" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, panel, tmp_path):
        header, rows = _panel_rows(panel)
        plain, gappy = tmp_path / "plain.csv", tmp_path / "gappy.csv"
        _write_rows(plain, header, rows)
        with open(gappy, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n\r\n")
            for r, row in enumerate(rows):
                fh.write(",".join(row) + ("\n\n" if r % 7 == 0 else "\n"))
            fh.write("\n\n")
        assert _estimate_panel(gappy, tmp_path) == _estimate_panel(plain, tmp_path)

    def test_quoted_id_with_a_comma(self, panel, tmp_path):
        header, rows = _panel_rows(panel)
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        _write_rows(plain, header, rows)
        _write_rows(quoted, header, [[f'unit "{r[0]}", north'] + r[1:] for r in rows])
        assert '"unit ""0"", north"' in quoted.read_text()
        assert _estimate_panel(quoted, tmp_path) == _estimate_panel(plain, tmp_path)

    def test_shuffled_rows_give_the_same_panel(self, panel, tmp_path):
        header, rows = _panel_rows(panel)
        plain, shuffled = tmp_path / "plain.csv", tmp_path / "shuffled.csv"
        _write_rows(plain, header, rows)
        # Shuffle within the first appearance order of the ids, which fixes the panel's row order.
        rng = np.random.default_rng(3)
        firsts = [rows[i * panel.T] for i in range(panel.N)]
        rest = [row for row in rows if row not in firsts]
        rng.shuffle(rest)
        _write_rows(shuffled, header, firsts + rest)
        assert _estimate_panel(shuffled, tmp_path) == _estimate_panel(plain, tmp_path)


@st.composite
def _shuffled_panel(draw):
    """Rows (id, t, y, x) of a balanced panel with arbitrary id labels and
    periods, in random order."""
    label = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\r\n\x00"), max_size=6)
    ids = draw(st.lists(label, min_size=1, max_size=5, unique=True))
    times = draw(st.lists(st.integers(-50, 50) | st.floats(-1e6, 1e6), min_size=1,
                          max_size=4, unique_by=float))
    value = st.floats(allow_nan=False, allow_infinity=False)
    rows = [[i, repr(float(t)), repr(draw(value)), repr(draw(value))] for i in ids for t in times]
    return draw(st.permutations(rows))


@settings(max_examples=60, deadline=None)
@given(_shuffled_panel())
def test_property_panel_reader_matches_row_by_row_oracle(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        _write_rows(path, ["id", "t", "y", "x"], rows)
        want = csv_oracle.panel_arrays(csv_oracle.read_columns(path), "id", "t", ["y", "x"])
        got = cli._panel_arrays(cli._read_csv(str(path)), "id", "t", ["y", "x"])
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@st.composite
def _study_configs(draw):
    """Valid study configurations of every design kind, with and without a bootstrap."""
    cls = draw(st.sampled_from(list(cli._DESIGNS.values())))
    sizes = {f.name: draw(st.integers(1, 10**6))
             for f in dataclasses.fields(cls) if f.name != "alpha0"}
    estimators = draw(st.lists(st.sampled_from(["one", "two", "iter"]), min_size=1, unique=True))
    boot_ests = st.lists(st.sampled_from(estimators), min_size=1, unique=True).map(tuple)
    return montecarlo.StudyConfig(
        design=cls(alpha0=draw(st.floats(allow_nan=False, allow_infinity=False)), **sizes),
        replications=draw(st.integers(1, 10**6)),
        estimators=tuple(estimators),
        seed=draw(st.integers(0, 2**64)),
        bootstrap_B=draw(st.none() | st.integers(99, 10**5)),
        bootstrap_estimators=draw(st.none() | boot_ests),
        fixed_misspec=cls is montecarlo.IvLocal and draw(st.booleans()),
        centered=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(_study_configs())
def test_property_study_config_round_trips_through_json(cfg):
    assert cli._study_config(json.loads(json.dumps(cli._study_dict(cfg)))) == cfg


class TestSimulateCommand:
    def test_flags_run_and_json_mirror(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main(["simulate", "--design", "iv", "--n", "60", "--alpha0", "0",
                     "--reps", "40", "--seed", "3", "--threads", "1",
                     "--estimators", "one,two", "--json", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["schema"] == "gmm-dc/1"
        assert set(result["estimators"]) == {"one", "two"}
        table = capsys.readouterr().out
        two = result["estimators"]["two"]
        assert f"{two['mean_theta']:.4f}" in table

    def test_nonconverged_count_in_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(montecarlo._ESTIMATOR_PLANS, "iter",
                            lambda: FitPlan.iterated(max_iter=1))
        out = tmp_path / "s.json"
        code = main(["simulate", "--design", "iv", "--n", "60", "--reps", "12",
                     "--seed", "3", "--threads", "1", "--estimators", "two,iter",
                     "--json", str(out)])
        assert code == 0
        blocks = json.loads(out.read_text())["estimators"]
        assert blocks["two"]["nonconverged"] == 0
        assert blocks["iter"]["nonconverged"] == 12 - blocks["iter"]["failures"] > 0
        assert "not converged" in capsys.readouterr().out

    def test_single_replication_summary(self, tmp_path, capsys):
        code = main(["simulate", "--design", "iv", "--n", "60", "--reps", "1",
                     "--seed", "4", "--threads", "1"])
        assert code == 0
        assert "1 replications" in capsys.readouterr().out

    def test_negative_seed_exits_2_before_a_pool_starts(self, capsys, monkeypatch):
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", None)    # never reached
        code = main(["simulate", "--design", "iv", "--n", "60", "--reps", "130",
                     "--seed", "-1", "--threads", "2"])
        assert code == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_non_integer_config_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"design": {"kind": "iv", "n": 60, "alpha0": 0.0},
                                    "replications": 3, "seed": 2.5}))
        assert main(["simulate", "--config", str(path), "--threads", "1"]) == 2
        assert "'seed'" in capsys.readouterr().err

    def test_config_file(self, tmp_path, capsys):
        cfg = {"design": {"kind": "panel-lag", "N": 30, "T": 4, "alpha0": 0.1},
               "replications": 25, "estimators": ["two"], "seed": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s.json"
        code = main(["simulate", "--config", str(path), "--threads", "1",
                     "--json", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["config"]["design"]["kind"] == "panel-lag"
        assert result["config"]["replications"] == 25

    @pytest.mark.parametrize("raw, field", [
        ({"design": {"kind": "iv", "n": None}, "replications": 5}, "design.n"),
        ({"design": {"kind": "iv", "n": 60}, "replications": None}, "replications"),
        ({"design": {"kind": "iv", "n": 60}, "replications": 5, "bootstrap_B": "199"},
         "bootstrap_B"),
        ([{"design": {"kind": "iv", "n": 60}, "replications": 5}], "JSON object"),
        ({"design": {"kind": "iv", "n": 60}, "replications": 5, "estimators": "two"},
         "estimators"),
        ({"design": {"kind": ["iv"], "n": 60}, "replications": 5}, "design.kind"),
        # JSON numbers that their field cannot hold: alpha0 ended in a
        # TypeError traceback, replications in an endless chunk list.
        ({"design": {"kind": "iv", "n": 60, "alpha0": 10**400}, "replications": 5},
         "design.alpha0"),
        ({"design": {"kind": "iv", "n": 60}, "replications": 10**400}, "replications"),
        ({"design": {"kind": "iv", "n": 60}, "replications": 5, "bootstrap_B": 2**63},
         "bootstrap_B"),
        ({"design": {"kind": "iv", "n": 2**63}, "replications": 5}, "design.n"),
        ({"design": {"kind": "panel-rc", "N": -2**63 - 1, "T": 4}, "replications": 5},
         "design.N"),
        ({"design": {"kind": "panel-lag", "N": 50, "T": 10**30}, "replications": 5},
         "design.T"),
    ])
    def test_malformed_config_exits_2_naming_the_field(self, tmp_path, capsys, monkeypatch,
                                                       raw, field):
        def refuse(*args, **kwargs):
            raise AssertionError("the study started")

        monkeypatch.setattr(cli, "run_study", refuse)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--threads", "1"]) == 2
        assert field in capsys.readouterr().err

    def test_seed_beyond_int64_is_a_stream_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"design": {"kind": "iv", "n": 60}, "replications": 2,
                                    "seed": 2**70 + 3}))
        assert main(["simulate", "--config", str(path), "--threads", "1"]) == 0

    @pytest.mark.parametrize("raw, message", [
        ({"design": {"kind": "iv", "n": 60}, "replications": 3, "estimators": ["one", "two"],
          "bootstrap_B": 99, "bootstrap_estimator": ["two"]},
         "unknown study field 'bootstrap_estimator'"),
        ({"design": {"kind": "iv", "n": 60, "N": 5}, "replications": 3},
         "unknown study field 'design.N'"),
        ({"design": {"kind": "iv", "n": 60}, "replication": 3},
         "unknown study field 'replication'"),
        ({"design": {"kind": "iv", "n": 60}, "replications": 3, "estimators": []},
         "estimators must not be empty"),
        ({"design": {"kind": "iv", "n": 60}, "replications": 3, "bootstrap_B": 99,
          "bootstrap_estimators": []}, "bootstrap_estimators must not be empty"),
    ])
    def test_unknown_keys_and_empty_lists_exit_2(self, tmp_path, capsys, raw, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--threads", "1"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_config_block_reruns_its_study(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--design", "iv", "--n", "60", "--reps", "6", "--seed", "2",
                     "--estimators", "one,two", "--bootstrap-B", "99",
                     "--bootstrap-estimators", "two", "--threads", "1",
                     "--json", str(first)]) == 0
        result = json.loads(first.read_text())
        assert result["config"]["bootstrap_estimators"] == ["two"]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(result["config"]))
        assert main(["simulate", "--config", str(config), "--threads", "1",
                     "--json", str(second)]) == 0
        rerun = json.loads(second.read_text())
        assert rerun["config"] == result["config"]
        assert rerun["estimators"] == result["estimators"]
        assert result["estimators"]["one"]["reject_boot"] is None

    def test_missing_design_exits_2(self, capsys):
        assert main(["simulate", "--reps", "5"]) == 2

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GMMDC_THREADS", "1")
        out = tmp_path / "s.json"
        code = main(["simulate", "--design", "iv", "--n", "60", "--reps", "10",
                     "--seed", "6", "--json", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["config"]["threads"] == 1

    def test_fixed_misspec_with_a_panel_design_exits_2_before_the_study(self, capsys,
                                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the study started")

        monkeypatch.setattr(cli, "run_study", refuse)
        assert main(["simulate", "--design", "panel-rc", "--N", "50", "--T", "4",
                     "--reps", "130", "--threads", "2", "--fixed-misspec"]) == 2
        captured = capsys.readouterr()
        assert "fixed_misspec applies to the IV design only" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_non_finite_alpha0_exits_2_before_the_study(self, tmp_path, capsys, monkeypatch,
                                                        form, value):
        """A NaN or infinite alpha0 used to exit 2 only at the first draw, with
        a data message that named no field."""
        def refuse(*args, **kwargs):
            raise AssertionError("the study started")

        monkeypatch.setattr(cli, "run_study", refuse)
        args = ["simulate", "--design", "iv", "--n", "60", "--reps", "5", f"--alpha0={value}"]
        if form == "config":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"design": {"kind": "iv", "n": 60, "alpha0": float(value)},
                                        "replications": 5}))
            args = ["simulate", "--config", str(path)]
        assert main(args + ["--threads", "1"]) == 2
        captured = capsys.readouterr()
        assert "study field 'design.alpha0' must be a finite number" in captured.err
        assert captured.out == ""

    def test_threads_env_that_is_not_an_integer_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("GMMDC_THREADS", "abc")
        assert main(["simulate", "--design", "iv", "--n", "60", "--reps", "5"]) == 2
        err = capsys.readouterr().err
        assert "GMMDC_THREADS must be an integer, got 'abc'" in err
        assert "invalid literal" not in err

    def test_threads_report_the_pool_size_used(self, tmp_path):
        # 10 replications make one chunk, so the study runs serially whatever
        # is requested, and the JSON must say so.
        out = tmp_path / "s.json"
        code = main(["simulate", "--design", "iv", "--n", "60", "--reps", "10",
                     "--seed", "6", "--threads", "64", "--json", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["config"]["threads"] == 1

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "gmmdc", "simulate", "--design", "iv",
             "--n", "60", "--reps", "5", "--seed", "1", "--threads", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "design iv" in proc.stdout

    @pytest.mark.slow
    def test_panel_lag_j_rejection_rate(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["simulate", "--design", "panel-lag", "--N", "100", "--T", "4",
                     "--alpha0", "0.2", "--reps", "20000", "--seed", "10",
                     "--estimators", "two", "--threads", "2", "--json", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["estimators"]["two"]["reject_j"] == pytest.approx(0.26, abs=0.02)
