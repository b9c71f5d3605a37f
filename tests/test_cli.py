import csv
import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

from signet.cli import _solver_config, build_parser, main
from signet.data import load_dataset_csv, make_franke_datasets, split_dataset
from signet.diagnostics import max_error, rms_error
from signet.losses import LossKind
from signet.model import NetworkShape, init_params, predict
from signet.solvers import SolverConfig, glpa_fit


def _read_summary(out):
    with open(out / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def _read_trace(out):
    with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestParser:
    def test_run_requires_task(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "--task", "franke"])
        assert args.loss == "quadratic"
        assert args.solver == "lpa"
        assert args.t == 1e5
        assert args.step_tol == 1e-2
        assert args.max_outer == 500
        assert args.rho == 1e-2 and args.eps == 1e-2
        assert args.admm_max_iters == 20

    def test_solver_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["run", "--task", "franke"])
        assert _solver_config(args) == SolverConfig()

    # the line-search constants and the zero start are not settable
    @pytest.mark.parametrize("flag", [
        ["--solver", "newton"], ["--c", "0.1"], ["--tau", "0.5"],
        ["--max-backtracks", "5"], ["--init", "zero"],
    ], ids=["solver", "c", "tau", "max-backtracks", "init-zero"])
    def test_unknown_solver_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--task", "franke", *flag])


class TestRun:
    def test_franke_quadratic_smoke(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--task", "franke", "--loss", "quadratic",
                   "--solver", "lpa", "--q", "8", "--n-train", "40",
                   "--n-test", "10", "--max-outer", "10",
                   "--out", str(out)])
        assert rc == 0
        summary = _read_summary(out)
        assert summary["schema_version"] == 4
        assert summary["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
        assert summary["q"] == 8
        assert summary["iterations"] <= 10
        assert summary["config"]["task"] == "franke"
        assert "test_rms_error" in summary["metrics"]
        trace = _read_trace(out)
        assert len(trace) == summary["iterations"]
        assert list(trace[0]) == ["k", "objective", "step_norm", "eta",
                                  "admm_iters", "elapsed_s"]
        ks = [int(r["k"]) for r in trace]
        assert ks == list(range(len(trace)))

    def test_trace_objectives_finite_and_descending_for_glpa(self, tmp_path):
        out = tmp_path / "o"
        main(["run", "--task", "franke", "--loss", "quadratic",
              "--solver", "glpa", "--q", "8", "--n-train", "40",
              "--n-test", "10", "--max-outer", "15", "--out", str(out)])
        objs = [float(r["objective"]) for r in _read_trace(out)]
        assert all(np.isfinite(objs))
        assert objs[-1] <= objs[0]

    def test_save_model_roundtrip(self, tmp_path):
        out = tmp_path / "o"
        main(["run", "--task", "franke", "--q", "4", "--n-train", "20",
              "--n-test", "5", "--max-outer", "3", "--save-model",
              "--out", str(out)])
        with open(out / "model.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta"]
        theta = np.array([float(r[0]) for r in rows[1:]])
        assert theta.shape == ((2 + 2) * 4 + 1,)

    def test_written_values_read_back_bitwise(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--task", "franke", "--loss", "absolute",
                     "--solver", "glpa", "--q", "4", "--n-train", "20",
                     "--n-test", "5", "--max-outer", "5", "--save-model",
                     "--out", str(out)]) == 0
        train, test = make_franke_datasets(20, 5)
        shape = NetworkShape(d=2, q=4)
        report = glpa_fit(train.inputs, train.targets, shape, LossKind.ABSOLUTE,
                          SolverConfig(max_outer=5), init_params(shape, "uniform", 0))

        for name in ("trace.csv", "model.csv"):
            lines = (out / name).read_bytes().split(b"\r\n")
            assert lines[-1] == b"" and not any(b"\n" in ln for ln in lines)
        trace = _read_trace(out)
        assert len(trace) == len(report.trace)
        for row, rec in zip(trace, report.trace):
            assert (row["k"], row["admm_iters"]) == (str(rec.k), str(rec.admm_iters))
            assert [row["objective"], row["step_norm"], row["eta"]] == [
                f"{v:.17g}" for v in (rec.objective, rec.step_norm, rec.eta)]
            assert row["elapsed_s"] == f"{float(row['elapsed_s']):.17g}"
        with open(out / "model.csv", newline="", encoding="utf-8") as fh:
            cells = [row[0] for row in csv.reader(fh)][1:]
        assert cells == [f"{v:.17g}" for v in report.theta_star]

        summary = _read_summary(out)
        pred = predict(report.theta_star, shape, test.inputs)
        expected = {"final_objective": report.final_objective,
                    "test_rms_error": rms_error(pred, test.targets),
                    "test_max_error": max_error(pred, test.targets),
                    "t": 1e5}
        written = {"final_objective": summary["final_objective"],
                   "test_rms_error": summary["metrics"]["test_rms_error"],
                   "test_max_error": summary["metrics"]["test_max_error"],
                   "t": summary["config"]["t"]}
        assert {k: v.hex() for k, v in written.items()} == \
               {k: v.hex() for k, v in expected.items()}

    def test_adaptive_q_used_when_not_given(self, tmp_path):
        out = tmp_path / "o"
        main(["run", "--task", "franke", "--n-train", "25", "--n-test", "5",
              "--max-outer", "2", "--out", str(out)])
        summary = _read_summary(out)
        assert summary["q"] == summary["adaptive_q"] == 6  # ceil(24/4)

    def test_digits_need_the_hinge_loss(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["run", "--task", "digits", "--loss", "absolute",
                   "--out", str(out)])
        assert rc == 1
        assert "classification tasks use the hinge loss" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_train_frac_rejected(self, tmp_path, capsys, value):
        out = tmp_path / "o"
        rc = main(["run", "--task", "digits", "--loss", "hinge",
                   "--train-frac", value, "--out", str(out)])
        assert rc == 1
        assert f"degenerate split: train fraction {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_momentum_rejected(self, tmp_path, capsys, value):
        # stopped before the fit, not by the first non-finite residual
        out = tmp_path / "o"
        rc = main(["run", "--task", "franke", "--solver", "sgdm",
                   "--momentum", value, "--q", "4", "--n-train", "20",
                   "--n-test", "5", "--iters", "5", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid hyperparameters" in err and f"momentum={value}" in err
        assert not out.exists()

    def test_hinge_on_regression_task_fails(self, tmp_path, capsys):
        rc = main(["run", "--task", "franke", "--loss", "hinge",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_digits_hinge_smoke(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--task", "digits", "--loss", "hinge",
                   "--solver", "glpa", "--pair", "0,1", "--normalize",
                   "--q", "4", "--max-outer", "5", "--admm-max-iters", "10",
                   "--out", str(out)])
        assert rc == 0
        summary = _read_summary(out)
        assert summary["config"]["pair"] == "0,1"
        assert summary["metrics"]["training_size"] == 252
        assert summary["metrics"]["test_size"] == 108
        assert isinstance(summary["metrics"]["test_errors"], int)

    def test_reproducible_reruns(self, tmp_path):
        args = ["run", "--task", "franke", "--q", "6", "--n-train", "30",
                "--n-test", "8", "--max-outer", "5", "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        sa, sb = _read_summary(a), _read_summary(b)
        sa["elapsed_s"] = sb["elapsed_s"] = 0
        sa["config"]["out"] = sb["config"]["out"] = "."
        assert sa == sb
        ta = [(r["k"], r["objective"], r["step_norm"]) for r in _read_trace(a)]
        tb = [(r["k"], r["objective"], r["step_norm"]) for r in _read_trace(b)]
        assert ta == tb

    def test_solver_config_checked_only_for_lpa_and_glpa(self, tmp_path, capsys):
        # the baselines take no solver config, so a bad --t does not stop them
        argv = ["run", "--task", "franke", "--t", "-1", "--q", "4", "--n-train",
                "20", "--n-test", "5", "--iters", "5", "--out", str(tmp_path / "o")]
        assert main(argv + ["--solver", "adam"]) == 0
        assert main(argv + ["--solver", "glpa"]) == 1
        assert "invalid solver config" in capsys.readouterr().err

    def test_nan_step_tol_rejected(self, tmp_path, capsys):
        # NaN must stop before the fit: no step meets a NaN step_tol, and
        # summary.json would echo a bare NaN, which is not JSON
        out = tmp_path / "o"
        rc = main(["run", "--task", "franke", "--solver", "glpa", "--loss",
                   "absolute", "--step-tol", "nan", "--q", "4", "--n-train", "20",
                   "--n-test", "5", "--max-outer", "20", "--out", str(out)])
        assert rc == 1
        assert "invalid solver config" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_baseline_solver_runs(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--task", "franke", "--solver", "adam",
                   "--q", "4", "--n-train", "20", "--n-test", "5",
                   "--iters", "25", "--out", str(out)])
        assert rc == 0
        assert _read_summary(out)["iterations"] == 25


class TestCustomCsv:
    def test_run_from_gen_data_export(self, tmp_path):
        data = tmp_path / "d"
        assert main(["gen-data", "--task", "franke", "--n-train", "30",
                     "--n-test", "5", "--out", str(data)]) == 0
        out = tmp_path / "o"
        rc = main(["run", "--task", "custom-csv", "--data", str(data / "train.csv"),
                   "--solver", "glpa", "--q", "4", "--max-outer", "5",
                   "--train-frac", "0.8", "--out", str(out)])
        assert rc == 0
        summary = _read_summary(out)
        assert summary["config"]["task"] == "custom-csv"
        assert summary["n_params"] == (2 + 2) * 4 + 1
        assert np.isfinite(summary["final_objective"])
        assert np.isfinite(summary["metrics"]["test_rms_error"])
        assert len(_read_trace(out)) == summary["iterations"]

    def _write_labelled_csv(self, path, rows=90):
        rng = np.random.default_rng(5)
        lines = ["x0,x1,y"] + [f"{a:.17g},{b:.17g},{y:g}" for a, b, y in zip(
            rng.uniform(0, 1, rows), rng.uniform(0, 1, rows),
            rng.choice([-1.0, 1.0], rows))]
        path.write_text("\n".join(lines) + "\n")

    def test_split_size_matches_digits_rule(self, tmp_path):
        # floor(0.7 * 90) is 63; 0.7 * 90 evaluates to 62.99999999999999
        data = tmp_path / "labelled.csv"
        self._write_labelled_csv(data)
        out = tmp_path / "o"
        rc = main(["run", "--task", "custom-csv", "--data", str(data),
                   "--loss", "hinge", "--solver", "glpa", "--q", "2",
                   "--max-outer", "2", "--admm-max-iters", "2", "--out", str(out)])
        assert rc == 0
        metrics = _read_summary(out)["metrics"]
        assert (metrics["training_size"], metrics["test_size"]) == (63, 27)

    def test_degenerate_split_fails(self, tmp_path, capsys):
        data = tmp_path / "labelled.csv"
        self._write_labelled_csv(data)
        rc = main(["run", "--task", "custom-csv", "--data", str(data),
                   "--loss", "hinge", "--train-frac", "1.0",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "degenerate split" in capsys.readouterr().err

    def test_hinge_label_in_test_split_fails(self, tmp_path, capsys):
        # every target of a hinge run is checked, the held-out ones too
        data = tmp_path / "labelled.csv"
        self._write_labelled_csv(data)
        full = load_dataset_csv(data)
        _, test = split_dataset(full, 0.7, 0)
        row = int(np.flatnonzero(np.all(full.inputs == test.inputs[0], axis=1))[0])
        lines = data.read_text().splitlines()
        lines[row + 1] = lines[row + 1].rsplit(",", 1)[0] + ",0.5"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        rc = main(["run", "--task", "custom-csv", "--data", str(data),
                   "--loss", "hinge", "--solver", "glpa", "--q", "2",
                   "--max-outer", "2", "--admm-max-iters", "2", "--out", str(out)])
        assert rc == 1
        assert ("hinge loss needs a binary classification task"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_non_finite_cell_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,x1,y\n0.1,0.2,0.3\n0.4,nan,0.6\n0.7,0.8,0.9\n")
        rc = main(["run", "--task", "custom-csv", "--data", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "bad.csv:3: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestGenData:
    def test_franke_csv_files(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["gen-data", "--task", "franke", "--n-train", "12",
                   "--n-test", "4", "--out", str(out)])
        assert rc == 0
        with open(out / "train.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x0", "x1", "y"]
        assert len(rows) == 13
        with open(out / "test.csv", newline="", encoding="utf-8") as fh:
            assert len(list(csv.reader(fh))) == 5

    def test_digits_pair_export(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["gen-data", "--task", "digits", "--pair", "3,7",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "train.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 254  # header + 253 samples
        assert rows[0][-1] == "y"
        labels = {row[-1] for row in rows[1:]}
        assert labels == {"1", "-1"}

    def test_digits_pair_export_bytes(self, tmp_path):
        # the export is pinned byte for byte: split, row order and formatting
        out = tmp_path / "d"
        assert main(["gen-data", "--task", "digits", "--pair", "3,7",
                     "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("train.csv", "test.csv")}
        assert digests == {
            "train.csv": "68d20410f170406dd358f9de8fa7224ae59152b263d30f3eeb0994bd28b29090",
            "test.csv": "570023f2f1204f68c0cab6dbd2cd8bbec22c697d8e167078e5923d7a6d82e21b",
        }

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_sigma_rejected(self, tmp_path, capsys, value):
        out = tmp_path / "d"
        rc = main(["gen-data", "--task", "franke", "--noise-sigma", value,
                   "--out", str(out)])
        assert rc == 1
        assert (f"sigma_tilde must be positive and finite, got {value}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_pair_format(self, tmp_path, capsys):
        rc = main(["gen-data", "--task", "digits", "--pair", "37",
                   "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(code, **thread_env):
    """stdout of code run in a new interpreter whose only BLAS thread
    variables are thread_env."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_env, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True, env=env)
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_special_out():
    # scipy.special adds about 3.7 MB to a process's peak RSS, more than the
    # benchmark's 5% bound on peak_rss_mb; signet's sigmoid does without it.
    code = "import sys, signet.cli; print('scipy.special' in sys.modules)"
    assert _fresh_python(code) == "False"


@pytest.mark.parametrize("thread_env, expected", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "2"]),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}, ["2", "2", "2"]),
])
def test_import_defaults_to_one_blas_thread(thread_env, expected):
    code = ("import json, os, signet; print(json.dumps([os.environ.get(k) for k in "
            f"{THREAD_VARS!r}] + [signet._blas_threads]))")
    assert json.loads(_fresh_python(code, **thread_env)) == expected


@pytest.mark.parametrize("numpy_first, expected", [(False, "1"), (True, None)])
def test_run_records_blas_threads(tmp_path, numpy_first, expected):
    # Imported after numpy, signet leaves the environment alone (its
    # OpenBLAS has already read it) and records the thread count as unknown.
    out = tmp_path / "o"
    argv = ["run", "--task", "franke", "--q", "4", "--n-train", "20",
            "--n-test", "5", "--max-outer", "3", "--out", str(out)]
    code = ("import json, os\n" + ("import numpy\n" if numpy_first else "") +
            f"from signet.cli import main\nassert main({argv!r}) == 0\n"
            f"print(json.dumps([os.environ.get(k) for k in {THREAD_VARS!r}]))")
    assert json.loads(_fresh_python(code).splitlines()[-1]) == [expected, expected]
    assert _read_summary(out)["environment"]["blas_threads"] == expected


class TestCompare:
    def test_solver_flag_not_accepted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--task", "franke",
                                       "--solver", "glpa"])

    def test_compare_outputs(self, tmp_path):
        out = tmp_path / "c"
        rc = main(["compare", "--task", "franke", "--q", "4",
                   "--n-train", "20", "--n-test", "5", "--max-outer", "5",
                   "--iters", "20", "--out", str(out)])
        assert rc == 0
        with open(out / "compare.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        solvers = {r["solver"] for r in rows}
        assert solvers == {"glpa", "sgdm", "rmsprop", "adam"}
        assert sum(r["solver"] == "adam" for r in rows) == 20
        with open(out / "compare_summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert set(summary["final_objectives"]) == {"glpa", "sgdm",
                                                    "rmsprop", "adam"}
        assert all(np.isfinite(v) for v in summary["final_objectives"].values())
        assert (summary["environment"]["blas_threads"]
                == os.environ["OPENBLAS_NUM_THREADS"])
