import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from signet.cli import _solver_config, build_parser, main
from signet.solvers import SolverConfig


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

    def test_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--task", "franke",
                                       "--solver", "newton"])


class TestRun:
    def test_franke_quadratic_smoke(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--task", "franke", "--loss", "quadratic",
                   "--solver", "lpa", "--q", "8", "--n-train", "40",
                   "--n-test", "10", "--max-outer", "10",
                   "--out", str(out)])
        assert rc == 0
        summary = _read_summary(out)
        assert summary["schema_version"] == 1
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

    def test_adaptive_q_used_when_not_given(self, tmp_path):
        out = tmp_path / "o"
        main(["run", "--task", "franke", "--n-train", "25", "--n-test", "5",
              "--max-outer", "2", "--out", str(out)])
        summary = _read_summary(out)
        assert summary["q"] == summary["adaptive_q"] == 6  # ceil(24/4)

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

    def test_bad_pair_format(self, tmp_path, capsys):
        rc = main(["gen-data", "--task", "digits", "--pair", "37",
                   "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def test_cli_import_leaves_scipy_special_out():
    # scipy.special adds about 3.7 MB to a process's peak RSS, more than the
    # benchmark's 5% bound on peak_rss_mb; signet's sigmoid does without it.
    code = "import sys, signet.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.stdout.strip() == "False"


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
