import csv
import json
import os
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import signet.cli as cli_mod
import signet.solvers as solvers_mod
from signet.cli import _setup, _solver_config, build_parser, main
from signet.data import load_digits_csv, make_binary_task, make_franke_datasets
from signet.diagnostics import max_error, rms_error
from signet.losses import LossKind
from signet.model import NetworkShape, init_params, predict
from signet.solvers import AdmmConfig, SolverConfig, glpa_fit


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

    # the line-search constants and the zero start are not settable, and
    # the first-order baselines and their flags belong to compare
    @pytest.mark.parametrize("flag", [
        ["--solver", "newton"], ["--c", "0.1"], ["--tau", "0.5"],
        ["--max-backtracks", "5"], ["--init", "zero"],
        ["--solver", "sgdm"], ["--solver", "rmsprop"], ["--solver", "adam"],
        ["--lr", "0.1"], ["--momentum", "0"], ["--iters", "5"],
    ], ids=["solver", "c", "tau", "max-backtracks", "init-zero", "solver-sgdm",
            "solver-rmsprop", "solver-adam", "lr", "momentum", "iters"])
    def test_unknown_solver_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--task", "franke", *flag])


class TestRun:
    def test_franke_quadratic_smoke(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--task", "franke", "--loss", "quadratic",
                   "--solver", "lpa", "--q", "8", "--max-outer", "10",
                   "--out", str(out)])
        assert rc == 0
        summary = _read_summary(out)
        assert summary["schema_version"] == 11
        assert summary["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": cli_mod.BLAS_CONFIG, "blas_threads": cli_mod.num_threads(),
            "cpu_count": os.cpu_count()}
        assert summary["q"] == 8
        assert summary["iterations"] <= 10
        keys = list(summary)
        assert keys[keys.index("elapsed_s") + 1] == "rank_s"
        assert summary["rank_s"] >= 0.0
        assert summary["config"]["task"] == "franke"
        assert "test_rms_error" in summary["metrics"]
        trace = _read_trace(out)
        assert len(trace) == summary["iterations"]
        assert list(trace[0]) == ["k", "objective", "step_norm", "eta",
                                  "admm_iters", "elapsed_s", "accepted"]
        ks = [int(r["k"]) for r in trace]
        assert ks == list(range(len(trace)))

    def test_trace_objectives_finite_and_descending_for_glpa(self, tmp_path):
        out = tmp_path / "o"
        main(["run", "--task", "franke", "--loss", "quadratic",
              "--solver", "glpa", "--q", "8", "--max-outer", "15",
              "--out", str(out)])
        objs = [float(r["objective"]) for r in _read_trace(out)]
        assert all(np.isfinite(objs))
        assert objs[-1] <= objs[0]

    def test_trace_records_line_search_acceptance(self, tmp_path):
        # written as 1/0, so every trace cell parses as a number; seed 1's
        # pair 5-9 at the acceptance settings ends on one rejected step
        out = tmp_path / "o"
        assert main(["run", "--task", "digits", "--loss", "hinge",
                     "--solver", "glpa", "--pair", "5,9", "--normalize", "--q", "4",
                     "--admm-max-iters", "10", "--seed", "1",
                     "--out", str(out)]) == 0
        train, _ = make_binary_task(load_digits_csv(), 5, 9, seed=1, normalize=True)
        shape = NetworkShape(d=64, q=4)
        report = glpa_fit(train.inputs, train.targets, shape, LossKind.HINGE,
                          SolverConfig(admm=AdmmConfig(max_iters=10)),
                          init_params(shape, "uniform", 1))
        trace = _read_trace(out)
        cells = [row["accepted"] for row in trace]
        assert cells == [str(int(rec.accepted)) for rec in report.trace]
        assert set(cells) == {"0", "1"}
        # the first rejected step is not taken and ends the fit
        assert cells[:-1] == ["1"] * (len(cells) - 1) and cells[-1] == "0"
        assert _read_summary(out)["stop_reason"] == "line_search_failed"
        objs = [float(row["objective"]) for row in trace]
        assert all(b <= a for a, b in zip(objs, objs[1:]))

    def test_save_model_roundtrip(self, tmp_path):
        out = tmp_path / "o"
        main(["run", "--task", "franke", "--q", "4", "--max-outer", "3",
              "--save-model", "--out", str(out)])
        with open(out / "model.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta"]
        theta = np.array([float(r[0]) for r in rows[1:]])
        assert theta.shape == ((2 + 2) * 4 + 1,)

    def test_written_values_read_back_bitwise(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--task", "franke", "--loss", "absolute",
                     "--solver", "glpa", "--q", "4", "--max-outer", "5",
                     "--save-model", "--out", str(out)]) == 0
        train, test = make_franke_datasets()
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
        main(["run", "--task", "franke", "--max-outer", "2", "--out", str(out)])
        summary = _read_summary(out)
        assert summary["q"] == summary["adaptive_q"] == 72  # ceil(288/4)

    def test_no_flag_value_leaks_between_main_calls(self, tmp_path):
        # main reuses one parser, so a second call must see fresh defaults
        argv = ["run", "--task", "franke", "--max-outer", "2"]
        assert main([*argv, "--q", "36", "--out", str(tmp_path / "a")]) == 0
        assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        assert _read_summary(tmp_path / "a")["q"] == 36
        assert _read_summary(tmp_path / "b")["q"] == 72  # ceil(288/4)

    def test_digits_need_the_hinge_loss(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["run", "--task", "digits", "--loss", "absolute",
                   "--out", str(out)])
        assert rc == 1
        assert "classification tasks use the hinge loss" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--task", "franke"], ["compare", "--task", "franke"],
    ], ids=["run", "compare"])
    def test_negative_seed_rejected(self, tmp_path, capsys, argv):
        # named in the message, not numpy's "expected non-negative integer"
        out = tmp_path / "o"
        rc = main([*argv, "--seed", "-1", "--out", str(out)])
        assert rc == 1
        assert "--seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_hinge_on_regression_task_fails(self, tmp_path, capsys):
        rc = main(["run", "--task", "franke", "--loss", "hinge",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["run", "--task", "digits", "--loss", "hinge", "--noise-sigma", "100"],
         "--noise-sigma"),
        (["run", "--task", "franke", "--normalize"], "--normalize"),
        (["run", "--task", "franke", "--pair", "3,7"], "--pair"),
    ], ids=["digits-noise-sigma", "franke-normalize", "franke-pair"])
    def test_flag_the_task_ignores_rejected(self, tmp_path, capsys, argv, flag):
        # it would be echoed into summary.json with no effect on the run
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        assert f"{flag} applies to the" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_sigma_rejected(self, tmp_path, capsys, value):
        out = tmp_path / "o"
        rc = main(["run", "--task", "franke", "--noise-sigma", value,
                   "--out", str(out)])
        assert rc == 1
        assert (f"noise_sigma must be positive and finite, got {value}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_pair_format(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["run", "--task", "digits", "--loss", "hinge", "--pair", "37",
                   "--out", str(out)])
        assert rc == 1
        assert "error: --pair expects 'A,B', got '37'" in capsys.readouterr().err
        assert not out.exists()

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

    def test_digits_setup_parses_the_bundled_file_once(self, monkeypatch):
        load_digits_csv.cache_clear()      # not yet parsed
        parsed = []
        real_loadtxt = np.loadtxt

        def recording_loadtxt(path, *args, **kwargs):
            parsed.append(path)
            return real_loadtxt(path, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
        argv = ["run", "--task", "digits", "--loss", "hinge", "--q", "4"]
        for pair in ("0,1", "3,7"):
            _setup(build_parser().parse_args(argv + ["--pair", pair]))
        assert len(parsed) == 1
        # every caller shares the parsed arrays, so none may change them
        pixels, labels = load_digits_csv()
        assert not pixels.flags.writeable and not labels.flags.writeable
        assert len(parsed) == 1

    def test_reproducible_reruns(self, tmp_path):
        args = ["run", "--task", "franke", "--q", "6", "--max-outer", "5",
                "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        sa, sb = _read_summary(a), _read_summary(b)
        sa["elapsed_s"] = sb["elapsed_s"] = sa["rank_s"] = sb["rank_s"] = 0
        sa["config"]["out"] = sb["config"]["out"] = "."
        assert sa == sb
        ta = [(r["k"], r["objective"], r["step_norm"]) for r in _read_trace(a)]
        tb = [(r["k"], r["objective"], r["step_norm"]) for r in _read_trace(b)]
        assert ta == tb

    @pytest.mark.parametrize("flag, argv", [
        ("t", ["--solver", "glpa", "--loss", "quadratic", "--max-outer", "5"]),
        ("rho", ["--solver", "glpa", "--loss", "absolute", "--max-outer", "5"]),
    ], ids=["t", "rho"])
    def test_infinite_step_parameter_rejected(self, tmp_path, capsys, flag, argv):
        # stopped before the fit, with the flag's value in the message, not
        # by the first non-finite residual or subproblem matrix
        out = tmp_path / "o"
        rc = main(["run", "--task", "franke", "--q", "4", *argv, f"--{flag}", "inf",
                   "--out", str(out)])
        assert rc == 1
        assert f"{flag}=inf" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_step_tol_rejected(self, tmp_path, capsys):
        # NaN must stop before the fit: no step meets a NaN step_tol, and
        # summary.json would echo a bare NaN, which is not JSON
        out = tmp_path / "o"
        rc = main(["run", "--task", "franke", "--solver", "glpa", "--loss",
                   "absolute", "--step-tol", "nan", "--q", "4", "--max-outer", "20",
                   "--out", str(out)])
        assert rc == 1
        assert "invalid solver config" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


def _readme_cli_commands() -> list:
    """The `signet ...` commands of the README's CLI block, each one line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"CLI \(installed as `signet`\):\n\n```bash\n(.*?)```",
                      readme, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("signet ")]


def test_readme_cli_commands_parse():
    # the documented commands name no removed flag or task; none is run
    commands = _readme_cli_commands()
    assert [argv[0] for argv in commands] == ["run", "run", "compare", "run"]
    for argv in commands:
        build_parser().parse_args(argv)


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(code, **thread_env):
    """stdout of code run in a new interpreter whose only BLAS thread
    variables are thread_env."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_env, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True, env=env)
    return proc.stdout.strip()


def test_cli_loads_no_scipy_and_one_openblas(tmp_path):
    # signet's dense kernels come from the OpenBLAS numpy loads: a run
    # imports no scipy module (its import alone costs about 28 MB of peak
    # RSS) and maps no second OpenBLAS, whose thread pool would contend
    # with numpy's. environment.blas is the config string of that library,
    # read here through its own entry point.
    out = tmp_path / "o"
    argv = ["run", "--task", "franke", "--loss", "absolute", "--solver", "glpa",
            "--q", "4", "--max-outer", "3", "--out", str(out)]
    code = f"""
import ctypes, json, os, sys
from signet.cli import main
assert main({argv!r}) == 0
with open("/proc/self/maps", encoding="utf-8") as fh:
    blas = sorted({{line.split()[-1] for line in fh
                   if "openblas" in os.path.basename(line.split()[-1]).lower()}})
get_config = ctypes.CDLL(blas[0]).scipy_openblas_get_config64_
get_config.restype = ctypes.c_char_p
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  blas, " ".join(get_config().decode().split())]))
"""
    scipy_modules, blas, config = json.loads(_fresh_python(code).splitlines()[-1])
    assert scipy_modules == []
    assert len(blas) == 1
    assert _read_summary(out)["environment"]["blas"] == config
    assert config.startswith("OpenBLAS ") and "USE64BITINT" in config


@pytest.mark.parametrize("thread_env, expected", [
    ({}, [[], 1]),
    ({"OPENBLAS_NUM_THREADS": "2"}, [[], 2]),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}, [[], 2]),
])
def test_import_defaults_to_one_blas_thread(thread_env, expected):
    # the count is set in numpy's OpenBLAS: the import adds no variable to
    # the caller's environment
    code = ("import json, os\nbefore = set(os.environ)\nimport signet.linalg\n"
            "print(json.dumps([sorted(set(os.environ) - before), "
            "signet.linalg.num_threads()]))")
    assert json.loads(_fresh_python(code, **thread_env)) == expected


def _run_in_fresh_python(out, numpy_first, argv=("--q", "4", "--max-outer", "3"),
                         **thread_env):
    """summary.json of `signet run --task franke` in a new interpreter that
    imports numpy before signet if numpy_first."""
    argv = ["run", "--task", "franke", *argv, "--out", str(out)]
    code = (("import numpy\n" if numpy_first else "") +
            f"from signet.cli import main\nassert main({argv!r}) == 0")
    _fresh_python(code, **thread_env)
    return _read_summary(out)


@pytest.mark.parametrize("numpy_first, thread_env, expected", [
    (False, {}, 1), (True, {}, 1),
    (False, {"OPENBLAS_NUM_THREADS": "2"}, 2),
    (True, {"OPENBLAS_NUM_THREADS": "2"}, 2),
], ids=["signet-first", "numpy-first", "signet-first-2-threads",
        "numpy-first-2-threads"])
def test_run_records_blas_threads(tmp_path, numpy_first, thread_env, expected):
    summary = _run_in_fresh_python(tmp_path / "o", numpy_first, **thread_env)
    assert summary["environment"]["blas_threads"] == expected


def test_import_order_leaves_outputs_bitwise_equal(tmp_path):
    # numpy's OpenBLAS defaults to a thread per CPU; the fit's last bits
    # depend on the count, so both orders must fit on signet's one thread
    argv = ("--loss", "absolute", "--solver", "glpa", "--max-outer", "20",
            "--save-model")
    outputs = []
    for numpy_first in (False, True):
        out = tmp_path / str(numpy_first)
        _run_in_fresh_python(out, numpy_first, argv)
        trace = [{k: v for k, v in row.items() if k != "elapsed_s"}
                 for row in _read_trace(out)]
        outputs.append((trace, (out / "model.csv").read_bytes()))
    assert outputs[0] == outputs[1]


class TestCompare:
    def test_solver_flag_not_accepted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--task", "franke",
                                       "--solver", "glpa"])

    def test_failed_fit_leaves_no_out_dir(self, tmp_path, capsys, monkeypatch):
        # the writers make the directory, so a fit that fails makes none;
        # the baselines' flags are checked before GLPA's fit starts
        glpa_calls = []
        monkeypatch.setattr(cli_mod, "glpa_fit",
                            lambda *args: glpa_calls.append(args))
        out = tmp_path / "c" / "d"
        rc = main(["compare", "--task", "franke", "--q", "4", "--max-outer", "5",
                   "--iters", "5", "--lr", "inf", "--out", str(out)])
        assert rc == 1
        assert "lr=inf" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()
        assert glpa_calls == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_momentum_rejected(self, tmp_path, capsys, value):
        # stopped before the fits, not by the first non-finite residual
        out = tmp_path / "o"
        rc = main(["compare", "--task", "franke", "--momentum", value, "--q", "4",
                   "--max-outer", "5", "--iters", "5", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid hyperparameters" in err and f"momentum={value}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, argv", [
        ("t", ["--loss", "quadratic"]), ("rho", ["--loss", "absolute"]),
        ("lr", ["--loss", "quadratic"]),
    ], ids=["t", "rho", "lr"])
    def test_infinite_step_parameter_rejected(self, tmp_path, capsys, monkeypatch,
                                              flag, argv):
        # every solver flag is checked before any fit evaluates the network
        evaluations = []
        real_inner_eval = solvers_mod.inner_eval

        def recording_inner_eval(*args, **kwargs):
            evaluations.append(args)
            return real_inner_eval(*args, **kwargs)

        monkeypatch.setattr(solvers_mod, "inner_eval", recording_inner_eval)
        out = tmp_path / "o"
        rc = main(["compare", "--task", "franke", "--q", "4", "--max-outer", "5",
                   "--iters", "5", *argv, f"--{flag}", "inf", "--out", str(out)])
        assert rc == 1
        assert f"{flag}=inf" in capsys.readouterr().err
        assert not out.exists()
        assert evaluations == []

    def test_compare_outputs(self, tmp_path):
        out = tmp_path / "c"
        rc = main(["compare", "--task", "franke", "--q", "4", "--max-outer", "5",
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
        assert summary["schema_version"] == 11
        assert summary["environment"]["blas_threads"] == cli_mod.num_threads()
        assert summary["environment"]["cpu_count"] == os.cpu_count()
