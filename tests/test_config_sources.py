"""The acceptance configurations are written in three places: the
experiment scripts in scripts/, the benchmark workloads in
perfbench/workloads.py, and the fits of tests/test_acceptance.py. This
checks that all three run the same fits, that every script passes the
arguments it is given on to each CLI call it makes, where they override
the pinned ones, and that a row of scripts/digits_sweep.py is what
`signet run` writes to summary.json for the same arguments."""

import json
import sys
from pathlib import Path

import pytest

import test_acceptance as acceptance
from signet.cli import _solver_config, build_parser, main as cli_main

from conftest import load_module

ROOT = Path(__file__).resolve().parents[1]
PAIRS = ("0-1", "2-5", "3-7", "6-9")


def _script_argvs(monkeypatch, tmp_path, script: str, *script_args) -> list:
    """The argument lists scripts/<script>.py passes to the CLI, recorded
    instead of run."""
    module = load_module(ROOT / "scripts" / f"{script}.py", f"_script_{script}")
    calls = []

    def record(argv):
        calls.append(list(argv))
        out = Path(build_parser().parse_args(argv).out)
        out.mkdir(parents=True, exist_ok=True)
        # enough of a summary for digits_hinge.py's results table
        metrics = dict.fromkeys(("training_size", "test_size", "training_errors",
                                 "test_errors"), 0)
        (out / "summary.json").write_text(json.dumps(
            {"metrics": metrics, "final_objective": 0.0, "iterations": 0}))
        return 0

    monkeypatch.setattr(module, "cli_main", record)
    monkeypatch.setattr(sys, "argv", [script, *script_args, "--out", str(tmp_path / "out")])
    assert module.run() == 0
    return calls


sweep = load_module(ROOT / "scripts" / "digits_sweep.py", "_script_digits_sweep")
WORKLOADS = load_module(ROOT / "perfbench" / "workloads.py", "_perfbench_workloads").WORKLOADS


def _bench_argv(workload: str, label: str) -> list:
    [argv] = [inv.argv for inv in WORKLOADS[workload].invocations
              if inv.label == label]
    return list(argv)


def _without_out(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "out"}


@pytest.mark.parametrize("script, script_args, workload, labels, setup", [
    ("franke_quadratic", (), "franke_quadratic", ["franke_quadratic"],
     acceptance.FRANKE_QUADRATIC),
    ("franke_absolute", (), "franke_absolute_1t", ["franke_absolute"],
     acceptance.FRANKE_ABSOLUTE),
    ("digits_hinge", (), "digits_allpairs", [f"pair_{p}" for p in PAIRS],
     acceptance.DIGITS_HINGE),
    *[("optimizer_comparison", ("--pair", p.replace("-", ",")), "digits_compare",
       [f"compare_{p}"], acceptance.OPTIMIZER_COMPARISON) for p in PAIRS],
], ids=["franke_quadratic", "franke_absolute", "digits_hinge",
        *[f"optimizer_comparison-{p}" for p in PAIRS]])
def test_scripts_benchmark_and_acceptance_agree(monkeypatch, tmp_path, script,
                                                script_args, workload, labels, setup):
    argvs = _script_argvs(monkeypatch, tmp_path, script, *script_args)
    assert len(argvs) == len(labels)
    parser = build_parser()
    for argv, label in zip(argvs, labels):
        args = parser.parse_args(argv)
        assert _without_out(args) == _without_out(
            parser.parse_args(_bench_argv(workload, label))), label
        assert (_solver_config(args), args.q, args.init, args.seed) == setup, label


@pytest.mark.parametrize("script, flag, value, calls", [
    ("franke_quadratic", "--q", 36, 1),
    ("franke_absolute", "--rho", 1e-1, 1),
    ("digits_hinge", "--admm-max-iters", 30, 4),
    ("optimizer_comparison", "--admm-max-iters", 30, 1),
], ids=["franke_quadratic", "franke_absolute", "digits_hinge",
        "optimizer_comparison"])
def test_scripts_forward_cli_flags(monkeypatch, tmp_path, script, flag, value,
                                   calls):
    # a flag the script declares no option for and pins to another value
    argvs = _script_argvs(monkeypatch, tmp_path, script, flag, str(value))
    assert len(argvs) == calls
    parser = build_parser()
    for argv in argvs:
        assert getattr(parser.parse_args(argv), flag[2:].replace("-", "_")) == value


def test_digits_sweep_defaults_are_the_acceptance_fits():
    # scripts/digits_sweep.py runs the digits_allpairs fits, over more seeds
    defaults = sweep.build_parser().parse_args([])
    assert defaults.seeds == list(range(8))
    [q], [rho] = defaults.q, defaults.rho
    assert len(sweep.PAIRS) == 45
    parser = build_parser()
    for a, b in sweep.PAIRS:
        args = parser.parse_args(sweep.run_argv(0, (a, b), q, rho))
        assert _without_out(args) == _without_out(
            parser.parse_args(_bench_argv("digits_allpairs", f"pair_{a}-{b}")))
        assert (_solver_config(args), args.q, args.init, args.seed) == \
            acceptance.DIGITS_HINGE


def test_sweep_row_is_the_run_summary(tmp_path):
    argv = sweep.run_argv(0, (0, 1), 4, 1e-2)
    row = sweep.fit_row(0, (0, 1), 4, 1e-2)
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    metrics = summary["metrics"]
    assert ((row["stop_reason"], row["iterations"], row["final_objective"],
             row["m"], row["train_errors"], row["test_errors"], row["rank"])
            == (summary["stop_reason"], summary["iterations"],
                summary["final_objective"], metrics["training_size"],
                metrics["training_errors"], metrics["test_errors"],
                summary["jacobian_rank"]))
