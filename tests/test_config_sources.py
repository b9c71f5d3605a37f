"""The acceptance configurations are written in three places: the
experiment scripts in scripts/, the benchmark workloads in
perfbench/workloads.py, and the fits of tests/test_acceptance.py. This
checks that all three run the same fits."""

import json
import sys
from pathlib import Path

import pytest

import test_acceptance as acceptance
from signet.cli import _solver_config, build_parser

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
        out = Path(argv[argv.index("--out") + 1])
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


def test_digits_sweep_defaults_are_the_acceptance_fits():
    # scripts/digits_sweep.py runs the digits_allpairs fits, over more seeds
    sweep = load_module(ROOT / "scripts" / "digits_sweep.py", "_script_digits_sweep")
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
