"""Experiment command line: training runs with trace and summary files, and
optimizer comparisons.

Subcommands:
  run       fit one model with LPA or GLPA, write trace.csv / summary.json /
            model.csv
  compare   run GLPA against SGDM, RMSProp, Adam on the same task and seed
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy

from . import data as data_mod
from . import diagnostics
from .linalg import BLAS_CONFIG, num_threads
from .losses import LossKind
from .model import NetworkShape, init_params, inner_eval, predict
from .solvers import (BASELINES, FitReport, IterationRecord, SolverConfig,
                      baseline_fit, glpa_fit, lpa_fit)
from .subsolvers import AdmmConfig

SCHEMA_VERSION = 11


# the flags one task alone reads, each with that task and its default; any
# other value given with the other task would be echoed into summary.json
# with no effect on the run
_TASK_FLAGS = {"noise_sigma": ("franke", None), "pair": ("digits", "0,1"),
               "normalize": ("digits", False)}


def _add_flags(p: argparse.ArgumentParser):
    """The data and solver flags run and compare share."""
    p.add_argument("--task", choices=["franke", "digits"], required=True)
    p.add_argument("--noise-sigma", type=float,
                   help="enable training-target noise with this sigma_tilde "
                        "(franke task)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pair", type=str, help="digit pair A,B for the digits task")
    p.add_argument("--out", type=str, default="out")
    p.add_argument("--normalize", action="store_true",
                   help="divide digit pixels by 16 (digits task)")
    p.set_defaults(**{flag: default for flag, (_, default) in _TASK_FLAGS.items()})
    p.add_argument("--loss", choices=[k.value for k in LossKind], default="quadratic")
    p.add_argument("--q", type=int, default=None,
                   help="hidden neurons (default: adaptive size from m and d)")
    p.add_argument("--t", type=float, default=SolverConfig.t)
    p.add_argument("--step-tol", type=float, default=SolverConfig.step_tol,
                   help="stop once a step's norm ||dtheta|| falls below this; "
                        "it bounds the step, not the objective")
    p.add_argument("--max-outer", type=int, default=SolverConfig.max_outer)
    p.add_argument("--rho", type=float, default=AdmmConfig.rho)
    p.add_argument("--eps", type=float, default=AdmmConfig.eps,
                   help="ADMM residual tolerance, relative to the step's size")
    p.add_argument("--admm-max-iters", type=int, default=AdmmConfig.max_iters)
    p.add_argument("--init", choices=["uniform", "wide"], default="uniform")


# parsing leaves the parser unchanged, so one serves every call of a
# process; building it costs about 1.3 ms
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="signet",
                                     description="Sigmoid-network training "
                                                 "via composite optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one model and write result files")
    p_cmp = sub.add_parser("compare",
                           help="GLPA vs SGDM/RMSProp/Adam on one task")
    _add_flags(p_run)
    _add_flags(p_cmp)
    p_run.add_argument("--solver", choices=["lpa", "glpa"], default="lpa")
    p_run.add_argument("--save-model", action="store_true",
                       help="also write model.csv with the final parameters")
    # the baselines' flags default to baseline_fit's own values
    baseline = inspect.signature(baseline_fit).parameters
    p_cmp.add_argument("--lr", type=float, default=baseline["lr"].default)
    p_cmp.add_argument("--momentum", type=float,
                       default=baseline["momentum"].default)
    p_cmp.add_argument("--iters", type=int, default=baseline["iters"].default,
                       help="iteration count for the first-order baselines")
    return parser


def _setup(args):
    """(loss, train, test, shape, theta0) of a run or a comparison."""
    loss = LossKind(args.loss)
    if (loss is LossKind.HINGE) != (args.task == "digits"):
        raise ValueError("classification tasks use the hinge loss, and only "
                         f"they do: got --task {args.task} --loss {args.loss}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    for flag, (task, default) in _TASK_FLAGS.items():
        if args.task != task and getattr(args, flag) != default:
            raise ValueError(f"--{flag.replace('_', '-')} applies to the "
                             f"{task} task only")
    if args.task == "franke":
        train, test = data_mod.make_franke_datasets(noise_sigma=args.noise_sigma,
                                                    seed=args.seed)
    else:
        try:
            a, b = (int(v) for v in args.pair.split(","))
        except ValueError:
            raise ValueError(f"--pair expects 'A,B', got {args.pair!r}") from None
        train, test = data_mod.make_binary_task(data_mod.load_digits_csv(), a, b,
                                                seed=args.seed,
                                                normalize=args.normalize)
    q = args.q if args.q is not None else diagnostics.adaptive_network_size(
        train.m, train.d)
    shape = NetworkShape(d=train.d, q=q)
    return loss, train, test, shape, init_params(shape, args.init, args.seed)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(t=args.t, step_tol=args.step_tol, max_outer=args.max_outer,
                        admm=AdmmConfig(rho=args.rho, eps=args.eps,
                                        max_iters=args.admm_max_iters))


def _write_json(path: Path, args, fields: dict):
    """A result summary: the schema version, the command's flags, the
    environment, then fields. Makes the file's directory."""
    config = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, "config": config,
                   "environment": _environment(), **fields}, fh, indent=2)
        fh.write("\n")


def _metrics(theta, shape, loss, train, test):
    if loss is LossKind.HINGE:
        return {
            "training_errors": diagnostics.classification_errors(theta, shape, train),
            "test_errors": diagnostics.classification_errors(theta, shape, test),
            "training_size": train.m,
            "test_size": test.m,
        }
    pred_tr = predict(theta, shape, train.inputs)
    pred_te = predict(theta, shape, test.inputs)
    return {
        "train_rms_error": diagnostics.rms_error(pred_tr, train.targets),
        "train_max_error": diagnostics.max_error(pred_tr, train.targets),
        "test_rms_error": diagnostics.rms_error(pred_te, test.targets),
        "test_max_error": diagnostics.max_error(pred_te, test.targets),
    }


def _environment() -> dict:
    """What a run's last bits and its timings depend on besides its config:
    the Python and numpy versions, numpy's OpenBLAS build with the core
    type whose kernels it picked, the thread count read back from that
    library (1 unless OPENBLAS_NUM_THREADS names one; see signet/linalg.py)
    and the CPU count."""
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": BLAS_CONFIG, "blas_threads": num_threads(),
            "cpu_count": os.cpu_count()}


def run_summary(args) -> tuple[FitReport, dict]:
    """Set up, fit and summarize a `run` configuration: the fit's report and
    the fields summary.json records after its config and environment."""
    loss, train, test, shape, theta0 = _setup(args)
    started = time.perf_counter()
    fit = lpa_fit if args.solver == "lpa" else glpa_fit
    report = fit(train.inputs, train.targets, shape, loss, _solver_config(args),
                 theta0)
    elapsed = time.perf_counter() - started
    rank, full_row_rank = diagnostics.jacobian_rank(inner_eval(
        report.theta_star, shape, train.inputs, train.targets, loss).jacobian())
    rank_s = time.perf_counter() - started - elapsed
    return report, {
        "q": shape.q,
        "n_params": shape.n,
        "adaptive_q": diagnostics.adaptive_network_size(train.m, train.d),
        "final_objective": report.final_objective,
        "iterations": len(report.trace),
        "stop_reason": report.stop_reason,
        "elapsed_s": elapsed,
        "rank_s": rank_s,
        "jacobian_rank": rank,
        "full_row_rank": full_row_rank,
        "metrics": _metrics(report.theta_star, shape, loss, train, test),
    }


def cmd_run(args) -> int:
    report, fields = run_summary(args)
    out = Path(args.out)
    header = [f.name for f in dataclasses.fields(IterationRecord)]
    data_mod.write_csv(out / "trace.csv", header,
                       ([getattr(r, name) for name in header] for r in report.trace))
    _write_json(out / "summary.json", args, fields)
    if args.save_model:
        data_mod.write_csv(out / "model.csv", ["theta"],
                           ((v,) for v in report.theta_star))
    print(f"wrote {out / 'summary.json'} (final objective "
          f"{report.final_objective:.6g}, {len(report.trace)} iterations)")
    return 0


def cmd_compare(args) -> int:
    loss, train, _, shape, theta0 = _setup(args)
    cfg = _solver_config(args)
    # the baselines run before GLPA, so that a bad --lr, --momentum or
    # --iters fails before any fit; GLPA is still written first
    baselines = baseline_fit(train.inputs, train.targets, shape, loss, theta0,
                             lr=args.lr, momentum=args.momentum, iters=args.iters)
    glpa = glpa_fit(train.inputs, train.targets, shape, loss, cfg, theta0)
    out = Path(args.out)
    rows = []
    finals = {}
    for name, report in zip(("glpa", *BASELINES), (glpa, *baselines)):
        rows.extend((name, rec.k, rec.objective) for rec in report.trace)
        finals[name] = report.final_objective
    data_mod.write_csv(out / "compare.csv", ["solver", "k", "objective"], rows)
    _write_json(out / "compare_summary.json", args, {"final_objectives": finals})
    print("final objectives: " +
          ", ".join(f"{k}={v:.6g}" for k, v in finals.items()))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return cmd_run(args) if args.command == "run" else cmd_compare(args)
    except (ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
