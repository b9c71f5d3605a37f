"""Experiment command line: dataset generation, training runs with trace and
summary files, and optimizer comparisons.

Subcommands:
  run       train one model, write trace.csv / summary.json / model.csv
  gen-data  materialize a dataset as CSV files
  compare   run GLPA against SGDM, RMSProp, Adam on the same task and seed
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import time
from pathlib import Path

import numpy
import scipy

from . import _blas_threads
from . import data as data_mod
from . import diagnostics
from .losses import LossKind
from .model import NetworkShape, init_params, inner_eval, predict
from .solvers import FitReport, SolverConfig, baseline_fit, glpa_fit, lpa_fit
from .subsolvers import AdmmConfig

SCHEMA_VERSION = 4


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--noise-sigma", type=float, default=None,
                   help="enable training-target noise with this sigma_tilde")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pair", type=str, default="0,1",
                   help="digit pair A,B for the digits task")
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--data", type=str, default=None,
                   help="CSV path (digits export or custom dataset)")
    p.add_argument("--out", type=str, default="out")
    p.add_argument("--n-train", type=int, default=289)
    p.add_argument("--n-test", type=int, default=121)
    p.add_argument("--normalize", action="store_true",
                   help="divide digit pixels by 16")


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--loss", choices=[k.value for k in LossKind], default="quadratic")
    p.add_argument("--q", type=int, default=None,
                   help="hidden neurons (default: adaptive size from m and d)")
    p.add_argument("--t", type=float, default=SolverConfig.t)
    p.add_argument("--step-tol", type=float, default=SolverConfig.step_tol)
    p.add_argument("--max-outer", type=int, default=SolverConfig.max_outer)
    p.add_argument("--rho", type=float, default=AdmmConfig.rho)
    p.add_argument("--eps", type=float, default=AdmmConfig.eps,
                   help="ADMM residual tolerance, relative to the step's size")
    p.add_argument("--admm-max-iters", type=int, default=AdmmConfig.max_iters)
    p.add_argument("--init", choices=["uniform", "wide"], default="uniform")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--iters", type=int, default=1000,
                   help="iteration count for the first-order baselines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="signet",
                                     description="Sigmoid-network training "
                                                 "via composite optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one model and write result files")
    p_run.add_argument("--task", choices=["franke", "digits", "custom-csv"],
                       required=True)
    p_run.add_argument("--solver", choices=["lpa", "glpa", "sgdm", "rmsprop", "adam"],
                       default="lpa")
    p_run.add_argument("--save-model", action="store_true",
                       help="also write model.csv with the final parameters")

    p_gen = sub.add_parser("gen-data", help="write datasets as CSV")
    p_gen.add_argument("--task", choices=["franke", "digits"], required=True)

    p_cmp = sub.add_parser("compare",
                           help="GLPA vs SGDM/RMSProp/Adam on one task")
    p_cmp.add_argument("--task", choices=["franke", "digits", "custom-csv"],
                       required=True)
    for p in (p_run, p_gen, p_cmp):
        _add_data_flags(p)
    for p in (p_run, p_cmp):
        _add_solver_flags(p)
    return parser


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        a, b = (int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--pair expects 'A,B', got {text!r}") from None
    return a, b


def _load_task(args) -> tuple[data_mod.Dataset, data_mod.Dataset]:
    if args.task == "franke":
        noise = (data_mod.NoiseSpec(args.noise_sigma, args.seed)
                 if args.noise_sigma is not None else None)
        return data_mod.make_franke_datasets(args.n_train, args.n_test, noise)
    if args.task == "digits":
        digits = data_mod.load_digits_csv(args.data)
        a, b = _parse_pair(args.pair)
        return data_mod.make_binary_task(digits, a, b, args.train_frac,
                                         args.seed, args.normalize)
    if args.task == "custom-csv":
        if args.data is None:
            raise ValueError("custom-csv task needs --data")
        full = data_mod.load_dataset_csv(args.data)
        return data_mod.split_dataset(full, args.train_frac, args.seed)
    raise ValueError(f"unknown task {args.task!r}")


def _setup(args):
    """(loss, train, test, shape, theta0) of a run or a comparison."""
    loss = LossKind(args.loss)
    train, test = _load_task(args)
    if loss is LossKind.HINGE:
        if not all(numpy.all(numpy.abs(ds.targets) == 1.0) for ds in (train, test)):
            raise ValueError("hinge loss needs a binary classification task")
    elif args.task == "digits":
        raise ValueError("classification tasks use the hinge loss")
    q = args.q if args.q is not None else diagnostics.adaptive_network_size(
        train.m, train.d)
    shape = NetworkShape(d=train.d, q=q)
    return loss, train, test, shape, init_params(shape, args.init, args.seed)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(t=args.t, step_tol=args.step_tol, max_outer=args.max_outer,
                        admm=AdmmConfig(rho=args.rho, eps=args.eps,
                                        max_iters=args.admm_max_iters))


def _fit(args, solver, train, shape, loss, theta0) -> FitReport:
    # the baselines take no solver config, so its checks must not stop their runs
    if solver in ("lpa", "glpa"):
        fit = lpa_fit if solver == "lpa" else glpa_fit
        return fit(train.inputs, train.targets, shape, loss, _solver_config(args),
                   theta0)
    return baseline_fit(train.inputs, train.targets, shape, loss, solver,
                        theta0, lr=args.lr, momentum=args.momentum,
                        iters=args.iters)


def _write_csv(path: Path, header: list[str], rows):
    """Float cells get 17 significant digits, so they read back bitwise."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                         for row in rows)


def _write_json(path: Path, args, fields: dict):
    """A result summary: the schema version, the command's flags, the
    environment, then fields."""
    config = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
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
    """What a run's last bits depend on besides its config: the library
    versions and the OPENBLAS_NUM_THREADS value signet loaded numpy under
    (None when numpy was loaded before signet; see signet/__init__.py)."""
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": _blas_threads}


def cmd_run(args) -> int:
    loss, train, test, shape, theta0 = _setup(args)
    started = time.perf_counter()
    report = _fit(args, args.solver, train, shape, loss, theta0)
    elapsed = time.perf_counter() - started

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "trace.csv",
               ["k", "objective", "step_norm", "eta", "admm_iters", "elapsed_s"],
               ((r.k, r.objective, r.step_norm, r.eta, r.admm_iters, r.elapsed)
                for r in report.trace))

    ev = inner_eval(report.theta_star, shape, train.inputs, train.targets, loss,
                    jacobian=True)
    rank, full_row_rank = diagnostics.jacobian_rank(ev.J)
    _write_json(out / "summary.json", args, {
        "q": shape.q,
        "n_params": shape.n,
        "adaptive_q": diagnostics.adaptive_network_size(train.m, train.d),
        "final_objective": report.final_objective,
        "iterations": len(report.trace),
        "stop_reason": report.stop_reason,
        "elapsed_s": elapsed,
        "jacobian_rank": rank,
        "full_row_rank": full_row_rank,
        "metrics": _metrics(report.theta_star, shape, loss, train, test),
    })
    if args.save_model:
        _write_csv(out / "model.csv", ["theta"], ((v,) for v in report.theta_star))
    print(f"wrote {out / 'summary.json'} (final objective "
          f"{report.final_objective:.6g}, {len(report.trace)} iterations)")
    return 0


def cmd_gen_data(args) -> int:
    train, test = _load_task(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.save_dataset_csv(train, out / "train.csv")
    data_mod.save_dataset_csv(test, out / "test.csv")
    print(f"wrote {out / 'train.csv'} ({train.m} rows) and "
          f"{out / 'test.csv'} ({test.m} rows)")
    return 0


def cmd_compare(args) -> int:
    loss, train, _, shape, theta0 = _setup(args)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    finals = {}
    for name in ("glpa", "sgdm", "rmsprop", "adam"):
        report = _fit(args, name, train, shape, loss, theta0)
        rows.extend((name, rec.k, rec.objective) for rec in report.trace)
        finals[name] = report.final_objective
    _write_csv(out / "compare.csv", ["solver", "k", "objective"], rows)
    _write_json(out / "compare_summary.json", args, {"final_objectives": finals})
    print("final objectives: " +
          ", ".join(f"{k}={v:.6g}" for k, v in finals.items()))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "gen-data":
            return cmd_gen_data(args)
        return cmd_compare(args)
    except (ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
