#!/usr/bin/env python3
"""Robustness sweep over the handwritten-digit pairs: GLPA + ADMM with the
hinge loss on seeds x all 45 pairs x q x rho, in one process, writing no
files. Prints one row per fit, none dropped, then the totals.

The defaults are the acceptance settings of scripts/digits_hinge.py (q=4,
rho=1e-2, ADMM cap 10) over seeds 0-7, 360 fits:

    python3 scripts/digits_sweep.py
    python3 scripts/digits_sweep.py --seeds 0 1 --q 2 4 --rho 1e-2 1e-1
"""

import argparse
import itertools
from collections import Counter

from signet import cli

PAIRS = list(itertools.combinations(range(10), 2))
COLUMNS = ("seed", "pair", "q", "rho", "stop_reason", "iterations",
           "final_objective", "m", "train_errors", "test_errors", "rises",
           "failed_ls", "rank")


def run_argv(seed: int, pair: tuple[int, int], q: int, rho: float) -> list[str]:
    """The `signet run` arguments of one fit, without --out."""
    return ["run", "--task", "digits", "--loss", "hinge", "--solver", "glpa",
            "--pair", f"{pair[0]},{pair[1]}", "--normalize", "--q", str(q),
            "--t", "1e5", "--step-tol", "1e-2", "--max-outer", "500",
            "--rho", str(rho), "--eps", "1e-2", "--admm-max-iters", "10",
            "--seed", str(seed)]


def fit_row(seed: int, pair: tuple[int, int], q: int, rho: float) -> dict:
    """Fit one pair as `signet run` does, and summarize it from the fields
    its summary.json gets. `rises` counts the recorded objectives, followed
    by the final one, that exceed their predecessor; `failed_ls` counts the
    steps the line search rejected."""
    report, fields = cli.run_summary(
        cli.build_parser().parse_args(run_argv(seed, pair, q, rho)))
    metrics = fields["metrics"]
    objectives = [rec.objective for rec in report.trace] + [report.final_objective]
    return {"seed": seed, "pair": f"{pair[0]}-{pair[1]}", "q": q, "rho": rho,
            "stop_reason": fields["stop_reason"], "iterations": fields["iterations"],
            "final_objective": fields["final_objective"],
            "m": metrics["training_size"],
            "train_errors": metrics["training_errors"],
            "test_errors": metrics["test_errors"],
            "rises": sum(b > a for a, b in zip(objectives, objectives[1:])),
            "failed_ls": sum(not rec.accepted for rec in report.trace),
            "rank": fields["jacobian_rank"]}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(8)))
    ap.add_argument("--q", type=int, nargs="+", default=[4])
    ap.add_argument("--rho", type=float, nargs="+", default=[1e-2])
    return ap


def run():
    args = build_parser().parse_args()
    print(" ".join(COLUMNS))
    rows = []
    for seed, pair, q, rho in itertools.product(args.seeds, PAIRS, args.q, args.rho):
        row = fit_row(seed, pair, q, rho)
        rows.append(row)
        print(" ".join(repr(v) if isinstance(v, float) else str(v)
                       for v in row.values()), flush=True)

    stops = Counter(row["stop_reason"] for row in rows)
    print(f"\n{len(rows)} fits; stops: "
          + ", ".join(f"{k} {v}" for k, v in sorted(stops.items()))
          + f"; fits with a rise {sum(row['rises'] > 0 for row in rows)}"
          f"; failed line searches {sum(row['failed_ls'] for row in rows)}"
          f"; outer iterations {sum(row['iterations'] for row in rows)}"
          f"; training errors {sum(row['train_errors'] for row in rows)}"
          f"; held-out errors {sum(row['test_errors'] for row in rows)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
