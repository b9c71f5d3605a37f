#!/usr/bin/env python3
"""Handwritten-digit pairwise classification with the hinge loss via GLPA.

Runs all four benchmark pairs (0-1, 2-5, 3-7, 6-9) with q=4 hidden neurons
and prints a small results table. Pixels are normalized to [0, 1]; the raw
0..16 range saturates the sigmoids at d=64 and stalls training.

Each pair writes to <--out>/<pair>. Every other argument goes to each
pair's `signet run` after the pinned ones and overrides them, e.g.
`--seed 3` or `--admm-max-iters 30`; `--pair` stays the pair's own.
"""

import argparse
import json
from pathlib import Path

from signet.cli import main as cli_main

PAIRS = ["0,1", "2,5", "3,7", "6,9"]
ARGV = ["run", "--task", "digits", "--loss", "hinge", "--solver", "glpa",
        "--normalize", "--q", "4", "--t", "1e5", "--step-tol", "1e-2",
        "--max-outer", "500", "--rho", "1e-2", "--eps", "1e-2",
        "--admm-max-iters", "10", "--seed", "0"]


def run():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/digits_hinge")
    args, cli_args = ap.parse_known_args()

    rows = []
    for pair in PAIRS:
        out = Path(args.out) / pair.replace(",", "-")
        rc = cli_main([*ARGV, *cli_args, "--pair", pair, "--out", str(out)])
        if rc != 0:
            return rc
        with open(out / "summary.json", encoding="utf-8") as fh:
            s = json.load(fh)
        m = s["metrics"]
        rows.append((pair, m["training_size"], m["test_size"],
                     m["training_errors"], m["test_errors"],
                     s["final_objective"], s["iterations"]))

    print(f"\n{'pair':>5} {'m_tr':>5} {'m_te':>5} {'err_tr':>7} {'err_te':>7} "
          f"{'objective':>12} {'iters':>6}")
    for pair, mtr, mte, etr, ete, obj, k in rows:
        print(f"{pair:>5} {mtr:>5} {mte:>5} {etr:>7} {ete:>7} {obj:>12.4e} {k:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
