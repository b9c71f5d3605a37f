#!/usr/bin/env python3
"""GLPA against SGDM / RMSProp / Adam on the 0-1 digit pair (hinge loss).

Writes per-iteration loss curves to compare.csv and final losses to
compare_summary.json under --out. Arguments go to `signet compare` after
the pinned ones and override them, e.g. `--pair 2,5` or `--lr 1e-2`.
"""

import sys

from signet.cli import main as cli_main

ARGV = ["compare", "--task", "digits", "--loss", "hinge", "--pair", "0,1",
        "--normalize", "--q", "4", "--t", "1e5", "--step-tol", "1e-2",
        "--max-outer", "100", "--rho", "1e-2", "--eps", "1e-2",
        "--admm-max-iters", "10", "--lr", "1e-3", "--momentum", "0.9",
        "--iters", "1000", "--seed", "0", "--out", "results/optimizer_comparison"]


def run():
    return cli_main([*ARGV, *sys.argv[1:]])


if __name__ == "__main__":
    raise SystemExit(run())
