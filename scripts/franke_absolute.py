#!/usr/bin/env python3
"""Franke-surface regression with the absolute loss via GLPA + ADMM.

Uses the wide hidden-layer initialization: with the default small init the
Jacobian is numerically rank-deficient at the starting point and the outer
iteration stalls early. Arguments go to `signet run` after the pinned ones
and override them, e.g. `--max-outer 3000` or `--rho 1 --eps 1e-6`.
"""

import sys

from signet.cli import main as cli_main

ARGV = ["run", "--task", "franke", "--loss", "absolute", "--solver", "glpa",
        "--q", "72", "--t", "1e5", "--step-tol", "1e-2", "--max-outer", "500",
        "--rho", "1e-2", "--eps", "1e-2", "--admm-max-iters", "20",
        "--init", "wide", "--seed", "2", "--out", "results/franke_absolute",
        "--save-model"]


def run():
    return cli_main([*ARGV, *sys.argv[1:]])


if __name__ == "__main__":
    raise SystemExit(run())
