#!/usr/bin/env python3
"""Franke-surface regression with the quadratic loss and the plain LPA.

Trains the q=72 sigmoid network on 289 Halton points and reports training
objective and test errors. Arguments go to `signet run` after the pinned
ones and override them, e.g. `--noise-sigma 100` for positive training
noise or `--max-outer 3000`.
"""

import sys

from signet.cli import main as cli_main

ARGV = ["run", "--task", "franke", "--loss", "quadratic", "--solver", "lpa",
        "--q", "72", "--t", "1e5", "--step-tol", "1e-2", "--max-outer", "500",
        "--seed", "0", "--out", "results/franke_quadratic", "--save-model"]


def run():
    return cli_main([*ARGV, *sys.argv[1:]])


if __name__ == "__main__":
    raise SystemExit(run())
