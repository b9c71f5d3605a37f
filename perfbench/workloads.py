"""The benchmark's workloads: the CLI invocations each one makes, the BLAS
thread environment its process runs with, and the checks its outputs must
pass.

Every invocation uses the arguments the experiment scripts in `scripts/`
pass, so the fitted problems are the acceptance-suite configurations. The
benchmark seed only permutes the order of a workload's invocations; it
never changes a fit's data or starting point (see README.md for why).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

FRANKE_COMMON = ["--task", "franke", "--q", "72", "--t", "1e5",
                 "--step-tol", "1e-2", "--max-outer", "500"]
DIGITS_COMMON = ["--task", "digits", "--loss", "hinge", "--normalize",
                 "--q", "4", "--t", "1e5", "--step-tol", "1e-2",
                 "--rho", "1e-2", "--eps", "1e-2", "--admm-max-iters", "10",
                 "--seed", "0"]
ACCEPTANCE_PAIRS = ("0,1", "2,5", "3,7", "6,9")
# criterion 3: held-out errors of the four acceptance pairs
ACCEPTANCE_TEST_ERRORS = 2


@dataclass(frozen=True)
class Invocation:
    label: str          # names the output directory and failure messages
    argv: tuple         # arguments to signet.cli.main, without --out


@dataclass(frozen=True)
class Workload:
    name: str
    threads: str | None  # value for THREAD_VARS; None removes them
    invocations: tuple

    def ordered(self, seed: int) -> list[Invocation]:
        """The invocations in the order the seed gives; seed 0 keeps the
        order of the experiment scripts."""
        order = list(self.invocations)
        if seed:
            random.Random(seed).shuffle(order)
        return order

    def child_env(self, base: dict) -> dict:
        env = {k: v for k, v in base.items() if k not in THREAD_VARS}
        if self.threads is not None:
            env.update({k: self.threads for k in THREAD_VARS})
        return env


def _franke(loss: str, solver: str, extra: list) -> tuple:
    return (Invocation(f"franke_{loss}",
                       ("run", *FRANKE_COMMON, "--loss", loss, "--solver", solver,
                        *extra, "--save-model")),)


def _allpairs() -> tuple:
    return tuple(Invocation(f"pair_{a}-{b}",
                            ("run", *DIGITS_COMMON, "--solver", "glpa",
                             "--pair", f"{a},{b}", "--max-outer", "500"))
                 for a, b in itertools.combinations(range(10), 2))


def _compare() -> tuple:
    return tuple(Invocation(f"compare_{pair.replace(',', '-')}",
                            ("compare", *DIGITS_COMMON, "--pair", pair,
                             "--max-outer", "100", "--lr", "0.001",
                             "--momentum", "0.9", "--iters", "1000"))
                 for pair in ACCEPTANCE_PAIRS)


WORKLOADS = {w.name: w for w in (
    Workload("franke_quadratic", None,
             _franke("quadratic", "lpa", ["--seed", "0"])),
    Workload("franke_absolute_1t", "1",
             _franke("absolute", "glpa",
                     ["--rho", "1e-2", "--eps", "1e-2", "--admm-max-iters", "20",
                      "--init", "wide", "--seed", "2"])),
    Workload("digits_allpairs", None, _allpairs()),
    Workload("digits_compare", None, _compare()),
)}


class CheckFailed(Exception):
    pass


def _finite(value, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite {what}: {value!r}")
    return value


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_csv_finite(path: Path, skip: tuple = ()) -> int:
    """Every numeric cell of a CSV written by the CLI is finite; returns the
    row count."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, cell in row.items():
            if key not in skip:
                _finite(cell, f"{path.name} column {key}")
    return len(rows)


def _check_run(inv: Invocation, out: Path) -> dict:
    summary = _read_json(out / "summary.json")
    objective = _finite(summary["final_objective"], "final objective")
    metrics = {k: _finite(v, k) for k, v in summary["metrics"].items()}
    rows = _check_csv_finite(out / "trace.csv")
    if rows != summary["iterations"]:
        raise CheckFailed(f"trace.csv has {rows} rows, summary says "
                          f"{summary['iterations']}")
    if (out / "model.csv").exists():
        _check_csv_finite(out / "model.csv")
    return {"objective": objective, "metrics": metrics, "summary": summary}


def _check_franke_quadratic(inv, out):
    r = _check_run(inv, out)
    # criterion 1
    if r["objective"] > 1e-4:
        raise CheckFailed(f"training objective {r['objective']:.4g} > 1e-4")
    if r["metrics"]["test_rms_error"] > 1.5e-2:
        raise CheckFailed(f"test RMS {r['metrics']['test_rms_error']:.4g} > 1.5e-2")
    if r["summary"]["elapsed_s"] > 120.0:
        raise CheckFailed(f"fit took {r['summary']['elapsed_s']:.1f} s > 120 s")
    return {"objective": r["objective"],
            "test_rms": r["metrics"]["test_rms_error"]}


def _check_franke_absolute(inv, out):
    r = _check_run(inv, out)
    # criterion 2: held-out RMS and the ADMM cap. The training-objective
    # gate (<= 1e-5) is a documented failure: reported, not checked.
    if r["metrics"]["test_rms_error"] > 5e-3:
        raise CheckFailed(f"test RMS {r['metrics']['test_rms_error']:.4g} > 5e-3")
    with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
        capped = max(int(row["admm_iters"]) for row in csv.DictReader(fh))
    if capped > 20:
        raise CheckFailed(f"{capped} ADMM iterations > cap 20")
    return {"objective": r["objective"],
            "test_rms": r["metrics"]["test_rms_error"]}


def _check_digits_pair(inv, out):
    r = _check_run(inv, out)
    m = r["metrics"]
    if m["training_errors"] != 0:
        raise CheckFailed(f"{int(m['training_errors'])} training errors")
    pair = inv.argv[inv.argv.index("--pair") + 1]
    if pair in ACCEPTANCE_PAIRS and m["test_errors"] > ACCEPTANCE_TEST_ERRORS:
        raise CheckFailed(f"{int(m['test_errors'])} test errors > "
                          f"{ACCEPTANCE_TEST_ERRORS}")
    return {"objective": r["objective"], "test_errors": int(m["test_errors"]),
            "test_size": int(m["test_size"])}


def _check_compare(inv, out):
    finals = {k: _finite(v, f"{k} final objective") for k, v in
              _read_json(out / "compare_summary.json")["final_objectives"].items()}
    _check_csv_finite(out / "compare.csv", skip=("solver",))
    # criterion 4 against SGDM and Adam. GLPA below RMSProp is a documented
    # failure: reported, not checked.
    for name in ("sgdm", "adam"):
        if not finals["glpa"] < finals[name]:
            raise CheckFailed(f"GLPA {finals['glpa']:.4g} not below "
                              f"{name} {finals[name]:.4g}")
    return {"objective": finals["glpa"], "rmsprop": finals["rmsprop"]}


CHECKS = {
    "franke_quadratic": _check_franke_quadratic,
    "franke_absolute_1t": _check_franke_absolute,
    "digits_allpairs": _check_digits_pair,
    "digits_compare": _check_compare,
}


def check(workload: str, inv: Invocation, out: Path) -> dict:
    """Check one invocation's output files; raises CheckFailed."""
    try:
        return CHECKS[workload](inv, out)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise CheckFailed(f"unreadable output: {exc!r}") from exc


def first_dataset(workload: str):
    """Build the workload's first dataset, as the CLI does before its first
    fit; part of the set-up time."""
    from signet import data
    if workload.startswith("franke"):
        return data.make_franke_datasets()
    return data.make_binary_task(data.load_digits_csv(), 0, 1, 0.7, 0, True)
