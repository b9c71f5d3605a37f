"""A few-second slice of scripts/digits_sweep.py at the acceptance
settings: the five fits that stalled at max_outer while GLPA still took
steps its line search had rejected, and seed 0's pair 0-1."""

from pathlib import Path

import pytest

from conftest import load_module

sweep = load_module(Path(__file__).resolve().parents[1] / "scripts" / "digits_sweep.py",
                    "_script_digits_sweep")

FORMER_STALLS = [(1, (5, 9)), (5, (3, 9)), (6, (5, 8)), (7, (1, 9)), (7, (8, 9))]


@pytest.mark.parametrize("seed, pair", FORMER_STALLS,
                         ids=[f"{s}:{a}-{b}" for s, (a, b) in FORMER_STALLS])
def test_rejected_step_ends_the_fit(seed, pair):
    row = sweep.fit_row(seed, pair, 4, 1e-2)
    assert row["rises"] == 0
    assert row["stop_reason"] == "line_search_failed"
    assert row["failed_ls"] == 1


def test_acceptance_pair_converges():
    row = sweep.fit_row(0, (0, 1), 4, 1e-2)
    assert row["rises"] == 0 and row["failed_ls"] == 0
    assert row["stop_reason"] == "step_tol"
    assert row["final_objective"] == 0.0
    assert row["iterations"] == 11
