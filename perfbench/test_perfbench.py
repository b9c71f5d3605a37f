"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py

They import signet from this checkout's `src`.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
REPEATED_COUNTS = ("solvers.outer_iters", "model.evals_per_iter",
                   "subsolvers.admm_iters", "solvers.ls_trials",
                   "linalg.factor_calls")


def _traced_pass(name: str, out: Path) -> dict:
    env = workloads.WORKLOADS[name].child_env(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    result = out / "result.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), "pass", name, "0",
                    "1", str(out), str(result)], cwd=ROOT, env=env, check=True,
                   capture_output=True, timeout=170)
    return json.loads(result.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["franke_absolute_1t", "digits_compare"])
def test_counts_repeat_exactly(tmp_path, name):
    first = _traced_pass(name, tmp_path / "a")["layers"]
    second = _traced_pass(name, tmp_path / "b")["layers"]
    for key in REPEATED_COUNTS:
        assert first[key] is not None, key
        assert first[key] == second[key], key


@pytest.fixture
def restore_signet():
    import signet.cli  # noqa: F401
    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name == "signet" or name.startswith("signet.")}
    saved_linalg = {name: dict(vars(sys.modules[name])) for name in tracer.LINALG}
    yield
    for name, contents in {**saved, **saved_linalg}.items():
        vars(sys.modules[name]).update(contents)


def test_functions_found_by_defining_module(restore_signet, monkeypatch):
    import signet.model

    def evaluate(theta):
        return theta
    evaluate.__module__ = "signet.model"
    monkeypatch.setattr(signet.model, "evaluate", evaluate, raising=False)
    t = tracer.Tracer()
    wrapped = tracer.install(t)
    assert "evaluate" in wrapped["model"]
    assert "inner_eval" in wrapped["model"]
    assert "NetworkShape" not in wrapped["model"]
    # re-exports and cross-module imports are rebound too
    import signet
    import signet.solvers
    assert signet.inner_eval is signet.model.inner_eval
    assert signet.solvers.inner_eval is signet.model.inner_eval
    signet.model.evaluate(1.0)
    assert [s[tracer.NAME] for s in t.spans] == ["evaluate"]


def _span(layer, name, parent, start, end, info=None):
    return [layer, name, parent, start, end, info]


def test_metrics_from_spans():
    spans = [
        _span("solvers", "glpa_fit", -1, 0.0, 10.0, {"iterations": 2}),
        _span("model", "inner_eval", 0, 0.0, 1.0),
        _span("model", "sigmoid", 1, 0.2, 0.4),
        _span("subsolvers", "admm_solve", 0, 1.0, 4.0,
              {"iterations": 20, "converged": False}),
        _span("linalg", "factor:cho_factor", 3, 1.0, 2.0, 300),
        _span("linalg", "solve:cho_solve", 3, 2.0, 2.5),
        _span("solvers", "backtrack", 0, 4.0, 6.0, {"trials": 2, "accepted": True}),
        _span("model", "inner_eval", 6, 4.0, 5.0),
    ]
    m, reasons = tracer.layer_metrics(spans, {"solvers": ["glpa_fit", "backtrack"],
                                              "subsolvers": ["admm_solve", "lm_step"]})
    assert m["solvers.outer_iters"] == 2
    assert m["model.evals_per_iter"] == 1.0
    assert m["model.self_s"] == pytest.approx(2.0)
    assert m["solvers.self_s"] == pytest.approx(10.0 - 1.0 - 3.0 - 2.0 + 2.0 - 1.0)
    assert m["subsolvers.admm_iters"] == 20
    assert m["subsolvers.admm_capped_ratio"] == 1.0
    assert m["subsolvers.admm_iter_ms"] == pytest.approx(1e3 * 2.0 / 20)
    assert m["solvers.ls_trials"] == 2 and m["solvers.ls_fail_ratio"] == 0.0
    assert m["linalg.factor_gflops"] == pytest.approx(300 ** 3 / 3 / 1e9)
    assert m["subsolvers.lm_ms"] is None
    assert "not called" in reasons["subsolvers.lm_ms"]


def test_changed_return_shapes_give_null_with_reason():
    spans = [
        _span("solvers", "glpa_fit", -1, 0.0, 1.0, tracer._read_fit((), object())),
        _span("subsolvers", "admm_solve", 0, 0.0, 0.5,
              tracer._read_admm((), ("dtheta", 20))),
        _span("solvers", "backtrack", 0, 0.5, 0.6,
              tracer._read_backtrack((), (1.0, 3))),
    ]
    m, reasons = tracer.layer_metrics(spans, {"solvers": ["glpa_fit", "backtrack"],
                                              "subsolvers": ["admm_solve"]})
    for key in ("solvers.outer_iters", "subsolvers.admm_iters",
                "subsolvers.admm_capped_ratio", "solvers.ls_trials"):
        assert m[key] is None and reasons[key], key
    assert "AdmmTrace" in reasons["subsolvers.admm_iters"]
    assert "no public function lm_step" in reasons["subsolvers.lm_ms"]


def test_refuses_a_directory_without_signet(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "franke_quadratic", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
