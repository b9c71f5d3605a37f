#!/usr/bin/env python3
"""signet's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads are defined in
workloads.py. A run times a handful of fresh set-up processes, then runs
passes of the workload, each in a fresh process (worker.py) with the
workload's BLAS thread environment, until --seconds have been measured. Each
invocation's output files are checked; a failed check is a failed operation.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, with the tracing overhead. The last line of standard output
is the result object; the lines before it give the environment, every
measured value, and the reason for each per-layer metric that could not be
measured (reported as 0).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
MIN_PASSES = 2
HARD_LIMIT_S = 160.0      # a run must exit within 180 s


class Run:
    def __init__(self, root: Path, workload: workloads.Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out_root = root / ".perfbench" / workload.name
        self.started = time.perf_counter()
        env = workload.child_env(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def _worker(self, *args) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=max(self.remaining(), 1.0))

    def setup_probe(self) -> float:
        started = time.perf_counter()
        proc = self._worker("setup", self.workload.name)
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        return elapsed

    def fail(self, count: int, message: str):
        self.failed += count
        self.failures.append(message)

    def run_pass(self, index: int, trace: bool) -> dict | None:
        """One pass in a fresh process; checks its outputs. Returns the
        worker's result with the checked values, or None if the process
        itself failed."""
        out_dir = self.out_root / f"pass{index}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        result_path = out_dir / "result.json"
        invocations = self.workload.ordered(self.seed)
        self.attempted += len(invocations)
        try:
            proc = self._worker("pass", self.workload.name, str(self.seed),
                                "1" if trace else "0", str(out_dir), str(result_path))
        except subprocess.TimeoutExpired:
            self.fail(len(invocations), f"pass {index}: timed out")
            return None
        if proc.returncode != 0 or not result_path.exists():
            self.fail(len(invocations), f"pass {index}: worker exited "
                      f"{proc.returncode}:\n{proc.stderr[-2000:]}")
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        signet_src = self.root / "src" / "signet"
        if Path(result["signet"]).resolve().parent != signet_src.resolve():
            raise RuntimeError(f"imported signet from {result['signet']}, "
                               f"not from {signet_src}")
        rcs = {r["label"]: r["rc"] for r in result["invocations"]}
        checked = []
        for inv in invocations:
            if rcs.get(inv.label) != 0:
                self.fail(1, f"{inv.label}: exit code {rcs.get(inv.label)}")
                continue
            try:
                checked.append(workloads.check(self.workload.name, inv,
                                               out_dir / inv.label))
            except workloads.CheckFailed as exc:
                self.fail(1, f"{inv.label}: {exc}")
        result["checked"] = checked
        result["wall_s"] = sum(r["seconds"] for r in result["invocations"])
        return result


def _quality(checked: list) -> dict:
    """Values read from one pass's outputs; the same on every pass of the
    same code and thread count."""
    if not checked:
        return {}
    q = {"train_objective": max(c["objective"] for c in checked)}
    if "test_rms" in checked[0]:
        q["test_rms"] = max(c["test_rms"] for c in checked)
    if "test_errors" in checked[0]:
        errors = sum(c["test_errors"] for c in checked)
        size = sum(c["test_size"] for c in checked)
        q["test_error_rate"] = errors / size
        q["test_errors"] = f"{errors}/{size}"
    if "rmsprop" in checked[0]:
        q["rmsprop_final_objectives"] = [c["rmsprop"] for c in checked]
    return q


def _spread(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def measure(run: Run, seconds: float, trace: bool) -> dict:
    # the first probe fills the file cache with the interpreter, numpy, scipy
    # and signet, as any earlier run of the CLI would; it is not counted
    setup = [run.setup_probe() for _ in range(SETUP_PROBES + 1)][1:]
    untraced, traced = [], []
    measure_start = time.perf_counter()
    index = 0
    while True:
        do_trace = trace and index % 2 == 1
        pass_started = time.perf_counter()
        result = run.run_pass(index, do_trace)
        pass_s = time.perf_counter() - pass_started
        index += 1
        if result is None:
            break
        (traced if do_trace else untraced).append(result)
        done = (time.perf_counter() - measure_start >= seconds
                and len(untraced) + len(traced) >= MIN_PASSES
                and (traced or not trace))
        if done or run.remaining() < 1.5 * pass_s:
            break
    return {"setup": setup, "untraced": untraced, "traced": traced}


def end_to_end_values(m: dict, walls: list, quality: dict) -> dict:
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(m["setup"]),
        "peak_rss_mb": statistics.median(p["peak_rss_kib"] * 1024 / 1e6
                                         for p in m["untraced"]),
        "train_objective": quality.get("train_objective"),
    }


def per_layer_values(traced: list, walls: list) -> tuple[dict, dict]:
    """Medians over the traced passes, and the reason for each metric that
    no traced pass could measure."""
    layer_runs = [p["layers"] for p in traced]
    values = {}
    for key in layer_runs[0]:
        got = [r[key] for r in layer_runs if r[key] is not None]
        values[key] = statistics.median(got) if got else None
    reasons = {}
    for p in traced:
        for key, why in p["null_reasons"].items():
            if values.get(key) is None:
                reasons.setdefault(key, why)
    values["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                      / statistics.median(walls))
    return values, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "signet" / "cli.py").is_file():
        print(f"error: {root} has no src/signet; run from the root of a "
              "signet checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = Run(root, workloads.WORKLOADS[args.workload], args.seed)
    shutil.rmtree(run.out_root, ignore_errors=True)
    try:
        m = measure(run, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not m["untraced"] or (args.trace and not m["traced"]):
        print("error: no pass completed:\n" + "\n".join(run.failures), file=sys.stderr)
        return 1

    walls = [p["wall_s"] for p in m["untraced"]]
    quality = _quality(m["untraced"][-1]["checked"])
    if args.trace:
        values, reasons = per_layer_values(m["traced"], walls)
    else:
        values, reasons = end_to_end_values(m, walls, quality), {}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for d in declared:
        value = values.get(d["name"])
        if value is None:
            reasons.setdefault(d["name"], "not measured on this workload")
            value = 0
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}
    reasons = {k: v for k, v in reasons.items() if k in metrics}

    print(json.dumps({"environment": m["untraced"][0]["environment"]}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": {"untraced": len(m["untraced"]),
                                 "traced": len(m["traced"])},
                      "wall_s": _spread(walls), "setup_s": _spread(m["setup"]),
                      "traced_wall_s": _spread([p["wall_s"] for p in m["traced"]])
                      if m["traced"] else None,
                      "spans_per_traced_pass": [p["spans"] for p in m["traced"]],
                      "outputs": quality}))
    if reasons:
        print(json.dumps({"reported_as_0": reasons}))
    for f in run.failures:
        print(f"FAILED {f}")
    for name, metric in metrics.items():
        print(f"{name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
