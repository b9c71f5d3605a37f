"""One benchmark process: either a set-up probe or one pass of a workload.

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py pass WORKLOAD SEED TRACE OUT_DIR RESULT_JSON

`run.py` starts it with `src` on PYTHONPATH and the workload's BLAS thread
environment. A set-up probe imports signet (with numpy and scipy) and builds
the workload's first dataset. A pass runs the workload's CLI invocations one
after another through `signet.cli.main` in this process, starts no threads,
and writes the wall time of each invocation, the process's peak resident
memory, the environment and, when traced, the per-layer metrics to
RESULT_JSON.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

OPENBLAS_CALLS = (("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
                  ("scipy_openblas_get_config", "scipy_openblas_get_num_threads"))


def _openblas() -> list:
    """Config string and effective thread count of each OpenBLAS loaded in
    this process, read through ctypes from the libraries themselves."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for config_fn, threads_fn in OPENBLAS_CALLS:
            if hasattr(lib, config_fn) and hasattr(lib, threads_fn):
                get_config, get_threads = getattr(lib, config_fn), getattr(lib, threads_fn)
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                found.append({"library": Path(path).name,
                              "config": get_config().decode().strip(),
                              "num_threads": get_threads()})
                break
    return found


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "thread_env": {k: os.environ.get(k) for k in workloads.THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def run_pass(name: str, seed: int, trace: bool, out_dir: Path) -> dict:
    import signet.cli
    if trace:
        import tracer
        recorder = tracer.Tracer()
        wrapped = tracer.install(recorder)
    cli_main = signet.cli.main      # looked up after install: traced if wrapped
    results = []
    for inv in workloads.WORKLOADS[name].ordered(seed):
        out = out_dir / inv.label
        started = time.perf_counter()
        rc = cli_main([*inv.argv, "--out", str(out)])
        results.append({"label": inv.label, "rc": rc,
                        "seconds": time.perf_counter() - started})
    result = {
        "signet": signet.cli.__file__,
        "invocations": results,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }
    if trace:
        result["layers"], result["null_reasons"] = tracer.layer_metrics(
            recorder.spans, wrapped)
        result["spans"] = len(recorder.spans)
    return result


def main(argv: list) -> int:
    if argv[0] == "setup":
        import signet.cli  # noqa: F401  (the import is what is timed)
        workloads.first_dataset(argv[1])
        return 0
    _, name, seed, trace, out_dir, result_path = argv
    result = run_pass(name, int(seed), trace == "1", Path(out_dir))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
