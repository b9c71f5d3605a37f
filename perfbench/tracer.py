"""Outside-in tracer for signet.

`install` wraps, from outside the program, every public function defined in
each `signet` submodule, at every place in `signet` it is bound, plus the
dense factorizations and solves of `scipy.linalg` and `numpy.linalg`. Each
call records one span (layer, name, parent span, start, end, info) in memory;
`layer_metrics` turns the spans into the per-layer metrics when the pass ends.

Functions are found by their defining module, not from a list, so a renamed
or added function keeps its spans. The few counters read from return values
(`admm_solve`'s trace, `backtrack`'s tuple, a fit's `trace` list) become
null with a reason when the shape they expect is gone.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time

LAYERS = ("cli", "data", "model", "losses", "subsolvers", "solvers",
          "diagnostics", "linalg")
LINALG = {
    "scipy.linalg": {"cho_factor": "factor", "cholesky": "factor",
                     "eigh": "factor", "cho_solve": "solve", "solve": "solve",
                     "solve_triangular": "solve"},
    "numpy.linalg": {"cholesky": "factor", "eigh": "factor", "solve": "solve"},
}
CHOLESKY = ("cho_factor", "cholesky")

# span fields
LAYER, NAME, PARENT, START, END, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, layer: str, name: str, reader=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if reader is not None:
                span[INFO] = reader(args, result)
            return result
        return traced


def _matrix_order(args, result):
    shape = getattr(args[0], "shape", ()) if args else ()
    return shape[0] if len(shape) == 2 else None


def _read_admm(args, result):
    try:
        _, trace = result
        return {"iterations": int(trace.iterations),
                "converged": bool(trace.converged)}
    except (TypeError, ValueError, AttributeError) as exc:
        return {"error": f"admm_solve returned {type(result).__name__}, "
                         f"not (dtheta, AdmmTrace): {exc}"}


def _read_backtrack(args, result):
    try:
        _, trials, accepted = result
        return {"trials": int(trials), "accepted": bool(accepted)}
    except (TypeError, ValueError) as exc:
        return {"error": f"backtrack returned {type(result).__name__}, "
                         f"not (eta, trials, accepted): {exc}"}


def _read_fit(args, result):
    trace = getattr(result, "trace", None)
    return {"iterations": len(trace)} if isinstance(trace, list) else None


READERS = {("subsolvers", "admm_solve"): _read_admm,
           ("solvers", "backtrack"): _read_backtrack}


def signet_modules() -> dict:
    """Every signet submodule, imported, keyed by its layer name."""
    import signet
    for info in pkgutil.iter_modules(signet.__path__):
        importlib.import_module(f"signet.{info.name}")
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("signet.") and mod is not None}


def public_functions(module) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def install(tracer: Tracer) -> dict:
    """Wrap every target function wherever it is bound; returns the wrapped
    names per layer."""
    modules = signet_modules()
    originals = {}      # id(original) -> (original, wrapper)
    wrapped: dict[str, list] = {}
    for layer, module in modules.items():
        for name, fn in public_functions(module).items():
            reader = READERS.get((layer, name))
            if layer == "solvers" and reader is None:
                reader = _read_fit
            originals[id(fn)] = (fn, tracer.wrap(fn, layer, name, reader))
            wrapped.setdefault(layer, []).append(name)
    hosts = [sys.modules["signet"], *modules.values()]
    for modname, table in LINALG.items():
        module = importlib.import_module(modname)
        hosts.append(module)
        for name, kind in table.items():
            fn = getattr(module, name, None)
            if fn is None or id(fn) in originals:
                continue
            originals[id(fn)] = (fn, tracer.wrap(
                fn, "linalg", f"{kind}:{name}",
                _matrix_order if kind == "factor" else None))
            wrapped.setdefault("linalg", []).append(f"{modname}.{name}")
    for host in hosts:
        for attr, value in list(vars(host).items()):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(host, attr, entry[1])
    return wrapped


def _ms(total_s: float, count: int):
    return 1e3 * total_s / count if count else None


def layer_metrics(spans: list, wrapped: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the reason for each metric
    that is null."""
    out, reasons = {}, {}

    def dur(span):
        return span[END] - span[START]

    def parent_layer(span):
        return spans[span[PARENT]][LAYER] if span[PARENT] >= 0 else None

    def inside(span, name):
        while span[PARENT] >= 0:
            span = spans[span[PARENT]]
            if span[NAME] == name:
                return True
        return False

    def named(layer, name):
        """The spans of one function, or None and why there are none."""
        found = [s for s in spans if s[LAYER] == layer and s[NAME] == name]
        errors = [s[INFO]["error"] for s in found
                  if isinstance(s[INFO], dict) and "error" in s[INFO]]
        if name not in wrapped.get(layer, ()):
            return None, f"no public function {name} in signet.{layer}"
        if not found:
            return None, f"{layer}.{name} not called on this workload"
        if errors:
            return None, errors[0]
        return found, None

    def null(keys, why):
        out.update(dict.fromkeys(keys))
        reasons.update(dict.fromkeys(keys, why))

    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += dur(span)
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for i, span in enumerate(spans):
        # a module added to signet is a layer of its own
        calls, self_s = f"{span[LAYER]}.calls", f"{span[LAYER]}.self_s"
        out[calls] = out.get(calls, 0) + 1
        out[self_s] = out.get(self_s, 0.0) + dur(span) - child_s[i]

    # outer iterations: lengths of the traces returned by fits entered from
    # outside the solvers layer
    fits = [s for s in spans if s[LAYER] == "solvers" and parent_layer(s) != "solvers"
            and isinstance(s[INFO], dict)]
    evals = [s for s in spans if s[LAYER] == "model" and parent_layer(s) == "solvers"]
    out["model.eval_ms"] = _ms(sum(map(dur, evals)), len(evals))
    if not evals:
        reasons["model.eval_ms"] = "no model calls made from solvers"
    outer = sum(s[INFO]["iterations"] for s in fits)
    if outer:
        out["solvers.outer_iters"] = outer
        out["solvers.outer_iter_ms"] = _ms(sum(map(dur, fits)), outer)
        out["model.evals_per_iter"] = len(evals) / outer
    else:
        null(("solvers.outer_iters", "solvers.outer_iter_ms", "model.evals_per_iter"),
             "no solvers entry point returned a report with a trace list")

    ls, why = named("solvers", "backtrack")
    if ls:
        out["solvers.ls_trials"] = sum(s[INFO]["trials"] for s in ls)
        out["solvers.ls_fail_ratio"] = sum(not s[INFO]["accepted"] for s in ls) / len(ls)
    else:
        null(("solvers.ls_trials", "solvers.ls_fail_ratio"), why)

    lm, why = named("subsolvers", "lm_step")
    if lm:
        out["subsolvers.lm_ms"] = _ms(sum(map(dur, lm)), len(lm))
    else:
        null(("subsolvers.lm_ms",), why)

    admm, why = named("subsolvers", "admm_solve")
    if admm:
        iters = sum(s[INFO]["iterations"] for s in admm)
        factor_s = sum(dur(s) for s in spans if s[NAME].startswith("factor:")
                       and inside(s, "admm_solve"))
        out["subsolvers.admm_iters"] = iters
        out["subsolvers.admm_capped_ratio"] = (
            sum(not s[INFO]["converged"] for s in admm) / len(admm))
        out["subsolvers.admm_iter_ms"] = _ms(sum(map(dur, admm)) - factor_s, iters)
    else:
        null(("subsolvers.admm_iters", "subsolvers.admm_capped_ratio",
              "subsolvers.admm_iter_ms"), why)

    # outermost LAPACK calls only, so a routine that calls another public
    # one is counted once
    lapack = [s for s in spans if s[LAYER] == "linalg" and parent_layer(s) != "linalg"]
    factors = [s for s in lapack if s[NAME].startswith("factor:")]
    solves = [s for s in lapack if s[NAME].startswith("solve:")]
    chol = [s for s in factors if s[NAME].split(":")[1] in CHOLESKY and s[INFO]]
    out["linalg.factor_calls"] = len(factors)
    out["linalg.solve_calls"] = len(solves)
    out["linalg.factor_ms"] = _ms(sum(map(dur, factors)), len(factors))
    out["linalg.solve_ms"] = _ms(sum(map(dur, solves)), len(solves))
    chol_s = sum(map(dur, chol))
    # computed, not counted: n^3/3 flops per Cholesky of order n
    out["linalg.factor_gflops"] = (sum(s[INFO] ** 3 / 3.0 for s in chol) / chol_s / 1e9
                                   if chol_s > 0 else None)
    for key, what in (("linalg.factor_ms", "factorizations"),
                      ("linalg.solve_ms", "solves"),
                      ("linalg.factor_gflops", "Cholesky factorizations")):
        if out[key] is None:
            reasons[key] = f"no dense {what} on this workload"
    return out, reasons
