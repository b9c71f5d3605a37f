"""Every name the package exports, and every public method and property
of ResidualEval, has a caller in the program outside the module that
defines it: the library modules, the experiment scripts and the benchmark
harness. A name used only by its own module and the tests stays
importable from that module, not from `signet`; a product used only by
the tests belongs to the tests' dense-Jacobian oracles. The experiment
scripts use no private (`_`-prefixed) name of a signet module, nor does a
library module use one of another signet module, every
`signet` command is run by a script or a benchmark workload and every
flag is passed by one or by a README command, and no
library module, script or test file imports a name it never uses. One
function, `data.write_csv`, writes every CSV file, and the package reads
one, its bundled digits file. Only `model._hidden` calls `sigmoid` or
`split_params`, so the hidden-layer pass has one copy. The package
defines no exception class: bad input raises the built-in errors, which
is all a caller catches. The
declared numpy floor covers the numpy API the package uses, and the
package imports no scipy module: numpy is its one dependency."""

import argparse
import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

import pytest

import signet
from signet.cli import build_parser
from signet.model import ResidualEval

from conftest import load_module
from test_cli import _readme_cli_commands

ROOT = Path(__file__).resolve().parents[1]


def _program_files() -> list:
    return ([p for p in sorted((ROOT / "src" / "signet").glob("*.py"))
             if p.name != "__init__.py"]
            + sorted((ROOT / "scripts").glob("*.py"))
            + [p for p in sorted((ROOT / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")])


def _referenced_names(path: Path) -> set:
    """Names a file loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_exported_name_has_a_caller_outside_its_module():
    references = {path: _referenced_names(path) for path in _program_files()}
    uncalled = []
    for name in signet.__all__:
        home = ROOT / "src" / (getattr(signet, name).__module__.replace(".", "/")
                               + ".py")
        if not any(name in refs for path, refs in references.items()
                   if path != home):
            uncalled.append(name)
    assert uncalled == []


def test_every_residual_eval_method_has_a_caller_outside_model():
    home = ROOT / "src" / "signet" / "model.py"
    references = set().union(*(_referenced_names(path) for path in _program_files()
                               if path != home))
    public = [name for name, member in vars(ResidualEval).items()
              if not name.startswith("_")
              and (inspect.isfunction(member) or isinstance(member, property))]
    assert {"gram", "jtr", "jacobian", "m"} <= set(public)
    assert [name for name in public if name not in references] == []


def test_scripts_use_no_private_signet_name():
    # the experiment scripts run through the CLI's public functions
    modules = [signet, *(importlib.import_module(f"signet.{path.stem}")
                         for path in (ROOT / "src" / "signet").glob("*.py")
                         if path.name != "__init__.py")]
    private = {name for module in modules for name in vars(module)
               if name.startswith("_") and not name.endswith("__")}
    found = {path.name: sorted(_referenced_names(path) & private)
             for path in sorted((ROOT / "scripts").glob("*.py"))}
    assert {name: refs for name, refs in found.items() if refs} == {}


def _private_signet_imports(path: Path) -> list:
    """The `_`-prefixed names a library module imports from another signet
    module, or reads as an attribute of a signet module it imports."""
    modules, found = set(), []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "signet"):
            for alias in node.names:
                if node.module is None:         # from . import data as data_mod
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno}: {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_library_uses_no_private_name_of_another_module():
    # a module reaches another only through its public names, so a private
    # helper has its callers in its own module
    found = [entry for path in sorted((ROOT / "src" / "signet").glob("*.py"))
             for entry in _private_signet_imports(path)]
    assert found == []


def _script_commands(path: Path) -> set:
    """The command of each CLI argument list a script writes: the first
    item of every list literal that starts with a string."""
    return {node.elts[0].value
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.List) and node.elts
            and isinstance(node.elts[0], ast.Constant)
            and isinstance(node.elts[0].value, str)}


def test_every_command_has_a_caller():
    # a command no experiment script or benchmark workload runs is a public
    # name with no caller outside its own tests
    [subparsers] = [action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    workloads = load_module(ROOT / "perfbench" / "workloads.py",
                            "_perfbench_workloads").WORKLOADS
    run = set().union(*(_script_commands(path)
                        for path in sorted((ROOT / "scripts").glob("*.py"))),
                      {inv.argv[0] for workload in workloads.values()
                       for inv in workload.invocations})
    assert sorted(set(subparsers.choices) - run) == []


def _script_flags(path: Path) -> set:
    """The options a script passes the CLI: every string starting with "--"
    in a list literal."""
    return {elt.value
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.List) for elt in node.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            and elt.value.startswith("--")}


def test_every_flag_has_a_caller():
    # a flag that no experiment script, benchmark workload or README command
    # passes is a knob with no caller outside its own tests
    [subparsers] = [action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    flags = {option for parser in subparsers.choices.values()
             for action in parser._actions for option in action.option_strings
             if option.startswith("--") and option != "--help"}
    workloads = load_module(ROOT / "perfbench" / "workloads.py",
                            "_perfbench_workloads").WORKLOADS
    passed = set().union(*(_script_flags(path)
                           for path in sorted((ROOT / "scripts").glob("*.py"))),
                         *(inv.argv for workload in workloads.values()
                           for inv in workload.invocations),
                         *_readme_cli_commands())
    assert sorted(flags - passed) == []


def _unused_imports(path: Path) -> list:
    """Names a file imports and never loads. A name listed in the file's
    `__all__` counts as used: `signet/__init__.py` imports to re-export. An
    import whose line is marked `# noqa: F401` is kept for its side effect."""
    text = path.read_text(encoding="utf-8")
    kept = {i for i, line in enumerate(text.splitlines(), 1)
            if line.rstrip().endswith("# noqa: F401")}
    imported, used = {}, set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used and line not in kept]


def test_no_unused_imports():
    # a binding left behind by a deleted code path, such as a LAPACK routine
    # no caller uses any more, fails here
    files = (sorted((ROOT / "src" / "signet").glob("*.py"))
             + sorted((ROOT / "scripts").glob("*.py"))
             + sorted((ROOT / "tests").glob("*.py")))
    assert [entry for path in files for entry in _unused_imports(path)] == []


CSV_WRITERS = ("writer", "DictWriter", "savetxt")
CSV_READERS = ("reader", "DictReader", "loadtxt", "genfromtxt")


def _named_calls(path: Path, names: tuple) -> list:
    """(file, enclosing function) of each call in a file of a function
    named in names, however imported."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in names:
                found.append((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_one_csv_writer():
    # One reader and one writer. All result files share one format: a
    # second writer would have to copy its number format and line ends by
    # hand. The one file signet reads is the one it ships.
    files = sorted((ROOT / "src" / "signet").glob("*.py"))
    calls = {kind: [call for path in files for call in _named_calls(path, names)]
             for kind, names in (("writer", CSV_WRITERS), ("reader", CSV_READERS))}
    assert calls == {"writer": [("data.py", "write_csv")],
                     "reader": [("data.py", "load_digits_csv")]}


def test_one_hidden_layer_pass():
    # The hidden-layer pass, and J^T r formed from it, live in model.py: a
    # module that called sigmoid or split_params would hold a second copy
    # of the pass, which a speed change could let drift from the first.
    files = sorted((ROOT / "src" / "signet").glob("*.py"))
    calls = {call for path in files
             for call in _named_calls(path, ("sigmoid", "split_params"))}
    assert calls == {("model.py", "_hidden")}


def _is_exception_name(name: str) -> bool:
    builtin = getattr(builtins, name, None)
    return ((isinstance(builtin, type) and issubclass(builtin, BaseException))
            or name.endswith(("Error", "Exception", "Warning")))


def test_no_exception_classes():
    # the CLI catches ValueError; a subclass of it would be a public name
    # that no caller catches
    found = []
    for path in sorted((ROOT / "src" / "signet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    _is_exception_name(base.attr if isinstance(base, ast.Attribute)
                                       else getattr(base, "id", ""))
                    for base in node.bases):
                found.append(f"{path.name}: {node.name}")
    assert found == []


def test_declared_numpy_floor_has_the_api_used():
    # ndarray.mT (model.py) and matrix_rank's rtol (diagnostics.py) arrived
    # in numpy 2.0
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    [floor] = [re.fullmatch(r"numpy>=(\d+)[.\d]*", dep)
               for dep in project["project"]["dependencies"]
               if dep.startswith("numpy")]
    assert floor is not None and int(floor.group(1)) >= 2


def test_package_imports_no_scipy():
    # the dense kernels come from numpy's own OpenBLAS (signet/linalg.py);
    # scipy is a test dependency only, for the tests' oracles
    found = []
    for path in sorted((ROOT / "src" / "signet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []
