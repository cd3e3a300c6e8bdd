"""Each command starts with only the modules it runs.

Every test runs in a fresh interpreter, since ``sys.modules`` in the test
process already holds every layer.  Only the Monte Carlo simulations need
numpy, and each CLI handler imports its library layers when it runs, so
an exact command loads neither numpy nor the layers it does not use.
Without cached bytecode each module loaded is compiled from source at
every start, which makes this the larger part of a small command's time.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "betawalk"
LAYERS = ("catalog", "exact", "moments", "numeric", "walks")


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter; return what it prints, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


LOADED_AFTER = """
import contextlib, io, json, sys
from betawalk import cli

argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith("betawalk"))))
"""


def loaded_after(*argv):
    """The betawalk modules loaded by importing the CLI and running argv."""
    return set(run_fresh(LOADED_AFTER, json.dumps(argv)))


def test_importing_the_cli_loads_only_the_parser_constants():
    assert loaded_after() == {"betawalk", "betawalk.cli", "betawalk.render"}


def test_path_count_loads_no_moment_catalog_or_float_layer():
    loaded = loaded_after("compute", "path-count", "--dim", "3", "--steps", "4")
    assert "betawalk.walks" in loaded
    assert not loaded & {"betawalk.moments", "betawalk.catalog",
                         "betawalk.numeric"}


def test_exact_verify_master_loads_no_float_walk_or_catalog_layer():
    loaded = loaded_after("verify", "master", "--n", "1..3", "--coeffs", "1,2",
                          "--p", "1/2", "--threads", "1")
    assert "betawalk.moments" in loaded
    assert not loaded & {"betawalk.numeric", "betawalk.walks",
                         "betawalk.catalog"}


def test_float_verify_master_loads_the_exact_layers_alone():
    # float mode runs the exact engine; the series layer stays unloaded
    loaded = loaded_after("verify", "master", "--n", "2", "--coeffs", "1,2",
                          "--p", "0.7", "--mode", "float", "--threads", "1")
    assert {"betawalk.moments", "betawalk.exact"} <= loaded
    assert not loaded & {"betawalk.numeric", "betawalk.walks",
                         "betawalk.catalog"}


def test_series_loads_numeric_but_no_moment_layer():
    loaded = loaded_after("series", "--n", "0", "--variant", "printed",
                          "--max-terms", "10")
    assert "betawalk.numeric" in loaded
    assert not loaded & {"betawalk.moments", "betawalk.exact",
                         "betawalk.walks"}


PUBLIC_NAMES = """
import importlib, json, sys
import betawalk

report = {"import": sorted(m for m in sys.modules if m.startswith("betawalk")),
          "dir": dir(betawalk), "all": betawalk.__all__,
          "walks_is_module": betawalk.walks is sys.modules["betawalk.walks"]}
layers = {name: importlib.import_module(f"betawalk.{name}")
          for name in json.loads(sys.argv[1])}
report["owners"] = {
    name: [layer for layer, mod in layers.items()
           if name in mod.__all__ and getattr(mod, name) is getattr(betawalk, name)]
    for name in betawalk.__all__}
from betawalk import path_count, CATALOG
report["from_import"] = (path_count is layers["walks"].path_count
                         and CATALOG is layers["catalog"].CATALOG)
print(json.dumps(report))
"""


def test_public_names_resolve_to_their_submodule_objects():
    report = run_fresh(PUBLIC_NAMES, json.dumps(LAYERS))
    assert report["import"] == ["betawalk"]
    assert len(report["all"]) == len(set(report["all"])) == 23
    assert set(report["all"]) <= set(report["dir"])
    assert set(LAYERS) <= set(report["dir"])
    # each exported name is the very object its one home module exports
    assert all(len(owners) == 1 for owners in report["owners"].values()), \
        report["owners"]
    assert report["walks_is_module"]
    assert report["from_import"]


NUMPY_LOADED = """
import contextlib, io, json, sys

def loaded():
    return [m for m in ("numpy", "concurrent.futures") if m in sys.modules]

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)

import betawalk
from betawalk import cli

report = {"import": loaded()}
for argv in (
    ["verify", "master", "--n", "1..3", "--coeffs", "1,2", "--p", "1/2",
     "--threads", "1"],
    ["verify", "master", "--n", "2", "--coeffs", "1,2", "--p", "0.7",
     "--mode", "float", "--threads", "1"],
    ["compute", "path-count", "--dim", "3", "--steps", "4"],
    ["oracle", "--dim", "2", "--steps", "4"],
    ["catalog", "verify", "all"],
):
    assert run(argv) == 0, argv
report["exact"] = loaded()
run(["simulate", "walk", "--dim", "1", "--n", "1", "--trials", "1000",
     "--seed", "1", "--threads", "1"])
report["simulate"] = loaded()
print(json.dumps(report))
"""


def test_exact_commands_do_not_load_numpy():
    report = run_fresh(NUMPY_LOADED)
    assert report["import"] == []
    assert report["exact"] == []
    assert "numpy" in report["simulate"]


LEFT_BEHIND = """
import atexit, contextlib, io, json, sys, threading

hooks = atexit._ncallbacks()
from betawalk import cli

report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    report.append([code, atexit._ncallbacks() - hooks,
                   threading.enumerate() == [threading.main_thread()],
                   [m for m in ("concurrent.futures", "logging")
                    if m in sys.modules]])
print(json.dumps(report))
"""

# every command kind; each simulation at one and two threads, over three
# blocks of trials so that a helper thread draws some
EVERY_COMMAND = [
    ["verify", "master", "--n", "1..3", "--coeffs", "1,2", "--p", "1/2"],
    ["verify", "master", "--n", "2", "--coeffs", "1,2", "--p", "0.7",
     "--mode", "float"],
    ["verify", "equal-coeff", "--n", "1..2", "--k", "1..2", "--p", "1/2"],
    ["compute", "return-prob", "--dim", "2", "--steps", "10"],
    ["compute", "path-count", "--dim", "3", "--steps", "4"],
    ["compute", "moment", "--n", "3", "--p", "1"],
    ["oracle", "--dim", "2", "--steps", "4"],
    ["catalog", "list"],
    ["catalog", "verify", "all"],
    ["series", "--n", "0", "--variant", "printed", "--max-terms", "10"],
    *(["simulate", kind, "--dim", "3", "--n", "10", "--trials", "40000",
       "--seed", "1", "--threads", threads]
      for kind in ("walk", "beta") for threads in ("1", "2")),
]


def test_no_command_leaves_an_exit_hook_a_thread_or_a_pool():
    # entry_point ends the process with os._exit once the output is
    # flushed, so a command must leave nothing that teardown would finish
    report = run_fresh(LEFT_BEHIND, json.dumps(EVERY_COMMAND))
    assert report == [[0, 0, True, []]] * len(EVERY_COMMAND)


STDLIB_LOADED = """
import contextlib, io, json, sys
from betawalk import cli

with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(json.loads(sys.argv[1])) == 0
print(json.dumps(sorted(m for m in ("dataclasses", "inspect", "betawalk.exact")
                        if m in sys.modules)))
"""

EXACT_MASTER = ["verify", "master", "--n", "1..6", "--coeffs", "1,2,3",
                "--p", "1/2", "--threads", "1"]
PATH_COUNT = ["compute", "path-count", "--dim", "3", "--steps", "4"]
ORACLE = ["oracle", "--dim", "2", "--steps", "4"]
FLOAT_MASTER = ["verify", "master", "--n", "2", "--coeffs", "1.5,2",
                "--p", "0.7", "--mode", "float", "--threads", "1"]
CATALOG_ALL = ["catalog", "verify", "all"]


def stdlib_loaded_after(argv):
    return run_fresh(STDLIB_LOADED, json.dumps(argv))


def test_library_commands_load_no_dataclasses_or_inspect():
    # the records are NamedTuples; of these modules only numpy, in a
    # simulation, still loads inspect
    for argv in (EXACT_MASTER, FLOAT_MASTER, CATALOG_ALL):
        assert stdlib_loaded_after(argv) == ["betawalk.exact"], argv


def test_walk_commands_load_no_exact_layer():
    # walks takes binomials from math.comb
    for argv in (PATH_COUNT, ORACLE):
        assert stdlib_loaded_after(argv) == [], argv


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_no_module_imports_what_the_fast_exit_would_skip():
    # os._exit runs no atexit hook, flushes no logging handler and joins
    # no concurrent.futures worker, so the package imports none of them
    skipped = {"atexit", "logging", "concurrent"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.stem}: {name}" for name in names
                      if name.partition(".")[0] in skipped]
    assert found == []


def test_the_package_defines_one_exception_class():
    # every refused input is a render.InputError, so the CLI catches one
    # type; no module keeps a second error type for the same job
    errors = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base).endswith(("Error", "Exception"))
                    for base in node.bases):
                errors.append(f"{path.stem}.{node.name}")
    assert errors == ["render.InputError"]


def test_the_cli_imports_no_private_library_name_but_the_precheck():
    # the library owns every rule; the CLI reaches past a module's public
    # names only to ask a budget before it builds k unit weights
    private = set()
    for node in ast.walk(parsed(PACKAGE / "cli.py")):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            private.update(f"{node.module}.{alias.name}"
                           for alias in node.names
                           if alias.name.startswith("_"))
    assert private == {"moments._check_lengths"}


def _bound(node):
    """The names an import statement binds."""
    return [alias.asname or alias.name.partition(".")[0]
            for alias in node.names]


def _defined(node):
    """The names a module-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_no_module_keeps_an_unused_import_or_an_unnamed_definition():
    # a name bound at module level must be used: an import by its own
    # module, a function, class or constant by some module of the package
    # (or listed in its module's __all__)
    modules = {path.stem: parsed(path)
               for path in sorted(PACKAGE.glob("*.py"))}
    named = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level:
                named.update(alias.name for alias in node.names)
    unused, unnamed = [], []
    for stem, tree in modules.items():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        exported = {const.value for node in tree.body
                    if "__all__" in _defined(node)
                    for const in ast.walk(node.value)
                    if isinstance(const, ast.Constant)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    unused += [f"{stem}.{name}" for name in _bound(node)
                               if name not in used]
                continue
            unnamed += [f"{stem}.{name}" for name in _defined(node)
                        if not (name.startswith("__") and name.endswith("__"))
                        and name not in named and name not in exported]
    assert unused == []
    assert unnamed == []


def test_every_export_and_class_attribute_is_read_by_program_code():
    # a name in a module's __all__, or an attribute a module sets on a
    # class, is public surface; the export lists hold names as strings,
    # so each must also be read as a name or an attribute somewhere in
    # the package
    modules = {path.stem: parsed(path)
               for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    surface = []
    for stem, tree in modules.items():
        for node in tree.body:
            if "__all__" in _defined(node):
                surface += [(stem, const.value)
                            for const in ast.walk(node.value)
                            if isinstance(const, ast.Constant)]
            elif isinstance(node, ast.Assign):
                surface += [(stem, target.attr) for target in node.targets
                            if isinstance(target, ast.Attribute)]
    assert surface
    assert [f"{stem}.{name}" for stem, name in surface
            if name not in read] == []
