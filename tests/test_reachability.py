"""Every function under `src/spohncurves/` is reached by a subcommand or a
benchmark step, so the library keeps no API that only the tests call.

The run is every golden CLI call (`golden_cli.golden_calls`), one call past
the int-to-str digit limit, and the first reports of each benchmark
workload, through `bench/workloads.run_report` and the CLI calls of
`cli_calls`, all in this process under `sys.setprofile`.  Each function,
method and `property` lambda the package defines must be entered, except
the names in `UNREACHED`, each with its reason.  Needs only the standard
library and pytest.
"""

import ast
import contextlib
import importlib.util
import io
import os
import sys
import types
from pathlib import Path

import spohncurves
from spohncurves import cli, elliptic, games, geometry, polynomials
from golden_cli import golden_calls

BENCH = Path(__file__).parent.parent / "bench"
PACKAGE = Path(spohncurves.__file__).resolve().parent
REPORTS = 16  # per workload: case-games cycles through 12 cases and 4 zero conditions

# A payoff of 400 digits gives j more digits than Python prints from an int.
DIGIT_LIMIT_CALL = ["j", "--game", '{"A": [["1e400", 0], [1, 2]], "B": [[1, 0], [3, 2]]}']

_MULTIPOLY = ("the generic polynomial class: bench/tracing.py patches seven of its "
              "methods by name and the tests use its algebra as their reference; it "
              "leaves the library with ROADMAP item 14, after items 21 and 13")
_REPR = "a debugging view: no subcommand prints a repr"
UNREACHED = {
    "polynomials.MultiPoly": _MULTIPOLY,
    "geometry.CurveComponent.poly": "the MultiPoly view that the README's library "
                                    "example prints",
    "elliptic.WeierstrassCurve.__repr__": "the certification AssertionError prints it",
    "games.PayoffTables.__repr__": _REPR,
    "games.JointDistribution.__repr__": _REPR,
    "geometry.CurveComponent.__repr__": _REPR,
    "cli.main": "the console script: it runs cli.run and exits the process, and "
                "the calls here run cli.run itself",
}


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def defined_functions() -> dict:
    """(file, first line of its code) -> dotted name, for every function,
    method and `property` lambda under the package.  A decorated function's
    code starts at its first decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, line] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            elif (isinstance(child, ast.Assign) and isinstance(child.value, ast.Call)
                  and getattr(child.value.func, "id", None) == "property"):
                for sub in ast.walk(child.value):
                    if isinstance(sub, ast.Lambda):
                        found[path, sub.lineno] = prefix + child.targets[0].id
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem + ".")
    return found


def entered_code() -> set:
    """(file, first line) of every code object entered by the run."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    workloads = _bench_module("workloads")
    lib = types.SimpleNamespace(polynomials=polynomials, geometry=geometry, elliptic=elliptic,
                                games=games, cli=cli, DomainError=spohncurves.DomainError)
    argvs = [argv for argv, *_ in golden_calls()] + [DIGIT_LIMIT_CALL]
    cli.build_parser.cache_clear()  # an earlier test may have built the parser
    sys.setprofile(profile)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.run(argv)
        for workload in workloads.WORKLOADS:
            for i in range(REPORTS):
                rep = workloads.make_report(workload, 0, i)
                workloads.run_report(lib, workload, rep)
                for _, argv in workloads.cli_calls(workload, rep):
                    workloads.run_cli(lib, argv)
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(f), line) for f, line in entered}


def _under(name: str, key: str) -> bool:
    return name == key or name.startswith(key + ".")


def _allowed(name: str) -> bool:
    return any(_under(name, key) for key in UNREACHED)


def test_every_library_function_is_reached():
    defined = defined_functions()
    stale = [key for key in UNREACHED if not any(_under(name, key) for name in defined.values())]
    assert stale == [], "allowlisted but no longer defined"
    entered = entered_code()
    missed = sorted(name for key, name in defined.items()
                    if key not in entered and not _allowed(name))
    assert missed == [], "defined under src/spohncurves/ but reached by no call: " + \
        ", ".join(missed)
