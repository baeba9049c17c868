"""The benchmark's hold on the library: `bench/tracing.py` looks classes,
methods and functions up by name, so a rename or deletion under `src/` that
breaks `bench/run.py --trace 1` fails here too."""

import importlib.util
import types
from pathlib import Path

import spohncurves
from spohncurves import cli, elliptic, games, geometry, polynomials

BENCH = Path(__file__).parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_library_and_changes_no_outcome():
    """With the tracer installed on the imported package, report 0 of each
    workload at seed 0 gives the outcomes it gives untraced, and uninstalling
    puts every patched attribute back."""
    tracing, workloads = _bench_module("tracing"), _bench_module("workloads")
    lib = types.SimpleNamespace(polynomials=polynomials, geometry=geometry, elliptic=elliptic,
                                games=games, cli=cli, DomainError=spohncurves.DomainError)
    reports = [(w, workloads.make_report(w, 0, 0)) for w in workloads.WORKLOADS]
    untraced = [workloads.run_report(lib, w, rep) for w, rep in reports]

    tracer = tracing.Tracer()
    tracer.install(lib)
    patched = list(tracer._undo)
    try:
        traced = [workloads.run_report(lib, w, rep) for w, rep in reports]
    finally:
        tracer.uninstall()

    assert traced == untraced
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
    names = {(owner.__name__, attr) for owner, attr, _ in patched}
    assert {("MultiPoly", "__init__"), ("PlaneCubic", "from_poly"),
            ("spohncurves.geometry", "decompose_cubic")} <= names
    assert tracer.spans and tracer.counts
