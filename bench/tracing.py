"""Spans and counters around the library's layers, installed from outside.

The tracer replaces module attributes and class attributes of the five
package modules with wrappers for the length of a traced phase.  Callers
look those names up at call time (`geometry.build_cubic`, `PlaneCubic.
from_poly`, `MultiPoly.__mul__` through the operator), so intra-module and
cross-module calls are both caught.  Nothing under `src/` changes.

What is wrapped:
- every public function defined in `geometry`, `elliptic`, `games` and
  `cli`, with a span;
- `MultiPoly.restrict_to_line`, `divide_by_linear` and `substitute_matrix`
  and `PlaneCubic.from_poly`, with a span;
- `MultiPoly.__init__`, `evaluate` and `__mul__`/`__rmul__`, with a counter
  only: they run thousands of times per report, so a span each would cost
  more than the work it measures.
The public functions of `polynomials` are left alone: the workloads never
call `contfrac_approx`, and the other modules bind the scalar helpers (`rat`,
`rat_str`, `cross_product`, `is_rational_*`) by name at import, so a
module-attribute wrapper would not see those calls.

A span is (name, start, end, parent index, report id).  Spans stay in memory
and are written out by `write_spans` when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time

SPANNED_METHODS = ("restrict_to_line", "divide_by_linear", "substitute_matrix")
COUNTED_METHODS = (("__init__", "polynomials.MultiPoly.init"),
                   ("evaluate", "polynomials.evaluate"),
                   ("__mul__", "polynomials.mul"),
                   ("__rmul__", "polynomials.mul"))
SPANNED_MODULES = ("geometry", "elliptic", "games", "cli")
NASH = ("games.pure_nash", "games.totally_mixed_nash", "games.is_nash")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.stack = []
        self.report = -1
        self.outcome = {"components.line": 0, "components.conic": 0,
                        "points_null": 0, "j_bits": 0,
                        "lines_drawn": 0, "points_returned": 0}
        self._undo = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.report)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return traced

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- outcome hooks -----------------------------------------------------------

    def _on_decompose(self, args, kwargs, verdict):
        for comp in verdict.components:
            self.outcome[f"components.{comp.kind}"] += 1
            if comp.point is None:
                self.outcome["points_null"] += 1

    def _on_j(self, args, kwargs, jres):
        if jres.value is not None:
            bits = jres.value.numerator.bit_length() + jres.value.denominator.bit_length()
            self.outcome["j_bits"] = max(self.outcome["j_bits"], bits)

    def _on_sample(self, args, kwargs, points):
        self.outcome["lines_drawn"] += args[1] if len(args) > 1 else kwargs["count"]
        self.outcome["points_returned"] += len(points)

    # -- install / uninstall -----------------------------------------------------

    def install(self, lib):
        poly = lib.polynomials.MultiPoly
        for attr in SPANNED_METHODS:
            self._patch(poly, attr, self._span(f"polynomials.{attr}", getattr(poly, attr)))
        for attr, name in COUNTED_METHODS:
            self._patch(poly, attr, self._counter(name, poly.__dict__[attr]))
        plane = lib.elliptic.PlaneCubic
        self._patch(plane, "from_poly", classmethod(self._span(
            "elliptic.PlaneCubic.from_poly", plane.__dict__["from_poly"].__func__)))
        hooks = {"geometry.decompose_cubic": self._on_decompose,
                 "elliptic.j_invariant": self._on_j,
                 "games.sample_curve_points": self._on_sample}
        for modname in SPANNED_MODULES:
            mod = getattr(lib, modname)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{modname}.{attr}"
                self._patch(mod, attr, self._span(name, fn, hooks.get(name)))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- aggregation -------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: [calls, self seconds].  Self time is a span's
        duration minus that of its direct children."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += 1
            rec[1] += (t1 - t0) - child[i]
        return out

    def summed(self, *names) -> float:
        """Summed seconds of the outermost spans of any of `names`, so a call
        nested in another of them is not counted twice."""
        spans, names = self.spans, set(names)
        total = 0.0
        for name, t0, t1, parent, _ in spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += t1 - t0
        return total


def write_spans(path, phases):
    """Write every phase's spans as JSON lines: phase, name, start, end,
    parent index, report id."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, tracer in phases:
            for name, t0, t1, parent, report in tracer.spans:
                fh.write(json.dumps([phase, name, t0, t1, parent, report]) + "\n")


def layer_metrics(rep_tracer, reports, cli_tracer, cli_calls) -> dict:
    """Per-layer figures: library layers per report, CLI layer per call."""
    tot = rep_tracer.totals()
    cnt = rep_tracer.counts
    out = rep_tracer.outcome
    per = 1.0 / max(reports, 1)

    def calls(name):
        return tot.get(name, (0, 0.0))[0] * per

    def ms(name):
        return rep_tracer.summed(name) * 1e3 * per

    def self_ms(name):
        return tot.get(name, (0, 0.0))[1] * 1e3 * per

    restricts = tot.get("polynomials.restrict_to_line", (0,))[0]
    divisions = tot.get("polynomials.divide_by_linear", (0,))[0]
    m = {
        "polynomials.MultiPoly.init.count": cnt.get("polynomials.MultiPoly.init", 0) * per,
        "polynomials.restrict_to_line.count": calls("polynomials.restrict_to_line"),
        "polynomials.restrict_to_line.ms": ms("polynomials.restrict_to_line"),
        "polynomials.divide_by_linear.count": calls("polynomials.divide_by_linear"),
        "polynomials.divide_by_linear.ms": ms("polynomials.divide_by_linear"),
        "polynomials.substitute_matrix.count": calls("polynomials.substitute_matrix"),
        "polynomials.substitute_matrix.ms": ms("polynomials.substitute_matrix"),
        "polynomials.evaluate.count": cnt.get("polynomials.evaluate", 0) * per,
        "polynomials.mul.count": cnt.get("polynomials.mul", 0) * per,
        "geometry.build_cubic.ms": ms("geometry.build_cubic"),
        "geometry.classify_cases.ms": ms("geometry.classify_cases"),
        "geometry.decompose_cubic.self_ms": self_ms("geometry.decompose_cubic"),
        "geometry.line_test.hit_ratio": divisions / restricts if restricts else 0.0,
        "geometry.smooth_rational_point.count": calls("geometry.smooth_rational_point"),
        "geometry.smooth_rational_point.ms": ms("geometry.smooth_rational_point"),
        "geometry.components.line.count": out["components.line"] * per,
        "geometry.components.conic.count": out["components.conic"] * per,
        "geometry.points_null.count": out["points_null"] * per,
        "elliptic.PlaneCubic.from_poly.ms": ms("elliptic.PlaneCubic.from_poly"),
        "elliptic.aronhold.count": calls("elliptic.aronhold"),
        "elliptic.aronhold.ms": ms("elliptic.aronhold"),
        "elliptic.j_invariant.self_ms": self_ms("elliptic.j_invariant"),
        "elliptic.weierstrass_from_cubic.count": calls("elliptic.weierstrass_from_cubic"),
        "elliptic.weierstrass_from_cubic.ms": ms("elliptic.weierstrass_from_cubic"),
        "elliptic.cubic_from_quadrics.ms": ms("elliptic.cubic_from_quadrics"),
        "elliptic.q_isomorphic.ms": ms("elliptic.q_isomorphic"),
        "elliptic.game_equivalence.self_ms": self_ms("elliptic.game_equivalence"),
        "elliptic.j_bits.max": out["j_bits"],
        "games.sample_curve_points.count": calls("games.sample_curve_points"),
        "games.sample_curve_points.ms": ms("games.sample_curve_points"),
        "games.sampler.yield_ratio": (out["points_returned"] / out["lines_drawn"]
                                      if out["lines_drawn"] else 0.0),
        "games.pareto_sweep.self_ms": self_ms("games.pareto_sweep"),
        "games.ne_witness_sequence.ms": ms("games.ne_witness_sequence"),
        "games.cooperation_witness.ms": ms("games.cooperation_witness"),
        "games.nash.ms": rep_tracer.summed(*NASH) * 1e3 * per,
    }
    ctot = cli_tracer.totals()
    cper = 1e3 / max(cli_calls, 1)
    m["cli.build_parser.ms"] = cli_tracer.summed("cli.build_parser") * cper
    m["cli.run.self_ms"] = ctot.get("cli.run", (0, 0.0))[1] * cper
    return m
