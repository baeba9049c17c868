"""Benchmark of spohncurves' exact game reports.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process as a closed loop: one caller, no threads,
the next call starts when the previous one has returned.  A workload is a
pool of POOL_SIZES[workload] reports generated from (workload, seed, index),
run round after round for S seconds; the first round always completes.

Times are reference seconds (see clock.py): each measured call's wall time,
scaled by how fast the machine ran a fixed stdlib kernel right before and
after it, to the speed at which that kernel takes K_REF_S.  A report's time
is the median over its repetitions.

With --trace 0 the run measures the end-to-end metrics.  Each round runs
every report through the library and, for the first CLI_REPORTS, its
CLI subcommands through in-process `cli.run`.  Percentiles are Harrell-Davis
estimates (see `hd_quantile`).  Between rounds, off the clock and spread over
the run, fresh child interpreters that set up (`setup_probe.py`) are timed
from start to exit until SETUP_RUNS are done.

With --trace 1 it measures the per-layer metrics instead: import timings in
child interpreters, then untraced and traced library rounds in turn while
another pair fits into 80% of S (at least one pair), then traced CLI rounds
for the rest of S (at least one).  Traced rounds are whole, so counts
per report are exact.  Span times are wall time, not scaled.  The spans are
written to bench/out/.

Every output is checked (see `workloads.check_report`), CLI bytes must equal
the library route's bytes, every repetition of a report must repeat its bytes,
and the exact outputs of the pool must match the digest recorded in
bench/reference.json when the seed is recorded there.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
Operations are library steps and CLI calls.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from clock import K_REF_S, Clock, kernel_seconds  # noqa: E402
import workloads as wl  # noqa: E402

# Reports per pool.  At 320 the per-seed spread of the pool's median report
# is 2-5%, and a round fits ~3 times into a run; random-games needs 480, as
# its median falls where reducible and irreducible games' times overlap
# thinly and moved by 9% between seeds at 320.
POOL_SIZES = {"random-games": 480, "case-games": 320, "equivalence": 320, "numeric": 320}
# reports whose CLI calls are timed and compared with the library route
CLI_REPORTS = 160
SETUP_RUNS = 7
SETUP_KERNEL_RUNS = 25
IMPORT_RUNS = 5
CHILD_TIMEOUT_S = 60
MAX_ERRORS_SHOWN = 5

END_TO_END = {
    "setup_s": "s",
    "reports_per_s": "1/s",
    "report_ms_p50": "ms",
    "report_ms_tail": "ms",
    "cli_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "polynomials.MultiPoly.init.count": "calls/report",
    "polynomials.restrict_to_line.count": "calls/report",
    "polynomials.restrict_to_line.ms": "ms/report",
    "polynomials.divide_by_linear.count": "calls/report",
    "polynomials.divide_by_linear.ms": "ms/report",
    "polynomials.substitute_matrix.count": "calls/report",
    "polynomials.substitute_matrix.ms": "ms/report",
    "polynomials.evaluate.count": "calls/report",
    "polynomials.mul.count": "calls/report",
    "geometry.build_cubic.ms": "ms/report",
    "geometry.classify_cases.ms": "ms/report",
    "geometry.decompose_cubic.self_ms": "ms/report",
    "geometry.line_test.hit_ratio": "ratio",
    "geometry.smooth_rational_point.count": "calls/report",
    "geometry.smooth_rational_point.ms": "ms/report",
    "geometry.components.line.count": "count/report",
    "geometry.components.conic.count": "count/report",
    "geometry.points_null.count": "count/report",
    "elliptic.PlaneCubic.from_poly.ms": "ms/report",
    "elliptic.aronhold.count": "calls/report",
    "elliptic.aronhold.ms": "ms/report",
    "elliptic.j_invariant.self_ms": "ms/report",
    "elliptic.weierstrass_from_cubic.count": "calls/report",
    "elliptic.weierstrass_from_cubic.ms": "ms/report",
    "elliptic.cubic_from_quadrics.ms": "ms/report",
    "elliptic.q_isomorphic.ms": "ms/report",
    "elliptic.game_equivalence.self_ms": "ms/report",
    "elliptic.j_bits.max": "bits",
    "games.sample_curve_points.count": "calls/report",
    "games.sample_curve_points.ms": "ms/report",
    "games.sampler.yield_ratio": "ratio",
    "games.pareto_sweep.self_ms": "ms/report",
    "games.ne_witness_sequence.ms": "ms/report",
    "games.cooperation_witness.ms": "ms/report",
    "games.nash.ms": "ms/report",
    "cli.build_parser.ms": "ms/call",
    "cli.run.self_ms": "ms/call",
    "cli.import_ms.cached": "ms",
    "cli.import_ms.uncached": "ms",
    "trace.overhead": "ratio",
}


# ---------------------------------------------------------------------------
# set-up and import timings in child interpreters
# ---------------------------------------------------------------------------

def _probe(args, env) -> float:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["seconds"]


def _uncached_env() -> dict:
    """As in a sandbox with PYTHONDONTWRITEBYTECODE=1: spohncurves is
    compiled on every start, installed packages use their own caches."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def setup_seconds(workload, seed) -> float:
    """Set-up time of a fresh interpreter, from its start to its exit, in
    reference seconds: scaled by the calibration kernel's median time in
    bursts right before and right after it."""
    before = kernel_seconds(SETUP_KERNEL_RUNS)
    t0 = time.perf_counter()
    _probe(["setup", workload, str(seed)], _uncached_env())
    wall = time.perf_counter() - t0
    after = kernel_seconds(SETUP_KERNEL_RUNS)
    return wall * 2 * K_REF_S / (before + after)


def import_seconds() -> tuple:
    """(uncached, cached) import times; the cached ones read bytecode that a
    first run wrote under a temporary PYTHONPYCACHEPREFIX in bench/out/."""
    uncached = [_probe(["import"], _uncached_env()) for _ in range(IMPORT_RUNS)]
    prefix = os.path.join(OUT_DIR, f"pycache-{os.getpid()}")
    env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        _probe(["import"], env)
        cached = [_probe(["import"], env) for _ in range(IMPORT_RUNS)]
    finally:
        shutil.rmtree(prefix, ignore_errors=True)
    return uncached, cached


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Runner:
    """A workload's pool of reports, run round after round.

    Every library run of a report and every CLI run of its calls adds one
    sample in reference seconds (see clock.py); a report's time is the median
    of its samples.  The first execution of a report is checked; every later
    one must repeat its bytes.
    """

    def __init__(self, lib, workload, seed):
        self.lib, self.workload = lib, workload
        self.pool = [wl.make_report(workload, seed, i) for i in range(POOL_SIZES[workload])]
        self.cli_reports = CLI_REPORTS
        self.outcomes = [None] * len(self.pool)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.cli_calls = 0
        self.clock = Clock()

    def fail(self, i, messages):
        self.failed += len(messages)
        self.errors.extend(f"report {i}: {m}" for m in messages)

    def run_library(self, i) -> float:
        """Report i through the library; its wall time in seconds.  Checking
        happens after the clock stops."""
        rep = self.pool[i]
        t0 = time.perf_counter()
        try:
            outs = wl.run_report(self.lib, self.workload, rep)
        except Exception as exc:  # a traceback: count it and keep measuring
            dt = time.perf_counter() - t0
            self.attempted += 1
            self.fail(i, [f"raised {type(exc).__name__}: {exc}"])
            return dt
        dt = time.perf_counter() - t0
        self.attempted += len(outs)
        if self.outcomes[i] is None:
            self.outcomes[i] = outs
            self.fail(i, wl.check_report(self.workload, rep, outs)[:len(outs)])
        elif self.outcomes[i] != outs:
            self.fail(i, ["outputs differ from an earlier run of the same report"])
        return dt

    def run_cli(self, i) -> list:
        """Report i's CLI subcommands through in-process `cli.run`; the wall
        time of each call.  Output must equal the library route's bytes."""
        expected = {step: (code, text) for step, code, text in self.outcomes[i] or ()}
        calls = wl.cli_calls(self.workload, self.pool[i])
        times = []
        self.cli_calls += len(calls)
        for step, argv in calls:
            t0 = time.perf_counter()
            try:
                code, out, err = wl.run_cli(self.lib, argv)
            except Exception as exc:  # a traceback
                times.append(time.perf_counter() - t0)
                self.attempted += 1
                self.fail(i, [f"cli {step} raised {type(exc).__name__}: {exc}"])
                continue
            times.append(time.perf_counter() - t0)
            self.attempted += 1
            got = (code, out if code == 0 else err, err if code == 0 else out)
            if code not in (0, 1, 2) or got != (*expected.get(step, ()), ""):
                self.fail(i, [f"cli {step}: exit {code}, output differs from the library route"])
        return times

    def rounds(self, seconds, library=True, cli=True, tracer=None, between=None):
        """Run the pool round after round for `seconds`; `seconds=0` runs
        exactly one round.

        The first round always completes.  `between()` runs after each round,
        off the clock.  Returns each report's library samples, each report's
        CLI samples (one list per call), and the number of reports run.
        """
        n = len(self.pool)
        lib_samples = [[] for _ in range(n)] if library else []
        cli_samples = [[] for _ in range(self.cli_reports)] if cli else []
        clock = self.clock
        clock.pause()
        end = time.perf_counter() + seconds
        done = 0
        while True:
            for i in range(n):
                if done >= n and time.perf_counter() >= end:
                    return lib_samples, cli_samples, done
                if tracer is not None:
                    tracer.report = i
                if library:
                    clock.start()
                    lib_samples[i].append(clock.scale(self.run_library(i)))
                if cli and i < self.cli_reports:
                    clock.start()
                    cli_samples[i].append(clock.scale(self.run_cli(i)))
                done += 1
            if between is not None:
                t0 = time.perf_counter()
                between()
                end += time.perf_counter() - t0
                clock.pause()
            if time.perf_counter() >= end:
                return lib_samples, cli_samples, done

    def digest(self) -> str:
        """sha256 of the exact outputs of the whole pool."""
        h = hashlib.sha256()
        for i, outs in enumerate(self.outcomes):
            if outs is None:
                self.run_library(i)
                outs = self.outcomes[i] or ()
            for step, code, text in outs:
                view = wl.exact_view(self.workload, step, code, text)
                h.update(f"{i}\t{step}\t{code}\t{view}\n".encode())
        return h.hexdigest()


def report_seconds(samples) -> list:
    """Each report's time: the median of its samples."""
    return [statistics.median(xs) for xs in samples if xs]


def call_seconds(samples) -> list:
    """Each CLI call's time: the median of its samples."""
    return [statistics.median(xs) for calls in samples if calls for xs in zip(*calls)]


def hd_quantile(values, p) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density over their
    ranks.

    Report times are multimodal (reducible and irreducible cubics cost
    differently), and a single order statistic jumps from one mode to the
    next as a seed shifts their shares; this estimate moves smoothly instead.
    """
    s = sorted(values)
    n = len(s)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # the density integrated over each rank's interval by the midpoint rule
    weights = [sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
                   for x in ((i + (j + 0.5) / 8) / n for j in range(8)))
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, s)) / sum(weights)


def tail_percentile(n) -> float:
    """The highest percentile with at least ten of n samples beyond it."""
    return (n - 10) / n


def recorded_digest(workload, seed):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib = wl.load_library(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    S = args.seconds
    runner = Runner(lib, args.workload, args.seed)
    n, m = len(runner.pool), runner.cli_reports
    metrics = {}
    lines = [f"workload={args.workload} seed={args.seed} seconds={S:g} trace={args.trace} "
             f"pool={n} reports, CLI on the first {m}"]

    if args.trace == 0:
        setup = []
        due = [time.perf_counter()]

        def probe_setup():
            # spread the probes over the run, like the repetitions
            if len(setup) < SETUP_RUNS and time.perf_counter() >= due[0]:
                setup.append(setup_seconds(args.workload, args.seed))
                due[0] += S / SETUP_RUNS

        wl.warm_up(lib, args.workload, args.seed)
        lib_samples, cli_samples, done = runner.rounds(S, between=probe_setup)
        while len(setup) < SETUP_RUNS:
            setup.append(setup_seconds(args.workload, args.seed))
        reports, calls = report_seconds(lib_samples), call_seconds(cli_samples)
        tail_p = tail_percentile(len(reports))
        metrics["setup_s"] = statistics.median(setup)
        metrics["reports_per_s"] = len(reports) / sum(reports)
        metrics["report_ms_p50"] = hd_quantile(reports, 0.5) * 1e3
        metrics["report_ms_tail"] = hd_quantile(reports, tail_p) * 1e3
        metrics["cli_ms_p50"] = hd_quantile(calls, 0.5) * 1e3
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        kernel_ms = statistics.median(runner.clock.kernels) * 1e3
        lines.append(f"rounds={done / n:.2f}; Harrell-Davis estimates over {len(reports)} "
                     f"reports and {len(calls)} CLI calls; report_ms_tail is "
                     f"p{100 * tail_p:.2f}; setup_s is the median of {len(setup)} fresh "
                     f"interpreters, start to exit")
        lines.append(f"reference speed: kernel {K_REF_S * 1e3:g} ms; here its median was "
                     f"{kernel_ms:.4f} ms, so wall times were ~{kernel_ms / (K_REF_S * 1e3):.3f}x "
                     f"the reference times")
        units = END_TO_END
    else:
        uncached, cached = import_seconds()
        wl.warm_up(lib, args.workload, args.seed)
        # untraced and traced library rounds alternate, so the overhead
        # compares the same reports under the same drift of machine speed
        plain, traced = [[] for _ in range(n)], [[] for _ in range(n)]
        rep_tracer, cli_tracer = tracing.Tracer(), tracing.Tracer()
        traced_reports = 0
        start = time.perf_counter()
        end = start + 0.8 * S
        while True:
            samples, _, _ = runner.rounds(0, cli=False)
            for xs, more in zip(plain, samples):
                xs.extend(more)
            rep_tracer.install(lib)
            try:
                samples, _, done = runner.rounds(0, cli=False, tracer=rep_tracer)
            finally:
                rep_tracer.uninstall()
            for xs, more in zip(traced, samples):
                xs.extend(more)
            traced_reports += done
            # stop unless another pair of rounds fits before the end
            now = time.perf_counter()
            if now + (now - start) * n / traced_reports >= end:
                break
        calls_before = runner.cli_calls
        end = start + S
        cli_tracer.install(lib)
        try:
            while True:
                runner.rounds(0, library=False, tracer=cli_tracer)
                if time.perf_counter() >= end:
                    break
        finally:
            cli_tracer.uninstall()
        cli_calls = runner.cli_calls - calls_before
        metrics.update(tracing.layer_metrics(rep_tracer, traced_reports, cli_tracer, cli_calls))
        metrics["cli.import_ms.uncached"] = statistics.median(uncached) * 1e3
        metrics["cli.import_ms.cached"] = statistics.median(cached) * 1e3
        plain, traced = sum(report_seconds(plain)), sum(report_seconds(traced))
        metrics["trace.overhead"] = traced / plain
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracing.write_spans(spans, [("reports", rep_tracer), ("cli", cli_tracer)])
        lines.append(f"tracing overhead: {n / plain:.2f} reports/s untraced vs "
                     f"{n / traced:.2f} traced; library layers per report over "
                     f"{traced_reports} traced reports, cli per call over {cli_calls} "
                     f"calls; spans in {os.path.relpath(spans, ROOT)}")
        units = PER_LAYER

    digest = runner.digest()
    recorded = recorded_digest(args.workload, args.seed)
    if recorded is not None and recorded != digest:
        runner.fail("pool", [f"exact outputs digest {digest} != recorded {recorded}"])
    lines.append(f"digest of the pool's exact outputs: {digest} "
                 + ("(not recorded for this seed)" if recorded is None
                    else "(matches the record)" if recorded == digest else "(MISMATCH)"))
    lines.append(f"error_rate={runner.failed / max(runner.attempted, 1):.6g} "
                 f"({runner.failed} failed of {runner.attempted} operations)")
    for err in runner.errors[:MAX_ERRORS_SHOWN]:
        print(f"bench: {err}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
