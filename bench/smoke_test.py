"""Smoke test of the benchmark: every workload at tiny size.

    python3 bench/smoke_test.py      (or python3 -m pytest bench/smoke_test.py)

Each workload runs for one second untraced and traced at seed 0, whose
digests are recorded.  The test asserts that every metric BENCHMARK.json
names is printed with its unit, that no operation failed (error_rate 0), that
BENCHMARK.json, bench/layers.json and the benchmark agree on workloads and
per-layer metrics, and that the benchmark refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_spec_agrees_with_benchmark():
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    layers = _load(os.path.join(HERE, "layers.json"))
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    names = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    for entry in layers.values():
        assert set(entry["moves"]) <= metrics and set(entry["on"]) <= names


def test_every_workload_prints_every_metric():
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in spec[key]}, w["name"]
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert result["attempted"] >= 1
            assert "error_rate=0 " in proc.stdout


def test_refuses_without_the_program():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(bare, workloads.WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
