"""Child process that times set-up in a fresh interpreter.

    python3 bench/setup_probe.py setup WORKLOAD SEED
        seconds from the start of this script to the end of the warm-up calls:
        import spohncurves and spohncurves.cli, then run the workload's first
        reports and their CLI calls (numeric imports numpy here).
    python3 bench/setup_probe.py import
        seconds to import spohncurves and spohncurves.cli, nothing else.

Prints one JSON object {"seconds": ...}.  Whether imports are cached is up to
the environment the parent passes (PYTHONDONTWRITEBYTECODE,
PYTHONPYCACHEPREFIX).
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    mode = argv[0]
    if mode == "import":
        src = os.path.join(ROOT, "src")
        sys.path.insert(0, src)
        t0 = time.perf_counter()
        import spohncurves.cli  # noqa: F401
        seconds = time.perf_counter() - t0
    elif mode == "setup":
        sys.path.insert(0, HERE)
        import workloads
        lib = workloads.load_library(ROOT)
        workloads.warm_up(lib, argv[1], int(argv[2]))
        seconds = time.perf_counter() - T0
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print('{"seconds": %r}' % seconds)


if __name__ == "__main__":
    main(sys.argv[1:])
