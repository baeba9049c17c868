"""Record the reference digests of exact outputs in bench/reference.json.

    python3 bench/record.py            # seeds 0-31 and the held-out seed
    python3 bench/record.py 3 17       # only these seeds

For each workload and seed, runs the pool once through the library, checks
it like a benchmark run does, and stores the sha256 of its exact outputs.  A
run of `run.py` at a recorded seed then requires the same bytes.  Refuses to
record a seed whose outputs fail a check.  Re-record only when an output
change is intended, and say so in the change.
"""

import json
import sys

import run
import workloads as wl

DEFAULT_SEEDS = range(32)


def main(argv):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    seeds = [int(s) for s in argv] or [*DEFAULT_SEEDS, ref["held_out_seed"]]
    lib = wl.load_library(run.ROOT)
    ref["pool_size"] = run.POOL_SIZES
    for workload in wl.WORKLOADS:
        table = ref["digests"].setdefault(workload, {})
        for seed in seeds:
            runner = run.Runner(lib, workload, seed)
            digest = runner.digest()
            if runner.failed:
                print("\n".join(runner.errors), file=sys.stderr)
                return 1
            table[str(seed)] = digest
        ref["digests"][workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        print(f"{workload}: {len(seeds)} seeds recorded")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
