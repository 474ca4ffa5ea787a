"""Store the reference outputs the correctness gate compares against.

    python3 perfbench/record.py [--config bench|smoke]

Runs one plain pass per workload and per seed variant (only variant 0 for
the smoke config) and writes reference/<config>/<workload>/variant-<k>.json.
Refuses to store a pass in which a step raised or recorded a gap.  Re-run
it only when the program's outputs are meant to change.
"""

import argparse
import json
import sys

from run import BENCH, run_child
from workloads import C_SHIFTS, WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", choices=("bench", "smoke"),
                        default="bench")
    args = parser.parse_args(argv)
    config = BENCH / f"{args.config}.ini"
    variants = range(len(C_SHIFTS)) if args.config == "bench" else [0]
    for workload in WORKLOADS:
        for k in variants:
            # seed k selects variant k for k < len(C_SHIFTS)
            _, result = run_child(workload, k, config)
            bad = {step: rec for step, rec in result["outputs"].items()
                   if rec["error"] or rec["gaps"]}
            if bad:
                print(f"{workload} variant {k}: not stored, {bad}",
                      file=sys.stderr)
                return 1
            path = BENCH / "reference" / args.config / workload
            path.mkdir(parents=True, exist_ok=True)
            with open(path / f"variant-{k}.json", "w") as fh:
                json.dump({"workload": workload, "variant": k,
                           "c": result["c"], "outputs": result["outputs"]},
                          fh, indent=1, sort_keys=True)
            print(f"stored {workload} variant {k} (c = {result['c']!r})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
