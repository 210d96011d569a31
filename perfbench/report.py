"""Print every end-to-end metric of every workload in one table.

    python3 perfbench/report.py [--seed N] [--seconds T]

Runs each workload once, untraced, exactly as `run.py` does, and prints
each metric by name with its unit, its median and the number of samples
behind it, under a line naming the python, numpy and scipy versions, the
CPU count and the CPU model, so numbers from different machines are never
compared by mistake.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(run.SPEC.read_text())["run_seconds"])
    args = parser.parse_args(argv)

    env = run.environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'workload':<14} {'metric':<12} {'median':>12} {'unit':<5} samples")
    ok = True
    for name in WORKLOADS:
        result, samples = run.run_workload(name, args.seed, args.seconds, trace=False)
        ok = ok and result["correct"]
        attempted, failed = result["attempted"], result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<14} {metric:<12} {entry['value']:>12.4f} {entry['unit']:<5} "
                  f"{samples[metric]}")
        print(f"{name:<14} {'failed_share':<12} {failed / attempted:>12.4f} {'ratio':<5} "
              f"{attempted}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
