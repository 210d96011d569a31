"""Record the reference output digests that every benchmark run checks.

    python3 perfbench/record.py

Runs each workload's command sequence once per input seed of the pool
(`workloads.SEED_POOL`) through the real CLI and stores the sha256 of every
output in `perfbench/reference.json`.  Run it only when a change to the
program is meant to change its output bytes, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import SEED_POOL, WORKLOADS


def record(name: str, seed: int) -> dict[str, str]:
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.WORK_ROOT))
    try:
        run.prepare(work, name)
        found = run.make_inputs(work, seed)
        found.update(run.run_pass(work, name, seed)[2])
        return found
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    refs = {}
    for name in sorted(WORKLOADS):
        refs[name] = {str(seed): record(name, seed) for seed in range(SEED_POOL)}
        print(f"recorded {name}: {SEED_POOL} input seeds", flush=True)
    run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
