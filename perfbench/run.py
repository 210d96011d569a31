"""shadowmot benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  The program is taken from `src/` of that
checkout, whether or not it is installed: every child gets the absolute
`src/` directory first on PYTHONPATH, BLAS thread variables set to 1, and a
fresh work directory under `.perfbench-work/` as its current directory.
The workloads run as a closed loop with one client: one child process at
a time, each started only when the previous one has ended.

--trace 0 times the real CLI commands (`simulate`, `track`, `eval`,
`ablate`) and the benchmark-owned assignment replay as child processes,
interpreter start and imports included, repeating the workload's command
sequence for T seconds and reporting medians in reference seconds (see
`run_untraced`).  `setup_s` is the median wall time of fresh children that
only import `shadowmot.cli`.

--trace 1 runs the same workload in-process through the public API in one
child, alternating passes with and without spans, and reports per-layer
times and counts, plus import times from `python -X importtime`.

Every output of every run is checked against the sha256 digests stored in
`reference.json` for the run's input seed.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

from workloads import (
    CONFIG_FILES,
    INPUT_OUTPUTS,
    INPUT_SCENES,
    RESULTS,
    SCENE_FILES,
    STEP_OUTPUTS,
    WORKLOADS,
    configs,
    gt_file,
    input_seed,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
IMPORT_METRICS = {"shadowmot.cli": "import.shadowmot_s",
                  "scipy.optimize": "import.scipy_optimize_s", "numpy": "import.numpy_s"}
MIN_PASSES = 3
HOSTLOAD = HERE / "hostload.py"
# Seconds hostload.py takes at reference speed, about its time when the
# shared 2-vCPU Intel Xeon host the bounds were set on runs fast.  It sets
# the unit of the reported times and nothing else.
HOSTLOAD_S = 0.5
LOG = "children.log"
PYTHON = sys.executable
CLI = [PYTHON, "-m", "shadowmot.cli"]


class BenchError(RuntimeError):
    """A child failed or an output differs from its reference."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv: list[str], cwd: Path, log: str = LOG) -> tuple[float, float]:
    """Run one child to completion; returns (wall seconds, peak RSS in MB)."""
    with open(cwd / log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=out)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (cwd / log).read_text(errors="replace").strip().splitlines()[-3:]
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}: " + " | ".join(tail))
    return wall, usage.ru_maxrss / 1024.0


def digests(work: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((work / n).read_bytes()).hexdigest() for n in sorted(names)}


def check_digests(found: dict[str, str], expected: dict[str, str]) -> None:
    wrong = sorted(n for n in found if expected.get(n) != found[n])
    if wrong:
        raise BenchError(f"output differs from its reference digest: {', '.join(wrong)}")


def reference_for(workload: str, seed: int) -> dict[str, str]:
    try:
        return json.loads(REFERENCE.read_text())[workload][str(seed)]
    except KeyError:
        raise BenchError(f"no reference digests for {workload} at input seed {seed}") from None


def prepare(work: Path, name: str) -> None:
    """Configs for the work directory, plus a check that children import
    the checkout's own package (this also warms the bytecode cache)."""
    for key, text in configs(WORKLOADS[name]).items():
        (work / CONFIG_FILES[key]).write_text(text)
    spawn([PYTHON, "-c", "import shadowmot.cli, sys; print(shadowmot.cli.__file__)"],
          work, log="where.txt")
    where = Path((work / "where.txt").read_text().strip().splitlines()[-1]).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"children import shadowmot from {where}, not from {SRC}")


def make_inputs(work: Path, seed: int) -> dict[str, str]:
    """The input scenes of ablate and the replay, made by the CLI."""
    for key in INPUT_SCENES:
        spawn(CLI + ["simulate", "--config", CONFIG_FILES[key], "--seed", str(seed),
                     "-o", SCENE_FILES[key]], work)
    return digests(work, INPUT_OUTPUTS)


def step_commands(name: str, seed: int) -> dict[str, list[str]]:
    """The argv of every step of one pass over the workload, in order."""
    w = WORKLOADS[name]
    s = str(seed)
    main, main_cfg = SCENE_FILES["main"], CONFIG_FILES["main"]
    out = {step: outs[0] for step, outs in STEP_OUTPUTS.items()}
    return {
        "simulate": CLI + ["simulate", "--config", main_cfg, "--seed", s, "-o", main],
        "track": CLI + ["track", "--scene", main, "--config", main_cfg, "--seed", s,
                        "-o", RESULTS],
        "eval": CLI + ["eval", "--gt", gt_file(main), "--results", RESULTS, "-o", out["eval"]],
        "ablate": CLI + ["ablate", "--scene", SCENE_FILES["ablate"],
                         "--config", CONFIG_FILES["ablate"], "--seed", s,
                         "--grid", w.ablate_grid, "-o", out["ablate"]],
        "assign": [PYTHON, str(HERE / "pipeline.py"), "replay",
                   "--scene", SCENE_FILES["replay"],
                   "--config", CONFIG_FILES["replay"], "--seed", s,
                   "-o", out["assign"]],
    }


def run_pass(work: Path, name: str, seed: int) -> tuple[dict[str, float], float, dict[str, str]]:
    """One pass over the command sequence: wall seconds per step
    (`<step>_s`, and their sum as `wall_s`), peak child RSS in MB, and
    output digests."""
    outputs = [o for outs in STEP_OUTPUTS.values() for o in outs]
    for o in outputs:
        (work / o).unlink(missing_ok=True)
    walls, rss = {}, 0.0
    for step, argv in step_commands(name, seed).items():
        walls[step + "_s"], child_rss = spawn(argv, work)
        rss = max(rss, child_rss)
    walls["wall_s"] = sum(walls.values())
    return walls, rss, digests(work, outputs)


class Counter:
    """Children attempted in one run."""

    def __init__(self) -> None:
        self.attempted = 0


def run_untraced(work: Path, name: str, seed: int, seconds: float, tally: Counter):
    """Repeat rounds while another fits in `seconds`, at least MIN_PASSES.
    A round is one pass over the command sequence, a set-up child in the
    first SETUP_REPEATS rounds, then the host load.

    The host the bounds were set on is shared, and its speed moves for
    every program on it alike: by 15-35% from one child to the next, and by
    up to 60% over an hour.  A speed lasts for several seconds, about one
    round.  So every round ends with `hostload.py`, a fixed load that does
    not use shadowmot and is made of the same mix as its commands (numpy
    and scipy imports, small numpy operations, scalar arithmetic), and each
    time of a round is scaled by HOSTLOAD_S over that round's load time:
    times are in reference seconds, the time at the host speed at which the
    load takes HOSTLOAD_S.
    """
    expected = reference_for(name, seed)
    prepare(work, name)
    tally.attempted += len(INPUT_SCENES)
    check_digests(make_inputs(work, seed), expected)

    samples: dict[str, list[float]] = defaultdict(list)
    loads = []
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or \
            (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        tally.attempted += len(STEP_OUTPUTS) + 1
        walls, rss, found = run_pass(work, name, seed)
        check_digests(found, expected)
        if passes < SETUP_REPEATS:
            tally.attempted += 1
            walls["setup_s"] = spawn([PYTHON, "-c", "import shadowmot.cli"], work)[0]
        loads.append(spawn([PYTHON, str(HOSTLOAD)], work)[0])
        for metric, value in walls.items():
            samples[metric].append(value * HOSTLOAD_S / loads[-1])
        samples["peak_rss_mb"].append(rss)
        passes += 1
    print(f"host speed: {passes} rounds; hostload.py took {statistics.median(loads):.3f} s "
          f"(median), {HOSTLOAD_S:.3f} s at reference speed")
    return samples


def import_times(work: Path) -> dict[str, list[float]]:
    """Cumulative import seconds of a few modules, each from `-X importtime`
    in a child that imports only that module, so a module that shadowmot
    stops importing eagerly changes a figure but never fails the run."""
    samples: dict[str, list[float]] = defaultdict(list)
    for k in range(IMPORT_REPEATS):
        for module, metric in IMPORT_METRICS.items():
            log = f"importtime-{module}-{k}.txt"
            spawn([PYTHON, "-X", "importtime", "-c", f"import {module}"], work, log=log)
            seen = None
            for line in (work / log).read_text().splitlines():
                if not line.startswith("import time:") or line.count("|") != 2:
                    continue
                _, cumulative, name = line.split("|")
                if name.strip() == module and cumulative.strip().isdigit():
                    seen = int(cumulative) / 1e6
            if seen is None:
                raise BenchError(f"-X importtime did not report {module}")
            samples[metric].append(seen)
    return samples


PERCENTILE_SPANS = ("simulator.oracle_decode", "tracker.step")


def layer_samples(doc: dict) -> dict[str, list[float]]:
    """Per-layer metrics of every traced pass: busy seconds per span name
    (`<span>_s`), p50/p90 milliseconds of per-call spans, and counts.
    Counts must repeat exactly from pass to pass."""
    traced = [p for p in doc["passes"] if p["traced"]]
    plain = [p for p in doc["passes"] if not p["traced"]]
    samples: dict[str, list[float]] = defaultdict(list)
    first_counts = None
    for p in traced:
        busy: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        counts: dict[str, int] = defaultdict(int)
        for span in p["spans"]:
            d = span["end"] - span["start"]
            busy[span["name"] + "_s"] += d
            durations[span["name"]].append(d)
            for counter, n in span["counts"].items():
                counts[counter] += n
        for name in PERCENTILE_SPANS:
            ms = [d * 1e3 for d in durations[name]]
            if len(ms) >= 2:
                samples[name + "_ms_p50"].append(statistics.median(ms))
                samples[name + "_ms_p90"].append(statistics.quantiles(ms, n=10)[8])
        for metric, value in busy.items():
            samples[metric].append(value)
        if first_counts is None:
            first_counts = dict(counts)
        elif dict(counts) != first_counts:
            raise BenchError("per-layer counts differ between traced passes")
        for counter, n in counts.items():
            samples[counter].append(n)
    samples["trace.overhead_s"] = [statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain)]
    return samples


def run_traced(work: Path, name: str, seed: int, seconds: float, tally: Counter):
    expected = reference_for(name, seed)
    prepare(work, name)
    tally.attempted += IMPORT_REPEATS * len(IMPORT_METRICS)
    samples = import_times(work)
    tally.attempted += 1
    spawn([PYTHON, str(HERE / "pipeline.py"), "trace", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "-o", "trace.json"], work)
    doc = json.loads((work / "trace.json").read_text())
    check_digests(doc["digests"], expected)
    if set(doc["digests"]) != set(expected):
        raise BenchError("the traced run did not rebuild every output of the untraced run")
    samples.update(layer_samples(doc))
    return samples


def environment() -> dict[str, object]:
    """What the numbers depend on, recorded next to them."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu": cpu}


def _median(values: list) -> float | int:
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """One run; returns (result object, samples per metric)."""
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}
    tally = Counter()
    # one CPU for the runner and every child it starts
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    samples: dict[str, list[float]] = {}
    correct = True
    try:
        runner = run_traced if trace else run_untraced
        samples = runner(work, name, input_seed(seed), seconds, tally)
        missing = sorted(set(units) - set(samples))
        if missing:
            raise BenchError(f"no samples for {', '.join(missing)}")
    except BenchError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    metrics = {m: {"value": _median(samples[m]), "unit": units[m]} for m in units if m in samples}
    # a run stops at its first failure
    result = {"correct": correct, "attempted": max(tally.attempted, 1),
              "failed": 0 if correct else 1, "metrics": metrics}
    return result, {m: len(samples[m]) for m in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shadowmot benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SPEC.is_file() and (SRC / "shadowmot" / "__init__.py").is_file()):
        print(f"error: run from the root of a shadowmot checkout "
              f"(need BENCHMARK.json and src/shadowmot under {ROOT})", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    result, counts = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed} (input seed {input_seed(args.seed)}), "
          f"trace {args.trace}, failed {result['failed']}/{result['attempted']} children")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']:<6} "
              f"median of {counts[metric]}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
