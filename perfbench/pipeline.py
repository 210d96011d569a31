"""Library path of the benchmark workloads, run in a child process.

    python3 perfbench/pipeline.py replay --scene S --config C --seed N -o OUT
    python3 perfbench/pipeline.py trace --workload W --seed N --seconds T -o OUT

`replay` is the assign-replay step of the untraced run: it drives the
public assignment API over a scene and writes the targets' digest and
counts.  `trace` rebuilds every output of a workload in-process through
the public API (ablate through the CLI's own `main`), with spans recorded
around each call into a layer and without, alternating until the time is
up; it writes the spans of every traced pass, the wall time of every pass
and the sha256 of every output, so the runner can check them against the
untraced run.

Both run from the work directory the runner prepared: the configs and,
for `replay`, the scene are already there.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path

from shadowmot import cli
from shadowmot import (
    MetricsReport,
    Scene,
    ShadowTracker,
    Tracklets,
    assign_detection_sets,
    assign_tracking_sets,
    build_set_cost_tensor,
    clear_mot,
    cola_targets,
    emit_training_targets,
    generate_scene,
    hota,
    hungarian,
    idf1,
    load_run_config,
    oracle_decode,
    read_mot,
    reduce_set_costs,
    tala_targets,
    write_mot,
)

from workloads import (
    CONFIG_FILES,
    INPUT_OUTPUTS,
    INPUT_SCENES,
    RESULTS,
    SCENE_FILES,
    STEP_OUTPUTS,
    WORKLOADS,
    gt_file,
)


class Tracer:
    """Spans (name, start, end, parent) and counts kept in memory until the
    run writes them out."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.record = {"name": name, "parent": None, "start": 0.0, "end": 0.0, "counts": {}}

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.record["parent"] = t._open[-1] if t._open else None
        t._open.append(len(t.spans))
        t.spans.append(self.record)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.record["end"] = time.perf_counter()
        self.tracer._open.pop()
        return False

    def count(self, name: str, n: int) -> None:
        counts = self.record["counts"]
        counts[name] = counts.get(name, 0) + n


class _NoSpan:
    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def count(self, name: str, n: int) -> None:
        pass


class NullTracer:
    enabled = False
    _span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span


class CheckFailed(RuntimeError):
    """An output or invariant the benchmark checks came out wrong."""


def _run_config(config_path: str, seed: int):
    return load_run_config(cli._config_pairs(config_path), {"seed": seed})


def _load_scene(tr, path: str) -> Scene:
    with tr.span("simulator.scene_from_json"):
        return cli._load_scene(path)


def _write_mot(tr, tracklets: Tracklets, path: str, scene: Scene) -> None:
    with tr.span("mot_io.write_mot") as sp:
        write_mot(tracklets, path, image_size=(scene.config.image_width, scene.config.image_height))
        sp.count("mot_io.bytes_written", os.path.getsize(path))


def _read_mot(tr, path: str) -> Tracklets:
    with tr.span("mot_io.read_mot") as sp:
        tracklets = read_mot(path)
        sp.count("mot_io.lines_read", tracklets.n_boxes())
    return tracklets


def _decode(tr, scene, frame, live, oracle, n_layers):
    with tr.span("simulator.oracle_decode") as sp:
        layers = oracle_decode(scene, frame, live, oracle, n_layers)
        sp.count("simulator.sets_decoded", len(live))
        sp.count("simulator.shadow_predictions", sum(s.n_shadows for s in live) * n_layers)
    return layers


def _step(tr, tracker, predictions):
    with tr.span("tracker.step") as sp:
        result = tracker.step(predictions)
        sp.count("tracker.births", len(result.births))
        sp.count("tracker.deaths", len(result.deaths))
        sp.count("tracker.boxes", len(result.outputs))
    return result


def _new_tracker(tr, run) -> ShadowTracker:
    with tr.span("tracker.init"):
        return ShadowTracker(run.tracker, seed=run.oracle.seed)


# ---- the five steps, each mirroring one command --------------------------

def simulate(tr, config_path: str, seed: int, out: str) -> None:
    """`shadowmot simulate --config C --seed N -o OUT`"""
    run = _run_config(config_path, seed)
    with tr.span("simulator.generate_scene"):
        scene = generate_scene(run.scene)
    cli._write_text(out, cli._dump_json(scene.to_json()))
    _write_mot(tr, scene.gt_tracklets(), gt_file(out), scene)


def track(tr, scene_path: str, config_path: str, seed: int, out: str) -> None:
    """`shadowmot track --scene S --config C --seed N -o OUT`, with the
    tracker loop of `track_scene` unrolled so decode and step are timed
    apart."""
    run = _run_config(config_path, seed)
    scene = _load_scene(tr, scene_path)
    tracker = _new_tracker(tr, run)
    tracklets = Tracklets()
    for frame in range(1, scene.n_frames + 1):
        layers = _decode(tr, scene, frame, tracker.live_sets(), run.oracle, run.tracker.n_layers)
        result = _step(tr, tracker, layers[-1])
        for identity, box, score in result.outputs:
            tracklets.add(identity, result.frame, box, score)
    _write_mot(tr, tracklets, out, scene)
    manifest = {"scene_path": scene_path, "config": cli._scene_manifest(run, scene)}
    cli._write_text(out + ".manifest.json", cli._dump_json(manifest))


def evaluate_files(tr, gt_path: str, results_path: str, out: str) -> None:
    """`shadowmot eval --gt G --results R -o OUT`, one span per metric."""
    gt = _read_mot(tr, gt_path)
    pred = _read_mot(tr, results_path)
    with tr.span("metrics.clear_mot") as sp:
        clear = clear_mot(gt, pred)
        sp.count("metrics.gt_boxes", gt.n_boxes())
        sp.count("metrics.pred_boxes", pred.n_boxes())
        sp.count("metrics.pred_ids", len(pred))
    with tr.span("metrics.hota"):
        h = hota(gt, pred)
    with tr.span("metrics.idf1"):
        f1 = idf1(gt, pred)
    report = MetricsReport(hota=h.hota, deta=h.deta, assa=h.assa, mota=clear.mota, idf1=f1,
                           ids=clear.ids, fp=clear.fp, fn=clear.fn, per_alpha=h.per_alpha)
    cli._write_text(out, cli._dump_json(report.to_json_dict()))


@contextmanager
def _ablate_cells(tr):
    """Count and time, inside the CLI's own ablate, every ShadowTracker
    it builds: one per tracker run, whatever the grid."""
    init = ShadowTracker.__init__

    def traced_init(self, *args, **kwargs):
        with tr.span("tracker.init") as sp:
            init(self, *args, **kwargs)
            sp.count("ablate.cells_run", 1)

    ShadowTracker.__init__ = traced_init
    try:
        yield
    finally:
        ShadowTracker.__init__ = init


def ablate(tr, scene_path: str, config_path: str, seed: int, grid: str, out: str) -> int:
    """`shadowmot ablate --scene S --config C --seed N --grid G -o OUT`,
    run in-process through `shadowmot.cli.main`.  Returns how many rows of
    the CSV hold distinct results."""
    argv = ["ablate", "--scene", scene_path, "--config", config_path, "--seed", str(seed),
            "--grid", grid, "-o", out]
    with (_ablate_cells(tr) if tr.enabled else nullcontext()), \
            redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise CheckFailed(f"shadowmot {' '.join(argv)} exited {status}")
    # lambda, phi, ns and trials lead each row; the results follow
    rows = cli._read_text(out).splitlines()[1:]
    return len({tuple(row.split(",")[4:]) for row in rows})


def _assign_detection(tr, check, predictions, set_ids, candidates, weights, lam, layer):
    """`assign_detection_sets`; under `check` it is also rebuilt from the
    timed pieces (cost tensor, reduction, Hungarian) and the two must agree."""
    assignment = assign_detection_sets(predictions, set_ids, candidates, weights, lam, layer)
    if not check:
        return assignment
    with tr.span("assignment.cost_tensor"):
        tensor = build_set_cost_tensor(predictions, set_ids, candidates, weights)
    targets = {sid: None for sid in set_ids}
    if candidates and predictions:
        with tr.span("assignment.reduce"):
            matrix = reduce_set_costs(tensor, lam)
        with tr.span("matching.hungarian"):
            result = hungarian(matrix)
        for row, col in result.pairs:
            targets[tensor.set_ids[row]] = tensor.target_ids[col]
    if dict(assignment.detection) != targets:
        raise CheckFailed(f"layer {layer}: assign_detection_sets disagrees with "
                          "build_set_cost_tensor -> reduce_set_costs -> hungarian")
    return assignment


def replay(tr, scene_path: str, config_path: str, seed: int, out: str, check: bool) -> dict:
    """Assignment replay: at every frame decode all layers; at each layer,
    under TALA and then COLA, take the candidate list, match detection sets
    with the configured lambda and bind the tracking sets; then step the
    tracker on the final layer.  Writes the targets' digest and counts."""
    run = _run_config(config_path, seed)
    scene = _load_scene(tr, scene_path)
    n_layers = run.tracker.n_layers
    lam = run.tracker.shadow.cost_reduction
    ns = run.tracker.shadow.n_shadows
    tracker = _new_tracker(tr, run)
    digest = hashlib.sha256()
    counts = {"assignment.cost_entries": 0,
              "assignment.candidates.tala": 0, "assignment.candidates.cola": 0}
    for mode in ("tala", "cola"):
        for layer in range(1, n_layers + 1):
            counts[f"assignment.positives.{mode}.l{layer}"] = 0

    for frame in range(1, scene.n_frames + 1):
        live = tracker.live_sets()
        layers = _decode(tr, scene, frame, live, run.oracle, n_layers)
        track_ids = tracker.track_identities
        gt = emit_training_targets(scene, frame, track_ids)
        track_sets = [s for s in live if s.role == "tracking"]
        det_ids = [s.set_id for s in live if s.role == "detection"]
        for layer in range(1, n_layers + 1):
            det_preds = [p for s, p in zip(live, layers[layer - 1]) if s.role == "detection"]
            offered, positives = {}, {}
            for mode, targets_of in (("tala", tala_targets), ("cola", cola_targets)):
                _, candidates = targets_of(track_ids, gt, layer, n_layers)
                det = _assign_detection(tr, check, det_preds, det_ids, candidates,
                                        run.weights, lam, layer)
                trk = {}
                if track_sets:
                    with tr.span("assignment.track_targets"):
                        trk = assign_tracking_sets(track_sets, gt, layer).tracking
                offered[mode] = {c.identity for c in candidates}
                positives[mode] = sum(t is not None for t in det.detection.values())
                counts["assignment.cost_entries"] += len(det_ids) * ns * len(candidates)
                counts[f"assignment.candidates.{mode}"] += len(candidates)
                counts[f"assignment.positives.{mode}.l{layer}"] += positives[mode]
                digest.update(json.dumps(
                    [frame, layer, mode, sorted(det.detection.items()), sorted(trk.items())]
                ).encode())
            # coopetition widens the candidate list below the final layer
            # and leaves it alone in the final one
            if layer == n_layers:
                holds = offered["cola"] == offered["tala"] and positives["cola"] == positives["tala"]
            else:
                holds = offered["cola"] >= offered["tala"] and positives["cola"] >= positives["tala"]
            if not holds:
                raise CheckFailed(
                    f"frame {frame} layer {layer}: COLA/TALA invariant violated "
                    f"(candidates {sorted(offered['cola'])} vs {sorted(offered['tala'])}, "
                    f"positives {positives['cola']} vs {positives['tala']})")
        _step(tr, tracker, layers[-1])

    cli._write_text(out, json.dumps({"counts": counts, "targets_sha256": digest.hexdigest()},
                                indent=1, sort_keys=True) + "\n")
    return counts


# ---- whole-workload passes -----------------------------------------------

def workload_pass(tr, name: str, seed: int, check: bool) -> None:
    """Every step of one workload, in the order the untraced run takes."""
    w = WORKLOADS[name]
    main, main_cfg = SCENE_FILES["main"], CONFIG_FILES["main"]
    with tr.span("simulate"):
        simulate(tr, main_cfg, seed, main)
    with tr.span("track"):
        track(tr, main, main_cfg, seed, RESULTS)
    with tr.span("eval"):
        evaluate_files(tr, gt_file(main), RESULTS, STEP_OUTPUTS["eval"][0])
    with tr.span("ablate") as sp:
        sp.count("ablate.cells_run", 0)
        sp.count("ablate.distinct_rows", ablate(
            tr, SCENE_FILES["ablate"], CONFIG_FILES["ablate"], seed, w.ablate_grid,
            STEP_OUTPUTS["ablate"][0]))
    with tr.span("assign") as sp:
        counts = replay(tr, SCENE_FILES["replay"], CONFIG_FILES["replay"], seed,
                        STEP_OUTPUTS["assign"][0], check)
        for counter, n in counts.items():
            sp.count(counter, n)


def output_digests(paths) -> dict[str, str]:
    return {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in sorted(paths)}


def traced_run(name: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced passes, at least one of each, while
    another pass fits in `seconds`; every pass must write the same bytes."""
    # the input scenes are not a measured step, as in the untraced run
    for key in INPUT_SCENES:
        simulate(NullTracer(), CONFIG_FILES[key], seed, SCENE_FILES[key])
    outputs = INPUT_OUTPUTS + [o for outs in STEP_OUTPUTS.values() for o in outs]
    passes, digests = [], None
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start + passes[-1]["wall_s"] <= seconds:
        tr = Tracer() if len(passes) % 2 else NullTracer()
        t0 = time.perf_counter()
        workload_pass(tr, name, seed, check=True)
        wall = time.perf_counter() - t0
        written = output_digests(outputs)
        if digests is not None and written != digests:
            raise CheckFailed("a traced pass wrote different bytes than the pass before")
        digests = written
        passes.append({"traced": tr.enabled, "wall_s": wall,
                       "spans": tr.spans if tr.enabled else []})
    return {"passes": passes, "digests": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_rep = sub.add_parser("replay")
    p_rep.add_argument("--scene", required=True)
    p_rep.add_argument("--config", required=True)
    p_rep.add_argument("--seed", type=int, required=True)
    p_rep.add_argument("-o", "--output", required=True)
    p_tr = sub.add_parser("trace")
    p_tr.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p_tr.add_argument("--seed", type=int, required=True)
    p_tr.add_argument("--seconds", type=float, required=True)
    p_tr.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            replay(NullTracer(), args.scene, args.config, args.seed, args.output, check=False)
        else:
            doc = traced_run(args.workload, args.seed, args.seconds)
            Path(args.output).write_text(json.dumps(doc), encoding="ascii")
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
