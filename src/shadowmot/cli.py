"""Command-line surface: simulate, track, eval, ablate, assign-debug.

Every command is deterministic for a fixed (config, seed): floats are
serialized with shortest round-trip precision, JSON keys are sorted, and
grid rows follow grid order.  Failures exit nonzero with a single
diagnostic line on stderr.  Each command imports the modules it runs
when it runs, so that no command pays for another's.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .config import ConfigError, RunConfig, describe_defaults, load_run_config, parse_config_text
from .mot_io import Tracklets, _read_ascii as _read_text

if TYPE_CHECKING:
    from .simulator import Scene
    from .tracker import TrackerConfig

__all__ = ["main"]

_GRID_AXES = ("lambda", "phi", "ns")


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="ascii", newline="\n")


def _dump_json(doc: dict) -> str:
    # insertion order is meaningful (reports lead with the headline score)
    return json.dumps(doc, indent=2) + "\n"


def _load_scene(path: str) -> Scene:
    from .simulator import Scene

    return Scene.from_json(json.loads(_read_text(path)))


def _config_pairs(path: Optional[str]) -> dict[str, str]:
    return parse_config_text(_read_text(path)) if path else {}


# flag -> (argparse dest, config key) of every flag that overrides a key
_OVERRIDE_FLAGS = {
    "--seed": ("seed", "seed"),
    "--ns": ("ns", "shadow.ns"),
    "--lambda": ("lam", "shadow.lambda"),
    "--phi": ("phi", "shadow.phi"),
    "--tau": ("tau", "shadow.tau"),
    "--patience": ("patience", "tracker.patience"),
}


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file with the command's flags as overrides.  A bad
    flag value is reported under the flag (``--ns: must be >= 1, got 0``),
    not under the config key it sets."""
    overrides: dict[str, object] = {}
    flags: dict[str, str] = {}
    for flag, (dest, key) in _OVERRIDE_FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides[key] = value
            flags[key] = flag
    if getattr(args, "tala", False):
        overrides["tracker.mode"] = "tala"
    if getattr(args, "cola", False):
        overrides["tracker.mode"] = "cola"
    try:
        return load_run_config(_config_pairs(args.config), overrides)
    except ConfigError as exc:
        key, _, problem = str(exc).partition(": ")
        if key not in flags:
            raise
        raise ConfigError(f"{flags[key]}: {problem}") from None


def _add_tracking_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ns", type=int, default=None, help="shadows per set")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="training cost reduction: min, mean, or max")
    p.add_argument("--phi", default=None, help="inference score reduction: min, mean, or max")
    p.add_argument("--tau", type=float, default=None, help="confidence threshold")
    p.add_argument("--patience", type=int, default=None,
                   help="sub-threshold frames before track removal")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--tala", action="store_true", help="competition-only training targets")
    mode.add_argument("--cola", action="store_true",
                      help="coopetition training targets at intermediate layers")


def _scene_manifest(run: RunConfig, scene: Scene) -> dict:
    """Run manifest with scene keys taken from the scene document itself."""
    return {**replace(run, scene=scene.config).to_manifest(), "scene.seed": scene.config.seed}


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .mot_io import write_mot
    from .simulator import generate_scene

    run = _run_config(args)
    scene = generate_scene(run.scene)
    out = Path(args.output)
    _write_text(str(out), scene.to_json_text())
    gt_path = out.with_suffix(".gt.txt") if out.suffix else out.parent / (out.name + ".gt.txt")
    size = (scene.config.image_width, scene.config.image_height)
    write_mot(scene.gt_tracklets(), str(gt_path), image_size=size)
    print(f"wrote {out} and {gt_path}: {scene.config.n_objects} objects, "
          f"{scene.config.n_frames} frames")
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    from .mot_io import write_mot
    from .simulator import track_scene

    run = _run_config(args)
    scene = _load_scene(args.scene)
    tracklets = track_scene(scene, run.tracker, run.oracle)
    size = (scene.config.image_width, scene.config.image_height)
    write_mot(tracklets, args.output, image_size=size)
    manifest = {"scene_path": args.scene, "config": _scene_manifest(run, scene)}
    _write_text(args.output + ".manifest.json", _dump_json(manifest))
    print(f"wrote {args.output}: {len(tracklets)} tracks, "
          f"{tracklets.n_boxes()} boxes over {scene.config.n_frames} frames")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .metrics import _evaluate
    from .mot_io import _read_rows

    report = _evaluate(_read_rows(args.gt), _read_rows(args.results))
    _write_text(args.output, _dump_json(report.to_json_dict()))
    print(report.text_table())
    return 0


def _parse_grid(spec: str) -> list[str]:
    axes = [a.strip() for a in spec.replace("×", "x").split("x") if a.strip()]
    if not axes:
        raise ConfigError(f"empty grid spec {spec!r}")
    for axis in axes:
        if axis not in _GRID_AXES:
            raise ConfigError(f"unknown grid axis {axis!r}, expected one of {sorted(_GRID_AXES)}")
    if len(set(axes)) != len(axes):
        raise ConfigError(f"repeated grid axis in {spec!r}")
    return axes


def _mean_metric_columns(
    scene: Scene, gt: Tracklets, run: RunConfig, tracker_cfg: TrackerConfig, trials: int
) -> list[str]:
    """The CSV metric columns of one grid cell: each score's mean over
    ``trials`` oracle seeds, left empty when any trial leaves it undefined,
    as mota is without ground-truth boxes."""
    from .metrics import SCORES, evaluate
    from .simulator import track_scene

    sums = dict.fromkeys(SCORES, 0.0)
    undefined: set[str] = set()
    for trial in range(trials):
        oracle = replace(run.oracle, seed=run.seed + trial)
        report = evaluate(gt, track_scene(scene, tracker_cfg, oracle))
        for name in SCORES:
            value = getattr(report, name)
            if value is None:
                undefined.add(name)
            else:
                sums[name] += float(value)
    return ["" if name in undefined else repr(sums[name] / trials) for name in SCORES]


def _cmd_ablate(args: argparse.Namespace) -> int:
    from .metrics import SCORES
    from .shadow import REDUCTIONS

    run = _run_config(args)
    scene = _load_scene(args.scene)
    axes = _parse_grid(args.grid)
    if args.trials < 1:
        raise ConfigError(f"--trials: must be >= 1, got {args.trials}")
    if args.trials > 10000:
        raise ConfigError(f"--trials: must be <= 10000, got {args.trials}")

    rows = [",".join(("lambda", "phi", "ns", "trials", *SCORES))]
    gt = scene.gt_tracklets()
    # lambda (the training cost reduction) reaches neither tracking nor
    # evaluation, so cells that differ only in lambda share one run
    metric_columns: dict[tuple[str, int], list[str]] = {}
    values = {"lambda": REDUCTIONS, "phi": REDUCTIONS, "ns": (1, 2, 3, 4, 5, 6)}
    for combo in itertools.product(*(values[a] for a in axes)):
        cell = dict(zip(axes, combo))
        shadow = replace(
            run.tracker.shadow,
            cost_reduction=cell.get("lambda", run.tracker.shadow.cost_reduction),
            score_reduction=cell.get("phi", run.tracker.shadow.score_reduction),
            n_shadows=cell.get("ns", run.tracker.shadow.n_shadows),
        )
        key = (shadow.score_reduction, shadow.n_shadows)
        if key not in metric_columns:
            tracker_cfg = replace(run.tracker, shadow=shadow)
            metric_columns[key] = _mean_metric_columns(scene, gt, run, tracker_cfg, args.trials)
        rows.append(",".join([
            shadow.cost_reduction,
            shadow.score_reduction,
            str(shadow.n_shadows),
            str(args.trials),
            *metric_columns[key],
        ]))
    _write_text(args.output, "\n".join(rows) + "\n")
    print(f"wrote {args.output}: {len(rows) - 1} configurations x {args.trials} trials")
    return 0


def _cmd_assign_debug(args: argparse.Namespace) -> int:
    from .assignment import (
        assign_detection_sets,
        assign_tracking_sets,
        build_set_cost_tensor,
        cola_targets,
        reduce_set_costs,
        tala_targets,
    )
    from .simulator import _tracked_frames, emit_training_targets, oracle_decode
    from .tracker import ShadowTracker

    run = _run_config(args)
    scene = _load_scene(args.scene)
    n_layers = run.tracker.n_layers
    if not 1 <= args.layer <= n_layers:
        raise ConfigError(f"--layer must lie in [1, {n_layers}], got {args.layer}")
    if not 1 <= args.frame <= scene.n_frames:
        raise ConfigError(f"--frame must lie in [1, {scene.n_frames}], got {args.frame}")

    # replay the frames before the one shown on the array loop of track
    tracker = ShadowTracker(run.tracker, seed=run.oracle.seed)
    replay = _tracked_frames(scene, tracker, run.oracle)
    for _ in range(args.frame - 1):
        next(replay)

    track_ids = tracker.track_identities
    gt = emit_training_targets(scene, args.frame, track_ids)
    tala_track, tala_cand = tala_targets(track_ids, gt, args.layer, n_layers)
    _, cola_cand = cola_targets(track_ids, gt, args.layer, n_layers)

    live = tracker.live_sets()
    # the draws do not depend on the layer count, so render only up to the shown layer
    layer_preds = oracle_decode(scene, args.frame, live, run.oracle, args.layer)[-1]
    track_sets = [s for s in live if s.role == "tracking"]
    det = [(s, p) for s, p in zip(live, layer_preds) if s.role == "detection"]
    det_preds = [p for _, p in det]
    det_ids = [s.set_id for s, _ in det]

    mode = run.tracker.assignment_mode
    candidates = cola_cand if mode == "cola" else tala_cand
    lam = run.tracker.shadow.cost_reduction

    print(f"frame {args.frame}, layer {args.layer}/{n_layers}, mode {mode}")
    print(f"live tracks: {list(track_ids)}")
    print(f"tala candidates: {[c.identity for c in tala_cand]}")
    print(f"cola candidates: {[c.identity for c in cola_cand]}")
    print(f"track targets: { {k: (v if v is not None else 'background') for k, v in sorted(tala_track.items())} }")

    if candidates:
        tensor = build_set_cost_tensor(det_preds, det_ids, candidates, run.weights)
        matrix = reduce_set_costs(tensor, lam)
        print(f"reduced cost matrix ({lam}) rows=set, cols={list(matrix.col_labels)}:")
        for row_label, row in zip(matrix.row_labels, matrix.costs):
            print(f"  set {row_label}: " + " ".join(f"{v: .4f}" for v in row))
    else:
        print("no detection candidates at this layer")

    det_assign = assign_detection_sets(det_preds, det_ids, candidates, run.weights, lam, args.layer)
    matched = {k: v for k, v in sorted(det_assign.detection.items()) if v is not None}
    print(f"detection matches: {matched or '{}'} "
          f"({sum(1 for v in det_assign.detection.values() if v is None)} background sets)")
    if track_sets:
        track_assign = assign_tracking_sets(track_sets, gt, args.layer)
        shown = {k: (v if v is not None else "background")
                 for k, v in sorted(track_assign.tracking.items())}
        print(f"tracking targets: {shown}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowmot",
        description="Shadow-set multi-object tracking sandbox: synthetic scenes, "
                    "an oracle decoder, label assignment, tracking, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", help="generate a scene document and its MOT ground truth",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="config keys and defaults:\n" + describe_defaults(),
    )
    p_sim.add_argument("--config", default=None, help="config file path")
    p_sim.add_argument("--seed", type=int, default=None, help="master seed override")
    p_sim.add_argument("-o", "--output", required=True, help="scene JSON output path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_track = sub.add_parser(
        "track", help="run the oracle-fed tracker over a scene",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="config keys and defaults:\n" + describe_defaults(),
    )
    p_track.add_argument("--scene", required=True, help="scene JSON path")
    p_track.add_argument("--config", default=None, help="config file path")
    p_track.add_argument("--seed", type=int, default=None, help="master seed override")
    _add_tracking_flags(p_track)
    p_track.add_argument("-o", "--output", required=True, help="MOT results output path")
    p_track.set_defaults(func=_cmd_track)

    p_eval = sub.add_parser("eval", help="score results against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth MOT file")
    p_eval.add_argument("--results", required=True, help="results MOT file")
    p_eval.add_argument("-o", "--output", required=True, help="report JSON output path")
    p_eval.set_defaults(func=_cmd_eval)

    p_abl = sub.add_parser("ablate", help="sweep shadow configurations over a scene")
    p_abl.add_argument("--scene", required=True, help="scene JSON path")
    p_abl.add_argument("--config", default=None, help="config file path")
    p_abl.add_argument("--seed", type=int, default=None, help="master seed override")
    p_abl.add_argument("--grid", default="lambda x phi",
                       help="axes joined by 'x': lambda, phi, ns")
    p_abl.add_argument("--trials", type=int, default=1, help="trials per configuration, 1 to 10000")
    p_abl.add_argument("-o", "--output", required=True, help="CSV output path")
    p_abl.set_defaults(func=_cmd_ablate)

    p_dbg = sub.add_parser("assign-debug",
                           help="inspect candidates, costs, and assignment at one frame/layer")
    p_dbg.add_argument("--scene", required=True, help="scene JSON path")
    p_dbg.add_argument("--config", default=None, help="config file path")
    p_dbg.add_argument("--seed", type=int, default=None, help="master seed override")
    p_dbg.add_argument("--frame", type=int, required=True, help="1-based frame index")
    p_dbg.add_argument("--layer", type=int, required=True, help="1-based decoder layer")
    _add_tracking_flags(p_dbg)
    p_dbg.set_defaults(func=_cmd_assign_debug)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ConfigError, MotFormatError and json.JSONDecodeError are ValueErrors
    except (ValueError, OSError) as exc:
        detail = str(exc) or exc.__class__.__name__
        print(f"error: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
