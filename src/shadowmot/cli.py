"""Command-line surface: simulate, track, eval, ablate, assign-debug.

Every command is deterministic for a fixed (config, seed): floats are
serialized with shortest round-trip precision, JSON keys are sorted, and
grid rows follow grid order.  Failures exit nonzero with a single
diagnostic line on stderr.  Each command imports the modules it runs
when it runs, so that no command pays for another's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .config import (_FIELDS, _SCHEMA, REDUCTIONS, ConfigError, RunConfig, _check_choice,
                     _check_range, _int, describe_defaults, load_run_config, parse_config_text)
from .mot_io import MotRows, _format_rows, _read_ascii as _read_text, _write_ascii as _write_text

if TYPE_CHECKING:
    from .simulator import Scene
    from .tracker import TrackerConfig

__all__ = ["main"]


def _dump_json(doc: dict) -> str:
    # insertion order is meaningful (reports lead with the headline score)
    return json.dumps(doc, indent=2) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object with no key given twice, scanned for one only if its dict is short."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return doc


def _load_scene(path: str) -> Scene:
    """The scene document at ``path``; a JSON defect or a repeated key names the file."""
    from .simulator import Scene

    text = _read_text(path)
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return Scene.from_json(doc)


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
    "--tala": ("mode", "tracker.mode"),
    "--cola": ("mode", "tracker.mode"),
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
    try:
        return load_run_config(_config_pairs(args.config), overrides)
    except ConfigError as exc:
        key, _, problem = str(exc).partition(": ")
        if key not in flags:
            raise
        raise ConfigError(f"{flags[key]}: {problem}") from None


def _add_override_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    """``flags``, each typed and described as the config key it sets."""
    for flag in flags:
        dest, key = _OVERRIDE_FLAGS[flag]
        convert, _, help_text = _SCHEMA[key]
        p.add_argument(flag, dest=dest, type=convert, default=None, help=help_text)


def _add_tracking_flags(p: argparse.ArgumentParser) -> None:
    _add_override_flags(p, "--ns", "--lambda", "--phi", "--tau", "--patience")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--tala", dest="mode", action="store_const", const="tala",
                      help="competition-only training targets")
    mode.add_argument("--cola", dest="mode", action="store_const", const="cola",
                      help="coopetition training targets at intermediate layers")


def _scene_manifest(run: RunConfig, scene: Scene) -> dict:
    """Run manifest with scene keys taken from the scene document itself."""
    return {**replace(run, scene=scene.config).to_manifest(), "scene.seed": scene.config.seed}


def _write_outputs(*outputs: tuple[str, str]) -> None:
    """Write each ``(path, text)`` in order.  When one write fails, the
    regular files written before it are removed, so that a failed command
    leaves none of its outputs, and its OSError, which names the file, is
    raised."""
    written = []
    try:
        for path, text in outputs:
            _write_text(path, text)
            written.append(Path(path))
    except OSError:
        for path in written:
            if path.is_file():
                with contextlib.suppress(OSError):
                    path.unlink()
        raise


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator import generate_scene

    run = _run_config(args)
    scene = generate_scene(run.scene)
    out = Path(args.output)
    gt_path = out.with_suffix(".gt.txt") if out.suffix else out.parent / (out.name + ".gt.txt")
    size = (scene.config.image_width, scene.config.image_height)
    _write_outputs((str(out), scene.to_json_text()),
                   (str(gt_path), _format_rows(scene._gt_rows(), size)))
    print(f"wrote {out} and {gt_path}: {scene.config.n_objects} objects, "
          f"{scene.config.n_frames} frames")
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    from .simulator import _track_rows

    run = _run_config(args)
    scene = _load_scene(args.scene)
    rows = _track_rows(scene, run.tracker, run.oracle)
    size = (scene.config.image_width, scene.config.image_height)
    manifest = {"scene_path": args.scene, "config": _scene_manifest(run, scene)}
    _write_outputs((args.output, _format_rows(rows, size)),
                   (args.output + ".manifest.json", _dump_json(manifest)))
    print(f"wrote {args.output}: {len(set(rows.ids))} tracks, "
          f"{len(rows.ids)} boxes over {scene.config.n_frames} frames")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .metrics import _evaluate
    from .mot_io import _read_rows

    report = _evaluate(_read_rows(args.gt), _read_rows(args.results))
    _write_text(args.output, _dump_json(report.to_json_dict()))
    print(report.text_table())
    return 0


# the values of each ablate grid axis, in grid order, and the most trials
# of one grid cell
_GRID_VALUES = {"lambda": REDUCTIONS, "phi": REDUCTIONS, "ns": (1, 2, 3, 4, 5, 6)}
_MAX_TRIALS = 10000


def _parse_grid(spec: str) -> list[str]:
    axes = [a.strip() for a in spec.replace("×", "x").split("x") if a.strip()]
    if not axes:
        raise ConfigError(f"empty grid spec {spec!r}")
    for axis in axes:
        _check_choice("--grid", axis, tuple(_GRID_VALUES))
    if len(set(axes)) != len(axes):
        raise ConfigError(f"repeated grid axis in {spec!r}")
    return axes


def _mean_metric_columns(
    scene: Scene, gt: MotRows, run: RunConfig, tracker_cfg: TrackerConfig, trials: int
) -> list[str]:
    """The CSV metric columns of one grid cell: each score's mean over
    ``trials`` oracle seeds against the ground-truth rows ``gt``, left empty
    when any trial leaves it undefined, as mota is without any gt box."""
    from .metrics import SCORES, _evaluate
    from .simulator import _track_rows

    sums = dict.fromkeys(SCORES, 0.0)
    undefined: set[str] = set()
    for trial in range(trials):
        oracle = replace(run.oracle, seed=run.seed + trial)
        report = _evaluate(gt, _track_rows(scene, tracker_cfg, oracle))
        for name in SCORES:
            value = getattr(report, name)
            if value is None:
                undefined.add(name)
            else:
                sums[name] += float(value)
    return ["" if name in undefined else repr(sums[name] / trials) for name in SCORES]


def _cmd_ablate(args: argparse.Namespace) -> int:
    from .metrics import SCORES

    run = _run_config(args)
    scene = _load_scene(args.scene)
    axes = _parse_grid(args.grid)
    _check_range("--trials", args.trials, 1, _MAX_TRIALS)

    rows = [",".join(("lambda", "phi", "ns", "trials", *SCORES))]
    gt = scene._gt_rows()
    # cells whose tracker configs have one TrackerConfig.run_key share a run
    metric_columns: dict[TrackerConfig, list[str]] = {}
    for combo in itertools.product(*(_GRID_VALUES[a] for a in axes)):
        # each axis sets the ShadowConfig field of its config key
        shadow = replace(run.tracker.shadow,
                         **{_FIELDS["shadow." + a]: v for a, v in zip(axes, combo)})
        tracker_cfg = replace(run.tracker, shadow=shadow)
        key = tracker_cfg.run_key()
        if key not in metric_columns:
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
    from .assignment import build_set_cost_tensor, cola_targets, reduce_set_costs, tala_targets
    from .geometry import BoundingBox
    from .matching import hungarian
    from .simulator import _live_layer, _tracked_frames, emit_training_targets
    from .tracker import ShadowTracker

    run = _run_config(args)
    scene = _load_scene(args.scene)
    n_layers = run.tracker.n_layers
    _check_range("--layer", args.layer, 1, n_layers)
    _check_range("--frame", args.frame, 1, scene.n_frames)

    # replay the frames before the one shown on the array loop of track
    tracker = ShadowTracker(run.tracker, seed=run.oracle.seed)
    replay = _tracked_frames(scene, tracker, run.oracle)
    for _ in range(args.frame - 1):
        next(replay)

    track_ids = tracker.track_identities
    gt = emit_training_targets(scene, args.frame, track_ids)
    tala_track, tala_cand = tala_targets(track_ids, gt, args.layer, n_layers)
    _, cola_cand = cola_targets(track_ids, gt, args.layer, n_layers)

    # the detection sets follow the tracks; the bank numbers them from 0
    boxes, scores = _live_layer(scene, tracker, args.frame, run.oracle, args.layer)
    det_preds = [[(BoundingBox(*box), (score,)) for box, score in zip(*det_set)]
                 for det_set in zip(boxes[len(track_ids):].tolist(), scores[len(track_ids):].tolist())]

    mode = run.tracker.assignment_mode
    candidates = cola_cand if mode == "cola" else tala_cand
    lam = run.tracker.shadow.cost_reduction
    shown = {k: (v if v is not None else "background") for k, v in sorted(tala_track.items())}

    print(f"frame {args.frame}, layer {args.layer}/{n_layers}, mode {mode}")
    print(f"live tracks: {list(track_ids)}")
    print(f"tala candidates: {[c.identity for c in tala_cand]}")
    print(f"cola candidates: {[c.identity for c in cola_cand]}")
    print(f"track targets: {shown}")

    matched: dict[int, int] = {}
    if candidates:
        tensor = build_set_cost_tensor(det_preds, range(len(det_preds)), candidates, run.weights)
        matrix = reduce_set_costs(tensor, lam)
        print(f"reduced cost matrix ({lam}) rows=set, cols={list(matrix.col_labels)}:")
        for row_label, row in zip(matrix.row_labels, matrix.costs):
            print(f"  set {row_label}: " + " ".join(f"{v: .4f}" for v in row))
        matched = {matrix.row_labels[r]: matrix.col_labels[c] for r, c in hungarian(matrix).pairs}
    else:
        print("no detection candidates at this layer")

    print(f"detection matches: {matched} ({len(det_preds) - len(matched)} background sets)")
    # a tracking set's id is its identity, so its targets are the track targets
    if track_ids:
        print(f"tracking targets: {shown}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, its subparsers' too, are one ``error:`` line and exit 1."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shadowmot",
        description="Shadow-set multi-object tracking sandbox: synthetic scenes, "
                    "an oracle decoder, label assignment, tracking, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def run_command(name: str, func, help_text: str, **kwargs) -> argparse.ArgumentParser:
        """A run command's parser with the flags every run takes: ``--scene``
        (not for simulate, which writes one), ``--config`` and ``--seed``."""
        p = sub.add_parser(name, help=help_text, **kwargs)
        if name != "simulate":
            p.add_argument("--scene", required=True, help="scene JSON path")
        p.add_argument("--config", default=None, help="config file path")
        _add_override_flags(p, "--seed")
        p.set_defaults(func=func)
        return p

    with_keys = {"formatter_class": argparse.RawDescriptionHelpFormatter,
                 "epilog": "config keys and defaults:\n" + describe_defaults()}
    p_sim = run_command("simulate", _cmd_simulate,
                        "generate a scene document and its MOT ground truth", **with_keys)
    p_sim.add_argument("-o", "--output", required=True, help="scene JSON output path")

    p_track = run_command("track", _cmd_track, "run the oracle-fed tracker over a scene",
                          **with_keys)
    _add_tracking_flags(p_track)
    p_track.add_argument("-o", "--output", required=True, help="MOT results output path")

    p_eval = sub.add_parser("eval", help="score results against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth MOT file")
    p_eval.add_argument("--results", required=True, help="results MOT file")
    p_eval.add_argument("-o", "--output", required=True, help="report JSON output path")
    p_eval.set_defaults(func=_cmd_eval)

    p_abl = run_command("ablate", _cmd_ablate, "sweep shadow configurations over a scene")
    p_abl.add_argument("--grid", default="lambda x phi",
                       help="axes joined by 'x': " + ", ".join(_GRID_VALUES))
    p_abl.add_argument("--trials", type=_int, default=1,
                       help=f"trials per configuration, 1 to {_MAX_TRIALS}")
    p_abl.add_argument("-o", "--output", required=True, help="CSV output path")

    p_dbg = run_command("assign-debug", _cmd_assign_debug,
                        "inspect candidates, costs, and assignment at one frame/layer")
    p_dbg.add_argument("--frame", type=_int, required=True, help="1-based frame index")
    p_dbg.add_argument("--layer", type=_int, required=True, help="1-based decoder layer")
    _add_tracking_flags(p_dbg)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = argparse.Namespace(command="shadowmot")  # the name until a command is parsed
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    # ConfigError, MotFormatError and json.JSONDecodeError are ValueErrors
    except (ValueError, OSError) as exc:
        detail = str(exc) or exc.__class__.__name__
        print(f"error: {detail}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the allocation that failed; CPython's own says nothing
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return 1


def _run() -> int:
    """The process entry of ``python -m shadowmot.cli`` and of the
    ``shadowmot`` console script: ``main`` in a process that ends when it
    returns.  Standard output is flushed here, so that one that cannot be
    written is one ``error:`` line and exit 1 in either buffering mode."""
    # the imports leave about 21,000 GC-tracked objects, numpy's most of
    # them; freezing moves them to the permanent generation, so no later
    # collection walks them, the ones interpreter shutdown runs included
    gc.freeze()
    status = main()
    if sys.stdout is None:  # started with descriptor 1 closed: print wrote nothing
        return status
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: standard output: {exc}", file=sys.stderr)
        # the interpreter's own flush at exit now writes what is left to
        # /dev/null instead of reporting the same error again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(_run())
