"""Acceptance suite.

Eight checks gate a release.  Each test prints one ``[PASS]``/``[FAIL]``
line (run pytest with ``-s`` to see them all) and then asserts, so the
printed transcript and the pytest outcome always agree.

1. assignment solver matches brute force exactly on 1000 random matrices
2. coopetition candidate sets are the competition sets plus tracked ids
3. shadow-set assignment laws: broadcast, reduction, single-shadow identity
4. metric oracles hit hand-computed values; relabeling never moves a score
5. noise-free end-to-end run is a perfect track (HOTA 1.0, no switches)
6. Monte Carlo: 3 shadows beat 1 shadow by >= 10 points of completeness
7. ablation sweeps emit one row per configuration, byte-stable under seed
8. MOT file round trip, malformed rejection, byte-identical reruns
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from shadowmot import (
    ALPHA_GRID,
    BoundingBox,
    FrameGroundTruth,
    GroundTruthObject,
    MotFormatError,
    OracleConfig,
    REDUCTIONS,
    SceneConfig,
    ShadowConfig,
    TrackerConfig,
    Tracklets,
    assign_detection_sets,
    build_set_cost_tensor,
    clear_mot,
    cola_targets,
    evaluate,
    format_mot,
    generate_scene,
    hota,
    hungarian,
    idf1,
    read_mot,
    reduce_set_costs,
    tala_targets,
    track_scene,
    write_mot,
)
from shadowmot.mot_io import parse_mot_line

from helpers import (
    UNIT_WEIGHTS,
    assignment_total,
    build_cost_matrix,
    cli_env,
    brute_force_min_cost,
    disjoint_boxes,
    longest_run,
    random_box,
)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _run_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "shadowmot.cli", *args],
        cwd=cwd, capture_output=True, text=True, env=cli_env(),
    )


@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory) -> Path:
    """One small simulated scene shared by the CLI-level criteria."""
    work = tmp_path_factory.mktemp("acceptance")
    (work / "run.cfg").write_text(
        "seed = 5\n"
        "scene.n_frames = 12\n"
        "scene.n_objects = 3\n"
        "tracker.n_detection_sets = 6\n"
        "shadow.embed_dim = 8\n",
        encoding="ascii",
    )
    proc = _run_cli("simulate", "--config", "run.cfg", "-o", "scene.json", cwd=work)
    assert proc.returncode == 0, proc.stderr
    return work


def test_criterion_1_solver_optimality():
    rng = np.random.default_rng(2024)
    checked = 0
    bad = 0
    start = time.perf_counter()
    for trial in range(1000):
        if trial % 10 < 4:
            n = int(rng.integers(1, 9))
            costs = rng.uniform(-10.0, 10.0, size=(n, n))
        elif trial % 10 < 7:
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 10))
            if trial % 2:
                n, m = m, n
            costs = rng.uniform(-10.0, 10.0, size=(n, m))
        else:
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            costs = rng.integers(-3, 4, size=(n, m)).astype(float)
        got = assignment_total(costs, hungarian(costs).pairs)
        if got != brute_force_min_cost(costs):
            bad += 1
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        1, "solver total equals brute-force minimum",
        bad == 0 and checked == 1000 and elapsed < 5.0,
        f"{checked} matrices, {bad} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_coopetition_extends_competition():
    rng = np.random.default_rng(7)
    n_layers = 6
    scenes = 0
    bad = 0
    for _ in range(200):
        n_total = int(rng.integers(0, 7))
        identities = list(rng.choice(np.arange(1, 13), size=n_total, replace=False))
        n_tracked = int(rng.integers(0, n_total + 1))
        boxes = disjoint_boxes(n_total)
        objs = [
            GroundTruthObject(identity=int(i), box=b)
            for i, b in zip(identities, boxes)
        ]
        gt = FrameGroundTruth(tracked=tuple(objs[:n_tracked]),
                              newborn=tuple(objs[n_tracked:]))
        # live tracks: everything currently tracked plus possibly dead ones
        track_ids = [o.identity for o in gt.tracked]
        track_ids += [90 + int(k) for k in rng.integers(0, 5, size=rng.integers(0, 3))]
        track_ids = sorted(set(track_ids))

        tracked_set = {o.identity for o in gt.tracked}
        for layer in range(1, n_layers + 1):
            tala_track, tala_cand = tala_targets(track_ids, gt, layer, n_layers)
            cola_track, cola_cand = cola_targets(track_ids, gt, layer, n_layers)
            tala_ids = {c.identity for c in tala_cand}
            cola_ids = {c.identity for c in cola_cand}
            if cola_track != tala_track:
                bad += 1
            if layer < n_layers:
                if cola_ids != tala_ids | tracked_set:
                    bad += 1
            else:
                if cola_ids != tala_ids:
                    bad += 1
        scenes += 1
    _report(
        2, "coopetition candidates = competition + tracked, pure at last layer",
        bad == 0 and scenes == 200,
        f"{scenes} scenes x {n_layers} layers, {bad} violations",
    )


def test_criterion_3_shadow_set_laws():
    rng = np.random.default_rng(31)
    problems = []

    # broadcast: every shadow of a set receives the set's single target
    for _ in range(50):
        ns = int(rng.integers(1, 5))
        n_sets = int(rng.integers(1, 6))
        m = int(rng.integers(0, 5))
        preds = [
            [(random_box(rng), (float(rng.uniform()),)) for _ in range(ns)]
            for _ in range(n_sets)
        ]
        cands = [GroundTruthObject(identity=100 + k, box=random_box(rng))
                 for k in range(m)]
        out = assign_detection_sets(preds, list(range(n_sets)), cands,
                                    UNIT_WEIGHTS, "max", layer=2)
        for sid in range(n_sets):
            view = out.shadow_targets("detection", sid)
            if len(view) != ns or len(set(view)) != 1:
                problems.append("broadcast")

    # reduction: the reduced matrix equals an entrywise python-loop reduction
    for _ in range(50):
        ns = int(rng.integers(1, 5))
        n_sets = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        preds = [
            [(random_box(rng), (float(rng.uniform(0.05, 0.95)),)) for _ in range(ns)]
            for _ in range(n_sets)
        ]
        cands = [GroundTruthObject(identity=k + 1, box=random_box(rng))
                 for k in range(m)]
        tensor = build_set_cost_tensor(preds, list(range(n_sets)), cands, UNIT_WEIGHTS)
        for how in REDUCTIONS:
            reduced = reduce_set_costs(tensor, how)
            for i in range(n_sets):
                for j in range(m):
                    col = [tensor.costs[i, s, j] for s in range(ns)]
                    want = {"min": min, "max": max}.get(how, lambda v: sum(v) / len(v))(col)
                    if abs(reduced.costs[i, j] - want) > 1e-12:
                        problems.append(f"reduction-{how}")

    # single shadow: identical matches and a bitwise-equal cost matrix
    for seed in range(100):
        inst = np.random.default_rng(500 + seed)
        n_sets = int(inst.integers(1, 7))
        m = int(inst.integers(1, 6))
        preds = [[(random_box(inst), (float(inst.uniform(0.05, 0.95)),))]
                 for _ in range(n_sets)]
        cands = [GroundTruthObject(identity=40 + k, box=random_box(inst))
                 for k in range(m)]
        tensor = build_set_cost_tensor(preds, list(range(n_sets)), cands, UNIT_WEIGHTS)
        plain = build_cost_matrix([p[0] for p in preds],
                                  [(c.box, c.class_index) for c in cands], UNIT_WEIGHTS)
        for how in REDUCTIONS:
            reduced = reduce_set_costs(tensor, how)
            if not np.array_equal(reduced.costs, plain.costs):
                problems.append("single-shadow-matrix")
            out = assign_detection_sets(preds, list(range(n_sets)), cands,
                                        UNIT_WEIGHTS, how, layer=1)
            want = {sid: None for sid in range(n_sets)}
            for row, col in hungarian(plain).pairs:
                want[row] = cands[col].identity
            if out.detection != want:
                problems.append("single-shadow-match")

    _report(
        3, "broadcast, entrywise reduction, single-shadow equivalence",
        not problems,
        f"violations: {sorted(set(problems)) or 'none'}",
    )


def _tracklets(rows) -> Tracklets:
    out = Tracklets()
    for identity, frame, box in rows:
        out.add(identity, frame, box)
    return out


def test_criterion_4_metric_oracles():
    box = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
    checks = []

    gt = _tracklets((1, f, box) for f in range(1, 11))
    pred = _tracklets((9, f, box) for f in range(1, 11) if f != 5)
    res = clear_mot(gt, pred)
    checks.append(("mota-miss", abs(res.mota - 0.9) < 1e-9))

    gt8 = _tracklets((1, f, box) for f in range(1, 9))
    split = Tracklets()
    for f in range(1, 5):
        split.add(101, f, box)
    for f in range(5, 9):
        split.add(102, f, box)
    checks.append(("idf1-split", abs(idf1(gt8, split) - 0.5) < 1e-9))

    h = hota(gt8, split)
    checks.append(("hota-split", abs(h.hota - math.sqrt(0.5)) < 1e-9))
    checks.append(("deta-split", abs(h.deta - 1.0) < 1e-9))
    checks.append(("assa-split", abs(h.assa - 0.5) < 1e-9))
    checks.append(("alpha-grid", len(ALPHA_GRID) == 19))

    perfect = evaluate(gt8, gt8)
    checks.append(("perfect", (perfect.hota, perfect.mota, perfect.idf1) == (1.0, 1.0, 1.0)
                   and (perfect.ids, perfect.fp, perfect.fn) == (0, 0, 0)))

    # relabel invariance on a scene with occlusion-induced structure
    scene = generate_scene(SceneConfig(n_frames=25, n_objects=4, jitter=0.002,
                                       occlusions=((2, 8, 12),), seed=7))
    tracker = TrackerConfig(shadow=ShadowConfig(init="copy", embed_dim=8),
                            n_detection_sets=8)
    oracle = OracleConfig(seed=7, box_noise_std=0.01, p_corrupt=0.1)
    gt_s = scene.gt_tracklets()
    pred_s = track_scene(scene, tracker, oracle)
    base = evaluate(gt_s, pred_s)
    rng = np.random.default_rng(0)
    stable = True
    for _ in range(100):
        ids = pred_s.identities
        new = dict(zip(ids, (1000 + int(v) for v in rng.permutation(len(ids)))))
        relabeled = Tracklets()
        for identity in ids:
            for frame, b, score in pred_s.track(identity):
                relabeled.add(new[identity], frame, b, score)
        other = evaluate(gt_s, relabeled)
        if not (abs(other.hota - base.hota) < 1e-12
                and abs(other.idf1 - base.idf1) < 1e-12
                and abs(other.mota - base.mota) < 1e-12
                and (other.ids, other.fp, other.fn) == (base.ids, base.fp, base.fn)):
            stable = False
    checks.append(("relabel-invariance", stable))

    bad = [name for name, ok in checks if not ok]
    _report(4, "hand-computed metric values and relabel invariance",
            not bad, f"failed: {bad or 'none'}")


def test_criterion_5_noise_free_end_to_end():
    start = time.perf_counter()
    scene = generate_scene(SceneConfig(n_frames=100, n_objects=10, seed=3))
    tracker = TrackerConfig(shadow=ShadowConfig(init="copy", embed_dim=8),
                            n_detection_sets=20)
    pred = track_scene(scene, tracker, OracleConfig(seed=3))
    report = evaluate(scene.gt_tracklets(), pred)
    elapsed = time.perf_counter() - start
    _report(
        5, "clean 10-object 100-frame run tracks perfectly",
        abs(report.hota - 1.0) < 1e-12 and report.ids == 0
        and abs(report.mota - 1.0) < 1e-12 and elapsed < 10.0,
        f"hota={report.hota:.4f} ids={report.ids} in {elapsed:.2f}s",
    )


def test_criterion_6_shadow_robustness():
    scene = generate_scene(SceneConfig(n_frames=50, n_objects=1, seed=11))
    trials = 200
    means = {}
    for ns in (3, 1):
        cfg = TrackerConfig(
            shadow=ShadowConfig(n_shadows=ns, init="copy", score_reduction="max",
                                tau=0.5, embed_dim=8),
            n_detection_sets=12,
            patience=0,
        )
        total = 0.0
        for trial in range(trials):
            oracle = OracleConfig(seed=1000 + trial, p_corrupt=0.3)
            pred = track_scene(scene, cfg, oracle)
            best = 0
            for identity in pred.identities:
                frames = [frame for frame, _, _ in pred.track(identity)]
                best = max(best, longest_run(frames))
            total += best / scene.config.n_frames
        means[ns] = total / trials
    gap = means[3] - means[1]
    _report(
        6, "3 shadows beat 1 by >= 10 points of track completeness",
        gap >= 0.10,
        f"ns=3: {means[3]:.3f}, ns=1: {means[1]:.3f}, gap {gap * 100:.1f}pp over {trials} trials",
    )


def test_criterion_7_ablation_harness(cli_workdir):
    header = "lambda,phi,ns,trials,hota,deta,assa,mota,idf1,ids,fp,fn"
    ok = True
    detail = []

    proc = _run_cli("ablate", "--scene", "scene.json", "--config", "run.cfg",
                    "-o", "grid.csv", cwd=cli_workdir)
    lines = (cli_workdir / "grid.csv").read_text().splitlines() if proc.returncode == 0 else []
    if proc.returncode != 0 or lines[0] != header or len(lines) != 10:
        ok = False
    else:
        cells = {tuple(row.split(",")[:2]) for row in lines[1:]}
        values_parse = all(float(row.split(",")[4]) >= 0.0 for row in lines[1:])
        if len(cells) != 9 or not values_parse:
            ok = False
    detail.append(f"3x3 grid rows={max(len(lines) - 1, 0)}")

    proc = _run_cli("ablate", "--scene", "scene.json", "--config", "run.cfg",
                    "--grid", "ns", "-o", "ns1.csv", cwd=cli_workdir)
    proc2 = _run_cli("ablate", "--scene", "scene.json", "--config", "run.cfg",
                     "--grid", "ns", "-o", "ns2.csv", cwd=cli_workdir)
    if proc.returncode != 0 or proc2.returncode != 0:
        ok = False
    else:
        ns_lines = (cli_workdir / "ns1.csv").read_text().splitlines()
        if [r.split(",")[2] for r in ns_lines[1:]] != ["1", "2", "3", "4", "5", "6"]:
            ok = False
        if (cli_workdir / "ns1.csv").read_bytes() != (cli_workdir / "ns2.csv").read_bytes():
            ok = False
        detail.append(f"ns rows={len(ns_lines) - 1}, rerun byte-identical")

    _report(7, "ablation sweeps: one row per cell, deterministic", ok, ", ".join(detail))


def test_criterion_8_io_round_trip(cli_workdir):
    ok = True
    detail = []

    # value identity after one read/write cycle of generated results
    scene = generate_scene(SceneConfig(n_frames=20, n_objects=4, jitter=0.003, seed=6))
    pred = track_scene(scene, TrackerConfig(shadow=ShadowConfig(init="copy", embed_dim=8),
                                            n_detection_sets=8),
                       OracleConfig(seed=6, box_noise_std=0.005))
    out = cli_workdir / "roundtrip.txt"
    write_mot(pred, str(out), image_size=(1920, 1080))
    loaded = read_mot(str(out))
    again = format_mot(loaded)
    reparsed = Tracklets.from_entries(
        [(ln.id, ln.frame,
          BoundingBox(cx=ln.bb_left + ln.bb_width / 2, cy=ln.bb_top + ln.bb_height / 2,
                      w=ln.bb_width, h=ln.bb_height), ln.conf)
         for ln in (parse_mot_line(text, i + 1)
                    for i, text in enumerate(again.splitlines()))]
    )
    if reparsed != loaded or format_mot(reparsed) != again:
        ok = False
    detail.append(f"{pred.n_boxes()} boxes value-stable")

    # malformed rejection carries the 1-based line number
    bad = cli_workdir / "bad.txt"
    bad.write_text("1,1,10,10,5,5,0.9,-1,-1,-1\n\n2,1,10,10,5,5\n")
    try:
        read_mot(str(bad))
        ok = False
    except MotFormatError as exc:
        if "line 3: expected 10 fields, got 6" not in str(exc):
            ok = False
    detail.append("malformed line rejected by number")

    # identical config and seed give byte-identical files across runs
    for name in ("r1.txt", "r2.txt"):
        proc = _run_cli("track", "--scene", "scene.json", "--config", "run.cfg",
                        "-o", name, cwd=cli_workdir)
        if proc.returncode != 0:
            ok = False
    if (cli_workdir / "r1.txt").read_bytes() != (cli_workdir / "r2.txt").read_bytes():
        ok = False
    if (cli_workdir / "r1.txt.manifest.json").read_bytes() != \
            (cli_workdir / "r2.txt.manifest.json").read_bytes():
        ok = False
    detail.append("rerun byte-identical")

    _report(8, "MOT round trip, rejection, reproducible bytes", ok, ", ".join(detail))
