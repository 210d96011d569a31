"""Workload definitions shared by the benchmark runner and its children.

Every workload runs the same five steps, so every end-to-end metric exists
on every workload:

    simulate -> track -> eval -> ablate -> assign-replay

`simulate`, `track` and `eval` run on the workload's main scene; `ablate`
and the replay each read a scene of their own, made once per run as input
and not timed.  Each workload gives two steps a large input and the other
steps small ones, so a change aimed at one workload's focus has the other
workload as its "bypass" side.
"""

from __future__ import annotations

from dataclasses import dataclass

# Inputs come from `seed % SEED_POOL`: reference digests are stored for
# every input seed in the pool, so every run checks its outputs byte for
# byte whatever seed it is given.
SEED_POOL = 16

# The small scene for a step that is not the workload's focus: the step
# then costs little more than interpreter start and imports.
SMALL_CONFIG = """\
scene.n_frames = 10
scene.n_objects = 5
oracle.box_noise_std = 0.005
oracle.p_corrupt = 0.05
tracker.n_detection_sets = 20
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str  # main scene: simulate, track and eval
    ablate_config: str  # input scene of ablate
    ablate_grid: str
    replay_config: str  # input scene of the assignment replay


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="track-assign",
            why="long scene with redundant shadows (ns=5, 200 sets) for track, and TALA/COLA "
                "replay at all 6 layers on 60 uniform arrivals; small eval and ablate",
            config="""\
scene.n_frames = 80
scene.n_objects = 10
oracle.box_noise_std = 0.005
oracle.p_corrupt = 0.05
tracker.n_detection_sets = 200
shadow.ns = 5
shadow.phi = mean
""",
            ablate_config=SMALL_CONFIG,
            ablate_grid="phi",
            replay_config="""\
scene.n_frames = 7
scene.n_objects = 60
scene.schedule = uniform
oracle.box_noise_std = 0.005
oracle.p_corrupt = 0.05
""",
        ),
        Workload(
            name="eval-ablate",
            why="40 objects in single-shadow sets fragment into hundreds of identities for "
                "eval, and a 3x3 lambda x phi ablate repeats cells; small replay",
            config="""\
scene.n_frames = 80
scene.n_objects = 40
oracle.box_noise_std = 0.005
oracle.p_corrupt = 0.1
tracker.n_detection_sets = 60
shadow.ns = 1
""",
            ablate_config="""\
scene.n_frames = 20
scene.n_objects = 10
oracle.box_noise_std = 0.005
oracle.p_corrupt = 0.05
""",
            ablate_grid="lambda x phi",
            replay_config=SMALL_CONFIG,
        ),
    )
}

# Files every step writes, relative to the work directory.  The scene path
# is passed relative as well, because `track` records it in the manifest.
SCENE_FILES = {"main": "scene.json", "ablate": "ablate-scene.json", "replay": "replay-scene.json"}
CONFIG_FILES = {"main": "main.cfg", "ablate": "ablate-scene.cfg", "replay": "replay-scene.cfg"}
INPUT_SCENES = ("ablate", "replay")


def configs(w: Workload) -> dict[str, str]:
    """Config text of each scene of a workload, by the keys of SCENE_FILES."""
    return {"main": w.config, "ablate": w.ablate_config, "replay": w.replay_config}


def gt_file(scene_file: str) -> str:
    return scene_file[: -len(".json")] + ".gt.txt"


RESULTS = "results.txt"
# What each step writes; the reference digests cover all of it.
STEP_OUTPUTS = {
    "simulate": [SCENE_FILES["main"], gt_file(SCENE_FILES["main"])],
    "track": [RESULTS, RESULTS + ".manifest.json"],
    "eval": ["report.json"],
    "ablate": ["ablate.csv"],
    "assign": ["replay.json"],
}
INPUT_OUTPUTS = [f for key in INPUT_SCENES for f in (SCENE_FILES[key], gt_file(SCENE_FILES[key]))]


def input_seed(seed: int) -> int:
    return seed % SEED_POOL
