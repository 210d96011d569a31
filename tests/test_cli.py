"""End-to-end command line tests.

Everything runs through ``python -m shadowmot.cli`` in a subprocess so the
tests exercise the real entry point: argument parsing, file I/O, exit codes,
and the exact bytes written to disk.
"""

import contextlib
import hashlib
import importlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import shadowmot
from shadowmot import (BoundingBox, Observation, ShadowTracker, cli, format_mot,
                       load_run_config, parse_config_text, read_mot)

from helpers import (ablate_reference, assert_track_bytes, by_frame, cli_env,
                     generate_scene_reference, track_scene_reference)

_CONFIG = """\
# small scene so the suite stays fast
seed = 5
scene.n_frames = 12
scene.n_objects = 3
tracker.n_detection_sets = 6
shadow.embed_dim = 8
"""


def run_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "shadowmot.cli", *args],
        cwd=cwd, capture_output=True, text=True, env=cli_env(),
    )


@pytest.fixture()
def workdir(tmp_path: Path) -> Path:
    (tmp_path / "run.cfg").write_text(_CONFIG, encoding="ascii")
    return tmp_path


@pytest.fixture()
def scene_path(workdir: Path) -> Path:
    out = workdir / "scene.json"
    proc = run_cli("simulate", "--config", "run.cfg", "-o", "scene.json", cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    return out


class TestHelp:
    def test_top_level_help(self, tmp_path):
        proc = run_cli("--help", cwd=tmp_path)
        assert proc.returncode == 0
        for name in ("simulate", "track", "eval", "ablate", "assign-debug"):
            assert name in proc.stdout

    def test_no_command_is_an_error(self, tmp_path):
        proc = run_cli(cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: the following arguments are required: command"]

    def test_simulate_requires_output(self, tmp_path):
        proc = run_cli("simulate", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: the following arguments are required: -o/--output"]

    @pytest.mark.parametrize("argv", [
        ("track", "--scene", "scene.json", "--seed", "x", "-o", "out.txt"),
        ("track", "--scene", "scene.json", "--bogus", "1", "-o", "out.txt"),
        ("track", "--scene", "scene.json"),
        ("track", "--scene", "scene.json", "--tala", "--cola", "-o", "out.txt"),
        (),
    ])
    def test_a_bad_command_line_is_one_error_line(self, workdir, scene_path, argv):
        # as every other bad input: exit 1 and one error line, not
        # argparse's usage line and exit 2
        proc = run_cli(*argv, cwd=workdir)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")
        assert not (workdir / "out.txt").exists()


class TestSimulate:
    def test_writes_scene_and_ground_truth(self, workdir):
        proc = run_cli("simulate", "--config", "run.cfg", "-o", "scene.json", cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("wrote ")

        doc = json.loads((workdir / "scene.json").read_text())
        assert doc["version"] == 1
        assert doc["config"]["n_frames"] == 12
        assert doc["config"]["n_objects"] == 3

        gt = read_mot(str(workdir / "scene.gt.txt"))
        assert gt.identities == (1, 2, 3)
        assert sorted(by_frame(gt)) == list(range(1, 13))

    def test_reruns_are_byte_identical(self, workdir):
        for name in ("a.json", "b.json"):
            proc = run_cli("simulate", "--config", "run.cfg", "-o", name, cwd=workdir)
            assert proc.returncode == 0, proc.stderr
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()
        assert (workdir / "a.gt.txt").read_bytes() == (workdir / "b.gt.txt").read_bytes()

    def test_seed_flag_changes_the_scene(self, workdir):
        run_cli("simulate", "--config", "run.cfg", "-o", "a.json", cwd=workdir)
        run_cli("simulate", "--config", "run.cfg", "--seed", "6", "-o", "b.json", cwd=workdir)
        assert (workdir / "a.json").read_bytes() != (workdir / "b.json").read_bytes()

    @pytest.mark.parametrize("route", ["config", "flag"])
    def test_negative_seed_names_key(self, workdir, route):
        if route == "config":
            (workdir / "neg.cfg").write_text("seed = -1\n", encoding="ascii")
            args = ("--config", "neg.cfg")
        else:
            args = ("--config", "run.cfg", "--seed", "-1")
        proc = run_cli("simulate", *args, "-o", "scene.json", cwd=workdir)
        assert proc.returncode == 1
        name = "seed" if route == "config" else "--seed"
        assert proc.stderr.splitlines() == [f"error: {name}: must be >= 0, got -1"]

    def test_works_without_config_file(self, tmp_path):
        proc = run_cli("simulate", "--seed", "3", "-o", "scene.json", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "scene.json").read_text())
        assert doc["config"]["n_objects"] == 10


class TestTrack:
    def test_writes_results_and_manifest(self, workdir, scene_path):
        proc = run_cli("track", "--scene", "scene.json", "--config", "run.cfg",
                       "--ns", "4", "--cola", "-o", "out.txt", cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("wrote out.txt:")

        pred = read_mot(str(workdir / "out.txt"))
        assert len(pred) == 3
        assert sorted(by_frame(pred)) == list(range(1, 13))

        manifest = json.loads((workdir / "out.txt.manifest.json").read_text())
        assert manifest["scene_path"] == "scene.json"
        cfg = manifest["config"]
        assert cfg["seed"] == 5
        assert cfg["scene.seed"] == 5
        assert cfg["scene.n_frames"] == 12
        assert cfg["shadow.ns"] == 4
        assert cfg["tracker.mode"] == "cola"
        assert cfg["tracker.n_detection_sets"] == 6

    @pytest.mark.parametrize("flags,mode", [((), "cola"), (("--tala",), "tala"), (("--cola",), "cola")],
                             ids=["neither", "tala", "cola"])
    def test_manifest_names_the_mode(self, workdir, scene_path, flags, mode):
        proc = run_cli("track", "--scene", "scene.json", "--config", "run.cfg", *flags,
                       "-o", "out.txt", cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((workdir / "out.txt.manifest.json").read_text())
        assert manifest["config"]["tracker.mode"] == mode

    def test_reruns_are_byte_identical(self, workdir, scene_path):
        for name in ("a.txt", "b.txt"):
            proc = run_cli("track", "--scene", "scene.json", "--config", "run.cfg",
                           "-o", name, cwd=workdir)
            assert proc.returncode == 0, proc.stderr
        assert (workdir / "a.txt").read_bytes() == (workdir / "b.txt").read_bytes()
        assert (workdir / "a.txt.manifest.json").read_bytes() == \
               (workdir / "b.txt.manifest.json").read_bytes()

    def test_threshold_flag_reaches_the_tracker(self, workdir, scene_path):
        # served scores are 0.9, so a 0.95 threshold silences every track
        proc = run_cli("track", "--scene", "scene.json", "--config", "run.cfg",
                       "--tau", "0.95", "-o", "quiet.txt", cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        assert (workdir / "quiet.txt").read_text() == ""

    @pytest.mark.parametrize("flag,value,message", [
        ("--ns", "0", "error: --ns: must be >= 1, got 0"),
        ("--ns", "1000000000000", "error: --ns: must be <= 64, got 1000000000000"),
        ("--tau", "2", "error: --tau: must lie in [0, 1], got 2.0"),
        ("--patience", "-1", "error: --patience: must be >= 0, got -1"),
        ("--seed", "-1", "error: --seed: must be >= 0, got -1"),
        ("--phi", "bogus", "error: --phi: must be one of ('min', 'mean', 'max'), got 'bogus'"),
        ("--lambda", "bogus", "error: --lambda: must be one of ('min', 'mean', 'max'), got 'bogus'"),
        ("--trials", "0", "error: --trials: must be >= 1, got 0"),
        ("--trials", "10001", "error: --trials: must be <= 10000, got 10001"),
    ])
    def test_bad_flag_value_names_the_flag(self, workdir, scene_path, flag, value, message):
        command = "ablate" if flag == "--trials" else "track"
        proc = run_cli(command, "--scene", "scene.json", "--config", "run.cfg",
                       flag, value, "-o", "out.txt", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [message]

    @pytest.mark.parametrize("command,flag,value", [
        ("track", "--seed", "1_0"),
        ("track", "--ns", "1_0"),
        ("track", "--tau", "0_5"),
        ("track", "--patience", "1_0"),
        ("ablate", "--trials", "1_0"),
        ("assign-debug", "--frame", "1_0"),
        ("assign-debug", "--layer", "1_0"),
    ])
    def test_underscore_in_a_numeric_flag_fails_as_a_word_does(self, workdir, scene_path,
                                                                command, flag, value):
        # int() reads "1_0" as 10 and float() reads "0_5" as 5.0; argparse
        # names the flag's converter: "invalid int value: 'x'"
        def stderr(given):
            args = {"--frame": "2", "--layer": "1"} if command == "assign-debug" else {"-o": "out.txt"}
            argv = [command, "--scene", "scene.json", "--config", "run.cfg"]
            for name, v in {**args, flag: given}.items():
                argv += [name, v]
            proc = run_cli(*argv, cwd=workdir)
            assert proc.returncode == 1
            assert len(proc.stderr.splitlines()) == 1
            return proc.stderr

        word = stderr("x")
        assert "invalid " + ("float" if flag == "--tau" else "int") + " value: 'x'" in word
        assert stderr(value) == word.replace("'x'", repr(value))
        assert not (workdir / "out.txt").exists()

    def test_rand_and_copy_init_track_identically(self, workdir, scene_path):
        # a set is served by its anchor, the first shadow's position, and
        # rand and copy draw that position alike
        for init in ("rand", "copy"):
            (workdir / f"{init}.cfg").write_text(
                _CONFIG + f"shadow.init = {init}\noracle.box_noise_std = 0.02\n"
                "oracle.p_corrupt = 0.2\n", encoding="ascii")
            proc = run_cli("track", "--scene", "scene.json", "--config", f"{init}.cfg",
                           "-o", f"{init}.txt", cwd=workdir)
            assert proc.returncode == 0, proc.stderr
        rand = (workdir / "rand.txt").read_bytes()
        assert rand and rand == (workdir / "copy.txt").read_bytes()

    def test_missing_scene_file(self, workdir):
        proc = run_cli("track", "--scene", "nope.json", "-o", "out.txt", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("defect,message", [
        ("duplicate-id", "error: tracks[1].id: duplicate id 1"),
        ("short-box", "error: tracks[0].frames[3].box: expected 4 numbers, got 3"),
        ("scalar-box", "error: tracks[0].frames[2].box: expected a list of 4 numbers, got 5"),
        ("tracks-object", "error: tracks: expected a list"),
        ("top-level-list", "error: scene document: expected an object, got list"),
        ("missing-frames", "error: tracks[1]: missing key 'frames'"),
        ("string-frame", "error: tracks[0].frames[2].t: expected an integer, got 'x'"),
        ("zero-id", "error: tracks[0].id: must be >= 1, got 0"),
        ("string-n-frames", "error: config.n_frames: expected an integer, got 'x'"),
        ("string-occlusion", "error: config.occlusions[0]: expected a list of 3 integers, "
                             "got [1, 'a', 2]"),
        ("zero-n-frames", "error: config.n_frames: must be >= 1, got 0"),
        ("unknown-occlusion-id",
         "error: config.occlusions[0]: identity must be in [1, n_objects = 3], got 9"),
        ("missing-n-frames", "error: config: missing key 'n_frames'"),
        ("missing-n-objects", "error: config: missing key 'n_objects'"),
        ("unknown-track-key", "error: tracks[0]: unknown keys ['junk']"),
        ("unknown-frame-key", "error: tracks[0].frames[0]: unknown keys ['colour']"),
        ("huge-int-box", "error: tracks[0].frames[2].box: int too large to convert to float"),
        ("huge-jitter", f"error: config.jitter: must be finite and >= 0, got {10 ** 400}"),
        ("negative-seed", "error: config.seed: must be >= 0, got -1"),
        ("nan-box", "error: tracks[0].frames[0].box: box component cx must be finite, got nan"),
        ("infinite-jitter", "error: config.jitter: must be finite and >= 0, got inf"),
        ("negative-infinite-width",
         "error: tracks[1].frames[2].box: box component w must be finite, got -inf"),
    ], ids=["duplicate-id", "short-box", "scalar-box", "tracks-object", "top-level-list",
            "missing-frames", "string-frame", "zero-id", "string-n-frames", "string-occlusion",
            "zero-n-frames", "unknown-occlusion-id", "missing-n-frames", "missing-n-objects",
            "unknown-track-key", "unknown-frame-key", "huge-int-box", "huge-jitter",
            "negative-seed", "nan-box", "infinite-jitter", "negative-infinite-width"])
    def test_malformed_scene_is_one_located_error(self, workdir, scene_path, defect, message):
        doc = json.loads(scene_path.read_text())
        tracks = doc["tracks"]
        if defect == "duplicate-id":
            tracks[1]["id"] = tracks[0]["id"]
        elif defect == "short-box":
            tracks[0]["frames"][3]["box"] = tracks[0]["frames"][3]["box"][:3]
        elif defect == "scalar-box":
            tracks[0]["frames"][2]["box"] = 5
        elif defect == "tracks-object":
            doc["tracks"] = {"a": 1}
        elif defect == "top-level-list":
            doc = [doc]
        elif defect == "missing-frames":
            del tracks[1]["frames"]
        elif defect == "string-frame":
            tracks[0]["frames"][2]["t"] = "x"
        elif defect == "zero-id":
            tracks[0]["id"] = 0
        elif defect == "string-n-frames":
            doc["config"]["n_frames"] = "x"
        elif defect == "string-occlusion":
            doc["config"]["occlusions"] = [[1, "a", 2]]
        elif defect == "zero-n-frames":
            doc["config"]["n_frames"] = 0
        elif defect == "missing-n-frames":
            del doc["config"]["n_frames"]
        elif defect == "missing-n-objects":
            del doc["config"]["n_objects"]
        elif defect == "unknown-track-key":
            tracks[0]["junk"] = 1
        elif defect == "unknown-frame-key":
            tracks[0]["frames"][0]["colour"] = "red"
        elif defect == "huge-int-box":
            tracks[0]["frames"][2]["box"][0] = 10 ** 400
        elif defect == "huge-jitter":
            doc["config"]["jitter"] = 10 ** 400
        elif defect == "negative-seed":
            doc["config"]["seed"] = -1
        # json writes these as the NaN, Infinity and -Infinity constants
        elif defect == "nan-box":
            tracks[0]["frames"][0]["box"][0] = math.nan
        elif defect == "infinite-jitter":
            doc["config"]["jitter"] = math.inf
        elif defect == "negative-infinite-width":
            tracks[1]["frames"][2]["box"][2] = -math.inf
        else:
            doc["config"]["occlusions"] = [[9, 1, 2]]
        (workdir / "bad.json").write_text(json.dumps(doc))
        proc = run_cli("track", "--scene", "bad.json", "--config", "run.cfg",
                       "-o", "out.txt", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [message]

    # json.loads would keep the last of two values; the frame key and the
    # document key are each given twice, and where two keys repeat
    # (a, b, b, a) the first repeat, b, is named
    @pytest.mark.parametrize("key", ["t", "tracks", "b"])
    def test_repeated_key_is_one_error_naming_the_file(self, workdir, scene_path, key):
        text = scene_path.read_text()
        if key == "t":
            text = text.replace('"t": ', '"t": 99, "t": ', 1)
        elif key == "b":
            text = text.replace('"t": ', '"a": 0, "b": 0, "b": 0, "a": 0, "t": ', 1)
        else:
            text = text.replace('"version"', '"tracks": [], "version"', 1)
        (workdir / "bad.json").write_text(text)
        proc = run_cli("track", "--scene", "bad.json", "-o", "out.txt", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: bad.json: duplicate key {key!r}"]

    def test_deep_nesting_is_one_error_naming_the_file(self, workdir):
        (workdir / "deep.json").write_text("[" * 200000 + "]" * 200000)
        proc = run_cli("track", "--scene", "deep.json", "-o", "out.txt", cwd=workdir)
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: deep.json: maximum recursion depth exceeded")

    def test_truncated_scene_names_the_file(self, workdir):
        (workdir / "cut.json").write_text('{"version": 1,')
        proc = run_cli("track", "--scene", "cut.json", "-o", "out.txt", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: cut.json: Expecting property name enclosed in double quotes: "
            "line 1 column 15 (char 14)"]

    def test_tala_and_cola_write_the_same_results(self, workdir, scene_path):
        # the assignment mode picks training targets, which tracking never
        # reads; noise and corruption make the run take every branch
        (workdir / "noisy.cfg").write_text(
            _CONFIG + "oracle.box_noise_std = 0.02\noracle.p_corrupt = 0.2\n"
            "oracle.fp_rate = 0.3\n", encoding="ascii")
        for mode in ("tala", "cola"):
            proc = run_cli("track", "--scene", "scene.json", "--config", "noisy.cfg",
                           f"--{mode}", "-o", f"{mode}.txt", cwd=workdir)
            assert proc.returncode == 0, proc.stderr
        tala = (workdir / "tala.txt").read_bytes()
        assert tala and tala == (workdir / "cola.txt").read_bytes()

    def test_tala_and_cola_are_mutually_exclusive(self, workdir, scene_path):
        proc = run_cli("track", "--scene", "scene.json", "--tala", "--cola",
                       "-o", "out.txt", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: argument --cola: not allowed with argument --tala"]


class TestScipyImport:
    """No command loads scipy: the assignment solver is in-tree, and scipy
    is only the tests' oracle for it."""

    # runs cli.main on the arguments given, if any, then reports whether
    # scipy got imported
    _SCRIPT = (
        "import sys\n"
        "from shadowmot import cli\n"
        "status = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(status, 'scipy' in sys.modules)\n"
    )

    # runs the README tour in-process, one command after another, with
    # scipy unimportable when the first argument is "blocked"
    _TOUR_SCRIPT = (
        "import json, sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['scipy'] = None\n"
        "from shadowmot import cli\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    print('exit', cli.main(argv))\n"
    )
    _TOUR = [
        ["simulate", "--config", "run.cfg", "-o", "scene.json"],
        ["track", "--scene", "scene.json", "--config", "run.cfg", "-o", "results.txt"],
        ["eval", "--gt", "scene.gt.txt", "--results", "results.txt", "-o", "report.json"],
        ["ablate", "--scene", "scene.json", "--config", "run.cfg", "-o", "sweep.csv"],
        ["assign-debug", "--scene", "scene.json", "--config", "run.cfg",
         "--frame", "2", "--layer", "3"],
    ]

    def _loads_scipy(self, workdir: Path, *args: str, prelude: str = "") -> bool:
        proc = subprocess.run(
            [sys.executable, "-c", prelude + self._SCRIPT, *args],
            cwd=workdir, capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        status, loaded = proc.stdout.splitlines()[-1].split()
        assert status == "0"
        return loaded == "True"

    def test_import_does_not_load_scipy(self, workdir):
        assert not self._loads_scipy(workdir)

    def test_import_loads_neither_statistics_nor_scipy(self, tmp_path):
        # every command pays for what importing the CLI loads
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, shadowmot.cli\n"
             "print([m for m in ('statistics', 'scipy') if m in sys.modules])"],
            cwd=tmp_path, capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_simulate_and_track_do_not_load_scipy(self, workdir):
        assert not self._loads_scipy(workdir, "simulate", "--config", "run.cfg", "-o", "scene.json")
        assert not self._loads_scipy(workdir, "track", "--scene", "scene.json",
                                     "--config", "run.cfg", "-o", "out.txt")
        assert (workdir / "out.txt").read_text()

    @pytest.mark.parametrize("args", [
        ("eval", "--gt", "scene.gt.txt", "--results", "scene.gt.txt", "-o", "report.json"),
        ("ablate", "--scene", "scene.json", "--config", "run.cfg", "-o", "sweep.csv"),
        ("assign-debug", "--scene", "scene.json", "--config", "run.cfg",
         "--frame", "2", "--layer", "3"),
    ], ids=["eval", "ablate", "assign-debug"])
    def test_matching_commands_do_not_load_scipy(self, workdir, scene_path, args):
        assert not self._loads_scipy(workdir, *args)

    def test_preloaded_scipy_is_reported(self, workdir, scene_path):
        # positive control: the check does see scipy when it is loaded
        assert self._loads_scipy(workdir, "eval", "--gt", "scene.gt.txt",
                                 "--results", "scene.gt.txt", "-o", "report.json",
                                 prelude="import scipy.optimize\n")

    def test_tour_runs_with_scipy_blocked(self, tmp_path):
        outputs = {}
        for mode in ("blocked", "free"):
            workdir = tmp_path / mode
            workdir.mkdir()
            (workdir / "run.cfg").write_text(_CONFIG, encoding="ascii")
            proc = subprocess.run(
                [sys.executable, "-c", self._TOUR_SCRIPT, mode, json.dumps(self._TOUR)],
                cwd=workdir, capture_output=True, env=cli_env(),
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == b""
            assert proc.stdout.count(b"exit 0\n") == len(self._TOUR)
            files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
            outputs[mode] = (proc.stdout, files)
        assert sorted(outputs["blocked"][1]) == [
            "report.json", "results.txt", "results.txt.manifest.json", "run.cfg",
            "scene.gt.txt", "scene.json", "sweep.csv",
        ]
        assert outputs["blocked"] == outputs["free"]


class TestImportFootprint:
    """Each command loads only the modules it runs, and importing the
    package loads none of them.  Every check starts a fresh interpreter."""

    # runs cli.main on the arguments given, then prints the shadowmot
    # submodules loaded
    _SCRIPT = (
        "import json, sys\n"
        "from shadowmot import cli\n"
        "status = cli.main(sys.argv[1:])\n"
        "print(status, json.dumps([m for m in sys.modules if m.startswith('shadowmot.')]))\n"
    )

    def _loaded(self, workdir: Path, *args: str) -> set[str]:
        proc = subprocess.run(
            [sys.executable, "-c", self._SCRIPT, *args],
            cwd=workdir, capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        status, _, loaded = proc.stdout.splitlines()[-1].partition(" ")
        assert status == "0"
        return {name.removeprefix("shadowmot.") for name in json.loads(loaded)}

    def test_package_import_loads_no_submodule(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, shadowmot\n"
             "print([m for m in sys.modules if m.startswith('shadowmot.')])"],
            cwd=tmp_path, capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_eval_loads_neither_simulator_nor_assignment(self, workdir, scene_path):
        loaded = self._loaded(workdir, "eval", "--gt", "scene.gt.txt",
                              "--results", "scene.gt.txt", "-o", "report.json")
        assert "metrics" in loaded
        assert not loaded & {"simulator", "assignment", "shadow", "tracker"}

    def test_simulate_and_track_do_not_load_metrics(self, workdir):
        for args in (("simulate", "--config", "run.cfg", "-o", "scene.json"),
                     ("track", "--scene", "scene.json", "--config", "run.cfg", "-o", "out.txt")):
            loaded = self._loaded(workdir, *args)
            assert "simulator" in loaded
            assert "metrics" not in loaded

    def test_assign_debug_does_not_load_metrics(self, workdir, scene_path):
        loaded = self._loaded(workdir, "assign-debug", "--scene", "scene.json",
                              "--config", "run.cfg", "--frame", "5", "--layer", "3")
        assert "metrics" not in loaded
        assert loaded <= {"assignment", "cli", "config", "geometry", "matching",
                          "mot_io", "shadow", "simulator", "tracker"}

    @pytest.mark.parametrize("module", sorted(shadowmot._MODULES))
    def test_every_public_name_resolves(self, tmp_path, module):
        # the first name asked for comes from ``module``, so each module is
        # once the first to load, then every other name resolves after it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, shadowmot\n"
             "first = shadowmot._MODULES[sys.argv[1]]\n"
             "for name in [*first, *shadowmot.__all__]:\n"
             "    getattr(shadowmot, name)\n"
             "assert set(shadowmot.__all__) <= set(dir(shadowmot))\n"
             "exec('from shadowmot import *')\n"
             "print(len(shadowmot.__all__))", module],
            cwd=tmp_path, capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{len(shadowmot.__all__)}\n"

    @pytest.mark.parametrize("module", sorted(shadowmot._MODULES))
    def test_every_public_name_is_in_its_module_all(self, module):
        names = importlib.import_module(f"shadowmot.{module}").__all__
        assert names == shadowmot._MODULES[module]


class TestEval:
    def test_ground_truth_against_itself_is_perfect(self, workdir, scene_path):
        proc = run_cli("eval", "--gt", "scene.gt.txt", "--results", "scene.gt.txt",
                       "-o", "report.json", cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((workdir / "report.json").read_text())
        assert report["hota"] == 1.0
        assert report["mota"] == 1.0
        assert report["idf1"] == 1.0
        assert (report["ids"], report["fp"], report["fn"]) == (0, 0, 0)
        assert "hota" in proc.stdout
        assert "1.0000" in proc.stdout

    def test_report_field_order(self, workdir, scene_path):
        run_cli("eval", "--gt", "scene.gt.txt", "--results", "scene.gt.txt",
                "-o", "report.json", cwd=workdir)
        report = json.loads((workdir / "report.json").read_text())
        assert list(report)[:8] == ["hota", "deta", "assa", "mota",
                                    "idf1", "ids", "fp", "fn"]
        assert len(report["per_alpha"]) == 19

    def test_tracked_results_score_perfectly_on_clean_scene(self, workdir, scene_path):
        run_cli("track", "--scene", "scene.json", "--config", "run.cfg",
                "-o", "out.txt", cwd=workdir)
        proc = run_cli("eval", "--gt", "scene.gt.txt", "--results", "out.txt",
                       "-o", "report.json", cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((workdir / "report.json").read_text())
        assert report["hota"] == pytest.approx(1.0)
        assert report["ids"] == 0

    def test_malformed_results_fail_with_line_number(self, workdir, scene_path):
        (workdir / "bad.txt").write_text("1,1,10,10,5,5,0.9,-1,-1\n")
        proc = run_cli("eval", "--gt", "scene.gt.txt", "--results", "bad.txt",
                       "-o", "report.json", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: bad.txt: line 1: expected 10 fields, got 9"]

    def test_malformed_ground_truth_names_its_file(self, workdir, scene_path):
        (workdir / "bad.gt.txt").write_text("1,1,10,10,5,5,1,-1,-1,-1\n1,1,10,10,5,5,1,-1,-1,-1\n")
        proc = run_cli("eval", "--gt", "bad.gt.txt", "--results", "scene.gt.txt",
                       "-o", "report.json", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: bad.gt.txt: line 2: duplicate (frame, id) = (1, 1)"
        ]


    @pytest.mark.parametrize("fields,problem", [
        # finite fields, but the areas of such boxes overflow the overlap kernel
        ("0.0,0.0,1e300,1e300", "box corner 1e+300 outside [-1e150, 1e150]"),
        # finite fields whose center overflows
        ("1.7e308,0.0,1.7e308,1.0", "box component cx must be finite, got inf"),
    ], ids=["corner", "center"])
    def test_huge_box_is_one_error(self, workdir, fields, problem):
        (workdir / "big.txt").write_text(
            f"1,1,{fields},1.0,-1,-1,-1\n2,1,0.0,0.0,1.0,1.0,1.0,-1,-1,-1\n")
        proc = run_cli("eval", "--gt", "big.txt", "--results", "big.txt",
                       "-o", "report.json", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr == f"error: big.txt: line 1: {problem}\n"
        assert not (workdir / "report.json").exists()


class TestNonAsciiInput:
    """A non-ASCII byte in any input file is one error naming the file,
    the line and the byte."""

    @pytest.mark.parametrize("command", ["eval-gt", "eval-results", "simulate-config",
                                         "track-config", "track-scene"])
    def test_is_one_located_error(self, workdir, scene_path, command):
        bad = b"\xc3\xa9"
        if command.startswith("eval"):
            (workdir / "bad.txt").write_bytes(
                b"1,1,10,10,5,5,1,-1,-1,-1\n2,1," + bad + b",10,5,5,1,-1,-1,-1\n")
            gt, results = (("bad.txt", "scene.gt.txt") if command == "eval-gt"
                           else ("scene.gt.txt", "bad.txt"))
            args = ["eval", "--gt", gt, "--results", results, "-o", "report.json"]
            message = "error: bad.txt: line 2: non-ASCII byte 0xc3"
        elif command == "track-scene":
            (workdir / "bad.txt").write_bytes(scene_path.read_bytes() + bad)
            args = ["track", "--scene", "bad.txt", "-o", "out.txt"]
            lines = scene_path.read_bytes().count(b"\n")
            message = f"error: bad.txt: line {lines + 1}: non-ASCII byte 0xc3"
        else:
            (workdir / "bad.txt").write_bytes(b"seed = 1\r\n# " + bad + b"\n")
            args = (["simulate", "--config", "bad.txt", "-o", "s.json"]
                    if command == "simulate-config" else
                    ["track", "--scene", "scene.json", "--config", "bad.txt", "-o", "out.txt"])
            message = "error: bad.txt: line 2: non-ASCII byte 0xc3"
        proc = run_cli(*args, cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [message]

    @pytest.mark.parametrize("command", ["simulate-config", "track-scene"])
    def test_control_byte_is_one_located_error(self, workdir, scene_path, command):
        # a form feed between JSON tokens or config lines reads as a line
        # break to str.splitlines; here it is refused where it stands
        if command == "track-scene":
            text = scene_path.read_bytes()
            (workdir / "bad.txt").write_bytes(text.replace(b"\n", b"\n\x0c", 1))
            args = ["track", "--scene", "bad.txt", "-o", "out.txt"]
        else:
            (workdir / "bad.txt").write_bytes(b"seed = 1\n\x0cscene.n_frames = 3\n")
            args = ["simulate", "--config", "bad.txt", "-o", "s.json"]
        proc = run_cli(*args, cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: bad.txt: line 2: control byte 0x0c"]


class TestAblate:
    HEADER = "lambda,phi,ns,trials,hota,deta,assa,mota,idf1,ids,fp,fn"

    def test_default_grid_is_lambda_by_phi(self, workdir, scene_path):
        proc = run_cli("ablate", "--scene", "scene.json", "--config", "run.cfg",
                       "-o", "sweep.csv", cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        lines = (workdir / "sweep.csv").read_text().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 1 + 9
        pairs = [tuple(row.split(",")[:2]) for row in lines[1:]]
        assert len(set(pairs)) == 9

    def test_ns_grid(self, workdir, scene_path):
        proc = run_cli("ablate", "--scene", "scene.json", "--config", "run.cfg",
                       "--grid", "ns", "-o", "sweep.csv", cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        lines = (workdir / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 6
        assert [row.split(",")[2] for row in lines[1:]] == ["1", "2", "3", "4", "5", "6"]

    def test_trials_column(self, workdir, scene_path):
        proc = run_cli("ablate", "--scene", "scene.json", "--config", "run.cfg",
                       "--grid", "phi", "--trials", "2", "-o", "sweep.csv", cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        lines = (workdir / "sweep.csv").read_text().splitlines()
        assert all(row.split(",")[3] == "2" for row in lines[1:])

    def test_reruns_are_byte_identical(self, workdir, scene_path):
        for name in ("a.csv", "b.csv"):
            proc = run_cli("ablate", "--scene", "scene.json", "--config", "run.cfg",
                           "--grid", "ns", "-o", name, cwd=workdir)
            assert proc.returncode == 0, proc.stderr
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()

    def test_lambda_cells_reuse_their_phi_run(self, workdir, scene_path, monkeypatch):
        # lambda reaches neither tracking nor evaluation, so the default
        # lambda x phi grid tracks once per phi value
        built = []
        init = ShadowTracker.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ShadowTracker, "__init__", counting_init)
        out = workdir / "inproc.csv"
        code = cli.main(["ablate", "--scene", str(scene_path), "--config",
                         str(workdir / "run.cfg"), "-o", str(out)])
        assert code == 0
        assert len(built) == 3
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        blocks = [[row[1:] for row in rows[i:i + 3]] for i in (0, 3, 6)]
        assert [rows[i][0] for i in (0, 3, 6)] == ["min", "mean", "max"]
        assert blocks[0] == blocks[1] == blocks[2]

        # nor does phi with one shadow, so the phi x ns grid tracks its
        # three ns = 1 cells once per trial, and each of their rows is what
        # a run of its own phi gives
        noisy = workdir / "noisy.cfg"
        noisy.write_text(_CONFIG + "oracle.p_corrupt = 0.3\noracle.box_noise_std = 0.02\n"
                         "oracle.fp_rate = 0.3\noracle.fp_score = 0.6\n", encoding="ascii")
        built.clear()
        code = cli.main(["ablate", "--scene", str(scene_path), "--config", str(noisy),
                         "--grid", "phi x ns", "--trials", "2", "-o", str(out)])
        assert code == 0
        assert len(built) == 2 * 16
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        ones = [row for row in rows if row[2] == "1"]
        assert [row[1] for row in ones] == ["min", "mean", "max"]
        args = cli.build_parser().parse_args(
            ["ablate", "--scene", str(scene_path), "--config", str(noisy), "-o", str(out)])
        run = cli._run_config(args)
        scene = cli._load_scene(str(scene_path))
        for row in ones:
            shadow = replace(run.tracker.shadow, score_reduction=row[1], n_shadows=1)
            alone = cli._mean_metric_columns(scene, scene._gt_rows(), run,
                                             replace(run.tracker, shadow=shadow), 2)
            assert row[4:] == alone

    def test_unknown_axis(self, workdir, scene_path):
        proc = run_cli("ablate", "--scene", "scene.json", "--grid", "lambda x bogus",
                       "-o", "sweep.csv", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: --grid: must be one of ('lambda', 'phi', 'ns'), got 'bogus'"]

    def test_repeated_axis(self, workdir, scene_path):
        proc = run_cli("ablate", "--scene", "scene.json", "--grid", "phi x phi",
                       "-o", "sweep.csv", cwd=workdir)
        assert proc.returncode == 1
        assert "repeated" in proc.stderr


class TestAssignDebug:
    def test_prints_candidates_and_matches(self, workdir, scene_path):
        proc = run_cli("assign-debug", "--scene", "scene.json", "--config", "run.cfg",
                       "--frame", "2", "--layer", "3", cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        assert "frame 2, layer 3/6" in proc.stdout
        assert "tala candidates:" in proc.stdout
        assert "cola candidates:" in proc.stdout
        assert "detection matches:" in proc.stdout

    def test_first_frame_objects_are_detection_candidates(self, workdir, scene_path):
        proc = run_cli("assign-debug", "--scene", "scene.json", "--config", "run.cfg",
                       "--frame", "1", "--layer", "6", cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        assert "live tracks: []" in proc.stdout
        assert "tala candidates: [1, 2, 3]" in proc.stdout

    def test_layer_out_of_range(self, workdir, scene_path):
        proc = run_cli("assign-debug", "--scene", "scene.json",
                       "--frame", "1", "--layer", "7", cwd=workdir)
        assert proc.returncode == 1
        assert "--layer" in proc.stderr

    def test_frame_out_of_range(self, workdir, scene_path):
        proc = run_cli("assign-debug", "--scene", "scene.json",
                       "--frame", "13", "--layer", "1", cwd=workdir)
        assert proc.returncode == 1
        assert "--frame" in proc.stderr


class TestRangeMessages:
    """A value out of range ends in one ``error: name: problem`` line, and
    a run at the bound of a scale knob is clean: exit 0 and no warning,
    with warnings as errors."""

    @pytest.fixture(scope="class")
    def scene_dir(self, tmp_path_factory) -> Path:
        out = tmp_path_factory.mktemp("range")
        (out / "run.cfg").write_text(_CONFIG, encoding="ascii")
        assert cli.main(["simulate", "--config", str(out / "run.cfg"),
                         "-o", str(out / "scene.json")]) == 0
        return out

    @staticmethod
    def _main(capsys, argv: list[str]) -> tuple[int, list[str]]:
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        return code, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("flag,value,message", [
        ("--layer", "7", "error: --layer: must be <= 6, got 7"),
        ("--layer", "0", "error: --layer: must be >= 1, got 0"),
        ("--frame", "13", "error: --frame: must be <= 12, got 13"),
        ("--frame", "-1", "error: --frame: must be >= 1, got -1"),
    ])
    def test_assign_debug_flag(self, scene_dir, capsys, flag, value, message):
        given = {"--frame": "2", "--layer": "1", flag: value}
        argv = ["assign-debug", "--scene", str(scene_dir / "scene.json"),
                "--config", str(scene_dir / "run.cfg")]
        for name, v in given.items():
            argv += [name, v]
        assert self._main(capsys, argv) == (1, [message])

    @pytest.mark.parametrize("command,line,message", [
        ("track", "oracle.box_noise_std = 1e148",
         "error: oracle.box_noise_std: must be <= 1000000, got 1e+148"),
        ("track", "oracle.box_noise_std = 1e160",
         "error: oracle.box_noise_std: must be <= 1000000, got 1e+160"),
        ("track", "oracle.box_noise_std = 1e308",
         "error: oracle.box_noise_std: must be <= 1000000, got 1e+308"),
        ("track", "shadow.sigma_pos = 1e200", "error: shadow.sigma_pos: must be <= 1000000, got 1e+200"),
        ("track", "shadow.sigma_pos = 1e308", "error: shadow.sigma_pos: must be <= 1000000, got 1e+308"),
        ("assign-debug", "cost.w_class = 1e308", "error: cost.w_class: must be <= 1000000, got 1e+308"),
        ("track", "cost.w_l1 = 1000000.5", "error: cost.w_l1: must be <= 1000000, got 1000000.5"),
    ])
    def test_scale_above_its_bound(self, scene_dir, capsys, command, line, message):
        (scene_dir / "big.cfg").write_text(_CONFIG + line + "\n", encoding="ascii")
        argv = [command, "--scene", str(scene_dir / "scene.json"),
                "--config", str(scene_dir / "big.cfg")]
        argv += (["--frame", "2", "--layer", "1"] if command == "assign-debug"
                 else ["-o", str(scene_dir / "big.txt")])
        assert self._main(capsys, argv) == (1, [message])

    def test_scales_at_their_bound_run_clean(self, scene_dir, capsys):
        # the boxes that track writes are ones eval reads back
        cfg = scene_dir / "bound.cfg"
        cfg.write_text(_CONFIG + "".join(
            f"{key} = 1e6\n" for key in ("oracle.box_noise_std", "shadow.sigma_pos",
                                          "cost.w_class", "cost.w_l1", "cost.w_giou")),
            encoding="ascii")
        scene, results = str(scene_dir / "scene.json"), str(scene_dir / "bound.txt")
        for argv in (
            ["track", "--scene", scene, "--config", str(cfg), "-o", results],
            ["eval", "--gt", str(scene_dir / "scene.gt.txt"), "--results", results,
             "-o", str(scene_dir / "bound.json")],
            ["assign-debug", "--scene", scene, "--config", str(cfg), "--frame", "5", "--layer", "1"],
            ["ablate", "--scene", scene, "--config", str(cfg), "--grid", "ns",
             "-o", str(scene_dir / "bound.csv")],
        ):
            assert self._main(capsys, argv) == (0, []), argv


# uniform arrivals, two occlusion windows, corrupted shadows and false
# positives scored above tau, with patience 1: tracks die and new
# identities are born while assign-debug replays the frames before the one
# it shows
_PIN_CONFIG = """\
seed = 3
scene.n_frames = 30
scene.n_objects = 6
scene.schedule = uniform
scene.occlusions = 2:4:9,5:12:20
oracle.box_noise_std = 0.02
oracle.p_corrupt = 0.2
oracle.fp_rate = 0.3
oracle.fp_score = 0.6
tracker.n_detection_sets = 8
tracker.patience = 1
"""

# sha256 of the assign-debug stdout per (mode, frame, layer)
_ASSIGN_DEBUG_DIGESTS = {
    ("--tala", 1, 1): "c2357375216d0b066e1555f9783b23400f7f2548c8d554cdae981a7d259b3711",
    ("--tala", 1, 6): "e674dbeb627e2d680c1c1b215a0d8ce1baedb873e5019e803e766b8981fdd6bc",
    ("--tala", 2, 3): "cd898ff5be319c13e34a4d97c025208a1ed0b34cde0fa48faa376121f61f7e10",
    ("--tala", 9, 6): "52f82997849e13a562e7bd834f2792547d68b200cace161a18c7ade2c903a80f",
    ("--tala", 17, 1): "ba941ea9f580490f6e8972f125ae2fa1f3dd6142dee75c5c0939f047dc6d8126",
    ("--tala", 25, 3): "2dfdafad0cb0da5bd3f8308f48c183c38c83d0f0e584f31d98b1dbfdcbf510a3",
    ("--tala", 30, 6): "4225bbe22eca3f855c64909e3cc6ac9a49d2c458459d41cdfb242263da31130c",
    ("--cola", 1, 1): "683589edebbf5aeedf271f0a38c8432da96155142d4c0362ca63618d32b3c8e4",
    ("--cola", 1, 6): "269a1e61dee169332c3619b009659c4ee01e5585e80036e2c927cbc7c2ffb026",
    ("--cola", 2, 3): "8921283e53761af063a27199076b13efea9b2d1e682dfa47ae8ddb7e099cd490",
    ("--cola", 9, 6): "b6ae3590f2d40d291985c5bd521ac121b65814cd2da13a3972d5dc6fbe2cc652",
    ("--cola", 17, 1): "55a3c66173c790515e1b9eb2b25290b07395b6d008c051f5a553c33f2bd92900",
    ("--cola", 25, 3): "377e6ecc91322a9010cd3d9417b377815d1992145802b88d0cf54d8e9ec24fd2",
    ("--cola", 30, 6): "c77d31ec4a5093275f21f8d1702c13eacc054e5ab6e0f1eb94a5a8390c3a1157",
}

# sha256 of the assign-debug stdout at frame 13 per (flag, value, layer):
# the other cost reductions and shadow counts, under the default mode
_ASSIGN_DEBUG_FLAG_DIGESTS = {
    ("--lambda", "min", 1): "d0f8c82691828807d206a0ae32a2c514ba5ca5571dd0f57c0ebed839b976a83d",
    ("--lambda", "min", 6): "148de9608607c5caf9a0a643961f5102b97273102855a2dcae16f3f434f0c0cf",
    ("--lambda", "mean", 1): "dd358989bd377be2a653227c26885e60bacd50611b10002677cd2291ed32cd51",
    ("--lambda", "mean", 6): "c859ccefb669312f8154d3a9efc9ef5631e107f0a35a6bf62b03abf0bfb96908",
    ("--ns", "1", 1): "1eee3e2db3dcfdf63a384e6ca217f056c18e0a3a5babc73718d13b087bae4fb0",
    ("--ns", "1", 6): "def80834c5f2641fb5b04a349a635e317f700e9671311333b8dd81ee6b7f53ee",
    ("--ns", "5", 1): "3fad7846a3d44caaddc797a54f0afbcc823c3130431f6bc474cf270e7d30c9b4",
    ("--ns", "5", 6): "9152d9ac9f7670f3a2d32d65f135e707e5b576676d12a57cc4d4ee7e739781e4",
}


class TestAssignDebugPins:
    """The exact stdout of assign-debug, after the tracker has replayed
    every frame before the one shown."""

    @pytest.fixture(scope="class")
    def pin_dir(self, tmp_path_factory) -> Path:
        out = tmp_path_factory.mktemp("pins")
        (out / "run.cfg").write_text(_PIN_CONFIG, encoding="ascii")
        proc = run_cli("simulate", "--config", "run.cfg", "-o", "scene.json", cwd=out)
        assert proc.returncode == 0, proc.stderr
        return out

    @pytest.mark.parametrize("mode, frame, layer", sorted(_ASSIGN_DEBUG_DIGESTS))
    def test_stdout_digest(self, pin_dir, capsys, mode, frame, layer):
        capsys.readouterr()
        assert cli.main(["assign-debug", "--scene", str(pin_dir / "scene.json"),
                         "--config", str(pin_dir / "run.cfg"), mode,
                         "--frame", str(frame), "--layer", str(layer)]) == 0
        stdout = capsys.readouterr().out
        digest = hashlib.sha256(stdout.encode("ascii")).hexdigest()
        assert digest == _ASSIGN_DEBUG_DIGESTS[mode, frame, layer], stdout

    @pytest.mark.parametrize("flag, value, layer", sorted(_ASSIGN_DEBUG_FLAG_DIGESTS))
    def test_flag_stdout_digest(self, pin_dir, capsys, flag, value, layer):
        capsys.readouterr()
        assert cli.main(["assign-debug", "--scene", str(pin_dir / "scene.json"),
                         "--config", str(pin_dir / "run.cfg"), flag, value,
                         "--frame", "13", "--layer", str(layer)]) == 0
        stdout = capsys.readouterr().out
        digest = hashlib.sha256(stdout.encode("ascii")).hexdigest()
        assert digest == _ASSIGN_DEBUG_FLAG_DIGESTS[flag, value, layer], stdout


class TestObjectBoundary:
    """No command reaches the object forms of the oracle, the tracker or
    the assignment: each renders, steps and assigns on arrays."""

    def test_commands_run_without_the_object_path(self, workdir, monkeypatch, capsys):
        from shadowmot import assignment, simulator

        def unreachable(*args, **kwargs):
            raise RuntimeError("a command reached the object path")

        for owner, name in ((simulator, "oracle_decode"), (simulator, "_set_arrays"),
                            (ShadowTracker, "step"), (ShadowTracker, "live_sets"),
                            (assignment, "assign_detection_sets"),
                            (assignment, "assign_tracking_sets")):
            monkeypatch.setattr(owner, name, unreachable)
        cfg, scene = str(workdir / "run.cfg"), str(workdir / "scene.json")
        for argv in (
            ["simulate", "--config", cfg, "-o", scene],
            ["track", "--scene", scene, "--config", cfg, "-o", str(workdir / "results.txt")],
            ["eval", "--gt", str(workdir / "scene.gt.txt"), "--results",
             str(workdir / "results.txt"), "-o", str(workdir / "report.json")],
            ["ablate", "--scene", scene, "--config", cfg, "--grid", "phi x ns",
             "-o", str(workdir / "sweep.csv")],
            ["assign-debug", "--scene", scene, "--config", cfg, "--frame", "6", "--layer", "3"],
            ["assign-debug", "--scene", scene, "--config", cfg, "--tala",
             "--frame", "6", "--layer", "6"],
        ):
            assert cli.main(argv) == 0, argv
        assert "tracking targets:" in capsys.readouterr().out


    def test_commands_build_no_per_box_objects(self, workdir, monkeypatch, capsys):
        # simulate, track and ablate keep scenes and emitted boxes as rows:
        # the only boxes they build are the anchors of each tracker's bank
        from shadowmot import tracker

        built = Counter()
        post_init = BoundingBox.__post_init__

        def counted_post_init(self):
            built["BoundingBox"] += 1
            post_init(self)

        monkeypatch.setattr(BoundingBox, "__post_init__", counted_post_init)
        new = Observation.__new__

        def counted_new(cls, *args, **kwargs):
            built["Observation"] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Observation, "__new__", staticmethod(counted_new))
        bank = tracker.init_query_bank

        def counted_bank(n_sets, *args):
            built["anchors"] += n_sets
            return bank(n_sets, *args)

        monkeypatch.setattr(tracker, "init_query_bank", counted_bank)
        assert Observation(1, None, 1.0) and built["Observation"] == 1
        cfg, scene = str(workdir / "run.cfg"), str(workdir / "scene.json")
        for argv in (
            ["simulate", "--config", cfg, "-o", scene],
            ["track", "--scene", scene, "--config", cfg, "-o", str(workdir / "results.txt")],
            ["ablate", "--scene", scene, "--config", cfg, "--grid", "phi x ns",
             "-o", str(workdir / "sweep.csv")],
        ):
            built.clear()
            assert cli.main(argv) == 0, argv
            assert built["Observation"] == 0, argv
            assert built["BoundingBox"] == built["anchors"], argv
        # 16 tracker runs of 6 sets
        assert built["anchors"] == 16 * 6
        assert read_mot(str(workdir / "results.txt")).n_boxes() > 0


_SWEEP_GRIDS = {"phi": ["phi"], "ns": ["ns"], "lambda x phi": ["lambda", "phi"]}


class TestObjectPathEquivalence:
    """The commands keep scenes and emitted boxes as rows from the scene
    document to the MOT file; their bytes must equal what the object path
    in tests/helpers.py writes: one ``SceneFrame`` per scene box, reference
    draws and lifecycle, and ``format_mot`` of the tracklets."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_frames=st.integers(1, 8),
        n_objects=st.integers(0, 5),
        schedule=st.sampled_from(["all-at-start", "uniform"]),
        jitter=st.sampled_from([0.0, 0.01]),
        occluded=st.booleans(),
        n_sets=st.integers(1, 8),
        ns=st.integers(1, 6),
        phi=st.sampled_from(["min", "mean", "max"]),
        patience=st.integers(0, 3),
        box_noise=st.sampled_from([0.0, 0.01]),
        p_corrupt=st.sampled_from([0.0, 0.1, 0.5]),
        fp_rate=st.sampled_from([0.0, 0.1, 0.5]),
        fp_score=st.sampled_from([0.1, 0.8]),
        grid=st.sampled_from(sorted(_SWEEP_GRIDS)),
        trials=st.integers(1, 2),
    )
    def test_commands_equal_object_path(self, seed, n_frames, n_objects, schedule, jitter,
                                        occluded, n_sets, ns, phi, patience, box_noise,
                                        p_corrupt, fp_rate, fp_score, grid, trials):
        text = (f"seed = {seed}\nscene.n_frames = {n_frames}\nscene.n_objects = {n_objects}\n"
                f"scene.schedule = {schedule}\nscene.jitter = {jitter}\n"
                f"tracker.n_detection_sets = {n_sets}\nshadow.ns = {ns}\nshadow.phi = {phi}\n"
                f"tracker.patience = {patience}\noracle.box_noise_std = {box_noise}\n"
                f"oracle.p_corrupt = {p_corrupt}\noracle.fp_rate = {fp_rate}\n"
                f"oracle.fp_score = {fp_score}\nshadow.embed_dim = 8\n")
        if occluded and n_objects:
            text += f"scene.occlusions = 1:1:{(n_frames + 1) // 2}\n"
        run = load_run_config(parse_config_text(text), {})
        scene = generate_scene_reference(run.scene)
        size = (run.scene.image_width, run.scene.image_height)
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            work = Path(tmp)
            (work / "run.cfg").write_text(text, encoding="ascii")
            cfg, doc = str(work / "run.cfg"), str(work / "scene.json")
            assert cli.main(["simulate", "--config", cfg, "-o", doc]) == 0
            assert cli.main(["track", "--scene", doc, "--config", cfg,
                             "-o", str(work / "out.txt")]) == 0
            assert cli.main(["ablate", "--scene", doc, "--config", cfg, "--grid", grid,
                             "--trials", str(trials), "-o", str(work / "grid.csv")]) == 0
            written = {name: (work / name).read_text(encoding="ascii")
                       for name in ("scene.json", "scene.gt.txt", "out.txt", "grid.csv")}
        assert written["scene.json"] == json.dumps(scene.to_json(), indent=2) + "\n"
        assert written["scene.gt.txt"] == format_mot(scene.gt_tracklets(), size)
        assert written["out.txt"] == format_mot(
            track_scene_reference(scene, run.tracker, run.oracle), size)
        assert written["grid.csv"] == ablate_reference(scene, run, _SWEEP_GRIDS[grid], trials)


class TestTrackBytes:
    def test_track_results_equal_the_object_path(self, workdir, scene_path):
        # the check the CI track-bytes steps run, on the small scene
        paths = [str(scene_path), str(workdir / "run.cfg"), str(workdir / "out.txt")]
        assert cli.main(["track", "--scene", paths[0], "--config", paths[1], "-o", paths[2]]) == 0
        assert_track_bytes(*paths)
        # one digit changed is a mismatch that names the results file
        data = bytearray((workdir / "out.txt").read_bytes())
        at = data.index(b".") + 1
        data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
        (workdir / "out.txt").write_bytes(data)
        with pytest.raises(AssertionError, match="out.txt differs from format_mot"):
            assert_track_bytes(*paths)


class TestBadEmittedBox:
    @pytest.mark.parametrize("command", ["track", "ablate"])
    def test_first_bad_box_in_emission_order_is_one_error(self, workdir, scene_path,
                                                          monkeypatch, capsys, command):
        # the tracker asks for the boxes of the sets that pass its gate,
        # once a frame and in emission order: frame 2 gives every such set
        # but the first (identity 1) a negative height, frame 3 gives
        # identity 1 a NaN center: the error names the first bad box
        # emitted, not the bad box of the lowest identity
        from shadowmot import simulator

        render = simulator._render_layer
        calls = []

        def bad_render(draws, scale, rows):
            boxes = render(draws, scale, rows)
            calls.append(len(calls) + 1)
            if calls[-1] == 2:
                boxes[1:] = (0.5, 0.5, 0.1, -1.0)
            elif calls[-1] == 3:
                boxes[:1] = math.nan
            return boxes

        monkeypatch.setattr(simulator, "_render_layer", bad_render)
        capsys.readouterr()
        out = workdir / "out.txt"
        assert cli.main([command, "--scene", str(scene_path), "--config",
                         str(workdir / "run.cfg"), "-o", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: box extent must be non-negative, got w=0.1, h=-1.0"]
        assert calls == [1, 2]
        assert not out.exists()


class TestWriteErrors:
    def test_failed_track_leaves_no_output(self, workdir, scene_path):
        (workdir / "p1.txt.manifest.json").mkdir()
        proc = run_cli("track", "--scene", "scene.json", "--config", "run.cfg", "-o", "p1.txt",
                       cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: [Errno 21] Is a directory: 'p1.txt.manifest.json'"]
        assert not (workdir / "p1.txt").exists()

    def test_failed_simulate_leaves_no_output(self, workdir):
        (workdir / "p2.gt.txt").mkdir()
        proc = run_cli("simulate", "--config", "run.cfg", "-o", "p2.json", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: [Errno 21] Is a directory: 'p2.gt.txt'"]
        assert not (workdir / "p2.json").exists()
        assert (workdir / "p2.gt.txt").is_dir()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["simulate", "track", "eval", "ablate"])
    def test_full_device_is_one_error_naming_the_file(self, workdir, scene_path, command):
        run_cli("track", "--scene", "scene.json", "--config", "run.cfg",
                "-o", "results.txt", cwd=workdir)
        args = {
            "simulate": ["simulate", "--config", "run.cfg"],
            "track": ["track", "--scene", "scene.json", "--config", "run.cfg"],
            "eval": ["eval", "--gt", "scene.gt.txt", "--results", "results.txt"],
            "ablate": ["ablate", "--scene", "scene.json", "--config", "run.cfg"],
        }[command]
        proc = run_cli(*args, "-o", "/dev/full", cwd=workdir)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: ") and "'/dev/full'" in lines[0]


class TestConfigErrors:
    def test_unknown_key_in_config_file(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("bogus = 1\n")
        proc = run_cli("simulate", "--config", "bad.cfg", "-o", "s.json", cwd=tmp_path)
        assert proc.returncode == 1
        assert "error: unknown config key 'bogus'" in proc.stderr

    def test_bad_value_in_config_file(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("scene.n_frames = many\n")
        proc = run_cli("simulate", "--config", "bad.cfg", "-o", "s.json", cwd=tmp_path)
        assert proc.returncode == 1
        assert "scene.n_frames" in proc.stderr

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("simulate", "--config", "nope.cfg", "-o", "s.json", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")


class TestMain:
    def test_key_error_is_not_an_input_error(self, monkeypatch, tmp_path):
        # input errors arrive as ValueError or OSError; a KeyError is a bug
        # and must surface as a traceback, not as exit 1
        def broken(args):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "_cmd_simulate", broken)
        with pytest.raises(KeyError):
            cli.main(["simulate", "-o", str(tmp_path / "scene.json")])

    @pytest.mark.parametrize("command,module,step,args", [
        ("simulate", "simulator", "generate_scene", ["--config", "run.cfg", "-o", "s.json"]),
        ("track", "simulator", "_track_rows",
         ["--scene", "scene.json", "--config", "run.cfg", "-o", "out.txt"]),
        ("eval", "metrics", "_evaluate",
         ["--gt", "scene.gt.txt", "--results", "scene.gt.txt", "-o", "report.json"]),
        ("ablate", "metrics", "_evaluate",
         ["--scene", "scene.json", "--config", "run.cfg", "-o", "grid.csv"]),
        ("assign-debug", "simulator", "_live_layer",
         ["--scene", "scene.json", "--config", "run.cfg", "--frame", "2", "--layer", "1"]),
    ])
    def test_out_of_memory_is_one_error_line(self, workdir, scene_path, monkeypatch, capsys,
                                             command, module, step, args):
        # CPython's own MemoryError carries no message
        def exhausted(*_args, **_kwargs):
            raise MemoryError()

        monkeypatch.setattr(importlib.import_module(f"shadowmot.{module}"), step, exhausted)
        monkeypatch.chdir(workdir)
        capsys.readouterr()
        assert cli.main([command, *args]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {command} ran out of memory"]
