"""End-to-end command line tests.

Everything runs through ``python -m shadowmot.cli`` in a subprocess so the
tests exercise the real entry point: argument parsing, file I/O, exit codes,
and the exact bytes written to disk.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from shadowmot import ShadowTracker, cli, read_mot

from helpers import cli_env

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
        assert proc.returncode == 2

    def test_simulate_requires_output(self, tmp_path):
        proc = run_cli("simulate", cwd=tmp_path)
        assert proc.returncode == 2
        assert "-o" in proc.stderr or "--output" in proc.stderr


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
        assert sorted(gt.by_frame()) == list(range(1, 13))

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
        assert proc.stderr.splitlines() == ["error: key 'seed': must be >= 0, got -1"]

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
        assert sorted(pred.by_frame()) == list(range(1, 13))

        manifest = json.loads((workdir / "out.txt.manifest.json").read_text())
        assert manifest["scene_path"] == "scene.json"
        cfg = manifest["config"]
        assert cfg["seed"] == 5
        assert cfg["scene.seed"] == 5
        assert cfg["scene.n_frames"] == 12
        assert cfg["shadow.ns"] == 4
        assert cfg["tracker.mode"] == "cola"
        assert cfg["tracker.n_detection_sets"] == 6

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
    ], ids=["duplicate-id", "short-box", "scalar-box", "tracks-object", "top-level-list",
            "missing-frames", "string-frame", "zero-id", "string-n-frames", "string-occlusion",
            "zero-n-frames", "unknown-occlusion-id", "missing-n-frames", "missing-n-objects"])
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
        else:
            doc["config"]["occlusions"] = [[9, 1, 2]]
        (workdir / "bad.json").write_text(json.dumps(doc))
        proc = run_cli("track", "--scene", "bad.json", "--config", "run.cfg",
                       "-o", "out.txt", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [message]

    def test_tala_and_cola_are_mutually_exclusive(self, workdir, scene_path):
        proc = run_cli("track", "--scene", "scene.json", "--tala", "--cola",
                       "-o", "out.txt", cwd=workdir)
        assert proc.returncode == 2


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
        assert "line 1: expected 10 fields, got 9" in proc.stderr


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

    def test_unknown_axis(self, workdir, scene_path):
        proc = run_cli("ablate", "--scene", "scene.json", "--grid", "lambda x bogus",
                       "-o", "sweep.csv", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "bogus" in proc.stderr

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
