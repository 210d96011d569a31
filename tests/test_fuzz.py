"""Fuzz tests of the input boundary.

Scene documents, config text, MOT files and flag values are mutated from
small valid inputs.  Every command must then exit 0 with nothing on
stderr, or exit 1 with exactly one ``error:`` line; nothing may end in a
traceback or a warning, and each run has a deadline.  The inputs stay
small.  Besides small values, the scene document, config text and flag
fuzz write huge numbers: integers from 10**6 to 10**400, floats up to
1e308 and subnormals.  Every size key's bound is below 10**6, so no
mutated input asks for a long run.

The commands run in-process through ``cli.main`` with warnings as errors,
so a warning or an exception that escapes it fails the test with its
traceback.
"""

from __future__ import annotations

import io
import json
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
from hypothesis import HealthCheck, event, given, settings

from shadowmot import MotFormatError, SceneConfig, cli, evaluate, generate_scene, mot_io, read_mot
from shadowmot.config import _SCHEMA, _float, _int
from shadowmot.metrics import _overlaps
from shadowmot.mot_io import _read_lines, _read_rows

from helpers import _frame_overlaps, read_mot_reference

_CONFIG = """\
seed = 3
scene.n_frames = 4
scene.n_objects = 2
scene.occlusions = 1:2:3
oracle.box_noise_std = 0.01
oracle.p_corrupt = 0.2
tracker.n_detection_sets = 4
shadow.ns = 2
shadow.embed_dim = 4
"""

_SCENE = generate_scene(
    SceneConfig(n_frames=4, n_objects=2, occlusions=((1, 2, 3),), schedule="uniform", seed=3)
).to_json()

_GT = """\
1,1,10.0,20.0,30.0,40.0,1.0,-1,-1,-1
1,2,100.0,20.0,30.0,40.0,1.0,-1,-1,-1
2,1,12.0,21.0,30.0,40.0,1.0,-1,-1,-1
2,2,98.0,22.0,30.0,40.0,1.0,-1,-1,-1
3,2,97.5,23.0,31.0,39.0,1.0,-1,-1,-1
"""

_RESULTS = """\
1,5,11.0,20.0,30.0,40.0,0.9,-1.0,-1.0,-1.0
2,5,12.5,21.0,29.0,40.0,0.8,-1.0,-1.0,-1.0
2,6,99.0,22.0,30.0,41.0,0.7,-1.0,-1.0,-1.0
3,6,97.0,23.5,31.0,39.0,0.6,-1.0,-1.0,-1.0
"""

# characters a text mutation inserts: field syntax, the letters of nan,
# inf and exponents, line breaks, a form feed (a line break to
# str.splitlines only) and one non-ASCII character
_CHARS = st.sampled_from(list("0123456789.,-+e =#\n\tnaifx_\x0c") + ["é"])

# huge numbers of either sign, and subnormals
_HUGE = (
    st.integers(10**6, 10**400) | st.integers(-10**400, -10**6)
    | st.floats(-1e308, 1e308) | st.sampled_from([1e308, -1e308, 5e-324, 2.2e-308, -5e-324])
)

_JSON_LEAF = (
    st.none() | st.booleans() | st.integers(-2, 9) | _HUGE
    | st.floats() | st.text(st.sampled_from("tboxidvsa1"), max_size=3)
)
_JSON_VALUE = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["t", "box", "visible", "id", "frames", "x"]),
                      inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_text(draw, base: str, max_edits: int = 3) -> str:
    """``base`` after up to ``max_edits`` single-character inserts,
    deletions and replacements."""
    text = base
    for _ in range(draw(st.integers(1, max_edits))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = draw(_CHARS)
        if op == "insert":
            text = text[:at] + char + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + char + text[at + 1:]
    return text


def _containers(doc, path=()):
    """The path of every dict and list inside ``doc``, ``doc`` first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _containers(value, path + (key,))


def _numbers(doc, path=()):
    """The path of every number inside ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numbers(value, path + (key,))
        elif type(value) in (int, float):
            yield path + (key,)


@st.composite
def _mutated_scene(draw) -> str:
    """The scene document's text after one to three structural edits
    (replace, delete or add a value, or make a number huge), and sometimes
    one text edit."""
    doc = json.loads(json.dumps(_SCENE))
    for _ in range(draw(st.integers(1, 3))):
        numbers = list(_numbers(doc))
        if numbers and draw(st.integers(0, 3)) == 0:
            *where, key = draw(st.sampled_from(numbers))
            target = doc
            for step in where:
                target = target[step]
            target[key] = draw(_HUGE)
            continue
        paths = list(_containers(doc))
        target = doc
        for key in draw(st.sampled_from(paths)):
            target = target[key]
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "add" or not keys:
            value = draw(_JSON_VALUE)
            if isinstance(target, dict):
                target[draw(st.sampled_from(["t", "box", "visible", "id", "frames", "junk"]))] = value
            else:
                target.append(value)
            continue
        key = draw(st.sampled_from(keys))
        if op == "delete":
            del target[key]
        else:
            target[key] = draw(_JSON_VALUE)
    text = json.dumps(doc, indent=2)
    if draw(st.booleans()):
        text = draw(_mutated_text(text, max_edits=1))
    return text


@st.composite
def _huge_config(draw) -> str:
    """The config text with one numeric key, set in it or not, given a
    huge value."""
    key = draw(st.sampled_from([k for k, (convert, _, _) in _SCHEMA.items()
                                if convert in (_int, _float)]))
    lines = [line for line in _CONFIG.splitlines() if not line.startswith(key + " ")]
    return "\n".join(lines + [f"{key} = {draw(_HUGE)!r}"]) + "\n"


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code: int, stderr: str) -> None:
    event(f"exit {code}")
    if code == 0:
        assert stderr == ""
    else:
        assert code == 1
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), stderr


def _write(path: Path, text: str) -> str:
    path.write_bytes(text.encode("utf-8"))
    return str(path)


# the deadline of one example, a few commands on a four-frame scene
_FUZZ = settings(max_examples=150, deadline=timedelta(seconds=5),
                 suppress_health_check=[HealthCheck.too_slow])


class TestCliBoundary:
    @_FUZZ
    @given(scene=_mutated_scene(), command=st.sampled_from(["track", "assign-debug"]))
    def test_mutated_scene_document(self, scene, command):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            argv = [command, "--scene", _write(d / "scene.json", scene),
                    "--config", _write(d / "run.cfg", _CONFIG)]
            argv += ["--frame", "2", "--layer", "1"] if command == "assign-debug" else [
                "-o", str(d / "out.txt")]
            _assert_clean_exit(*_run(argv))

    @_FUZZ
    @given(config=_mutated_text(_CONFIG) | _huge_config(),
           command=st.sampled_from(["simulate", "track"]))
    def test_mutated_config_text(self, config, command):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            argv = [command, "--config", _write(d / "run.cfg", config), "-o", str(d / "out")]
            if command == "track":
                argv += ["--scene", _write(d / "scene.json", json.dumps(_SCENE))]
            _assert_clean_exit(*_run(argv))

    @_FUZZ
    @given(gt=_mutated_text(_GT), results=_mutated_text(_RESULTS), which=st.integers(0, 2))
    def test_mutated_mot_files(self, gt, results, which):
        # mutate the ground truth, the results or both
        gt = gt if which != 1 else _GT
        results = results if which != 0 else _RESULTS
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            _assert_clean_exit(*_run([
                "eval", "--gt", _write(d / "gt.txt", gt),
                "--results", _write(d / "res.txt", results), "-o", str(d / "report.json"),
            ]))

    @_FUZZ
    @given(
        flags=st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["--ns", "--patience", "--seed"]),
                          (st.integers(-2, 4) | st.integers(10**6, 10**400)).map(str)),
                st.tuples(st.just("--tau"),
                          st.floats(allow_subnormal=False).map(repr)
                          | st.sampled_from(["nan", "inf", "-inf", "-0.0", "1"])),
            ),
            min_size=1, max_size=3, unique_by=lambda f: f[0],
        ),
        command=st.sampled_from(["track", "assign-debug", "ablate"]),
        frame=st.integers(-1, 6),
        layer=st.integers(-1, 7),
    )
    def test_out_of_range_flag_values(self, flags, command, frame, layer):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            argv = [command, "--scene", _write(d / "scene.json", json.dumps(_SCENE)),
                    "--config", _write(d / "run.cfg", _CONFIG)]
            for flag, value in flags:
                # ablate takes no tracking flags
                if command != "ablate" or flag == "--seed":
                    argv.append(f"{flag}={value}")
            if command == "assign-debug":
                argv += ["--frame", str(frame), "--layer", str(layer)]
            else:
                argv += ["-o", str(d / "out")]
            if command == "ablate":
                argv += ["--grid", "phi", "--trials", str(layer)]
            _assert_clean_exit(*_run(argv))


class TestBulkReadMot:
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(_mutated_text(_GT), _mutated_text(_RESULTS, max_edits=6)))
    def test_equals_the_per_line_pass(self, text):
        # the one-pass read must accept exactly what the per-line parser
        # accepts, with equal tracklets, and fail with its message
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(Path(tmp) / "m.txt", text)
            try:
                expected = read_mot_reference(path)
            except ValueError as exc:
                expected = exc
            try:
                got = read_mot(path)
            except MotFormatError as exc:
                assert isinstance(expected, ValueError)
                assert str(exc) == str(expected)
            else:
                assert got == expected


# box fields: exact ties, signed zeros and empty extents, besides any
# moderate float; some files also hold values near the corner bound and
# values whose sums overflow
_COORD = st.sampled_from([0.0, -0.0, 1.0, 2.5, 10.0]) | st.floats(-100, 100)
_EXTENT = st.sampled_from([0.0, 1.0, 5.0, 10.0]) | st.floats(0, 100)
_HUGE_COORD = _COORD | st.sampled_from([4e149, -4e149, 1.7e308, -1.7e308])
_HUGE_EXTENT = _EXTENT | st.sampled_from([6e149, 1.7e308])


@st.composite
def _mot_file(draw) -> str:
    """MOT text over frames 1-6 and ids 1-5, so that frames appear on one
    side only and ids recur over frames and across files; the lines come
    in any order, the file may be empty, and some files are mutated so
    that the read takes the per-line pass; some files repeat a (frame, id)
    on a later line, and some put a ``_`` between two digits, where int()
    and float() take it."""
    keys = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 5)), unique=True,
                         max_size=16))
    if keys and draw(st.integers(0, 3)) == 0:
        first = draw(st.integers(0, len(keys) - 1))
        keys.insert(draw(st.integers(first + 1, len(keys))), keys[first])
    huge = draw(st.integers(0, 3)) == 0
    coord, extent = (_HUGE_COORD, _HUGE_EXTENT) if huge else (_COORD, _EXTENT)
    text = "".join(
        f"{f},{i},{draw(coord)!r},{draw(coord)!r},{draw(extent)!r},{draw(extent)!r},"
        f"{draw(st.floats(0, 1))!r},-1,-1,-1\n"
        for f, i in keys
    )
    spots = [m.start() for m in re.finditer(r"(?<=[0-9])(?=[0-9])", text)]
    if spots and draw(st.integers(0, 7)) == 0:
        at = draw(st.sampled_from(spots))
        text = text[:at] + "_" + text[at:]
    return draw(_mutated_text(text, max_edits=2)) if draw(st.booleans()) else text


class TestPerLinePass:
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(_mutated_text(_GT), _mutated_text(_RESULTS, max_edits=6),
                           _mot_file(), _mot_file().map(lambda text: text + text)))
    def test_refused_file_names_its_line(self, text):
        # the per-line pass runs only on a file that the one-pass checks
        # refused, and must raise that file's located error; a file read
        # twice over repeats every (frame, id) on a later line
        raised = []

        def per_line(path, lines):
            try:
                _read_lines(path, lines)
            except BaseException as exc:
                raised.append(exc)
                raise

        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(mot_io, "_read_lines", per_line):
            path = _write(Path(tmp) / "m.txt", text)
            try:
                _read_rows(path)
            except MotFormatError:
                pass
        if raised:
            event("refused")
            [exc] = raised
            assert type(exc) is MotFormatError
            assert re.match(re.escape(path) + r": line [1-9][0-9]*: ", str(exc)), str(exc)


class TestArrayCore:
    @settings(max_examples=300, deadline=None)
    @given(gt=_mot_file(), results=_mot_file())
    def test_equals_the_object_path(self, gt, results):
        # eval reads rows and never builds a box; its report must equal
        # evaluate on the tracklets of the per-line pass, which read_mot
        # must return too, and each overlap matrix must equal the object
        # reference's, bit for bit
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            g, r = _write(d / "gt.txt", gt), _write(d / "res.txt", results)
            report = d / "report.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, err = _run(["eval", "--gt", g, "--results", r, "-o", str(report)])
            try:
                gt_tracklets, pred_tracklets = (read_mot_reference(path) for path in (g, r))
            except ValueError as exc:
                event("malformed")
                assert (code, err) == (1, f"error: {exc}\n")
                return
            assert (code, err) == (0, "")
            assert (read_mot(g), read_mot(r)) == (gt_tracklets, pred_tracklets)
            expected = evaluate(gt_tracklets, pred_tracklets).to_json_dict()
            assert report.read_text() == cli._dump_json(expected)

            frames = _overlaps(_read_rows(g), _read_rows(r)).frames
            reference = _frame_overlaps(gt_tracklets, pred_tracklets)
            assert len(frames) == len(reference)
            for (rows, cols, sim), (gt_ids, pred_ids, expected_sim) in zip(frames, reference):
                assert [gt_tracklets.identities[k] for k in rows] == gt_ids
                assert [pred_tracklets.identities[k] for k in cols] == pred_ids
                assert sim.shape == expected_sim.shape
                assert sim.tobytes() == expected_sim.tobytes()
