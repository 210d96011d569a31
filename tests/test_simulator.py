from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from shadowmot import (
    BoundingBox,
    OracleConfig,
    Scene,
    SceneConfig,
    ShadowConfig,
    ShadowSet,
    ShadowTracker,
    TrackerConfig,
    Tracklets,
    evaluate,
    generate_scene,
    emit_training_targets,
    init_query_bank,
    oracle_decode,
    simulator,
    track_scene,
)
from shadowmot.geometry import _corners, _iou, _rows
from shadowmot.simulator import (_FALLBACK_HI, _FALLBACK_LO, _claim, _frame_draws, _render_layer,
                                 _set_arrays)

from helpers import (
    SceneFrame,
    SceneReference,
    by_frame,
    claim_reference,
    corners,
    first_frame,
    frame_draws_reference,
    generate_scene_reference,
    render_layer_reference,
    scene_from_json_reference,
    scene_reference,
    track_scene_reference,
    tracklet_bits,
)


def _tracking_set(identity, box, ns=1):
    return ShadowSet(set_id=identity, role="tracking", anchor=box, n_shadows=ns, identity=identity)


def _detection_set(set_id, ns=1, at=(0.5, 0.5, 0.05, 0.05)):
    return ShadowSet(set_id=set_id, role="detection", anchor=BoundingBox(*at), n_shadows=ns)


@st.composite
def _scene_configs(draw) -> SceneConfig:
    """Any valid scene config: sizes up to their bounds, occlusion windows,
    an integer or float jitter and a seed past 64 bits."""
    n_frames = draw(st.integers(1, 100000))
    n_objects = draw(st.integers(0, min(10000, 1000000 // n_frames)))
    occlusions = []
    if n_objects:
        for _ in range(draw(st.integers(0, 3))):
            start, end = sorted(draw(st.lists(st.integers(1, n_frames), min_size=2, max_size=2)))
            occlusions.append((draw(st.integers(1, n_objects)), start, end))
    return SceneConfig(
        n_frames=n_frames, n_objects=n_objects,
        schedule=draw(st.sampled_from(["all-at-start", "uniform"])),
        jitter=draw(st.integers(0, 3) | st.floats(0.0, allow_infinity=False)),
        occlusions=tuple(occlusions),
        image_width=draw(st.integers(1, 100000)),
        image_height=draw(st.integers(1, 100000)),
        seed=draw(st.integers(0, 2**70)),
    )


class TestSceneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(n_frames=0, n_objects=1)
        with pytest.raises(ValueError):
            SceneConfig(n_frames=10, n_objects=-1)
        with pytest.raises(ValueError):
            SceneConfig(n_frames=10, n_objects=1, schedule="burst")
        with pytest.raises(ValueError):
            SceneConfig(n_frames=10, n_objects=1, jitter=-0.1)
        with pytest.raises(ValueError):
            SceneConfig(n_frames=10, n_objects=1, image_width=0)

    def test_occlusion_of_unknown_identity_rejected(self):
        SceneConfig(n_frames=10, n_objects=2, occlusions=((2, 3, 7),))
        with pytest.raises(ValueError, match=r"^occlusions\[0\]: identity must be in"):
            SceneConfig(n_frames=10, n_objects=2, occlusions=((3, 3, 7),))
        with pytest.raises(ValueError, match=r"^occlusions\[0\]: identity must be in"):
            SceneConfig(n_frames=10, n_objects=0, occlusions=((1, 3, 7),))

    def test_occlusion_window_bounds(self):
        SceneConfig(n_frames=10, n_objects=2, occlusions=((1, 3, 7),))
        with pytest.raises(ValueError):
            SceneConfig(n_frames=10, n_objects=2, occlusions=((1, 0, 7),))
        with pytest.raises(ValueError):
            SceneConfig(n_frames=10, n_objects=2, occlusions=((1, 3, 11),))
        with pytest.raises(ValueError):
            SceneConfig(n_frames=10, n_objects=2, occlusions=((1, 7, 3),))

    def test_json_round_trip(self):
        cfg = SceneConfig(
            n_frames=20, n_objects=3, schedule="uniform", jitter=0.002,
            occlusions=((2, 5, 9),), seed=7,
        )
        assert SceneConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg

    def test_unknown_config_key_rejected(self):
        doc = SceneConfig(n_frames=5, n_objects=1).to_json()
        doc["fps"] = 30
        with pytest.raises(ValueError):
            SceneConfig.from_json(doc)

    @settings(max_examples=200, deadline=None)
    @given(cfg=_scene_configs())
    def test_json_round_trip_property(self, cfg):
        doc = cfg.to_json()
        assert list(doc) == [field.name for field in dataclasses.fields(SceneConfig)]
        assert SceneConfig.from_json(json.loads(json.dumps(doc))) == cfg
        scene = Scene.from_json(SceneReference(cfg, {}).to_json())
        assert scene.to_json_text() == json.dumps(scene.to_json(), indent=2) + "\n"

    # one row per field, so that a new scene key is covered as it is added;
    # a bool is not an integer and not a number
    @pytest.mark.parametrize("name,value", [
        pytest.param(field.name, value, id=f"{field.name}-{value}")
        for field in dataclasses.fields(SceneConfig) for value in (None, True)
    ])
    def test_wrong_json_type_names_its_key(self, name, value):
        expected = {"int": "an integer", "float": "a number", "str": "a string"}
        field_type = {field.name: field.type for field in dataclasses.fields(SceneConfig)}[name]
        if name == "occlusions":
            message = "config.occlusions: expected a list"
        else:
            message = f"config.{name}: expected {expected[field_type]}, got {value!r}"
        doc = generate_scene(SceneConfig(n_frames=3, n_objects=1)).to_json()
        doc["config"][name] = value
        with pytest.raises(ValueError) as info:
            Scene.from_json(doc)
        assert str(info.value) == message


class TestOracleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(box_noise_std=-0.1)
        with pytest.raises(ValueError):
            OracleConfig(base_score=1.5)
        with pytest.raises(ValueError):
            OracleConfig(p_corrupt=-0.2)
        with pytest.raises(ValueError):
            OracleConfig(refinement=1.0)


class TestGenerateScene:
    def test_deterministic(self):
        cfg = SceneConfig(n_frames=30, n_objects=5, jitter=0.001, seed=3)
        assert generate_scene(cfg) == generate_scene(cfg)

    def test_all_at_start(self):
        scene = generate_scene(SceneConfig(n_frames=20, n_objects=6, seed=1))
        assert scene._identities == (1, 2, 3, 4, 5, 6)
        tracks = scene_reference(scene).tracks
        for identity in scene._identities:
            states = tracks[identity]
            assert states[0].t == 1
            assert states[-1].t == 20
            assert len(states) == 20

    def test_uniform_schedule(self):
        scene = generate_scene(
            SceneConfig(n_frames=50, n_objects=12, schedule="uniform", seed=2)
        )
        firsts = [first_frame(scene, i) for i in scene._identities]
        assert all(1 <= f <= 50 for f in firsts)
        assert len(set(firsts)) > 1
        for states in scene_reference(scene).tracks.values():
            assert states[-1].t == 50

    def test_boxes_stay_in_frame(self):
        for seed in range(5):
            cfg = SceneConfig(n_frames=200, n_objects=8, jitter=0.005, seed=seed)
            scene = generate_scene(cfg)
            for states in scene_reference(scene).tracks.values():
                for s in states:
                    x1, y1, x2, y2 = corners(s.box)
                    assert -1e-9 <= x1 and x2 <= 1 + 1e-9
                    assert -1e-9 <= y1 and y2 <= 1 + 1e-9

    def test_occlusion_clears_visibility_only(self):
        cfg = SceneConfig(n_frames=30, n_objects=4, occlusions=((3, 10, 20),), seed=5)
        tracks = scene_reference(generate_scene(cfg)).tracks
        for s in tracks[3]:
            assert s.visible == (not 10 <= s.t <= 20)
        for identity in (1, 2, 4):
            assert all(s.visible for s in tracks[identity])

    def test_trajectories_independent_of_population(self):
        few = scene_reference(generate_scene(SceneConfig(n_frames=25, n_objects=3, seed=9)))
        many = scene_reference(generate_scene(SceneConfig(n_frames=25, n_objects=10, seed=9)))
        for identity in (1, 2, 3):
            assert few.tracks[identity] == many.tracks[identity]

    def test_sizes_constant_over_time(self):
        scene = generate_scene(SceneConfig(n_frames=60, n_objects=4, jitter=0.002, seed=4))
        for states in scene_reference(scene).tracks.values():
            assert len({(s.box.w, s.box.h) for s in states}) == 1

    def test_zero_objects(self):
        scene = generate_scene(SceneConfig(n_frames=5, n_objects=0))
        assert scene._identities == ()
        assert scene.visible_objects(1) == ()


class TestSceneViews:
    def test_states_and_visible_objects(self):
        cfg = SceneConfig(n_frames=10, n_objects=3, occlusions=((2, 4, 6),), seed=0)
        scene = generate_scene(cfg)
        states = scene_reference(scene).states_at(5)
        assert set(states) == {1, 2, 3}
        vis = scene.visible_objects(5)
        assert [o.identity for o in vis] == [1, 3]

    def test_gt_tracklets_skip_occluded(self):
        cfg = SceneConfig(n_frames=10, n_objects=2, occlusions=((1, 3, 5),), seed=0)
        scene = generate_scene(cfg)
        gt = scene.gt_tracklets()
        assert [o.frame for o in gt.track(1)] == [1, 2, 6, 7, 8, 9, 10]
        full = scene_reference(scene).tracks[1]
        assert [s.t for s in full] == list(range(1, 11))

    def test_scene_json_round_trip(self):
        cfg = SceneConfig(
            n_frames=15, n_objects=4, schedule="uniform", jitter=0.001,
            occlusions=((2, 3, 5),), seed=13,
        )
        scene = generate_scene(cfg)
        recovered = Scene.from_json(json.loads(json.dumps(scene.to_json())))
        assert recovered == scene

    def test_scene_json_version_checked(self):
        doc = generate_scene(SceneConfig(n_frames=3, n_objects=1)).to_json()
        doc["version"] = 2
        with pytest.raises(ValueError):
            Scene.from_json(doc)

    def test_scene_json_unknown_key_rejected(self):
        doc = generate_scene(SceneConfig(n_frames=3, n_objects=1)).to_json()
        doc["annotations"] = []
        with pytest.raises(ValueError):
            Scene.from_json(doc)


    @pytest.mark.parametrize("defect,message", [
        ("missing-config", "scene document: missing key 'config'"),
        ("track-not-object", "tracks[0]: expected an object"),
        ("frames-not-list", "tracks[0].frames: expected a list"),
        ("missing-t", "tracks[0].frames[1]: missing key 't'"),
        ("string-number", "tracks[0].frames[1].box: expected a list of 4 numbers, got ['0.5', 0.5, 0.1, 0.1]"),
        ("negative-width", "tracks[0].frames[1].box: box extent must be non-negative, got w=-0.1, h=0.1"),
        ("visible-int", "tracks[0].frames[1].visible: expected true or false, got 1"),
        ("config-list", "config: expected an object"),
        ("string-n-frames", "config.n_frames: expected an integer, got 'x'"),
        ("bool-seed", "config.seed: expected an integer, got True"),
        ("negative-seed", "config.seed: must be >= 0, got -1"),
        ("float-width", "config.image_width: expected an integer, got 1920.0"),
        ("string-jitter", "config.jitter: expected a number, got '0'"),
        ("number-schedule", "config.schedule: expected a string, got 1"),
        ("occlusions-object", "config.occlusions: expected a list"),
        ("short-occlusion", "config.occlusions[0]: expected a list of 3 integers, got [1, 2]"),
        ("zero-n-frames", "config.n_frames: must be >= 1, got 0"),
        ("long-scene", "config.n_frames: must be <= 100000, got 100001"),
        ("huge-n-frames", "config.n_frames: must be <= 100000, got 1000000000000"),
        ("negative-n-objects", "config.n_objects: must be >= 0, got -1"),
        ("crowded-scene", "config.n_objects: must be <= 10000, got 10001"),
        ("huge-n-objects", "config.n_objects: must be <= 10000, got 1000000000000"),
        ("large-scene", "config.n_frames * config.n_objects: must be <= 1000000, "
                        "got 100000 * 10000"),
        ("unknown-schedule",
         "config.schedule: must be one of ('all-at-start', 'uniform'), got 'burst'"),
        ("negative-jitter", "config.jitter: must be finite and >= 0, got -0.5"),
        pytest.param("huge-jitter", f"config.jitter: must be finite and >= 0, got {10 ** 400}",
                     id="huge-jitter"),
        ("zero-width", "config.image_width: must be >= 1, got 0"),
        ("zero-height", "config.image_height: must be >= 1, got 0"),
        ("wide-image", "config.image_width: must be <= 100000, got 100001"),
        pytest.param("huge-width", f"config.image_width: must be <= 100000, got {10 ** 400}",
                     id="huge-width"),
        ("tall-image", "config.image_height: must be <= 100000, got 100001"),
        ("occlusion-id-zero", "config.occlusions[0]: identity must be in [1, n_objects = 1], got 0"),
        ("occlusion-id-unknown",
         "config.occlusions[1]: identity must be in [1, n_objects = 1], got 2"),
        ("occlusion-past-end", "config.occlusions[0]: window [2, 4] outside frames [1, 3]"),
        ("occlusion-reversed", "config.occlusions[0]: window [3, 2] outside frames [1, 3]"),
        ("missing-n-frames", "config: missing key 'n_frames'"),
        ("missing-n-objects", "config: missing key 'n_objects'"),
        ("unknown-config-key", "config: unknown keys ['bogus']"),
        ("frame-past-end", "tracks[0]: frames outside [1, 3]"),
        ("repeated-frame", "tracks[0]: frame indices must strictly increase"),
        ("second-track-past-end", "tracks[1]: frames outside [1, 3]"),
        # a track's frame order and range are checked after every frame of
        # every track, and its order before its range
        ("later-visible-beats-order", "tracks[1].frames[0].visible: expected true or false, got 1"),
        ("first-frame-zero", "tracks[0]: frames outside [1, 3]"),
        ("unknown-track-key", "tracks[0]: unknown keys ['junk']"),
        ("unknown-frame-key", "tracks[0].frames[0]: unknown keys ['colour']"),
        ("huge-int-box", "tracks[0].frames[1].box: int too large to convert to float"),
        ("far-box", "tracks[0].frames[1].box: must be <= 1000000, got 1e+308"),
        ("far-negative-box", "tracks[0].frames[1].box: must be >= -1000000, got -1000000.5"),
        ("huge-int-extent", "tracks[0].frames[1].box: must be <= 1000000, got 1000001"),
        ("bool-version", "unsupported scene document version True"),
    ])
    def test_scene_json_defect_names_its_path(self, defect, message):
        doc = generate_scene(SceneConfig(n_frames=3, n_objects=1)).to_json()
        track = doc["tracks"][0]
        frame = track["frames"][1]
        if defect == "missing-config":
            del doc["config"]
        elif defect == "track-not-object":
            doc["tracks"][0] = [1]
        elif defect == "frames-not-list":
            track["frames"] = {}
        elif defect == "missing-t":
            del frame["t"]
        elif defect == "string-number":
            frame["box"] = ["0.5", 0.5, 0.1, 0.1]
        elif defect == "negative-width":
            frame["box"] = [0.5, 0.5, -0.1, 0.1]
        elif defect == "visible-int":
            frame["visible"] = 1
        elif defect == "config-list":
            doc["config"] = [doc["config"]]
        elif defect == "string-n-frames":
            doc["config"]["n_frames"] = "x"
        elif defect == "bool-seed":
            doc["config"]["seed"] = True
        elif defect == "negative-seed":
            doc["config"]["seed"] = -1
        elif defect == "float-width":
            doc["config"]["image_width"] = 1920.0
        elif defect == "string-jitter":
            doc["config"]["jitter"] = "0"
        elif defect == "number-schedule":
            doc["config"]["schedule"] = 1
        elif defect == "occlusions-object":
            doc["config"]["occlusions"] = {}
        elif defect == "short-occlusion":
            doc["config"]["occlusions"] = [[1, 2]]
        elif defect == "zero-n-frames":
            doc["config"]["n_frames"] = 0
        elif defect == "long-scene":
            doc["config"]["n_frames"] = 100001
        elif defect == "huge-n-frames":
            doc["config"]["n_frames"] = 10 ** 12
        elif defect == "negative-n-objects":
            doc["config"]["n_objects"] = -1
        elif defect == "crowded-scene":
            doc["config"]["n_objects"] = 10001
        elif defect == "huge-n-objects":
            doc["config"]["n_objects"] = 10 ** 12
        elif defect == "large-scene":
            doc["config"]["n_frames"] = 100000
            doc["config"]["n_objects"] = 10000
        elif defect == "unknown-schedule":
            doc["config"]["schedule"] = "burst"
        elif defect == "negative-jitter":
            doc["config"]["jitter"] = -0.5
        elif defect == "huge-jitter":
            doc["config"]["jitter"] = 10 ** 400
        elif defect == "zero-width":
            doc["config"]["image_width"] = 0
        elif defect == "zero-height":
            doc["config"]["image_height"] = 0
        elif defect == "wide-image":
            doc["config"]["image_width"] = 100001
        elif defect == "huge-width":
            doc["config"]["image_width"] = 10 ** 400
        elif defect == "tall-image":
            doc["config"]["image_height"] = 100001
        elif defect == "occlusion-id-zero":
            doc["config"]["occlusions"] = [[0, 1, 2]]
        elif defect == "occlusion-id-unknown":
            doc["config"]["occlusions"] = [[1, 1, 2], [2, 1, 2]]
        elif defect == "occlusion-past-end":
            doc["config"]["occlusions"] = [[1, 2, 4]]
        elif defect == "missing-n-frames":
            del doc["config"]["n_frames"]
        elif defect == "missing-n-objects":
            del doc["config"]["n_objects"]
        elif defect == "unknown-config-key":
            doc["config"]["bogus"] = 1
        elif defect == "frame-past-end":
            track["frames"][2]["t"] = 4
        elif defect == "repeated-frame":
            frame["t"] = 1
        elif defect == "second-track-past-end":
            doc["tracks"].append({"id": 7, "frames": [dict(frame, t=4)]})
        elif defect == "later-visible-beats-order":
            track["frames"][:2] = track["frames"][1::-1]
            doc["tracks"].append({"id": 7, "frames": [dict(frame, visible=1)]})
        elif defect == "first-frame-zero":
            track["frames"][0]["t"] = 0
        elif defect == "unknown-track-key":
            track["junk"] = 1
        elif defect == "unknown-frame-key":
            track["frames"][0]["colour"] = "red"
        elif defect == "huge-int-box":
            frame["box"] = [10 ** 400, 0.5, 0.1, 0.1]
        elif defect == "far-box":
            frame["box"] = [0.5, 1e308, 0.1, 0.1]
        elif defect == "far-negative-box":
            frame["box"] = [-1000000.5, 0.5, 0.1, 0.1]
        elif defect == "huge-int-extent":
            frame["box"] = [0.5, 0.5, 1000001, 0.1]
        elif defect == "bool-version":
            doc["version"] = True
        else:
            doc["config"]["occlusions"] = [[1, 3, 2]]
        with pytest.raises(ValueError) as info:
            Scene.from_json(doc)
        assert str(info.value) == message


# box components a scene document may hold, at most 10**6 from 0: signed
# zeros, subnormals, the bound and values that json writes in exponent form
_COMPONENT = st.floats(-1e6, 1e6) | st.sampled_from(
    [0.0, -0.0, 1e-300, 5e-324, 1e6, -1e6, 0.1, 1e-07]
)
# any finite component, which a scene built in memory may hold
_ANY_COMPONENT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1e-300, 5e-324, 1e16, 1.5e300, 0.1, 1e-07]
)


@st.composite
def _scene_documents(draw, component=_COMPONENT) -> dict:
    """A scene document: centers drawn from ``component`` (valid with the
    default), non-negative extents, visible flags, tracks with no frames,
    occlusions and an integer or float jitter."""
    extent = component.map(abs) | st.just(-0.0)
    n_frames = draw(st.integers(1, 5))
    n_objects = draw(st.integers(0, 4))
    tracks = []
    for identity in draw(st.sets(st.integers(1, 50), max_size=4)):
        frames = sorted(draw(st.sets(st.integers(1, n_frames), max_size=n_frames)))
        tracks.append({"id": identity, "frames": [
            {"t": t,
             "box": [draw(component), draw(component), draw(extent), draw(extent)],
             "visible": draw(st.booleans())}
            for t in frames
        ]})
    occlusions = [[i, 1, n_frames] for i in range(1, n_objects + 1) if draw(st.booleans())]
    config = {
        "n_frames": n_frames, "n_objects": n_objects,
        "schedule": draw(st.sampled_from(["all-at-start", "uniform"])),
        "jitter": draw(st.integers(0, 3) | st.floats(0.0, 0.5)),
        "occlusions": occlusions, "seed": draw(st.integers(0, 9)),
    }
    return {"version": 1, "config": config, "tracks": tracks}


class TestSceneWriter:
    """``Scene.to_json_text`` renders each frame with one template and must
    give the bytes of ``json.dumps(scene.to_json(), indent=2)``."""

    @settings(max_examples=300, deadline=None)
    @given(doc=_scene_documents())
    def test_loaded_scene_equals_json_dumps(self, doc):
        scene = Scene.from_json(json.loads(json.dumps(doc)))
        assert scene.to_json_text() == json.dumps(scene.to_json(), indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(doc=_scene_documents(_ANY_COMPONENT))
    def test_scene_of_any_finite_boxes_equals_json_dumps(self, doc):
        # built from rows, past the bound of a scene document's boxes
        scene = SceneReference.from_json(doc).scene()
        assert scene.to_json_text() == json.dumps(scene.to_json(), indent=2) + "\n"

    @settings(max_examples=40, deadline=None)
    @given(
        n_frames=st.integers(1, 8),
        n_objects=st.integers(0, 5),
        schedule=st.sampled_from(["all-at-start", "uniform"]),
        jitter=st.integers(0, 1) | st.floats(0.0, 0.05),
        occluded=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    def test_generated_scene_equals_json_dumps(
        self, n_frames, n_objects, schedule, jitter, occluded, seed
    ):
        occlusions = ((1, 1, n_frames),) if occluded and n_objects else ()
        scene = generate_scene(SceneConfig(
            n_frames=n_frames, n_objects=n_objects, schedule=schedule, jitter=jitter,
            occlusions=occlusions, seed=seed,
        ))
        assert scene.to_json_text() == json.dumps(scene.to_json(), indent=2) + "\n"

    def test_numpy_float_components_are_written_as_floats(self):
        # under numpy 2, '%r' % np.float64(0.5) is 'np.float64(0.5)'
        box = BoundingBox(np.float64(0.5), np.float64(-0.0), np.float64(1e-07), np.float64(0.25))
        scene = SceneReference(SceneConfig(n_frames=1, n_objects=1),
                               {1: (SceneFrame(1, box, True),)}).scene()
        text = scene.to_json_text()
        assert text == json.dumps(scene.to_json(), indent=2) + "\n"
        assert scene_reference(Scene.from_json(json.loads(text))).tracks[1][0].box == box


def _scene_bits(scene: Scene) -> tuple:
    """A scene's identities and the bytes of each of its row arrays."""
    return (scene._identities, scene._frames.tobytes(), scene._codes.tobytes(),
            scene._boxes.tobytes(), scene._visible.tobytes())


def _object_bits(objects) -> bytes:
    """The identity and box components of each of ``objects``, which are
    ``(identity, box)`` pairs, as float64 bytes."""
    return np.array([(identity, box.cx, box.cy, box.w, box.h) for identity, box in objects],
                    dtype=float).tobytes()


class TestSceneRows:
    """``Scene`` holds its boxes as rows; the object form in tests/helpers.py
    (one ``SceneFrame`` per box) must give the same states, visible objects,
    ground truth and document bytes."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_frames=st.integers(1, 12),
        n_objects=st.integers(0, 6),
        schedule=st.sampled_from(["all-at-start", "uniform"]),
        jitter=st.sampled_from([0, 0.0, 0.004, 0.3]),
        occluded=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    def test_generated_rows_equal_object_form(
        self, n_frames, n_objects, schedule, jitter, occluded, seed
    ):
        occlusions = ((n_objects, 1, (n_frames + 1) // 2),) if occluded and n_objects else ()
        cfg = SceneConfig(n_frames=n_frames, n_objects=n_objects, schedule=schedule,
                          jitter=jitter, occlusions=occlusions, seed=seed)
        scene = generate_scene(cfg)
        want = generate_scene_reference(cfg)
        got = scene_reference(scene)
        assert got.tracks == want.tracks
        assert [_state_bits(s) for states in got.tracks.values() for s in states] == [
            _state_bits(s) for states in want.tracks.values() for s in states]
        _assert_visible_objects_equal(scene, want)
        gt = scene.gt_tracklets()
        assert gt == want.gt_tracklets()
        assert tracklet_bits(gt) == tracklet_bits(want.gt_tracklets())
        assert scene.to_json_text() == json.dumps(want.to_json(), indent=2) + "\n"
        loaded = Scene.from_json(want.to_json())
        assert scene == loaded
        assert _scene_bits(scene) == _scene_bits(loaded)

    @settings(max_examples=300, deadline=None)
    @given(doc=_scene_documents())
    def test_visible_objects_equal_object_form(self, doc):
        # identities in any document order, with gaps in their frames, with
        # no frames and hidden in some
        _assert_visible_objects_equal(Scene.from_json(doc), SceneReference.from_json(doc))

    def test_identities_without_frames_are_kept(self):
        cfg = SceneConfig(n_frames=3, n_objects=1)
        box = BoundingBox(0.5, 0.5, 0.1, 0.1)
        tracks = {9: (), 4: (SceneFrame(2, box, False), SceneFrame(3, box, True))}
        scene = Scene.from_json(SceneReference(cfg, tracks).to_json())
        assert scene._identities == (4, 9)
        assert scene_reference(scene).tracks == tracks
        assert scene.visible_objects(1) == scene.visible_objects(2) == ()
        assert [o.identity for o in scene.visible_objects(3)] == [4]
        loaded = Scene.from_json(json.loads(scene.to_json_text()))
        assert loaded == scene
        assert loaded != Scene.from_json(SceneReference(cfg, {4: tracks[4]}).to_json())


def _assert_visible_objects_equal(scene: Scene, want: SceneReference) -> None:
    """``scene.visible_objects`` equals the visible states of ``want`` in
    ascending identity order, bit for bit, in every frame from 0 to
    n_frames + 1."""
    for frame in range(0, scene.n_frames + 2):
        objects = scene.visible_objects(frame)
        states = sorted(want.states_at(frame).items())
        assert _object_bits((o.identity, o.box) for o in objects) == _object_bits(
            (identity, s.box) for identity, s in states if s.visible)


def _state_bits(state: SceneFrame) -> bytes:
    return np.array([state.t, *state.box.__dict__.values(), state.visible], dtype=float).tobytes()


def _mutate(doc: dict, mutation: str, draw) -> None:
    """Apply ``mutation`` to a scene document, with ``draw`` picking the
    track, the frame and the box component it hits."""
    tracks = doc["tracks"]
    # an earlier mutation may have broken some track or frame
    whole = [track for track in tracks if type(track) is dict and "id" in track
             and type(track.get("frames")) is list]
    states = [(track, frame) for track in whole for frame in track["frames"]
              if type(frame) is dict and type(frame.get("box")) is list and len(frame["box"]) == 4]
    if mutation == "empty-track":
        tracks.insert(draw(st.integers(0, len(tracks))), {"id": 1000 + len(tracks), "frames": []})
        return
    if mutation == "huge-id":
        tracks.append({"id": 2 ** 70, "frames": [{"t": 1, "box": [0.5, 0.5, 0.1, 0.1],
                                                  "visible": True}]})
        return
    if mutation in ("repeated-id", "zero-id", "bool-id", "extra-track-key", "track-not-object"):
        if not whole:
            tracks.append({"id": 1, "frames": []})
            whole = tracks[-1:]
        track = whole[draw(st.integers(0, len(whole) - 1))]
        if mutation == "repeated-id":
            tracks.append({"id": track["id"], "frames": []})
        elif mutation == "zero-id":
            track["id"] = 0
        elif mutation == "bool-id":
            track["id"] = True
        elif mutation == "extra-track-key":
            track["junk"] = 1
        else:
            tracks[tracks.index(track)] = [track]
        return
    if not states:
        tracks.append({"id": 999, "frames": [{"t": 1, "box": [0.5, 0.5, 0.1, 0.1],
                                              "visible": True}]})
        states = [(tracks[-1], tracks[-1]["frames"][0])]
    track, frame = states[draw(st.integers(0, len(states) - 1))]
    k = draw(st.integers(0, 3))
    value = {
        "negative-zero-extent": -0.0, "int-component": 3, "int-zero": 0,
        "2**53+1": 2 ** 53 + 1, "10**400": 10 ** 400, "bool-component": True,
        "nan": math.nan, "infinity": math.inf, "-infinity": -math.inf,
        "at-bound": 1e6, "int-at-bound": 10 ** 6, "past-bound": 1000000.0000000001,
        "negative-extent": -0.5,
    }.get(mutation)
    if value is not None:
        frame["box"][2 + k % 2 if mutation == "negative-zero-extent" else k] = value
    elif mutation == "bool-t":
        frame["t"] = True
    elif mutation == "frame-zero":
        frame["t"] = 0
    elif mutation == "frame-past-end":
        frame["t"] = doc["config"]["n_frames"] + 1
    elif mutation == "frames-out-of-order":
        frame["t"] = track["frames"][0]["t"] if frame is not track["frames"][0] else 10 ** 6
    elif mutation == "huge-t":
        frame["t"] = 2 ** 64
    elif mutation == "visible-int":
        frame["visible"] = 1
    elif mutation == "extra-frame-key":
        frame["colour"] = "red"
    elif mutation == "missing-box":
        del frame["box"]
    elif mutation == "short-box":
        frame["box"].pop()
    elif mutation == "box-not-list":
        frame["box"] = {"cx": 0.5}
    elif mutation == "frame-not-object":
        track["frames"][track["frames"].index(frame)] = [frame]
    elif mutation == "frames-not-list":
        track["frames"] = {"t": 1}
    else:
        assert mutation == "none", mutation


_MUTATIONS = [
    "none", "empty-track", "huge-id", "repeated-id", "zero-id", "bool-id", "extra-track-key",
    "track-not-object", "negative-zero-extent", "int-component", "int-zero", "2**53+1",
    "10**400", "bool-component", "nan", "infinity", "-infinity", "at-bound", "int-at-bound",
    "past-bound", "negative-extent", "bool-t", "frame-zero", "frame-past-end",
    "frames-out-of-order", "huge-t", "visible-int", "extra-frame-key", "missing-box",
    "short-box", "box-not-list", "frame-not-object", "frames-not-list",
]


class TestOnePassRead:
    """``Scene.from_json`` reads the tracks in one pass into rows; the
    object-form reader in tests/helpers.py reads them one ``SceneFrame`` at
    a time, then checks each track's frames and builds the rows.  On mutated
    documents both must accept or reject alike, with one message, and give
    rows equal by ``tobytes()``."""

    @settings(max_examples=400, deadline=None)
    @given(doc=_scene_documents(), mutations=st.lists(st.sampled_from(_MUTATIONS), max_size=2),
           data=st.data())
    def test_equals_per_frame_pass(self, doc, mutations, data):
        for mutation in mutations:
            _mutate(doc, mutation, data.draw)
        try:
            want = scene_from_json_reference(doc)
        except ValueError as exc:
            want = str(exc)
        try:
            got = Scene.from_json(doc)
        except ValueError as exc:
            got = str(exc)
        if isinstance(want, str):
            assert got == want
            return
        assert _scene_bits(got) == _scene_bits(want)

    def test_integer_components_are_checked_exactly(self):
        doc = generate_scene(SceneConfig(n_frames=3, n_objects=2, seed=1)).to_json()
        doc["tracks"][1]["frames"][1]["box"][0] = 2 ** 53 + 1
        with pytest.raises(ValueError) as info:
            Scene.from_json(doc)
        assert str(info.value) == "tracks[1].frames[1].box: must be <= 1000000, got 9007199254740993"
        doc["tracks"][1]["frames"][1]["box"][0] = 10 ** 6
        assert scene_reference(Scene.from_json(doc)).tracks[2][1].box.cx == 1e6


class TestEmitTrainingTargets:
    def test_first_frame_all_newborn(self):
        scene = generate_scene(SceneConfig(n_frames=10, n_objects=5, seed=1))
        gt = emit_training_targets(scene, 1, track_ids=[])
        assert len(gt.newborn) == 5
        assert gt.tracked == ()

    def test_steady_state_all_tracked(self):
        scene = generate_scene(SceneConfig(n_frames=10, n_objects=5, seed=1))
        gt = emit_training_targets(scene, 2, track_ids=[1, 2, 3, 4, 5])
        assert len(gt.tracked) == 5
        assert gt.newborn == ()

    def test_partition_soundness(self):
        scene = generate_scene(
            SceneConfig(n_frames=40, n_objects=8, schedule="uniform", seed=6)
        )
        rng = np.random.default_rng(0)
        for frame in (1, 10, 25, 40):
            visible = {o.identity for o in scene.visible_objects(frame)}
            track_ids = [int(i) for i in rng.choice(20, size=6, replace=False)]
            gt = emit_training_targets(scene, frame, track_ids)
            assert {o.identity for o in gt.tracked} == visible & set(track_ids)
            assert {o.identity for o in gt.newborn} == visible - set(track_ids)

    def test_frame_out_of_range(self):
        scene = generate_scene(SceneConfig(n_frames=10, n_objects=1))
        with pytest.raises(ValueError):
            emit_training_targets(scene, 0, [])
        with pytest.raises(ValueError):
            emit_training_targets(scene, 11, [])


class TestOracleDecode:
    def _scene(self, **kw):
        defaults = dict(n_frames=20, n_objects=3, seed=2)
        defaults.update(kw)
        return generate_scene(SceneConfig(**defaults))

    def test_layer_count_and_shape(self):
        scene = self._scene()
        live = [_detection_set(i, ns=2) for i in range(4)]
        layers = oracle_decode(scene, 1, live, OracleConfig(), n_layers=6)
        assert len(layers) == 6
        assert all(len(layer) == 4 for layer in layers)
        assert all(len(per_set) == 2 for layer in layers for per_set in layer)

    def test_deterministic(self):
        scene = self._scene()
        live = [_detection_set(i) for i in range(3)]
        cfg = OracleConfig(box_noise_std=0.01, p_corrupt=0.2, fp_rate=0.3)
        a = oracle_decode(scene, 4, live, cfg, 6)
        b = oracle_decode(scene, 4, live, cfg, 6)
        assert a == b

    def test_tracking_set_served_gt_box(self):
        scene = self._scene()
        track = scene_reference(scene).tracks[1]
        box = track[2].box
        live = [_tracking_set(1, track[0].box)]
        layers = oracle_decode(scene, 3, live, OracleConfig(), 6)
        for layer in layers:
            got, scores = layer[0][0]
            assert got == box
            assert scores == (0.9,)

    def test_occluded_track_score_drops(self):
        scene = self._scene(occlusions=((1, 5, 8),))
        live = [_tracking_set(1, scene_reference(scene).tracks[1][0].box)]
        layers = oracle_decode(scene, 6, live, OracleConfig(), 1)
        _, scores = layers[0][0][0]
        assert scores == (pytest.approx(0.3),)

    def test_absent_track_scores_zero(self):
        scene = generate_scene(
            SceneConfig(n_frames=30, n_objects=2, schedule="uniform", seed=14)
        )
        late = max(scene._identities, key=lambda i: first_frame(scene, i))
        first = first_frame(scene, late)
        assert first > 1
        anchor = scene_reference(scene).tracks[late][0].box
        live = [_tracking_set(late, anchor)]
        layers = oracle_decode(scene, first - 1, live, OracleConfig(), 1)
        box, scores = layers[0][0][0]
        assert scores == (0.0,)
        assert box == anchor

    def test_detection_association_covers_unclaimed(self):
        scene = self._scene()
        live = [_detection_set(i) for i in range(5)]
        layers = oracle_decode(scene, 1, live, OracleConfig(), 6)
        final = layers[-1]
        gt_boxes = {o.box for o in scene.visible_objects(1)}
        served = {box for box, scores in (p[0] for p in final) if scores[0] > 0.5}
        assert served == gt_boxes

    def test_recognition_ignores_identity_counter(self):
        # tracker identities outrun scene ids after any death; serving
        # must go by where the anchor sits, not by the counter value
        scene = self._scene()
        box = scene_reference(scene).tracks[2][0].box
        live = [_tracking_set(99, box)]
        final = oracle_decode(scene, 1, live, OracleConfig(), 1)[0]
        got, scores = final[0][0]
        assert got == box
        assert scores == (0.9,)

    def test_lost_anchor_scores_zero(self):
        scene = generate_scene(SceneConfig(n_frames=5, n_objects=1, seed=9))
        b = scene_reference(scene).tracks[1][0].box
        off = BoundingBox((b.cx + 0.5) % 1.0, (b.cy + 0.5) % 1.0, b.w, b.h)
        live = [_tracking_set(1, off)]
        final = oracle_decode(scene, 1, live, OracleConfig(), 1)[0]
        got, scores = final[0][0]
        assert scores == (0.0,)
        assert got == off

    def test_two_sets_cannot_claim_one_object(self):
        scene = generate_scene(SceneConfig(n_frames=5, n_objects=1, seed=9))
        b = scene_reference(scene).tracks[1][0].box
        live = [_tracking_set(7, b), _tracking_set(8, b)]
        final = oracle_decode(scene, 1, live, OracleConfig(), 1)[0]
        assert final[0][0][1] == (0.9,)
        assert final[1][0][1] == (0.0,)

    def test_claimed_objects_not_reserved(self):
        scene = self._scene()
        tracked_box = scene_reference(scene).tracks[1][0].box
        live = [_tracking_set(1, tracked_box)] + [_detection_set(i) for i in range(4)]
        final = oracle_decode(scene, 1, live, OracleConfig(), 6)[-1]
        det_boxes = {box for box, scores in (p[0] for p in final[1:]) if scores[0] > 0.5}
        want = {o.box for o in scene.visible_objects(1) if o.identity != 1}
        assert det_boxes == want

    def test_anchored_set_claims_its_object(self):
        scene = self._scene()
        target = scene.visible_objects(1)[1]
        b = target.box
        live = [
            _detection_set(0, at=(b.cx, b.cy, b.w, b.h)),
            _detection_set(1),
            _detection_set(2),
        ]
        final = oracle_decode(scene, 1, live, OracleConfig(), 6)[-1]
        assert final[0][0][0] == b

    def test_unassociated_sets_silent_without_fp(self):
        scene = self._scene()
        live = [_detection_set(i) for i in range(8)]
        final = oracle_decode(scene, 1, live, OracleConfig(fp_rate=0.0), 6)[-1]
        low = [p[0][1][0] for p in final]
        assert sum(1 for s in low if s == 0.0) == 5

    def test_false_positive_rate_one(self):
        scene = self._scene()
        live = [_detection_set(i) for i in range(8)]
        final = oracle_decode(scene, 1, live, OracleConfig(fp_rate=1.0, fp_score=0.7), 6)[-1]
        scores = sorted(p[0][1][0] for p in final)
        assert scores == [0.7, 0.7, 0.7, 0.7, 0.7, 0.9, 0.9, 0.9]

    def test_corruption_shared_across_layers(self):
        scene = self._scene()
        live = [_detection_set(i, ns=3) for i in range(4)]
        cfg = OracleConfig(p_corrupt=0.5, seed=8)
        layers = oracle_decode(scene, 2, live, cfg, 6)
        for set_idx in range(4):
            for shadow_idx in range(3):
                per_layer = [layers[l][set_idx][shadow_idx][1] for l in range(6)]
                assert all(s == per_layer[0] for s in per_layer)

    def test_corruption_zeroes_everything_at_rate_one(self):
        scene = self._scene()
        live = [_detection_set(i) for i in range(4)]
        final = oracle_decode(scene, 1, live, OracleConfig(p_corrupt=1.0), 1)[0]
        assert all(p[0][1] == (0.0,) for p in final)

    def test_layer_noise_shrinks_geometrically(self):
        scene = generate_scene(SceneConfig(n_frames=40, n_objects=6, seed=21))
        cfg = OracleConfig(box_noise_std=0.02, refinement=0.5, seed=3)
        deltas: dict[int, list[float]] = {l: [] for l in range(6)}
        reference = scene_reference(scene)
        for frame in range(1, 41):
            states = reference.states_at(frame)
            live = [
                _tracking_set(i, states[i].box, ns=3)
                for i in scene._identities
            ]
            layers = oracle_decode(scene, frame, live, cfg, 6)
            for l in range(6):
                for set_idx, identity in enumerate(scene._identities):
                    gt = states[identity].box
                    for box, _ in layers[l][set_idx]:
                        deltas[l].extend(
                            (box.cx - gt.cx, box.cy - gt.cy)
                        )
        # 1440 centre-coordinate draws per layer; w/h are excluded since
        # clamping at zero would skew the sample
        last = float(np.std(deltas[5]))
        assert 0.02 * 0.5**5 * 0.9 < last < 0.02 * 0.5**5 * 1.1
        means = [float(np.mean(np.abs(deltas[l]))) for l in range(6)]
        assert all(a > b for a, b in zip(means, means[1:]))
        for l in range(5):
            assert means[l + 1] == pytest.approx(means[l] / 2, rel=1e-9)

    def test_run_digest_pinned(self):
        # every layer of every frame of a noisy tracked run, as float64
        # bytes; pins the oracle's draw order and per-layer rendering
        scene = generate_scene(SceneConfig(n_frames=12, n_objects=4, schedule="uniform", seed=3))
        oracle = OracleConfig(seed=3, box_noise_std=0.01, p_corrupt=0.2, fp_rate=0.3)
        tracker = ShadowTracker(TrackerConfig(n_detection_sets=8), seed=3)
        h = hashlib.sha256()
        for frame in range(1, 13):
            layers = oracle_decode(scene, frame, tracker.live_sets(), oracle, 6)
            for layer in layers:
                for per_set in layer:
                    for box, scores in per_set:
                        h.update(np.array([box.cx, box.cy, box.w, box.h, *scores]).tobytes())
            tracker.step(layers[-1])
        assert len(tracker.track_identities) == 3
        assert h.hexdigest() == "abb88bde6e92fd38f463ca959ea6ede175c64e05a0a632924366c65a044ac7e3"

    def test_frame_out_of_range(self):
        scene = self._scene()
        with pytest.raises(ValueError):
            oracle_decode(scene, 0, [], OracleConfig(), 6)
        with pytest.raises(ValueError):
            oracle_decode(scene, 21, [], OracleConfig(), 6)


class TestTrackScene:
    def test_noise_free_run_is_faithful(self):
        scene = generate_scene(SceneConfig(n_frames=30, n_objects=5, seed=4))
        cfg = TrackerConfig(
            shadow=ShadowConfig(embed_dim=8), n_detection_sets=10
        )
        tracklets = track_scene(scene, cfg, OracleConfig(seed=4))
        gt = scene.gt_tracklets()
        assert len(tracklets) == 5
        assert tracklets.n_boxes() == gt.n_boxes()
        pred_frames = by_frame(tracklets)
        gt_frames = by_frame(gt)
        for frame, objs in gt_frames.items():
            got = {box for box, _ in pred_frames[frame].values()}
            want = {box for box, _ in objs.values()}
            assert got == want

    @pytest.mark.parametrize("seed", [2, 7, 13, 31])
    def test_noise_free_staggered_entries_faithful(self, seed):
        # objects entering mid-sequence make tracker identities diverge
        # from scene ids; tracking must stay perfect regardless
        scene = generate_scene(
            SceneConfig(n_frames=40, n_objects=5, schedule="uniform", seed=seed)
        )
        cfg = TrackerConfig(
            shadow=ShadowConfig(embed_dim=8), n_detection_sets=20
        )
        tracklets = track_scene(scene, cfg, OracleConfig(seed=seed))
        report = evaluate(scene.gt_tracklets(), tracklets)
        assert len(tracklets) == 5
        assert report.hota == pytest.approx(1.0)
        assert report.mota == pytest.approx(1.0)
        assert report.idf1 == pytest.approx(1.0)
        assert report.ids == 0

    def test_deterministic(self):
        scene = generate_scene(SceneConfig(n_frames=15, n_objects=3, seed=5))
        cfg = TrackerConfig(shadow=ShadowConfig(embed_dim=8), n_detection_sets=6)
        oracle = OracleConfig(seed=5, box_noise_std=0.005, p_corrupt=0.1)
        assert track_scene(scene, cfg, oracle) == track_scene(scene, cfg, oracle)

    @pytest.mark.parametrize("seed,ns,p_corrupt,box_noise", [
        (0, 1, 0.0, 0.0),
        (3, 3, 0.1, 0.005),
        (8, 2, 0.3, 0.02),
        (21, 5, 0.05, 0.01),
    ])
    def test_equals_loop_over_full_decode(self, seed, ns, p_corrupt, box_noise):
        scene = generate_scene(
            SceneConfig(n_frames=15, n_objects=4, schedule="uniform", seed=seed)
        )
        cfg = TrackerConfig(shadow=ShadowConfig(n_shadows=ns, embed_dim=8), n_detection_sets=8)
        oracle = OracleConfig(seed=seed, box_noise_std=box_noise, p_corrupt=p_corrupt, fp_rate=0.2)
        tracker = ShadowTracker(cfg, seed=seed)
        want = Tracklets()
        for frame in range(1, scene.n_frames + 1):
            layers = oracle_decode(scene, frame, tracker.live_sets(), oracle, cfg.n_layers)
            result = tracker.step(layers[-1])
            for identity, box, score in result.outputs:
                want.add(identity, result.frame, box, score)
        assert want.n_boxes() > 0
        assert track_scene(scene, cfg, oracle) == want


def _branches(live, draws, oracle):
    """Which draw branches a frame took: recognized and lost tracking
    sets, associated detection sets, and unassociated ones with the
    false-positive coin up or down."""
    seen = set()
    for set_, d in zip(live, draws):
        if set_.role == "tracking":
            seen.add("track-served" if d.target is not None else "track-lost")
        elif d.target is not None:
            seen.add("detection-served")
        else:
            up = d.scores and max(d.scores) == oracle.fp_score
            seen.add("fp-up" if up else "fp-down")
    return seen


def _assert_draws_equal(got, ref):
    """The arrays of ``_frame_draws`` against the reference's per-set
    draws stacked along the set and shadow axes, bit for bit."""
    has = [r.target is not None for r in ref]
    assert got.served.tolist() == has
    eps = np.array([r.eps for r in ref])
    assert got.eps.shape == eps.shape
    assert got.scores.shape == eps.shape[:2]
    served = _rows([r.target for r in ref if r.target is not None])
    assert got.box[got.served].tobytes() == served.tobytes()
    unserved = _rows([r.fallback for r in ref if r.target is None])
    assert got.box[~got.served].tobytes() == unserved.tobytes()
    assert got.eps.tobytes() == eps.tobytes()
    assert got.scores.tobytes() == np.array([r.scores for r in ref]).tobytes()


class TestBatchedDraws:
    """``_frame_draws`` draws with one call where the reference in
    tests/helpers.py makes one per value group, and returns arrays where
    the reference returns one record per set; every array must equal the
    stacked reference bit for bit, frame by frame along whole tracked
    runs."""

    @staticmethod
    def _run(scene, cfg, oracle):
        tracker = ShadowTracker(cfg, seed=oracle.seed)
        scale = oracle.refinement ** (cfg.n_layers - 1)
        want = Tracklets()
        seen = set()
        reference = scene_reference(scene)
        for frame in range(1, scene.n_frames + 1):
            live = tracker.live_sets()
            got = _frame_draws(scene, frame, *_set_arrays(live), oracle)
            ref = frame_draws_reference(reference, frame, live, oracle)
            _assert_draws_equal(got, ref)
            seen |= _branches(live, ref, oracle)
            result = tracker.step(render_layer_reference(ref, scale))
            for identity, box, score in result.outputs:
                want.add(identity, result.frame, box, score)
        assert track_scene(scene, cfg, oracle) == want
        return seen

    @given(
        seed=st.integers(0, 2**16),
        ns=st.integers(1, 6),
        box_noise=st.sampled_from([0.0, 0.01]),
        p_corrupt=st.sampled_from([0.0, 0.1, 0.5]),
        fp_rate=st.sampled_from([0.1, 0.5]),
        fp_score=st.sampled_from([0.1, 0.8]),
        patience=st.integers(1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_reference_along_a_run(
        self, seed, ns, box_noise, p_corrupt, fp_rate, fp_score, patience
    ):
        scene = generate_scene(SceneConfig(
            n_frames=10, n_objects=4, schedule="uniform",
            occlusions=((1, 3, 5), (2, 6, 8)), seed=seed,
        ))
        cfg = TrackerConfig(
            shadow=ShadowConfig(n_shadows=ns, embed_dim=8), n_detection_sets=6, patience=patience
        )
        oracle = OracleConfig(
            seed=seed, box_noise_std=box_noise, p_corrupt=p_corrupt,
            fp_rate=fp_rate, fp_score=fp_score,
        )
        self._run(scene, cfg, oracle)

    def test_a_run_takes_every_branch(self):
        # false positives above tau are born as tracks whose anchors sit on
        # nothing, so the next frames hold lost tracking sets; patience keeps
        # them alive for the draws to reach
        scene = generate_scene(SceneConfig(
            n_frames=12, n_objects=4, schedule="uniform", occlusions=((1, 3, 5),), seed=3,
        ))
        cfg = TrackerConfig(
            shadow=ShadowConfig(n_shadows=3, embed_dim=8), n_detection_sets=6, patience=2
        )
        oracle = OracleConfig(
            seed=3, box_noise_std=0.01, p_corrupt=0.1, fp_rate=0.3, fp_score=0.8
        )
        assert self._run(scene, cfg, oracle) == {
            "track-served", "track-lost", "detection-served", "fp-up", "fp-down",
        }

    @given(
        seed=st.integers(0, 2**16),
        ns=st.integers(1, 4),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_interleaved_roles_equal_reference(self, seed, ns, order):
        # oracle_decode takes the live sets in any order, but live_sets()
        # puts the tracks first: shuffled, the roles interleave, and the
        # draws must still equal the reference's on the same order
        scene = generate_scene(SceneConfig(
            n_frames=8, n_objects=4, schedule="uniform", occlusions=((1, 3, 5),), seed=seed,
        ))
        cfg = TrackerConfig(
            shadow=ShadowConfig(n_shadows=ns, embed_dim=8), n_detection_sets=6, patience=2
        )
        oracle = OracleConfig(
            seed=seed, box_noise_std=0.01, p_corrupt=0.1, fp_rate=0.3, fp_score=0.8
        )
        tracker = ShadowTracker(cfg, seed=seed)
        reference = scene_reference(scene)
        scale = oracle.refinement ** (cfg.n_layers - 1)
        for frame in range(1, scene.n_frames + 1):
            live = tracker.live_sets()
            shuffled = order.sample(live, len(live))
            got = _frame_draws(scene, frame, *_set_arrays(shuffled), oracle)
            _assert_draws_equal(got, frame_draws_reference(reference, frame, shuffled, oracle))
            tracker.step(render_layer_reference(
                frame_draws_reference(reference, frame, live, oracle), scale))

    def test_mapped_random_equals_uniform(self):
        # lo + (hi - lo) * u is what numpy's uniform(lo, hi) computes from
        # the same double, unless the platform fuses the multiply-add
        for seed in range(200):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            want = [
                float(a.uniform()),
                *a.uniform(0.2, 0.8, size=2).tolist(),
                *a.uniform(0.02, 0.1, size=2).tolist(),
            ]
            coin, *u = b.random(5).tolist()
            got = [coin, *(lo + (hi - lo) * v for lo, hi, v in zip(_FALLBACK_LO, _FALLBACK_HI, u))]
            assert got == want
        for seed, (lo, hi) in enumerate(sorted(set(zip(_FALLBACK_LO, _FALLBACK_HI)))):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            want = a.uniform(lo, hi, size=10_000)
            got = [lo + (hi - lo) * v for v in b.random(10_000).tolist()]
            assert want.tolist() == got

    @pytest.mark.parametrize("std", [0.005, 0.01, 1.0, 1e6, 2.2e-308, 5e-324])
    def test_scaled_standard_normal_equals_normal(self, std):
        # _frame_draws writes standard normals into one array and scales it
        # after the loop: normal(0.0, std) is 0.0 + std * z, signed zeros
        # of subnormal products included
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        want = np.array([a.normal(0.0, std, size=(5, 4)) for _ in range(100)])
        z = np.empty((100, 5, 4))
        for row in z:
            b.standard_normal(out=row)
        assert (0.0 + std * z).tobytes() == want.tobytes()


def _still_scene(n_frames, objects):
    """The scene of still objects, each ``(first, last, box)`` one identity
    that is visible from frame ``first`` to frame ``last``."""
    return Scene.from_json({
        "version": 1,
        "config": {"n_frames": n_frames, "n_objects": len(objects)},
        "tracks": [{"id": k, "frames": [{"t": t, "box": list(box), "visible": True}
                                        for t in range(first, last + 1)]}
                   for k, (first, last, box) in enumerate(objects, start=1)],
    })


def _bounded_frames(monkeypatch, scene, cfg, oracle):
    """The tracking flags and bounded draws of each frame of the run of
    ``track_scene``, recorded as its frame loop makes them."""
    frames = []

    def recording(scene, frame, anchors, tracking, ns, cfg, bounded=False):
        draws = _frame_draws(scene, frame, anchors, tracking, ns, cfg, bounded)
        frames.append((tracking, draws))
        return draws

    monkeypatch.setattr(simulator, "_frame_draws", recording)
    tracklets = track_scene(scene, cfg, oracle)
    assert len(frames) == scene.n_frames
    return tracklets, frames


def _last_served(draws) -> int:
    served = np.flatnonzero(draws.served)
    return int(served[-1]) if len(served) else -1


# the extent of a still object: too small for a bank anchor, drawn on
# [0, 1] per component, to overlap it with IoU >= 0.5
_SMALL = (0.05, 0.05)


class TestBoundedDraws:
    """The frame loop stops each frame's per-set draws after the last set
    whose draws a score can read; every run must still emit the bits of
    the object path, which draws every set (as along the random runs of
    ``TestArrayPath``), on the frames named here too."""

    @pytest.mark.parametrize("case", ["no-served-set", "last-bank-set-served",
                                      "lost-track-past-last-served"])
    def test_named_frame_equals_object_path(self, monkeypatch, case):
        cfg = TrackerConfig(shadow=ShadowConfig(n_shadows=3, embed_dim=8), n_detection_sets=12,
                            patience=3)
        oracle = OracleConfig(seed=5, box_noise_std=0.01, p_corrupt=0.05)
        if case == "no-served-set":
            # nothing arrives before frame 3
            scene = _still_scene(8, [(3, 8, (0.3, 0.3, *_SMALL)), (4, 8, (0.7, 0.6, *_SMALL))])
            holds = lambda tracking, draws: not draws.served.any()
        elif case == "last-bank-set-served":
            # an object on the last bank anchor claims that set, IoU 1
            last = init_query_bank(cfg.n_detection_sets, cfg.shadow, oracle.seed)[-1].anchor
            scene = _still_scene(6, [(1, 6, (last.cx, last.cy, last.w, last.h))])
            holds = lambda tracking, draws: draws.served.tolist() == [False] * 11 + [True]
        else:
            # the second object leaves after frame 3; its track, second in
            # the track list, is lost past the first track, the last served
            scene = _still_scene(8, [(1, 8, (0.3, 0.3, *_SMALL)), (1, 3, (0.7, 0.6, *_SMALL))])
            holds = lambda tracking, draws: any(
                tracking[k] and not draws.served[k]
                for k in range(_last_served(draws) + 1, len(tracking)))
        got, frames = _bounded_frames(monkeypatch, scene, cfg, oracle)
        assert any(holds(tracking, draws) for tracking, draws in frames)
        assert got.n_boxes() > 0
        assert tracklet_bits(got) == tracklet_bits(track_scene_reference(scene, cfg, oracle))

    def test_bank_rows_past_the_bound_are_not_drawn(self):
        # at fp_rate 0 a frame with no served bank set draws no bank row:
        # each holds its anchor, scores 0.0 and zero noise, where the full
        # draws give it a fallback box; every score keeps its bits
        scene = _still_scene(8, [(3, 8, (0.3, 0.3, *_SMALL)), (3, 6, (0.7, 0.6, *_SMALL))])
        cfg = TrackerConfig(shadow=ShadowConfig(n_shadows=3, embed_dim=8), n_detection_sets=12,
                            patience=1)
        oracle = OracleConfig(seed=5, box_noise_std=0.01, p_corrupt=0.05)
        tracker = ShadowTracker(cfg, seed=oracle.seed)
        scale = oracle.refinement ** (cfg.n_layers - 1)
        bankless = set()
        for frame in range(1, scene.n_frames + 1):
            anchors, tracking = tracker._live_anchors()
            args = (scene, frame, anchors, tracking, 3, oracle)
            bounded, full = _frame_draws(*args, bounded=True), _frame_draws(*args)
            assert bounded.scores.tobytes() == full.scores.tobytes()
            assert bounded.served.tolist() == full.served.tolist()
            stop = _last_served(full) + 1
            for got, want in zip(bounded, full):
                assert got[:stop].tobytes() == want[:stop].tobytes()
            bank = ~tracking
            if not full.served[bank].any():
                bankless.add(frame)
                assert bounded.scores[bank].tolist() == [[0.0] * 3] * cfg.n_detection_sets
                assert bounded.box[bank].tobytes() == anchors[bank].tobytes()
                assert not bounded.eps[bank].any()
                assert (full.box[bank] != anchors[bank]).any()
            tracker._advance(full.scores, lambda sets: _render_layer(full, scale, sets))
        # no set is served before frame 3, and no bank set after it
        assert bankless == {1, 2, 4, 5, 6, 7, 8}


# overlaps with ties: exactly 0 and the smallest positive double (one
# passes ``> 0``, the other does not), 0.5 and its neighbours (the
# detection gate is ``>= 0.5``), and a few repeated values
_TIED_OVERLAPS = (0.0, 5e-324, 1e-300, float(np.nextafter(0.5, 0.0)), 0.5,
                  float(np.nextafter(0.5, 1.0)), 0.25, 1.0)
_GATES = (lambda ov: ov > 0.0, lambda ov: ov >= 0.5)

# boxes among which anchors and objects repeat: (0.5, 0.375, 0.5, 0.25)
# overlaps the first in exactly 0.5, the last overlaps nothing
_TIED_BOXES = ((0.5, 0.5, 0.5, 0.5), (0.5, 0.375, 0.5, 0.25), (0.5, 0.5, 0.25, 0.25),
               (0.55, 0.5, 0.5, 0.5), (0.1, 0.1, 0.05, 0.05))


class TestClaim:
    """``_claim`` orders the gated pairs by one stable array sort; it must
    claim exactly what one sort of ``(-overlap, row, column)`` tuples
    claims, in the same order, and on empty sides."""

    @given(
        rows=st.integers(0, 6),
        cols=st.integers(0, 6),
        values=st.lists(st.sampled_from(_TIED_OVERLAPS), min_size=36, max_size=36),
        gate=st.sampled_from(_GATES),
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_tuple_sort_on_tied_overlaps(self, rows, cols, values, gate):
        overlaps = np.array(values[:rows * cols]).reshape(rows, cols)
        got = _claim(overlaps, gate(overlaps))
        want = claim_reference(overlaps, gate(overlaps))
        assert list(got.items()) == list(want.items())

    @given(
        anchors=st.lists(st.sampled_from(_TIED_BOXES), max_size=6),
        boxes=st.lists(st.sampled_from(_TIED_BOXES), max_size=6),
        gate=st.sampled_from(_GATES),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_tuple_sort_on_repeated_boxes(self, anchors, boxes, gate):
        overlaps, _ = _iou(_corners(_rows([BoundingBox(*a) for a in anchors])),
                           _corners(_rows([BoundingBox(*b) for b in boxes])))
        got = _claim(overlaps, gate(overlaps))
        want = claim_reference(overlaps, gate(overlaps))
        assert list(got.items()) == list(want.items())

    def test_tied_boxes_hold_an_overlap_of_one_half(self):
        overlaps, _ = _iou(_corners(_rows([BoundingBox(*_TIED_BOXES[0])])),
                           _corners(_rows([BoundingBox(*b) for b in _TIED_BOXES])))
        assert overlaps[0, 1] == 0.5
        assert overlaps[0, -1] == 0.0

    def test_ties_go_to_the_lower_row_then_column(self):
        overlaps = np.full((3, 3), 0.5)
        overlaps[2, 2] = 1.0
        assert list(_claim(overlaps, overlaps > 0.0).items()) == [(2, 2), (0, 0), (1, 1)]


def _layer_bits(layers) -> bytes:
    """Every box component and score of ``[layer][set][shadow]``
    predictions as float64 bytes, signed zeros told apart."""
    return np.array(
        [(b.cx, b.cy, b.w, b.h, *scores)
         for layer in layers for per_set in layer for b, scores in per_set],
        dtype=float,
    ).tobytes()


class TestArrayPath:
    """The oracle and the tracker run on arrays; the object path in
    tests/helpers.py (reference draws, one box per shadow, the per-set
    lifecycle loop) must give the same bits along whole runs."""

    @given(
        seed=st.integers(0, 2**16),
        ns=st.integers(1, 6),
        n_sets=st.integers(1, 40),
        phi=st.sampled_from(["min", "mean", "max"]),
        tau=st.sampled_from([0.0, 0.1, 0.5]),
        occ_drop=st.sampled_from([0.6, 0.9, 1.0]),
        box_noise=st.sampled_from([0.0, 0.01]),
        p_corrupt=st.sampled_from([0.0, 0.1, 0.5]),
        fp_rate=st.sampled_from([0.0, 0.1, 0.5]),
        fp_score=st.sampled_from([0.1, 0.8]),
        patience=st.integers(0, 3),
        schedule=st.sampled_from(["all-at-start", "uniform"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_track_scene_equals_object_path(
        self, seed, ns, n_sets, phi, tau, occ_drop, box_noise, p_corrupt, fp_rate, fp_score,
        patience, schedule,
    ):
        # track_scene's draws stop at the last set a score can read, the
        # object path draws every set; fp_score 0.1 against tau 0.1 under
        # phi = mean passes (the fsum mean of three 0.1 scores is
        # 0.10000000000000002), and occ_drop 0.9 and 1.0 make an occluded
        # served set score 0.0
        scene = generate_scene(SceneConfig(
            n_frames=10, n_objects=4, schedule=schedule,
            occlusions=((1, 3, 5), (2, 6, 8)), seed=seed,
        ))
        cfg = TrackerConfig(
            shadow=ShadowConfig(n_shadows=ns, score_reduction=phi, tau=tau, embed_dim=8),
            n_detection_sets=n_sets, patience=patience,
        )
        oracle = OracleConfig(
            seed=seed, box_noise_std=box_noise, occ_drop=occ_drop, p_corrupt=p_corrupt,
            fp_rate=fp_rate, fp_score=fp_score,
        )
        got = track_scene(scene, cfg, oracle)
        want = track_scene_reference(scene, cfg, oracle)
        assert got == want
        assert tracklet_bits(got) == tracklet_bits(want)

    def test_oracle_decode_rejects_mixed_shadow_counts(self):
        # the draws are [set, shadow] arrays, so every set has one count
        scene = generate_scene(SceneConfig(n_frames=6, n_objects=4, seed=0))
        live = [_tracking_set(1, scene_reference(scene).tracks[1][0].box, ns=2)]
        live += [_detection_set(10 + k, ns=k % 3 + 1) for k in range(1, 6)]
        with pytest.raises(ValueError) as info:
            oracle_decode(scene, 1, live, OracleConfig(), 6)
        assert str(info.value) == "sets disagree on shadow count: [1, 2, 3]"

    def test_negative_zero_extent_is_kept(self):
        # a scene document may give a box the width -0.0; a zero refinement
        # scales later layers' noise to signed zeros, and the extent clamp
        # must keep -0.0 as max(-0.0, 0.0) does, where np.maximum gives 0.0
        doc = generate_scene(SceneConfig(n_frames=8, n_objects=3, seed=4)).to_json()
        for f in doc["tracks"][0]["frames"]:
            f["box"][2] = -0.0
        scene = Scene.from_json(json.loads(json.dumps(doc)))
        assert math.copysign(1.0, scene_reference(scene).tracks[1][0].box.w) < 0
        cfg = TrackerConfig(shadow=ShadowConfig(n_shadows=3, embed_dim=8), n_detection_sets=6)
        oracle = OracleConfig(seed=4, box_noise_std=0.01, refinement=0.0)

        tracker = ShadowTracker(cfg, seed=4)
        got = oracle_decode(scene, 1, tracker.live_sets(), oracle, 6)
        draws = frame_draws_reference(scene_reference(scene), 1, tracker.live_sets(), oracle)
        want = [render_layer_reference(draws, oracle.refinement ** l) for l in range(6)]
        assert _layer_bits(got) == _layer_bits(want)
        assert any(math.copysign(1.0, b.w) < 0 for per_set in got[-1] for b, _ in per_set)

        tracklets = track_scene(scene, cfg, oracle)
        assert tracklet_bits(tracklets) == tracklet_bits(track_scene_reference(scene, cfg, oracle))
        assert any(math.copysign(1.0, o.box.w) < 0 for _, track in tracklets for o in track)
