from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from shadowmot import (
    INIT_METHODS, REDUCTIONS, BoundingBox, ConfigError, CostWeights, FrameGroundTruth,
    GroundTruthObject, LabelAssignment, OracleConfig, SceneConfig, SetCostTensor, ShadowConfig,
    ShadowSet, TrackerConfig, build_set_cost_tensor, cli, cola_targets, emit_training_targets,
    generate_scene, init_query_bank, load_run_config, oracle_decode, parse_config_text,
    reduce_set_costs, reduce_values, tala_targets,
)
from shadowmot.config import _FIELDS, _SCHEMA, _int, describe_defaults
from shadowmot.simulator import _SCHEDULES
from shadowmot.tracker import _MODES


class TestParseConfigText:
    def test_basic_pairs(self):
        pairs = parse_config_text("seed = 7\nshadow.ns=2\n")
        assert pairs == {"seed": "7", "shadow.ns": "2"}

    def test_comments_and_blanks(self):
        text = """
        # full-line comment
        seed = 3   # trailing comment

        shadow.phi = mean
        """
        assert parse_config_text(text) == {"seed": "3", "shadow.phi": "mean"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="line 2: duplicate key 'seed'"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
            parse_config_text("just some words\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 5\n")

    def test_empty_text(self):
        assert parse_config_text("") == {}


class TestLoadRunConfig:
    def test_defaults(self):
        run = load_run_config()
        assert run.seed == 0
        assert run.scene.n_frames == 100
        assert run.scene.n_objects == 10
        assert run.scene.schedule == "all-at-start"
        assert run.tracker.n_layers == 6
        assert run.tracker.n_detection_sets == 60
        assert run.tracker.patience == 0
        assert run.tracker.assignment_mode == "cola"
        shadow = run.tracker.shadow
        assert shadow.n_shadows == 3
        assert shadow.cost_reduction == "max"
        assert shadow.score_reduction == "min"
        assert shadow.tau == 0.5
        assert (run.weights.w_class, run.weights.w_l1, run.weights.w_giou) == (2.0, 5.0, 2.0)
        assert run.weights.alpha == 0.25

    def test_seed_feeds_scene_and_oracle(self):
        run = load_run_config({"seed": "41"})
        assert run.seed == 41
        assert run.scene.seed == 41
        assert run.oracle.seed == 41

    def test_negative_seed_names_key(self):
        for source in ({"pairs": {"seed": "-1"}}, {"overrides": {"seed": -1}}):
            with pytest.raises(ConfigError, match="^seed: must be >= 0, got -1$"):
                load_run_config(**source)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'shadow.n'"):
            load_run_config({"shadow.n": "3"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="key 'scene.n_frames': bad value 'many'"):
            load_run_config({"scene.n_frames": "many"})

    @pytest.mark.parametrize("key,value,problem", [
        ("seed", "1_0", "invalid literal for int() with base 10: '1_0'"),
        ("scene.n_frames", "1_0", "invalid literal for int() with base 10: '1_0'"),
        ("shadow.tau", "0_5", "could not convert string to float: '0_5'"),
        ("scene.occlusions", "1:1_0:12", "invalid literal for int() with base 10: '1_0'"),
    ])
    def test_underscore_in_a_number_is_a_bad_value(self, key, value, problem):
        # int() reads "1_0" as 10 and float() reads "0_5" as 5.0
        with pytest.raises(ConfigError) as info:
            load_run_config({key: value})
        assert str(info.value) == f"key {key!r}: bad value {value!r} ({problem})"

    def test_domain_validation_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            load_run_config({"shadow.init": "zeros"})
        with pytest.raises(ConfigError):
            load_run_config({"shadow.tau": "1.5"})
        with pytest.raises(ConfigError):
            load_run_config({"tracker.mode": "hybrid"})

    def test_occlusion_parsing(self):
        run = load_run_config({"scene.occlusions": "3:10:20, 5:30:40"})
        assert run.scene.occlusions == ((3, 10, 20), (5, 30, 40))
        assert load_run_config({"scene.occlusions": ""}).scene.occlusions == ()

    def test_malformed_occlusion_rejected(self):
        with pytest.raises(ConfigError, match="scene.occlusions"):
            load_run_config({"scene.occlusions": "3:10"})

    @pytest.mark.parametrize("key,value,message", [
        ("scene.n_frames", "0", "scene.n_frames: must be >= 1, got 0"),
        ("scene.n_frames", "100001", "scene.n_frames: must be <= 100000, got 100001"),
        ("scene.n_frames", "1000000000000", "scene.n_frames: must be <= 100000, got 1000000000000"),
        ("scene.n_objects", "-2", "scene.n_objects: must be >= 0, got -2"),
        ("scene.n_objects", "10001", "scene.n_objects: must be <= 10000, got 10001"),
        ("scene.n_objects", "1000000000000", "scene.n_objects: must be <= 10000, got 1000000000000"),
        ("scene.jitter", "-1", "scene.jitter: must be finite and >= 0, got -1.0"),
        ("scene.image_height", "0", "scene.image_height: must be >= 1, got 0"),
        ("scene.image_width", "100001", "scene.image_width: must be <= 100000, got 100001"),
        pytest.param("scene.image_width", "1" + "0" * 400,
                     f"scene.image_width: must be <= 100000, got {10 ** 400}", id="huge-width"),
        ("scene.image_height", "100001", "scene.image_height: must be <= 100000, got 100001"),
        ("scene.occlusions", "3:10:20, 11:1:2",
         "scene.occlusions[1]: identity must be in [1, n_objects = 10], got 11"),
        ("scene.occlusions", "3:90:120", "scene.occlusions[0]: window [90, 120] outside frames [1, 100]"),
        pytest.param(("scene.n_frames", "scene.n_objects"), ("1000", "1001"),
                     "scene.n_frames * scene.n_objects: must be <= 1000000, got 1000 * 1001",
                     id="large-scene"),
        pytest.param(("scene.n_frames", "scene.n_objects"), ("100000", "10000"),
                     "scene.n_frames * scene.n_objects: must be <= 1000000, got 100000 * 10000",
                     id="largest-sizes"),
    ])
    def test_scene_range_error_names_its_key(self, key, value, message):
        # a tuple of keys sets each to its value: the bound on their product
        pairs = dict(zip(key, value)) if isinstance(key, tuple) else {key: value}
        with pytest.raises(ConfigError) as info:
            load_run_config(pairs)
        assert str(info.value) == message

    @pytest.mark.parametrize("key,value,message", [
        ("shadow.tau", "nan", "shadow.tau: must lie in [0, 1], got nan"),
        ("oracle.p_corrupt", "inf", "oracle.p_corrupt: must lie in [0, 1], got inf"),
        ("oracle.refinement", "1", "oracle.refinement: must lie in [0, 1), got 1.0"),
        ("cost.w_l1", "-1", "cost.w_l1: must be finite and >= 0, got -1.0"),
        ("cost.alpha", "0", "cost.alpha: must lie in (0, 1), got 0.0"),
        ("tracker.n_layers", "0", "tracker.n_layers: must be >= 1, got 0"),
        ("tracker.n_layers", "65", "tracker.n_layers: must be <= 64, got 65"),
        ("tracker.n_layers", "1000000000000", "tracker.n_layers: must be <= 64, got 1000000000000"),
        ("tracker.n_detection_sets", "10001", "tracker.n_detection_sets: must be <= 10000, got 10001"),
        ("tracker.n_detection_sets", "1000000000000",
         "tracker.n_detection_sets: must be <= 10000, got 1000000000000"),
        ("tracker.patience", "-1", "tracker.patience: must be >= 0, got -1"),
        ("tracker.mode", "hybrid", "tracker.mode: must be one of ('tala', 'cola'), got 'hybrid'"),
        ("shadow.ns", "0", "shadow.ns: must be >= 1, got 0"),
        ("shadow.ns", "65", "shadow.ns: must be <= 64, got 65"),
        ("shadow.embed_dim", "1000000000000",
         "shadow.embed_dim: must be <= 4096, got 1000000000000"),
        ("shadow.lambda", "sum",
         "shadow.lambda: must be one of ('min', 'mean', 'max'), got 'sum'"),
        ("shadow.phi", "median",
         "shadow.phi: must be one of ('min', 'mean', 'max'), got 'median'"),
        ("shadow.sigma_pos", "-1", "shadow.sigma_pos: must be finite and >= 0, got -1.0"),
        ("shadow.sigma_emb", "nan", "shadow.sigma_emb: must be finite and >= 0, got nan"),
        ("oracle.box_noise_std", "-0.5", "oracle.box_noise_std: must be finite and >= 0, got -0.5"),
        ("shadow.embed_dim", "0", "shadow.embed_dim: must be >= 1, got 0"),
        ("tracker.n_detection_sets", "0", "tracker.n_detection_sets: must be >= 1, got 0"),
        ("oracle.box_noise_std", "1e148", "oracle.box_noise_std: must be <= 1000000, got 1e+148"),
        ("shadow.sigma_pos", "1000001", "shadow.sigma_pos: must be <= 1000000, got 1000001.0"),
        ("cost.w_class", "1e308", "cost.w_class: must be <= 1000000, got 1e+308"),
        ("cost.w_giou", "inf", "cost.w_giou: must be finite and >= 0, got inf"),
        # false-positive tracks live patience frames past their last hit, so
        # this product bounds the live tracks of a run
        pytest.param(("tracker.n_detection_sets", "tracker.patience"), ("300", "1000000"),
                     "tracker.n_detection_sets * tracker.patience: must be <= 1000000, "
                     "got 300 * 1000000", id="live-tracks"),
        pytest.param(("tracker.n_detection_sets", "tracker.patience"), ("1", "1000001"),
                     "tracker.n_detection_sets * tracker.patience: must be <= 1000000, "
                     "got 1 * 1000001", id="longest-patience"),
    ])
    def test_range_error_names_its_key(self, key, value, message):
        # a tuple of keys sets each to its value: the bound on their product
        pairs = dict(zip(key, value)) if isinstance(key, tuple) else {key: value}
        with pytest.raises(ConfigError) as info:
            load_run_config(pairs)
        assert str(info.value) == message

    @pytest.mark.parametrize("sets,patience", [("100", "10000"), ("1", "1000000"),
                                               ("10000", "100"), ("10000", "0")])
    def test_tracker_work_bound_is_inclusive(self, sets, patience):
        run = load_run_config({"tracker.n_detection_sets": sets, "tracker.patience": patience})
        assert run.tracker.n_detection_sets * run.tracker.patience <= 1000000

    @pytest.mark.parametrize("build,message", [
        pytest.param(lambda: ShadowConfig(n_shadows=0), "n_shadows: must be >= 1, got 0",
                     id="shadow-n_shadows"),
        pytest.param(lambda: GroundTruthObject(1, BoundingBox(0.5, 0.5, 0.1, 0.1), class_index=-1),
                     "class_index: must be >= 0, got -1", id="class_index"),
        pytest.param(lambda: LabelAssignment(layer=0, n_shadows=1), "layer: must be >= 1, got 0",
                     id="assignment-layer"),
        pytest.param(lambda: LabelAssignment(layer=1, n_shadows=0), "n_shadows: must be >= 1, got 0",
                     id="assignment-n_shadows"),
        pytest.param(lambda: tala_targets([], FrameGroundTruth((), ()), layer=7, n_layers=6),
                     "layer: must be <= 6, got 7", id="tala-layer"),
        pytest.param(lambda: cola_targets([], FrameGroundTruth((), ()), layer=0, n_layers=6),
                     "layer: must be >= 1, got 0", id="cola-layer"),
        pytest.param(lambda: init_query_bank(0, ShadowConfig(), seed=0), "n_sets: must be >= 1, got 0",
                     id="n_sets"),
        pytest.param(lambda: oracle_decode(generate_scene(SceneConfig(n_frames=2, n_objects=1)), 1, [],
                                           OracleConfig(), n_layers=0),
                     "n_layers: must be >= 1, got 0", id="oracle-n_layers"),
        pytest.param(lambda: ShadowSet(0, "detection", BoundingBox(0.5, 0.5, 0.1, 0.1), n_shadows=0),
                     "n_shadows: must be >= 1, got 0", id="shadow-set-n_shadows"),
        pytest.param(lambda: build_set_cost_tensor([[]], [0], [], CostWeights()),
                     "n_shadows: must be >= 1, got 0", id="cost-tensor-n_shadows"),
        pytest.param(lambda: emit_training_targets(generate_scene(SceneConfig(n_frames=2, n_objects=1)),
                                                   3, []),
                     "frame: must be <= 2, got 3", id="targets-frame"),
        pytest.param(lambda: oracle_decode(generate_scene(SceneConfig(n_frames=2, n_objects=1)), 0, [],
                                           OracleConfig(), n_layers=6),
                     "frame: must be >= 1, got 0", id="oracle-frame"),
        # 10**400 is compared, not converted to a float
        pytest.param(lambda: OracleConfig(box_noise_std=10**400),
                     f"box_noise_std: must be finite and >= 0, got {10**400}", id="huge-box-noise"),
        pytest.param(lambda: ShadowConfig(sigma_pos=10**400),
                     f"sigma_pos: must be finite and >= 0, got {10**400}", id="huge-sigma-pos"),
        pytest.param(lambda: CostWeights(w_l1=10**400),
                     f"w_l1: must be finite and >= 0, got {10**400}", id="huge-w-l1"),
        pytest.param(lambda: CostWeights(gamma=10**400),
                     f"gamma: must be finite and >= 0, got {10**400}", id="huge-gamma"),
        # numpy's seeding would fail later without naming the field
        pytest.param(lambda: SceneConfig(n_frames=3, n_objects=1, seed=-1),
                     "seed: must be >= 0, got -1", id="scene-seed"),
        pytest.param(lambda: OracleConfig(seed=-1), "seed: must be >= 0, got -1", id="oracle-seed"),
    ])
    def test_library_range_error_names_its_field(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_scale_bound_is_inclusive_and_in_the_help(self):
        keys = ("oracle.box_noise_std", "shadow.sigma_pos", "cost.w_class", "cost.w_l1", "cost.w_giou")
        run = load_run_config({key: "1000000" for key in keys})
        assert run.oracle.box_noise_std == run.tracker.shadow.sigma_pos == 1e6
        assert (run.weights.w_class, run.weights.w_l1, run.weights.w_giou) == (1e6, 1e6, 1e6)
        for key in keys:
            assert _SCHEMA[key][2].endswith(", 0 to 1000000")

    def test_overrides_beat_file_pairs(self):
        run = load_run_config({"shadow.ns": "2"}, overrides={"shadow.ns": 5})
        assert run.tracker.shadow.n_shadows == 5

    def test_override_strings_converted(self):
        run = load_run_config(overrides={"shadow.lambda": "mean"})
        assert run.tracker.shadow.cost_reduction == "mean"

    def test_mapped_knobs(self):
        run = load_run_config(
            {
                "shadow.lambda": "min",
                "shadow.phi": "max",
                "tracker.mode": "tala",
                "oracle.p_corrupt": "0.3",
            }
        )
        assert run.tracker.shadow.cost_reduction == "min"
        assert run.tracker.shadow.score_reduction == "max"
        assert run.tracker.assignment_mode == "tala"
        assert run.oracle.p_corrupt == 0.3


class TestManifest:
    def test_covers_every_schema_key(self):
        manifest = load_run_config().to_manifest()
        assert set(manifest) == set(_SCHEMA)

    def test_round_trips_through_loader(self):
        run = load_run_config(
            {
                "seed": "9",
                "scene.occlusions": "1:2:3",
                "shadow.ns": "4",
                "shadow.lambda": "mean",
                "cost.w_l1": "3.5",
            }
        )
        manifest = run.to_manifest()
        again = load_run_config({k: str(v) for k, v in manifest.items()})
        assert again == run

    def test_manifest_values_are_plain(self):
        import json

        json.dumps(load_run_config().to_manifest())


class TestDescribeDefaults:
    def test_mentions_every_key_and_default(self):
        text = describe_defaults()
        for key, (_, default, _) in _SCHEMA.items():
            assert key in text
        assert "all-at-start" in text
        assert "60" in text

    def test_each_factor_of_a_product_bound_states_it(self):
        for key in ("tracker.n_detection_sets", "tracker.patience"):
            assert "n_detection_sets * patience at most 1000000" in _SCHEMA[key][2]
        for key in ("scene.n_frames", "scene.n_objects"):
            assert "n_frames * n_objects at most 1000000" in _SCHEMA[key][2]


class TestChoiceRule:
    # every enumerated value is checked by one rule, with one message form
    @pytest.mark.parametrize("build,message", [
        pytest.param(lambda: SceneConfig(n_frames=1, n_objects=1, schedule="burst"),
                     "schedule: must be one of ('all-at-start', 'uniform'), got 'burst'",
                     id="schedule"),
        pytest.param(lambda: ShadowConfig(init="zeros"),
                     "init: must be one of ('rand', 'copy', 'noise'), got 'zeros'", id="init"),
        pytest.param(lambda: ShadowConfig(cost_reduction="sum"),
                     "cost_reduction: must be one of ('min', 'mean', 'max'), got 'sum'",
                     id="cost_reduction"),
        pytest.param(lambda: ShadowConfig(score_reduction="median"),
                     "score_reduction: must be one of ('min', 'mean', 'max'), got 'median'",
                     id="score_reduction"),
        pytest.param(lambda: TrackerConfig(assignment_mode="hybrid"),
                     "assignment_mode: must be one of ('tala', 'cola'), got 'hybrid'",
                     id="assignment_mode"),
        pytest.param(lambda: ShadowSet(0, "query", BoundingBox(0.5, 0.5, 0.1, 0.1), n_shadows=1),
                     "role: must be one of ('detection', 'tracking'), got 'query'", id="role"),
        pytest.param(lambda: reduce_set_costs(SetCostTensor(np.zeros((1, 1, 1)), (0,), (1,)), "sum"),
                     "reduction: must be one of ('min', 'mean', 'max'), got 'sum'",
                     id="reduce_set_costs"),
        pytest.param(lambda: reduce_values([1.0], "sum"),
                     "how: must be one of ('min', 'mean', 'max'), got 'sum'", id="reduce_values"),
        pytest.param(lambda: cli._parse_grid("lambda x bogus"),
                     "--grid: must be one of ('lambda', 'phi', 'ns'), got 'bogus'", id="grid"),
    ])
    def test_message_names_the_choices(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_empty_value_list_is_checked_first(self):
        with pytest.raises(ValueError) as info:
            reduce_values([], "sum")
        assert str(info.value) == "cannot reduce an empty value list"


# --help describes the keys without loading the section modules, so
# _SCHEMA restates the defaults, bounds and choices of their constructors
_SECTIONS = {"scene": SceneConfig, "oracle": OracleConfig, "shadow": ShadowConfig,
             "tracker": TrackerConfig, "cost": CostWeights}
_CHOICES = {"scene.schedule": _SCHEDULES, "shadow.init": INIT_METHODS, "shadow.lambda": REDUCTIONS,
            "shadow.phi": REDUCTIONS, "tracker.mode": _MODES}
_HELP_BOUNDS = [(key, least, most) for key, (_, _, text) in _SCHEMA.items()
                for least, most in re.findall(r"(\d+) to (\d+)", text)]


class TestSchemaAgreesWithConstructors:
    def test_defaults_are_the_field_defaults(self):
        without_default = set()
        for key, (_, default, _) in _SCHEMA.items():
            section, _, name = key.partition(".")
            if not name:  # seed, which the scene and the oracle both take
                continue
            field = next(f for f in dataclasses.fields(_SECTIONS[section])
                         if f.name == _FIELDS.get(key, name))
            if field.default is dataclasses.MISSING:
                without_default.add(key)
            else:
                assert default == field.default, key
        assert without_default == {"scene.n_frames", "scene.n_objects"}

    @pytest.mark.parametrize("key,least,most", _HELP_BOUNDS)
    def test_help_bounds_are_the_constructor_bounds(self, key, least, most):
        if _SCHEMA[key][0] is _int:
            below, above = str(int(least) - 1), str(int(most) + 1)
        else:
            below = repr(math.nextafter(float(least), -math.inf))
            above = repr(math.nextafter(float(most), math.inf))
        for value in (least, most):
            load_run_config({key: value})
        for value in (below, above):
            with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
                load_run_config({key: value})

    @pytest.mark.parametrize("key", [key for key, (convert, _, _) in _SCHEMA.items() if convert is str])
    def test_help_choices_are_the_constructor_choices(self, key):
        # "training cost reduction: min, mean, or max" lists ('min', 'mean', 'max')
        listed = _SCHEMA[key][2].partition(": ")[2].partition(";")[0]
        assert tuple(re.split(r",? or |, ", listed)) == _CHOICES[key]
        assert _SCHEMA[key][1] in _CHOICES[key]
