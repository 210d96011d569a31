from __future__ import annotations

import pytest

from shadowmot import ConfigError, load_run_config, parse_config_text
from shadowmot.config import _SCHEMA, describe_defaults


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
    ])
    def test_scene_range_error_names_its_key(self, key, value, message):
        with pytest.raises(ConfigError) as info:
            load_run_config({key: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("key,value,message", [
        ("shadow.tau", "nan", "shadow.tau: must lie in [0, 1], got nan"),
        ("oracle.p_corrupt", "inf", "oracle.p_corrupt: must lie in [0, 1], got inf"),
        ("oracle.refinement", "1", "oracle.refinement: must lie in [0, 1), got 1.0"),
        ("cost.w_l1", "-1", "cost.w_l1: must be finite and non-negative, got -1.0"),
        ("cost.alpha", "0", "cost.alpha: must lie in (0, 1), got 0.0"),
        ("tracker.n_layers", "0", "tracker.n_layers: must be >= 1, got 0"),
        ("tracker.n_layers", "65", "tracker.n_layers: must be <= 64, got 65"),
        ("tracker.n_layers", "1000000000000", "tracker.n_layers: must be <= 64, got 1000000000000"),
        ("tracker.n_detection_sets", "10001", "tracker.n_detection_sets: must be <= 10000, got 10001"),
        ("tracker.n_detection_sets", "1000000000000",
         "tracker.n_detection_sets: must be <= 10000, got 1000000000000"),
        ("tracker.patience", "-1", "tracker.patience: must be >= 0, got -1"),
        ("tracker.mode", "hybrid", "tracker.mode: must be 'tala' or 'cola', got 'hybrid'"),
        ("shadow.ns", "0", "shadow.ns: must be >= 1, got 0"),
        ("shadow.ns", "65", "shadow.ns: must be <= 64, got 65"),
        ("shadow.embed_dim", "1000000000000",
         "shadow.embed_dim: must be <= 4096, got 1000000000000"),
        ("shadow.lambda", "sum",
         "shadow.lambda: must be one of ('min', 'mean', 'max'), got 'sum'"),
        ("shadow.phi", "median",
         "shadow.phi: must be one of ('min', 'mean', 'max'), got 'median'"),
    ])
    def test_range_error_names_its_key(self, key, value, message):
        with pytest.raises(ConfigError) as info:
            load_run_config({key: value})
        assert str(info.value) == message

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
