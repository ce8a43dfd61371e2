"""Tests for config loading, dotted overrides and layered composition."""

import json

import pytest

from repro.config import (
    HAVE_YAML,
    ConfigError,
    compose_config,
    deep_merge,
    load_config_file,
    parse_set_overrides,
)

needs_yaml = pytest.mark.skipif(not HAVE_YAML, reason="PyYAML not installed")


class TestLoadConfigFile:
    def test_json_always_loads(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 3, "model": {"density": 0.2}}))
        assert load_config_file(path) == {"seed": 3, "model": {"density": 0.2}}

    @needs_yaml
    def test_yaml_loads_when_pyyaml_present(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seed: 3\nmodel:\n  density: 0.2\n")
        assert load_config_file(path) == {"seed": 3, "model": {"density": 0.2}}

    def test_yaml_without_pyyaml_raises_config_error(self, tmp_path, monkeypatch):
        import repro.config.loader as loader

        monkeypatch.setattr(loader, "HAVE_YAML", False)
        path = tmp_path / "c.yaml"
        path.write_text("seed: 3\n")
        with pytest.raises(ConfigError, match="PyYAML"):
            load_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config_file(tmp_path / "absent.json")

    def test_invalid_json_is_pathed(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON") as err:
            load_config_file(path)
        assert "broken.json" in err.value.path

    def test_non_mapping_top_level(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="top level must be a mapping"):
            load_config_file(path)

    def test_empty_file_is_empty_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("null")
        assert load_config_file(path) == {}


class TestSetOverrides:
    def test_nested_paths(self):
        out = parse_set_overrides(["model.density=0.2", "training.comm=thread"])
        assert out == {"model": {"density": 0.2}, "training": {"comm": "thread"}}

    def test_json_scalars(self):
        out = parse_set_overrides(
            ["a.b=3", "a.c=0.5", "a.d=true", "a.e=null", "a.f=hello"]
        )
        assert out["a"] == {"b": 3, "c": 0.5, "d": True, "e": None, "f": "hello"}

    def test_on_off_stay_strings(self):
        # YAML 1.1 would coerce on/off to booleans; a string stays a string.
        out = parse_set_overrides(["model.head=on", "training.backend=off"])
        assert out == {"model": {"head": "on"}, "training": {"backend": "off"}}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            parse_set_overrides(["training.pipeline"])

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_set_overrides(["=3"])


class TestDeepMerge:
    def test_overlay_wins_and_nests(self):
        base = {"a": {"x": 1, "y": 2}, "b": 1}
        overlay = {"a": {"y": 3}, "c": 4}
        assert deep_merge(base, overlay) == {"a": {"x": 1, "y": 3}, "b": 1, "c": 4}

    def test_pure(self):
        base = {"a": {"x": 1}}
        deep_merge(base, {"a": {"x": 2}})
        assert base == {"a": {"x": 1}}


class TestComposePrecedence:
    """built-in < scenario default < file < --set, test-enforced."""

    def test_builtin_is_lowest(self):
        cfg = compose_config({})
        assert cfg.training.classifier_epochs == 8  # schema default

    def test_scenario_defaults_beat_builtins(self):
        cfg = compose_config({}, scenario="imbalance")
        assert cfg.training.classifier_epochs == 12  # imbalance overlay
        assert cfg.dataset.params["signal_fraction"] == 0.1

    def test_file_beats_scenario_defaults(self):
        cfg = compose_config({"training": {"classifier_epochs": 5}}, scenario="imbalance")
        assert cfg.training.classifier_epochs == 5
        # Untouched scenario defaults still apply.
        assert cfg.dataset.params["signal_fraction"] == 0.1

    def test_set_overrides_beat_file(self):
        cfg = compose_config(
            {"training": {"classifier_epochs": 5}},
            overrides=parse_set_overrides(["training.classifier_epochs=3"]),
            scenario="imbalance",
        )
        assert cfg.training.classifier_epochs == 3

    def test_scenario_name_precedence(self):
        # --set dataset.scenario wins over the explicit scenario argument,
        # which wins over the file's own dataset.scenario.
        cfg = compose_config({"dataset": {"scenario": "higgs"}}, scenario="imbalance")
        assert cfg.dataset.scenario == "imbalance"
        cfg = compose_config(
            {"dataset": {"scenario": "higgs"}},
            overrides=parse_set_overrides(["dataset.scenario=wide-sparse"]),
            scenario="imbalance",
        )
        assert cfg.dataset.scenario == "wide-sparse"

    def test_unknown_scenario_is_pathed(self):
        with pytest.raises(ConfigError, match="dataset.scenario: unknown scenario"):
            compose_config({}, scenario="nope")

    def test_quick_caps_lower_but_never_raise(self):
        cfg = compose_config({"dataset": {"n_events": 50000}}, quick=True)
        assert cfg.dataset.n_events == 1500
        cfg = compose_config({"dataset": {"n_events": 800}}, quick=True)
        assert cfg.dataset.n_events == 800
        assert cfg.training.hidden_epochs == 1
        assert cfg.serving.enabled is False

    def test_quick_does_not_mask_type_errors(self):
        with pytest.raises(ConfigError, match="training.hidden_epochs"):
            compose_config({"training": {"hidden_epochs": "oops"}}, quick=True)
