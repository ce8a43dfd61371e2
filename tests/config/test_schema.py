"""Tests for the typed config schema: every error path carries its field path."""

import pytest

from repro.config import (
    ConfigError,
    ExperimentConfig,
    build_config,
)
from repro.exceptions import ConfigurationError


class TestBuildConfig:
    def test_empty_mapping_is_all_defaults(self):
        cfg = build_config({})
        assert cfg == ExperimentConfig()
        assert cfg.dataset.scenario == "higgs"
        assert cfg.training.backend == "numpy"
        assert cfg.serving.enabled is False

    def test_round_trips_through_to_dict(self):
        cfg = build_config({"seed": 7, "model": {"density": 0.2}})
        again = build_config(cfg.to_dict())
        assert again == cfg

    def test_nested_sections_apply(self):
        cfg = build_config(
            {
                "dataset": {"n_events": 2000, "params": {"signal_fraction": 0.3}},
                "training": {"comm": "thread", "ranks": 2, "pipeline": True},
            }
        )
        assert cfg.dataset.n_events == 2000
        assert cfg.dataset.params["signal_fraction"] == 0.3
        assert cfg.training.comm == "thread"
        assert cfg.training.ranks == 2
        assert cfg.training.pipeline is True

    def test_dataset_seed_property(self):
        assert build_config({"seed": 5}).dataset_seed == 5
        assert build_config({"seed": 5, "dataset": {"seed": 9}}).dataset_seed == 9


class TestErrorPaths:
    """Unknown key / wrong type / cross-field — each a pathed ConfigError."""

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="experiment: unknown top-level key"):
            build_config({"experiment": {}})

    def test_unknown_section_key_names_exact_path(self):
        with pytest.raises(ConfigError, match="training.comn: unknown key") as err:
            build_config({"training": {"comn": "thread"}})
        assert err.value.path == "training.comn"
        # The message lists the legal keys so the typo is self-correcting.
        assert "comm" in str(err.value)

    def test_wrong_type_names_exact_path(self):
        with pytest.raises(ConfigError, match="training.hidden_epochs: expected an integer") as err:
            build_config({"training": {"hidden_epochs": "four"}})
        assert err.value.path == "training.hidden_epochs"

    def test_bool_is_not_an_integer(self):
        # YAML `hidden_epochs: true` must not silently become 1 epoch.
        with pytest.raises(ConfigError, match="training.hidden_epochs"):
            build_config({"training": {"hidden_epochs": True}})

    def test_int_accepted_where_float_expected(self):
        cfg = build_config({"model": {"taupdt": 1}})
        assert cfg.model.taupdt == 1.0

    def test_string_not_accepted_as_bool(self):
        with pytest.raises(ConfigError, match="training.pipeline: expected a boolean"):
            build_config({"training": {"pipeline": "yes"}})

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="dataset.scenario: unknown scenario"):
            build_config({"dataset": {"scenario": "nope"}})

    @pytest.mark.parametrize("section", ["training", "serving"])
    @pytest.mark.parametrize(
        "name", ("cuda", "NumPy", "parallel", "distributed", "openmp", "mpi", "fpga")
    )
    def test_unknown_backend(self, section, name):
        with pytest.raises(ConfigError, match=f"{section}.backend: unknown backend"):
            build_config({section: {"backend": name}})

    def test_density_domain(self):
        with pytest.raises(ConfigError, match=r"model.density: must be in \(0, 1\]"):
            build_config({"model": {"density": 0.0}})
        with pytest.raises(ConfigError, match="model.density"):
            build_config({"model": {"density": 1.5}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="training: expected a mapping"):
            build_config({"training": [1, 2]})

    @pytest.mark.parametrize("comm", ["process:0", "local:2", "warp-drive", "mpi"])
    def test_unparseable_comm_names_its_path(self, comm):
        with pytest.raises(ConfigError, match="training.comm: ") as err:
            build_config({"training": {"comm": comm}})
        assert err.value.path == "training.comm"

    def test_config_error_is_configuration_error(self):
        # Typed: callers catching the package-wide ConfigurationError see it.
        with pytest.raises(ConfigurationError):
            build_config({"training": {"comn": 1}})


class TestCrossFieldValidation:
    @pytest.mark.parametrize("key", ["comm_overlap", "sparse_payload"])
    def test_removed_comm_modes_are_unknown_keys(self, key):
        # weight_refresh_tol and the frozen mask decide both; no alias.
        with pytest.raises(ConfigError, match=f"training.{key}: unknown key") as err:
            build_config({"training": {key: "on", "comm": "thread:2"}})
        assert err.value.path == f"training.{key}"

    def test_serial_comm_rejects_multiple_ranks(self):
        with pytest.raises(ConfigError, match="training.ranks: the serial transport"):
            build_config({"training": {"comm": "serial", "ranks": 2}})

    def test_hyperopt_enabled_needs_nonempty_space(self):
        with pytest.raises(ConfigError, match="hyperopt.space"):
            build_config({"hyperopt": {"enabled": True}})

    def test_training_resume_requires_checkpoint_dir(self):
        with pytest.raises(ConfigError, match="training.resume") as err:
            build_config({"training": {"resume": True}})
        assert err.value.path == "training.resume"
        cfg = build_config(
            {"training": {"resume": True, "checkpoint_dir": "/tmp/ckpt"}}
        )
        assert cfg.training.resume is True
        assert cfg.training.checkpoint_dir == "/tmp/ckpt"

    def test_checkpoint_cadence_must_be_positive(self):
        with pytest.raises(ConfigError, match="training.checkpoint_every"):
            build_config({"training": {"checkpoint_every": 0}})
        with pytest.raises(ConfigError, match="training.checkpoint_keep"):
            build_config({"training": {"checkpoint_keep": 0}})

    def test_hyperopt_resume_requires_journal(self):
        with pytest.raises(ConfigError, match="hyperopt.resume"):
            build_config({"hyperopt": {"resume": True}})
        cfg = build_config({"hyperopt": {"resume": True, "journal": "j.jsonl"}})
        assert cfg.hyperopt.journal == "j.jsonl"

    def test_hyperopt_space_keys_must_be_config_fields(self):
        space = {"model.densty": {"type": "float", "low": 0.1, "high": 0.5}}
        with pytest.raises(ConfigError, match="hyperopt.space.model.densty"):
            build_config({"hyperopt": {"enabled": True, "space": space}})
        space = {"serving.port": {"type": "int", "low": 1, "high": 2}}
        with pytest.raises(ConfigError, match="hyperopt.space.serving.port"):
            build_config({"hyperopt": {"enabled": True, "space": space}})
