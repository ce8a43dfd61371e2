"""Tests for hyper-parameter containers."""

import pytest

from repro.core import BCPNNHyperParameters, TrainingSchedule
from repro.exceptions import ConfigurationError


class TestBCPNNHyperParameters:
    def test_defaults_valid(self):
        hp = BCPNNHyperParameters()
        assert 0 < hp.taupdt <= 1
        assert hp.competition in ("softmax", "noisy_softmax", "sample")

    def test_round_trip_dict(self):
        hp = BCPNNHyperParameters(taupdt=0.05, density=0.3, competition="softmax")
        assert BCPNNHyperParameters.from_dict(hp.to_dict()) == hp

    def test_replace_revalidates(self):
        hp = BCPNNHyperParameters()
        assert hp.replace(density=0.7).density == 0.7
        with pytest.raises(ConfigurationError):
            hp.replace(density=1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"taupdt": 0.0},
            {"taupdt": 1.5},
            {"bias_gain": -1.0},
            {"initial_counts": 0.0},
            {"trace_floor": 0.0},
            {"density": -0.1},
            {"mask_update_period": 0},
            {"swap_fraction": 1.2},
            {"plasticity_hysteresis": 0.5},
            {"competition": "magic"},
            {"competition_noise": -0.1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BCPNNHyperParameters(**kwargs)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            BCPNNHyperParameters.from_dict({"taupdt": 0.1, "bogus": 1})

    def test_frozen(self):
        hp = BCPNNHyperParameters()
        with pytest.raises(Exception):
            hp.taupdt = 0.5  # type: ignore[misc]


class TestTrainingSchedule:
    def test_defaults(self):
        schedule = TrainingSchedule()
        assert schedule.batch_size > 0

    def test_zero_epoch_phases_allowed(self):
        schedule = TrainingSchedule(hidden_epochs=0, classifier_epochs=0)
        assert schedule.hidden_epochs == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"sgd_epochs": -1},
            {"weight_refresh_tol": -0.1},
            {"classifier_epochs": -1},
            {"hidden_epochs": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainingSchedule(**kwargs)

    @pytest.mark.parametrize(
        "field",
        [
            "shuffle",
            "prefetch_batches",
            "max_restarts",
            "sgd_learning_rate",
            "sgd_momentum",
            "sgd_weight_decay",
            "comm_overlap",
            "sparse_payload",
        ],
    )
    def test_removed_field_rejected(self, field):
        # The head owns its learning rate; the comm modes and the fields nothing
        # set are gone rather than ignored.
        with pytest.raises(TypeError, match=field):
            TrainingSchedule(**{field: 1})

    def test_to_dict(self):
        schedule = TrainingSchedule(batch_size=64)
        assert schedule.to_dict()["batch_size"] == 64
        assert set(schedule.to_dict()) == {
            "hidden_epochs",
            "classifier_epochs",
            "batch_size",
            "sgd_epochs",
            "pipeline",
            "weight_refresh_tol",
        }
