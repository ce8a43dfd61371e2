"""Each paper experiment prepares its own events when none are passed in.

``repro sweep`` calls every experiment with a scale and a seed only, so the
``data is None`` branch is the one the CLI runs: it must encode the scale's
events (the precision ablation caps them at 8 000) under the given seed.
"""

import importlib

import pytest

from repro.experiments import (
    run_capacity_sweep,
    run_insitu_experiment,
    run_precision_ablation,
    run_receptive_field_sweep,
    run_related_work_comparison,
)

SEED = 11


def _capacity(scale, tmp_path):
    return run_capacity_sweep(scale=scale, hcu_values=(1,), mcu_values=(10,), seed=SEED)


def _receptive(scale, tmp_path):
    return run_receptive_field_sweep(
        scale=scale, density_values=(0.4,), n_minicolumns=10, seed=SEED
    )


def _related(scale, tmp_path):
    return run_related_work_comparison(scale=scale, seed=SEED, include_deep=False)


def _precision(scale, tmp_path):
    return run_precision_ablation(precisions=("numpy",), scale=scale, n_minicolumns=10, seed=SEED)


def _insitu(scale, tmp_path):
    return run_insitu_experiment(output_dir=tmp_path, scale=scale, n_hypercolumns=1, seed=SEED)


@pytest.mark.parametrize(
    "module, run, n_events",
    [
        ("capacity", _capacity, None),
        ("receptive_field", _receptive, None),
        ("related_work", _related, None),
        ("precision", _precision, 8000),
        ("insitu", _insitu, None),
    ],
)
def test_without_data_the_experiment_encodes_the_scales_events(
    monkeypatch, tmp_path, tiny_scale, tiny_higgs_data, module, run, n_events
):
    experiment = importlib.import_module(f"repro.experiments.{module}")
    calls = []

    def prepare(**kwargs):
        calls.append(kwargs)
        return tiny_higgs_data

    monkeypatch.setattr(experiment, "prepare_higgs_data", prepare)
    result = run(tiny_scale, tmp_path)
    expected = tiny_scale.n_events if n_events is None else min(tiny_scale.n_events, n_events)
    assert calls == [{"n_events": expected, "seed": SEED}]
    assert result
