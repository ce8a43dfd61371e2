"""Declarative experiment configs: typed schema, layered loader, runner.

The knob surface of this stack (backend, comm transport/ranks, pipeline,
refresh tolerance, comm overlap, serving and hyperopt flags)
outgrew CLI flags; this package makes an experiment *data* instead:

>>> from repro.config import compose_config, run_experiment
>>> cfg = compose_config({"model": {"density": 0.3}}, scenario="higgs")
>>> result = run_experiment(cfg)          # doctest: +SKIP

``repro run config.yaml`` is the CLI face (see :mod:`repro.cli`); scenario
defaults come from :mod:`repro.datasets.registry`.  Validation failures are
always a typed :class:`~repro.exceptions.ConfigError` carrying the dotted
path to the offending field.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "schema": [
            "ConfigError",
            "DatasetSection",
            "ModelSection",
            "TrainingSection",
            "ServingSection",
            "HyperoptSection",
            "ExperimentConfig",
            "build_config",
            "builtin_defaults",
        ],
        "loader": [
            "HAVE_YAML",
            "load_config_file",
            "parse_set_overrides",
            "deep_merge",
            "compose_config",
            "compose_from_files",
        ],
        "runner": ["run_experiment", "run_hyperopt", "build_prediction_server"],
    },
)
