"""Execute a validated :class:`~repro.config.schema.ExperimentConfig`.

``run_experiment`` is the programmatic core of ``repro run`` and ``repro
train`` (whose flags are a spelling of the same config): resolve the
scenario, prepare its data, train and evaluate through one shared comm
resolver and one ``train_and_evaluate``.

When ``hyperopt.enabled`` the single run is replaced by a search over the
declared space (parameter names are dotted config paths applied as
overrides per trial).  When ``serving.enabled`` the trained network is
handed to :func:`build_prediction_server` — ``repro run`` then serves it
until interrupted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.config.loader import deep_merge
from repro.config.schema import ExperimentConfig, ServingSection, build_config
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.server import PredictionServer

logger = get_logger(__name__)

__all__ = ["run_experiment", "run_hyperopt", "build_prediction_server"]


def _experiment_config(config: ExperimentConfig):
    from repro.experiments.config import HiggsExperimentConfig

    return HiggsExperimentConfig.from_schema(config)


def run_experiment(
    config: ExperimentConfig, comm=None, data=None
) -> Dict[str, Any]:
    """Train + evaluate one experiment described by ``config``.

    Parameters
    ----------
    config:
        A validated config (:func:`repro.config.loader.compose_config`).
    comm:
        Optional pre-built communicator.  ``None`` resolves
        ``training.comm``/``training.ranks`` through the *same*
        :func:`repro.comm.factory.resolve_comm` the CLI flags use (and then
        owns/closes the result).
    data:
        Optional pre-prepared :class:`~repro.experiments.higgs_pipeline.HiggsData`
        (reused across a sweep); ``None`` prepares the scenario's data.

    Returns
    -------
    dict
        The ``train_and_evaluate`` result dict, extended with ``scenario``
        and the fully merged ``config_dict`` for provenance.  With
        ``hyperopt.enabled``, the search summary from :func:`run_hyperopt`.
    """
    from repro.comm.factory import resolve_comm
    from repro.datasets.registry import get_scenario
    from repro.experiments.higgs_pipeline import train_and_evaluate

    if config.hyperopt.enabled:
        return run_hyperopt(config, data=data)

    scenario = get_scenario(config.dataset.scenario)
    if data is None:
        data = scenario.prepare(config.dataset, seed=config.dataset_seed)
    own_comm = comm is None
    if comm is None:
        comm = resolve_comm(config.training.comm, config.training.ranks)
    try:
        result = train_and_evaluate(_experiment_config(config), data=data, comm=comm)
        if comm is not None:
            result["comm"] = {"transport": comm.transport, "ranks": int(comm.size)}
    finally:
        if own_comm and comm is not None:
            comm.close()
    result["scenario"] = scenario.name
    result["config_dict"] = config.to_dict()
    return result


def run_hyperopt(config: ExperimentConfig, data=None) -> Dict[str, Any]:
    """Search the declared ``hyperopt.space`` over the configured scenario.

    Each trial overlays its sampled parameters (dotted config paths) on the
    base config, revalidates through the schema, and trains through the
    standard pipeline on the *shared* prepared data — so trials differ only
    in the knobs under search.
    """
    from repro.datasets.registry import get_scenario
    from repro.experiments.higgs_pipeline import train_and_evaluate
    from repro.hyperopt import (
        EvolutionarySearch,
        HaltonSearch,
        RandomSearch,
        SearchSpace,
    )

    hp = config.hyperopt
    space = SearchSpace.from_dict(dict(hp.space))
    scenario = get_scenario(config.dataset.scenario)
    if data is None:
        data = scenario.prepare(config.dataset, seed=config.dataset_seed)
    base = config.to_dict()
    base["hyperopt"] = dict(base["hyperopt"], enabled=False)
    metric = hp.metric

    def objective(trial_params: Dict[str, Any]) -> float:
        overlay: Dict[str, Any] = {}
        for dotted, value in trial_params.items():
            section, key = str(dotted).split(".", 1)
            overlay.setdefault(section, {})[key] = value
        trial_cfg = build_config(deep_merge(base, overlay), source="hyperopt trial")
        result = train_and_evaluate(_experiment_config(trial_cfg), data=data)
        return float(result[metric])

    seed = config.seed if hp.seed is None else hp.seed
    drivers = {
        "random": RandomSearch,
        "halton": HaltonSearch,
        "evolution": EvolutionarySearch,
    }
    journal = None
    if hp.journal is not None:
        from repro.hyperopt import ExperimentJournal

        journal = ExperimentJournal(hp.journal, experiment=scenario.name)
    search = drivers[hp.algorithm](space, seed=seed, journal=journal, resume=hp.resume)
    outcome = search.optimize(objective, n_trials=hp.trials)
    best = outcome.best_trial
    logger.info(
        "hyperopt (%s, %d trials): best %s=%.4f at %s",
        hp.algorithm,
        len(outcome),
        metric,
        best.score,
        best.config,
    )
    return {
        "scenario": scenario.name,
        "algorithm": hp.algorithm,
        "metric": metric,
        "n_trials": len(outcome),
        "best_score": float(best.score),
        "best_params": dict(best.config),
        "trials": [t.as_dict() for t in outcome.trials],
        "config_dict": config.to_dict(),
    }


def build_prediction_server(network, serving: ServingSection) -> "PredictionServer":
    """Wire a trained network into a :class:`PredictionServer` per config."""
    from repro.serving import ModelRunner
    from repro.serving.server import PredictionServer

    runner = ModelRunner(network, batch_size=serving.batch_size, backend=serving.backend)
    return PredictionServer.from_settings(
        runner,
        {
            "host": serving.host,
            "port": serving.port,
            "batch_size": serving.batch_size,
            "batch_deadline_ms": serving.batch_deadline_ms,
            "max_queue_rows": serving.max_queue_rows,
            "request_timeout_ms": serving.request_timeout_ms,
        },
    )
