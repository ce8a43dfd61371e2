"""The named scenario registry.

It is what ``repro run`` consumes (Ludwig's
``datasets/configs/*.yaml`` + per-dataset default model configs, applied to
this stack): a :class:`ScenarioSpec` bundles a seeded synthetic generator, a
*declarative* split (:class:`SplitSpec`) and a per-scenario
:meth:`~ScenarioSpec.default_config` overlay that is merged *under* the
user's config file — so ``repro run --scenario imbalance`` works with zero
config file, and a file only needs to state its deviations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping

from repro.datasets.base import Dataset
from repro.exceptions import ConfigError, ConfigurationError

__all__ = [
    "SplitSpec",
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_catalog",
]


# ------------------------------------------------------------- scenarios
@dataclass(frozen=True)
class SplitSpec:
    """Declarative train/test split policy for a scenario.

    ``kind="stratified"`` shuffles and stratifies by label (optionally after
    a balanced subsample); ``kind="sequential"`` trains on the first events
    and tests on the last — the right evaluation when event *order* carries
    meaning (covariate drift).
    """

    kind: str = "stratified"
    balanced: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("stratified", "sequential"):
            raise ConfigurationError(
                f"split kind must be 'stratified' or 'sequential', got {self.kind!r}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One named data regime: generator + split + default-config overlay."""

    name: str
    description: str
    generate: Callable[..., Dataset]
    split: SplitSpec = field(default_factory=SplitSpec)
    #: Config overlay merged *under* the user file (and over the built-in
    #: schema defaults) — the scenario's recommended model/training setup.
    defaults: Mapping[str, Any] = field(default_factory=dict)

    def default_config(self) -> Dict[str, Any]:
        """A deep copy of the scenario's default-config overlay."""
        return copy.deepcopy(dict(self.defaults))

    def prepare(self, section, seed: int):
        """Generate + split + encode.

        See :func:`~repro.datasets.scenarios.prepare_scenario_data`.
        """
        from repro.datasets.scenarios import prepare_scenario_data

        return prepare_scenario_data(self, section, seed)


_SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, overwrite: bool = False) -> None:
    """Add a scenario to the registry (case-insensitive by name)."""
    if not isinstance(spec, ScenarioSpec):
        raise ConfigurationError("register_scenario expects a ScenarioSpec")
    key = spec.name.lower()
    if key in _SCENARIOS and not overwrite:
        raise ConfigurationError(f"scenario '{spec.name}' is already registered")
    _SCENARIOS[key] = spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario, raising a pathed :class:`ConfigError` on misses."""
    if not isinstance(name, str) or not name:
        raise ConfigError("dataset.scenario", "scenario name must be a non-empty string")
    key = name.lower()
    if key not in _SCENARIOS:
        raise ConfigError(
            "dataset.scenario",
            f"unknown scenario {name!r}; available: {', '.join(sorted(_SCENARIOS))}",
        )
    return _SCENARIOS[key]


def list_scenarios() -> List[str]:
    """Names of all registered scenarios."""
    return sorted(_SCENARIOS)


def scenario_catalog() -> List[Dict[str, object]]:
    """Human-readable catalog used by ``repro run --list-scenarios`` and docs."""
    out = []
    for name in list_scenarios():
        spec = _SCENARIOS[name]
        out.append(
            {
                "name": spec.name,
                "description": spec.description,
                "split": spec.split.kind
                + (
                    " (balanced)"
                    if spec.split.kind == "stratified" and spec.split.balanced
                    else ""
                ),
                "defaults": spec.default_config(),
            }
        )
    return out


def _register_builtin_scenarios() -> None:
    from repro.datasets import scenarios as gen

    builtin = [
        ScenarioSpec(
            name="higgs",
            description=(
                "The paper's balanced synthetic HIGGS benchmark: 28 kinematic "
                "features, 50/50 signal/background, stratified balanced split."
            ),
            generate=gen.generate_higgs,
        ),
        ScenarioSpec(
            name="imbalance",
            description=(
                "Rare-signal HIGGS regime (10% positives by default).  The split "
                "keeps the class imbalance instead of rebalancing, and the head "
                "gets extra supervised epochs to cope."
            ),
            generate=gen.generate_higgs,
            split=SplitSpec(kind="stratified", balanced=False),
            defaults={
                "dataset": {"params": {"signal_fraction": 0.1}},
                "training": {"classifier_epochs": 12},
            },
        ),
        ScenarioSpec(
            name="label-noise",
            description=(
                "HIGGS with symmetric label flips (15% by default) — stresses the "
                "probabilistic head's robustness to annotation noise."
            ),
            generate=gen.generate_label_noise,
            defaults={
                "dataset": {"params": {"label_noise": 0.15}},
                "model": {"taupdt": 0.01},
            },
        ),
        ScenarioSpec(
            name="covariate-drift",
            description=(
                "Feature distributions drift over the event index; the sequential "
                "split trains on early (undrifted) events and tests on late ones."
            ),
            generate=gen.generate_covariate_drift,
            split=SplitSpec(kind="sequential"),
            defaults={
                "dataset": {"params": {"drift_strength": 0.75}},
            },
        ),
        ScenarioSpec(
            name="wide-sparse",
            description=(
                "Wide feature matrix (96 columns, 12 informative) — the low-density "
                "receptive-field regime the block-sparse gather-GEMM plan targets."
            ),
            generate=gen.generate_wide_sparse,
            defaults={
                "model": {"density": 0.2, "n_minicolumns": 100},
            },
        ),
        ScenarioSpec(
            name="noisy-detector",
            description=(
                "HIGGS under degraded detector resolution and heavy pileup — "
                "heavily overlapping classes test calibration under hard signal."
            ),
            generate=gen.generate_higgs,
            defaults={
                "dataset": {
                    "params": {"jet_energy_resolution": 0.35, "pileup_jet_fraction": 0.4}
                },
            },
        ),
    ]
    for spec in builtin:
        if spec.name.lower() not in _SCENARIOS:
            register_scenario(spec)


_register_builtin_scenarios()
