"""Typed hyper-parameter search-space specification.

A :class:`SearchSpace` is an ordered mapping from parameter names to
parameter descriptions.  Every parameter knows how to sample itself from a
uniform value in [0, 1) (which lets quasi-random sequences drive the space)
and how to mutate an existing value (for evolutionary search) without
leaving its domain.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, SearchError

__all__ = [
    "Parameter",
    "FloatParameter",
    "LogFloatParameter",
    "IntParameter",
    "CategoricalParameter",
    "parameter_from_dict",
    "SearchSpace",
]


class Parameter:
    """Base class for search-space dimensions."""

    def sample_from_unit(self, u: float):
        """Map a uniform value in [0, 1) into the parameter's domain."""
        raise NotImplementedError

    def mutate(self, value, rng: np.random.Generator, scale: float = 0.2):
        """Locally perturb ``value`` (evolution-strategy mutation)."""
        raise NotImplementedError


class FloatParameter(Parameter):
    """Uniform continuous parameter on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not np.isfinite(low) or not np.isfinite(high) or low >= high:
            raise ConfigurationError(f"invalid float range [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample_from_unit(self, u: float) -> float:
        return self.low + (self.high - self.low) * float(u)

    def mutate(self, value, rng: np.random.Generator, scale: float = 0.2) -> float:
        span = self.high - self.low
        return self.clip(float(value) + rng.normal(0.0, scale * span))

    def clip(self, value) -> float:
        return float(np.clip(float(value), self.low, self.high))


class LogFloatParameter(Parameter):
    """Log-uniform continuous parameter on ``[low, high]`` (both > 0).

    Appropriate for scale-type hyper-parameters such as ``taupdt`` and
    learning rates.
    """

    def __init__(self, low: float, high: float) -> None:
        if low <= 0 or high <= 0 or low >= high:
            raise ConfigurationError(f"invalid log range [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample_from_unit(self, u: float) -> float:
        return float(np.exp(np.log(self.low) + (np.log(self.high) - np.log(self.low)) * float(u)))

    def mutate(self, value, rng: np.random.Generator, scale: float = 0.2) -> float:
        factor = float(np.exp(rng.normal(0.0, scale * (np.log(self.high) - np.log(self.low)))))
        return self.clip(float(value) * factor)

    def clip(self, value) -> float:
        return float(np.clip(float(value), self.low, self.high))


class IntParameter(Parameter):
    """Uniform integer parameter on ``[low, high]`` inclusive."""

    def __init__(self, low: int, high: int) -> None:
        if low >= high:
            raise ConfigurationError(f"invalid int range [{low}, {high}]")
        self.low = int(low)
        self.high = int(high)

    def sample_from_unit(self, u: float) -> int:
        span = self.high - self.low + 1
        return int(self.low + min(int(float(u) * span), span - 1))

    def mutate(self, value, rng: np.random.Generator, scale: float = 0.2) -> int:
        span = self.high - self.low
        step = max(1, int(round(abs(rng.normal(0.0, scale * span)))))
        direction = 1 if rng.random() < 0.5 else -1
        return self.clip(int(value) + direction * step)

    def clip(self, value) -> int:
        return int(np.clip(int(round(float(value))), self.low, self.high))


class CategoricalParameter(Parameter):
    """Unordered categorical parameter over a finite list of choices."""

    def __init__(self, choices: Sequence) -> None:
        choices = list(choices)
        if len(choices) < 2:
            raise ConfigurationError("a categorical parameter needs at least two choices")
        self.choices = choices

    def sample_from_unit(self, u: float):
        idx = min(int(float(u) * len(self.choices)), len(self.choices) - 1)
        return self.choices[idx]

    def mutate(self, value, rng: np.random.Generator, scale: float = 0.2):
        others = [c for c in self.choices if c != value]
        if not others or rng.random() > max(scale, 0.05):
            return value
        return others[int(rng.integers(0, len(others)))]


_PARAMETER_TYPES = {
    "float": FloatParameter,
    "logfloat": LogFloatParameter,
    "int": IntParameter,
    "categorical": CategoricalParameter,
}


def parameter_from_dict(spec: Mapping) -> Parameter:
    """Build a :class:`Parameter` from its declarative spec.

    Specs look like ``{"type": "float", "low": 0.05, "high": 0.6}`` or
    ``{"type": "categorical", "choices": ["sgd", "bcpnn"]}`` — the shape a
    config file's ``hyperopt.space`` section uses.
    """
    if not isinstance(spec, Mapping):
        raise ConfigurationError(
            f"parameter spec must be a mapping, got {type(spec).__name__}"
        )
    kind = spec.get("type")
    if kind not in _PARAMETER_TYPES:
        raise ConfigurationError(
            f"unknown parameter type {kind!r}; available: {sorted(_PARAMETER_TYPES)}"
        )
    if kind == "categorical":
        if "choices" not in spec:
            raise ConfigurationError("categorical parameter spec requires 'choices'")
        return CategoricalParameter(spec["choices"])
    missing = [key for key in ("low", "high") if key not in spec]
    if missing:
        raise ConfigurationError(f"{kind} parameter spec is missing {missing}")
    return _PARAMETER_TYPES[kind](spec["low"], spec["high"])


class SearchSpace:
    """Ordered collection of named parameters."""

    def __init__(self, parameters: Dict[str, Parameter]) -> None:
        if not parameters:
            raise ConfigurationError("the search space must contain at least one parameter")
        for name, param in parameters.items():
            if not isinstance(param, Parameter):
                raise ConfigurationError(f"parameter {name!r} is not a Parameter instance")
        self.parameters: Dict[str, Parameter] = dict(parameters)

    # ------------------------------------------------------------- protocol
    def __len__(self) -> int:
        return len(self.parameters)

    # ------------------------------------------------------------- sampling
    def sample_from_unit_vector(self, unit: Sequence[float]) -> Dict[str, object]:
        """Map a vector of [0,1) values (one per parameter) to a configuration."""
        unit = list(unit)
        if len(unit) != len(self.parameters):
            raise SearchError(
                f"unit vector has {len(unit)} entries for {len(self.parameters)} parameters"
            )
        return {
            name: param.sample_from_unit(u)
            for (name, param), u in zip(self.parameters.items(), unit)
        }

    def sample(self, rng: np.random.Generator) -> Dict[str, object]:
        """Draw one configuration uniformly at random."""
        return self.sample_from_unit_vector(rng.random(len(self.parameters)))

    def mutate(
        self, config: Dict[str, object], rng: np.random.Generator, scale: float = 0.2
    ) -> Dict[str, object]:
        """Mutate an existing configuration parameter-wise."""
        missing = set(self.parameters) - set(config)
        if missing:
            raise SearchError(f"configuration is missing parameters: {sorted(missing)}")
        return {
            name: param.mutate(config[name], rng, scale) for name, param in self.parameters.items()
        }

    @classmethod
    def from_dict(cls, mapping: Mapping) -> "SearchSpace":
        """Build a space from ``{name: parameter_spec}`` (a config file's ``hyperopt.space``)."""
        if not isinstance(mapping, Mapping):
            raise ConfigurationError(
                f"search space must be a mapping of parameter specs, got {type(mapping).__name__}"
            )
        parameters = {}
        for name, spec in mapping.items():
            try:
                parameters[name] = parameter_from_dict(spec)
            except ConfigurationError as exc:
                raise ConfigurationError(f"parameter {name!r}: {exc}") from exc
        return cls(parameters)
