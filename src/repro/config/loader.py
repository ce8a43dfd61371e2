"""Config file loading, dotted overrides and precedence-ordered composition.

Layering (lowest to highest precedence, each a plain nested dict):

1. **built-ins** — the schema dataclass defaults,
2. **scenario defaults** — ``default_config()`` of the scenario named by the
   run (each registry entry ships one, mirroring Ludwig's per-dataset
   ``model_configs/higgs_default.yaml``),
3. **user file** — the JSON/YAML file passed to ``repro run``,
4. **dotted ``--set key=value`` overrides** — the highest-precedence layer.

:func:`compose_config` applies the layers and hands the merged dict to
:func:`repro.config.schema.build_config` for typed validation, so an error
in *any* layer surfaces as a :class:`~repro.exceptions.ConfigError` with the
dotted field path.

JSON is always accepted; YAML additionally when PyYAML is importable (CI's
core jobs stay dependency-light — the e2e-smoke job opts into the
``yaml`` extra).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.config.schema import DatasetSection, ExperimentConfig, build_config
from repro.exceptions import ConfigError

__all__ = [
    "HAVE_YAML",
    "load_config_file",
    "parse_set_overrides",
    "deep_merge",
    "compose_config",
]

try:  # pragma: no cover - exercised both ways across CI jobs
    import yaml as _yaml

    HAVE_YAML = True
except ImportError:  # pragma: no cover
    _yaml = None
    HAVE_YAML = False


def _parse_text(text: str, path: Path) -> Any:
    suffix = path.suffix.lower()
    if suffix in (".yaml", ".yml"):
        if not HAVE_YAML:
            raise ConfigError(
                str(path),
                "YAML configs need PyYAML (pip install 'repro-bcpnn[yaml]'); "
                "JSON configs load without it",
            )
        try:
            return _yaml.safe_load(text)
        except _yaml.YAMLError as exc:
            raise ConfigError(str(path), f"invalid YAML: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if suffix == ".json" or not HAVE_YAML:
            raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    # Unrecognised suffix and valid PyYAML: fall back to YAML (a superset).
    try:
        return _yaml.safe_load(text)
    except _yaml.YAMLError as exc:
        raise ConfigError(str(path), f"neither valid JSON nor valid YAML: {exc}") from exc


def load_config_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Read one config file into a plain nested dict (no validation yet)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(str(path), "config file not found")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config file: {exc}") from exc
    data = _parse_text(text, path)
    if data is None:
        return {}
    if not isinstance(data, Mapping):
        raise ConfigError(
            str(path), f"the top level must be a mapping, got {type(data).__name__}"
        )
    return dict(data)


def _parse_scalar(text: str) -> Any:
    """Interpret a ``--set`` value: JSON scalar if it parses, else a string.

    JSON (not YAML) semantics on purpose: ``on``/``off`` stay strings, so a
    string field never meets YAML 1.1's silent boolean coercion of them.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_set_overrides(pairs: Sequence[str]) -> Dict[str, Any]:
    """Turn ``["training.pipeline=true", ...]`` into a nested override dict."""
    out: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(pair, "--set overrides must look like section.key=value")
        dotted, raw = pair.split("=", 1)
        dotted = dotted.strip()
        if not dotted:
            raise ConfigError(pair, "--set override has an empty key")
        node = out
        parts = dotted.split(".")
        for part in parts[:-1]:
            child = node.setdefault(part, {})
            if not isinstance(child, dict):
                raise ConfigError(dotted, f"override conflicts with earlier --set {part}=...")
            node = child
        node[parts[-1]] = _parse_scalar(raw)
    return out


def deep_merge(base: Mapping[str, Any], overlay: Mapping[str, Any]) -> Dict[str, Any]:
    """Recursively merge ``overlay`` over ``base`` (overlay wins; pure)."""
    out: Dict[str, Any] = {k: v for k, v in base.items()}
    for key, value in overlay.items():
        if isinstance(value, Mapping) and isinstance(out.get(key), Mapping):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _dig(data: Mapping[str, Any], dotted: str) -> Any:
    node: Any = data
    for part in dotted.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return node


def _quick_caps(merged: Dict[str, Any]) -> Dict[str, Any]:
    """CI smoke mode: cap the expensive knobs, never raise them."""
    caps = {
        "dataset": {"n_events": 1500},
        "training": {"hidden_epochs": 1, "classifier_epochs": 2},
        "hyperopt": {"trials": 2},
        "serving": {"enabled": False},
    }
    out = dict(merged)
    for section, fields in caps.items():
        base = out.get(section)
        node = dict(base) if isinstance(base, Mapping) else {}
        for key, cap in fields.items():
            current = node.get(key)
            if isinstance(cap, bool) or current is None:
                node[key] = cap
            elif isinstance(current, (int, float)) and not isinstance(current, bool):
                node[key] = min(current, cap)
            # A non-numeric value stays put so validation reports it, rather
            # than the cap silently papering over a user error.
        out[section] = node
    return out


def compose_config(
    file_data: Optional[Mapping[str, Any]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    scenario: Optional[str] = None,
    quick: bool = False,
    source: str = "config",
) -> ExperimentConfig:
    """Layer built-ins < scenario defaults < file < overrides and validate.

    Parameters
    ----------
    file_data:
        The user file as a plain dict (:func:`load_config_file`), or ``None``.
    overrides:
        Nested dict from :func:`parse_set_overrides` (highest precedence).
    scenario:
        Explicit scenario name (``repro run --scenario imbalance``); wins
        over a scenario named in the file, loses to a ``--set
        dataset.scenario=...`` override.
    quick:
        Apply CI-smoke caps (events/epochs/trials, serving off) after all
        layers merge.
    source:
        Label used in error paths when the failure is not tied to one field.
    """
    from repro.datasets.registry import get_scenario

    file_data = dict(file_data) if file_data else {}
    overrides = dict(overrides) if overrides else {}

    name = (
        _dig(overrides, "dataset.scenario")
        or scenario
        or _dig(file_data, "dataset.scenario")
        or DatasetSection().scenario
    )
    if not isinstance(name, str):
        raise ConfigError("dataset.scenario", f"must be a string, got {type(name).__name__}")
    spec = get_scenario(name)  # raises ConfigError with path on unknown names

    merged: Dict[str, Any] = deep_merge(spec.default_config(), file_data)
    merged = deep_merge(merged, overrides)
    merged = deep_merge(merged, {"dataset": {"scenario": spec.name}})
    if quick:
        merged = _quick_caps(merged)
    return build_config(merged, source=source)
