"""Typed, validated experiment-configuration schema.

An experiment is *data*: one :class:`ExperimentConfig` with five sections —
``dataset`` / ``model`` / ``training`` / ``serving`` / ``hyperopt`` — plus a
top-level ``seed``.  Every section is a frozen dataclass, and
:func:`build_config` turns a plain (merged) mapping into a validated config:

* **unknown keys** raise :class:`~repro.exceptions.ConfigError` carrying the
  full dotted path (``training.comn`` -> "unknown key", with the valid keys
  listed);
* **wrong types** raise with the path and both the expected and the actual
  type (ints are accepted where floats are expected; bools are *not*
  accepted as ints — a YAML ``true`` can never silently become ``1`` epoch);
* **domain violations** (negative epochs, density outside (0, 1], unknown
  backend names ...) raise with the path and the legal domain;
* **cross-field contradictions** — combinations that each validate alone but
  cannot mean anything together — raise naming the field that must change
  (e.g. ``training.comm_overlap: on`` with a single-rank serial
  communicator, or ``training.sparse: on`` against a density-1.0 mask that
  has no silent rows to skip).

The schema deliberately mirrors the ``repro train`` flag surface so that a
config file and a flag invocation build byte-identical
:class:`~repro.experiments.config.HiggsExperimentConfig` objects
(test-enforced in ``tests/config/test_runner.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.exceptions import ConfigError

__all__ = [
    "ConfigError",
    "DatasetSection",
    "ModelSection",
    "TrainingSection",
    "ServingSection",
    "HyperoptSection",
    "ExperimentConfig",
    "build_config",
    "builtin_defaults",
]

_MODES = ("auto", "on", "off")
_HEADS = ("sgd", "bcpnn")
_HYPEROPT_ALGORITHMS = ("random", "halton", "evolution")
_HYPEROPT_METRICS = ("auc", "accuracy")


@dataclass(frozen=True)
class DatasetSection:
    """Which scenario to draw events from, and how many."""

    scenario: str = "higgs"
    n_events: int = 8000
    n_bins: int = 10
    test_fraction: float = 0.2
    #: Per-seed override for data generation; ``None`` uses the run seed.
    seed: Optional[int] = None
    #: Free-form scalar kwargs forwarded to the scenario's generator
    #: (``signal_fraction``, ``label_noise``, ``drift_strength`` ...).
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ModelSection:
    """BCPNN capacity and learning-rule knobs."""

    n_hypercolumns: int = 1
    n_minicolumns: int = 150
    density: float = 0.3
    head: str = "sgd"
    taupdt: float = 0.02


@dataclass(frozen=True)
class TrainingSection:
    """Schedule, backend and distributed-execution knobs."""

    hidden_epochs: int = 4
    classifier_epochs: int = 8
    batch_size: int = 128
    backend: str = "numpy"
    pipeline: bool = False
    weight_refresh_tol: float = 0.0
    sparse: str = "auto"
    #: Communicator transport spec for data-parallel training: a string from
    #: the :func:`repro.comm.parse_transport_spec` grammar (``"thread:4"``,
    #: ``"process:4"``, ``"tcp://host:port?ranks=8"``, ``"mpi"``).  ``None``
    #: keeps the single-process path (exactly like omitting ``--comm``).
    comm: Optional[str] = None
    #: Legacy communicator size for bare transport names; ``None`` defaults
    #: to 1 (``> 1`` without ``comm`` implies the thread transport).  Prefer
    #: embedding the count in the spec — the pair is deprecated.
    ranks: Optional[int] = None
    comm_overlap: str = "auto"
    sparse_payload: str = "auto"
    #: Recover from crashed ranks mid-training (fault-tolerant transports).
    fault_tolerance: bool = False
    #: Durable checkpoint directory for crash-safe training (null = off);
    #: see ``docs/reliability.md``.
    checkpoint_dir: Optional[str] = None
    #: Save a checkpoint every N epoch boundaries.
    checkpoint_every: int = 1
    #: Keep the newest N checkpoints, rotating older ones out.
    checkpoint_keep: int = 3
    #: Resume from the latest checkpoint in ``checkpoint_dir``.
    resume: bool = False


@dataclass(frozen=True)
class ServingSection:
    """Optional post-training online-serving phase (``repro serve`` knobs)."""

    enabled: bool = False
    host: str = "127.0.0.1"
    port: int = 8477
    batch_size: int = 64
    #: Longest a queued request may be held back for coalescing while new
    #: requests keep arriving — a cap, not a timer (see ``docs/serving.md``).
    batch_deadline_ms: float = 5.0
    max_queue_rows: int = 4096
    request_timeout_ms: Optional[float] = None
    #: ``None`` serves on each layer's own resolved backend.
    backend: Optional[str] = None


@dataclass(frozen=True)
class HyperoptSection:
    """Optional search phase replacing the single training run."""

    enabled: bool = False
    algorithm: str = "random"
    trials: int = 8
    metric: str = "auc"
    seed: Optional[int] = None
    #: Mapping from *dotted config paths* (``model.density``,
    #: ``model.taupdt`` ...) to parameter specs understood by
    #: :meth:`repro.hyperopt.SearchSpace.from_dict`.
    space: Mapping[str, Any] = field(default_factory=dict)
    #: Checksummed trial journal path (null = no journal); finished trials
    #: recorded here survive a killed sweep.
    journal: Optional[str] = None
    #: Resume the sweep from the journal, skipping already-finished trials.
    resume: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated, runnable experiment."""

    seed: int = 0
    dataset: DatasetSection = field(default_factory=DatasetSection)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    serving: ServingSection = field(default_factory=ServingSection)
    hyperopt: HyperoptSection = field(default_factory=HyperoptSection)

    def to_dict(self) -> Dict[str, Any]:
        """Plain nested-dict view (JSON/YAML-serialisable)."""
        out = dataclasses.asdict(self)
        out["dataset"]["params"] = dict(self.dataset.params)
        out["hyperopt"]["space"] = {
            k: dict(v) if isinstance(v, Mapping) else v for k, v in self.hyperopt.space.items()
        }
        return out

    @property
    def dataset_seed(self) -> int:
        """The seed data generation actually uses."""
        return self.seed if self.dataset.seed is None else int(self.dataset.seed)


# --------------------------------------------------------------- coercion
def _type_name(value: Any) -> str:
    return type(value).__name__


def _coerce(value: Any, typ: type, path: str) -> Any:
    """Check/convert one scalar against the schema type, or raise with path."""
    if typ is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(path, f"expected a boolean, got {_type_name(value)} {value!r}")
    if typ is int:
        # bool is an int subclass; a stray `true` must not become 1 epoch.
        if isinstance(value, int) and not isinstance(value, bool):
            return int(value)
        raise ConfigError(path, f"expected an integer, got {_type_name(value)} {value!r}")
    if typ is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigError(path, f"expected a number, got {_type_name(value)} {value!r}")
    if typ is str:
        if isinstance(value, str):
            return value
        raise ConfigError(path, f"expected a string, got {_type_name(value)} {value!r}")
    raise ConfigError(path, f"unsupported schema type {typ!r}")  # pragma: no cover


#: Section field -> (type, optional) overrides where the dataclass default
#: (None) cannot express the concrete type.
_OPTIONAL_TYPES: Dict[Tuple[str, str], type] = {
    ("dataset", "seed"): int,
    ("training", "comm"): str,
    ("training", "ranks"): int,
    ("serving", "request_timeout_ms"): float,
    ("serving", "backend"): str,
    ("hyperopt", "seed"): int,
    ("training", "checkpoint_dir"): str,
    ("hyperopt", "journal"): str,
}

_FREEFORM_MAPPINGS = {("dataset", "params"), ("hyperopt", "space")}


def _build_section(cls: type, data: Mapping[str, Any], section: str) -> Any:
    """Instantiate one section dataclass from a mapping, typed and pathed."""
    if not isinstance(data, Mapping):
        raise ConfigError(
            section, f"expected a mapping of settings, got {_type_name(data)} {data!r}"
        )
    field_names = [f.name for f in dataclasses.fields(cls)]
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        path = f"{section}.{key}"
        if key not in field_names:
            raise ConfigError(path, f"unknown key; valid keys: {', '.join(field_names)}")
        if (section, key) in _FREEFORM_MAPPINGS:
            if not isinstance(value, Mapping):
                raise ConfigError(path, f"expected a mapping, got {_type_name(value)} {value!r}")
            kwargs[key] = dict(value)
            continue
        if value is None and (section, key) in _OPTIONAL_TYPES:
            kwargs[key] = None
            continue
        typ = _OPTIONAL_TYPES.get((section, key))
        if typ is None:
            default = cls.__dataclass_fields__[key].default
            typ = type(default)
        kwargs[key] = _coerce(value, typ, path)
    return cls(**kwargs)


# ------------------------------------------------------------- validation
def _check_choice(value: str, choices: Tuple[str, ...], path: str) -> None:
    if value not in choices:
        raise ConfigError(path, f"must be one of {', '.join(choices)}; got {value!r}")


def _check_positive(value: float, path: str, minimum: float = 1) -> None:
    if value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")


def _validate_fields(cfg: ExperimentConfig) -> None:
    """Per-field domain checks, every failure naming its dotted path."""
    from repro.backend import list_backends
    from repro.datasets.registry import list_scenarios

    ds, model, tr, sv, hp = cfg.dataset, cfg.model, cfg.training, cfg.serving, cfg.hyperopt

    if ds.scenario not in list_scenarios():
        raise ConfigError(
            "dataset.scenario",
            f"unknown scenario {ds.scenario!r}; available: {', '.join(list_scenarios())}",
        )
    _check_positive(ds.n_events, "dataset.n_events", minimum=100)
    _check_positive(ds.n_bins, "dataset.n_bins", minimum=2)
    if not 0.0 < ds.test_fraction < 1.0:
        raise ConfigError("dataset.test_fraction", f"must be in (0, 1), got {ds.test_fraction}")
    for key, value in ds.params.items():
        if value is not None and not isinstance(value, (int, float, str, bool)):
            raise ConfigError(
                f"dataset.params.{key}",
                f"generator parameters must be scalars, got {_type_name(value)}",
            )

    _check_positive(model.n_hypercolumns, "model.n_hypercolumns")
    _check_positive(model.n_minicolumns, "model.n_minicolumns", minimum=2)
    if not 0.0 < model.density <= 1.0:
        raise ConfigError("model.density", f"must be in (0, 1], got {model.density}")
    _check_choice(model.head, _HEADS, "model.head")
    if not 0.0 < model.taupdt <= 1.0:
        raise ConfigError("model.taupdt", f"must be in (0, 1], got {model.taupdt}")

    _check_positive(tr.hidden_epochs, "training.hidden_epochs", minimum=0)
    _check_positive(tr.classifier_epochs, "training.classifier_epochs", minimum=0)
    _check_positive(tr.batch_size, "training.batch_size")
    if tr.backend not in list_backends():
        raise ConfigError(
            "training.backend",
            f"unknown backend {tr.backend!r}; available: {', '.join(list_backends())}",
        )
    if tr.weight_refresh_tol < 0:
        raise ConfigError(
            "training.weight_refresh_tol", f"must be non-negative, got {tr.weight_refresh_tol}"
        )
    _check_choice(tr.sparse, _MODES, "training.sparse")
    _check_choice(tr.comm_overlap, _MODES, "training.comm_overlap")
    _check_choice(tr.sparse_payload, _MODES, "training.sparse_payload")
    if tr.comm is not None:
        # The one shared grammar: whatever parse_transport_spec accepts (and
        # only that) is a valid training.comm value.
        from repro.comm import parse_transport_spec
        from repro.exceptions import BackendError

        try:
            parse_transport_spec(tr.comm)
        except BackendError as exc:
            raise ConfigError("training.comm", str(exc)) from None
    if tr.ranks is not None:
        _check_positive(tr.ranks, "training.ranks")
    _check_positive(tr.checkpoint_every, "training.checkpoint_every")
    _check_positive(tr.checkpoint_keep, "training.checkpoint_keep")

    _check_positive(sv.batch_size, "serving.batch_size")
    if sv.port < 0 or sv.port > 65535:
        raise ConfigError("serving.port", f"must be in [0, 65535], got {sv.port}")
    if sv.batch_deadline_ms <= 0:
        raise ConfigError(
            "serving.batch_deadline_ms", f"must be positive, got {sv.batch_deadline_ms}"
        )
    _check_positive(sv.max_queue_rows, "serving.max_queue_rows")
    if sv.request_timeout_ms is not None and sv.request_timeout_ms <= 0:
        raise ConfigError(
            "serving.request_timeout_ms",
            f"must be positive (or null to disable), got {sv.request_timeout_ms}",
        )
    if sv.backend is not None and sv.backend not in list_backends():
        raise ConfigError(
            "serving.backend",
            f"unknown backend {sv.backend!r}; available: {', '.join(list_backends())}",
        )

    _check_choice(hp.algorithm, _HYPEROPT_ALGORITHMS, "hyperopt.algorithm")
    _check_choice(hp.metric, _HYPEROPT_METRICS, "hyperopt.metric")
    _check_positive(hp.trials, "hyperopt.trials")


_SEARCHABLE_SECTIONS = ("model", "training")


def _validate_cross(cfg: ExperimentConfig) -> None:
    """Reject combinations that validate field-by-field but contradict."""
    tr = cfg.training
    parsed = None
    if tr.comm is not None:
        from repro.comm import parse_transport_spec

        parsed = parse_transport_spec(tr.comm)  # already field-validated
    name = parsed.name if parsed is not None else None
    if parsed is not None and parsed.ranks is not None and tr.ranks not in (None, 1, parsed.ranks):
        raise ConfigError(
            "training.ranks",
            f"ranks={tr.ranks} disagrees with the rank count {parsed.ranks} "
            f"embedded in training.comm {tr.comm!r}; drop training.ranks",
        )
    ranks = 1 if tr.ranks is None else tr.ranks
    if parsed is not None and parsed.ranks is not None:
        ranks = parsed.ranks

    if tr.comm_overlap == "on" and name in (None, "serial"):
        raise ConfigError(
            "training.comm_overlap",
            "'on' requires a multi-rank communicator, but training.comm is "
            f"{tr.comm!r}; set training.comm to thread/process/tcp/mpi or drop "
            "the override",
        )
    if name == "serial" and ranks > 1:
        raise ConfigError(
            "training.ranks",
            f"the serial transport is single-rank but ranks={ranks}; "
            "use training.comm: thread:N or process:N",
        )
    if tr.fault_tolerance:
        from repro.comm import transport_capabilities

        caps = transport_capabilities().get(name) if name is not None else None
        if caps is None or not caps["fault_tolerant"]:
            raise ConfigError(
                "training.fault_tolerance",
                "requires a fault-tolerant transport, but training.comm is "
                f"{tr.comm!r}; use process:N or tcp://host:port?ranks=N",
            )
    if tr.resume and tr.checkpoint_dir is None:
        raise ConfigError(
            "training.resume",
            "resume: true requires training.checkpoint_dir to point at the "
            "checkpoint directory to resume from",
        )
    if cfg.hyperopt.resume and cfg.hyperopt.journal is None:
        raise ConfigError(
            "hyperopt.resume",
            "resume: true requires hyperopt.journal to point at the trial "
            "journal to resume from",
        )
    if tr.sparse == "on" and cfg.model.density >= 1.0:
        raise ConfigError(
            "training.sparse",
            "'on' forces the block-sparse gather-GEMM plan, but model.density is 1.0 "
            "— a fully dense mask has no silent rows to skip; lower the density or "
            "use sparse: auto/off",
        )
    if cfg.hyperopt.enabled:
        if not cfg.hyperopt.space:
            raise ConfigError(
                "hyperopt.space",
                "hyperopt.enabled is true but the search space is empty; declare at "
                "least one parameter (e.g. model.density: {type: float, low: 0.1, "
                "high: 0.6})",
            )
        for name in cfg.hyperopt.space:
            section = str(name).split(".", 1)[0]
            if section not in _SEARCHABLE_SECTIONS:
                raise ConfigError(
                    f"hyperopt.space.{name}",
                    "search-space parameters must target the model or training "
                    f"section, got {name!r}",
                )
            # The dotted target must exist in the schema; an unknown field
            # would otherwise only fail deep inside trial evaluation.
            parts = str(name).split(".")
            if len(parts) != 2 or parts[1] not in {
                f.name for f in dataclasses.fields(ModelSection if section == "model" else TrainingSection)
            }:
                raise ConfigError(
                    f"hyperopt.space.{name}", f"no such configurable field {name!r}"
                )


def build_config(data: Mapping[str, Any], source: str = "config") -> ExperimentConfig:
    """Validate a merged plain mapping into an :class:`ExperimentConfig`.

    Raises
    ------
    ConfigError
        On any unknown key, type mismatch, domain violation or cross-field
        contradiction — always carrying the dotted path to the field.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(source, f"the config must be a mapping, got {_type_name(data)}")
    sections = {
        "dataset": DatasetSection,
        "model": ModelSection,
        "training": TrainingSection,
        "serving": ServingSection,
        "hyperopt": HyperoptSection,
    }
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key == "seed":
            kwargs["seed"] = _coerce(value, int, "seed")
        elif key in sections:
            kwargs[key] = _build_section(sections[key], value, key)
        else:
            raise ConfigError(
                str(key),
                f"unknown top-level key; valid keys: seed, {', '.join(sections)}",
            )
    cfg = ExperimentConfig(**kwargs)
    _validate_fields(cfg)
    _validate_cross(cfg)
    return cfg


def builtin_defaults() -> Dict[str, Any]:
    """The lowest-precedence layer: the schema's own defaults as a dict."""
    return ExperimentConfig().to_dict()
