"""Training-state capture/restore on top of :class:`CheckpointManager`.

One checkpoint holds everything :meth:`repro.core.network.Network.fit`
needs to fast-forward to an epoch boundary and continue bitwise-identically
(at ``weight_refresh_tol=0``) to an uninterrupted run:

* the model state of **every** layer, in the same flattened form as
  :mod:`repro.core.serialization` (so a checkpoint doubles as a loadable
  model — see :func:`network_from_checkpoint`, used by serving ``/reload``);
* the training extras serialisation deliberately drops: per-layer RNG
  states, the SGD head's momentum velocities and weights token, the BCPNN
  head's batch counter;
* the network-level RNG state — the shuffle stream: restoring it makes the
  :class:`~repro.datasets.stream.BatchStream` draw exactly the permutations
  the uninterrupted run would have drawn next;
* the recorded :class:`~repro.core.training.History`;
* a **cursor** (``phase``/``layer_index``/``epochs_done``) locating the
  boundary, plus the unit of an in-progress data-parallel layer: the
  restart record :class:`~repro.backend.distributed.DistributedTrainer`
  keeps in memory for crash recovery, without its layer snapshot (the
  checkpoint holds the layer itself);
* a **schedule fingerprint** guarding resumes: a checkpoint taken under
  different hyperparameters, architecture or data shape is refused with a
  pathed :class:`CheckpointError` instead of silently diverging.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.checkpoint.manager import CheckpointManager
from repro.core.heads import BCPNNClassifier, SGDClassifier
from repro.core.layers import StructuralPlasticityLayer
from repro.core.serialization import _ARRAY_KEYS, _json_default, _network_from_state
from repro.core.training import EpochResult
from repro.exceptions import CheckpointError

__all__ = ["ResumeState", "TrainingCheckpointer", "training_fingerprint", "network_from_checkpoint"]


def _rng_state(generator) -> Dict[str, object]:
    return generator.bit_generator.state


def training_fingerprint(network, schedule, x_shape) -> str:
    """Digest of everything a resumed run must agree on to stay exact."""
    layers: List[Dict[str, object]] = []
    for layer in network.hidden_layers:
        layers.append(
            {
                "kind": "StructuralPlasticityLayer",
                "n_hypercolumns": int(layer.n_hypercolumns),
                "n_minicolumns": int(layer.n_minicolumns),
                "hyperparams": layer.hyperparams.to_dict(),
            }
        )
    head = network.head
    if isinstance(head, SGDClassifier):
        head_spec: Dict[str, object] = {
            "kind": "SGDClassifier",
            "n_classes": int(head.n_classes),
            "learning_rate": float(head.learning_rate),
            "momentum": float(head.momentum),
            "weight_decay": float(head.weight_decay),
        }
    else:
        head_spec = {
            "kind": "BCPNNClassifier",
            "n_classes": int(head.n_classes),
            "taupdt": float(head.taupdt),
            "bias_gain": float(head.bias_gain),
        }
    # ``fit`` sets network.input_spec before checkpointing; fall back to the
    # first built layer's spec so the fingerprint is computable standalone.
    spec = network.input_spec
    if spec is None and network.hidden_layers:
        spec = network.hidden_layers[0].input_spec
    # ``pipeline`` only reorders the hidden phase's work and changes no
    # number, so a run may resume with it flipped.
    schedule_fields = schedule.to_dict()
    del schedule_fields["pipeline"]
    digest_input = {
        "schedule": schedule_fields,
        "layers": layers,
        "head": head_spec,
        "input_sizes": list(spec.hypercolumn_sizes) if spec is not None else None,
        "x_shape": [int(s) for s in x_shape],
    }
    canonical = json.dumps(digest_input, sort_keys=True, default=_json_default)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _capture_network(network, fitted: bool):
    """Flatten every layer into (model header, arrays, training extras)."""
    layer_metas: List[Dict[str, object]] = []
    extras: List[Dict[str, object]] = []
    arrays: Dict[str, np.ndarray] = {}
    for index, layer in enumerate(network.layers):
        state = layer.state_dict()
        kind = state["kind"]
        meta: Dict[str, object] = {}
        for key, value in state.items():
            if key in _ARRAY_KEYS.get(kind, []):
                arrays[f"layer{index}.{key}"] = np.asarray(value)
            else:
                meta[key] = value
        layer_metas.append(meta)
        if isinstance(layer, StructuralPlasticityLayer):
            extras.append({"rng_state": _rng_state(layer._rng)})
        elif isinstance(layer, SGDClassifier):
            extras.append(
                {
                    "rng_state": _rng_state(layer._rng),
                    "weights_token": int(layer._weights_token),
                }
            )
            arrays[f"layer{index}.vel_w"] = layer._vel_w.copy()
            arrays[f"layer{index}.vel_b"] = layer._vel_b.copy()
        elif isinstance(layer, BCPNNClassifier):
            extras.append({"batches_trained": int(layer._batches_trained)})
        else:  # pragma: no cover - no other layer kinds exist
            extras.append({})
    model = {
        "format_version": 1,
        "network_name": network.name,
        "fitted": bool(fitted),
        "layers": layer_metas,
    }
    return model, arrays, extras


def _restore_network(network, meta: Dict[str, object], arrays: Dict[str, np.ndarray]) -> None:
    """In-place inverse of :func:`_capture_network` on a built network."""
    layer_metas = meta["model"]["layers"]
    extras = meta["layers_extra"]
    if len(layer_metas) != len(network.layers):
        raise CheckpointError(
            meta.get("source", "<checkpoint>"),
            f"checkpoint has {len(layer_metas)} layers, network has {len(network.layers)}",
        )
    for index, layer in enumerate(network.layers):
        state = dict(layer_metas[index])
        for key in _ARRAY_KEYS.get(state["kind"], []):
            state[key] = arrays[f"layer{index}.{key}"]
        layer.load_state_dict(state)
        extra = extras[index]
        if isinstance(layer, StructuralPlasticityLayer):
            # load_state_dict rebuilt the layer (consuming generator draws);
            # re-imposing the saved state makes the remaining draw stream —
            # competition noise, calibration jitter, plasticity — exact.
            layer._rng.bit_generator.state = extra["rng_state"]
        elif isinstance(layer, SGDClassifier):
            layer._rng.bit_generator.state = extra["rng_state"]
            layer._vel_w = np.array(arrays[f"layer{index}.vel_w"], dtype=np.float64)
            layer._vel_b = np.array(arrays[f"layer{index}.vel_b"], dtype=np.float64)
            layer._weights_token = int(extra["weights_token"])
        elif isinstance(layer, BCPNNClassifier):
            # Not part of state_dict, but it gates the first-batch marginal
            # calibration — resuming mid-head-phase must not recalibrate.
            layer._batches_trained = int(extra["batches_trained"])
    network._rng.bit_generator.state = meta["network_rng"]
    network.history.records = [
        EpochResult(
            phase=str(r["phase"]),
            layer_name=str(r["layer_name"]),
            epoch=int(r["epoch"]),
            duration_seconds=float(r["duration_seconds"]),
            metrics=dict(r["metrics"]),
        )
        for r in meta["history"]
    ]


@dataclass
class ResumeState:
    """Where a restored run should re-enter training."""

    path: Path
    cursor: Dict[str, object]
    unit: Optional[Dict[str, object]]
    step: int


class TrainingCheckpointer:
    """Epoch-boundary checkpointing for one ``Network.fit`` call.

    Saves are **write-overlapped**: the state snapshot, npz serialisation
    and checksum happen synchronously (the bytes are immutable once
    rendered), but the durable part — fsync + rename + manifest commit,
    whose latency is dominated by journal flushes the training thread
    cannot influence — runs on a background thread, overlapped with the
    next epoch's compute.  At most one commit is in flight: the next save
    (and ``load_for_resume``) joins it first, so manifest access stays
    serialised and a commit failure surfaces as its :class:`CheckpointError`
    at the following boundary.  ``Network.fit`` calls :meth:`flush` before
    returning, so on return every requested checkpoint is durable; a crash
    mid-commit costs at most the newest snapshot — the manifest still names
    the previous one (the store's normal crash contract).
    """

    def __init__(
        self,
        network,
        schedule,
        directory: Union[str, Path],
        x_shape,
        every: int = 1,
        keep_last: int = 3,
    ) -> None:
        if int(every) < 1:
            raise CheckpointError(directory, "checkpoint_every must be >= 1")
        self.network = network
        self.schedule = schedule
        self.manager = CheckpointManager(directory, keep_last=keep_last)
        self.every = int(every)
        self.fingerprint = training_fingerprint(network, schedule, x_shape)
        self._step = 0
        self._pending: Optional[threading.Thread] = None
        self._pending_error: List[BaseException] = []

    # ----------------------------------------------------------------- save
    def save(
        self, cursor: Dict[str, object], unit: Optional[Dict[str, object]] = None
    ) -> Path:
        """Persist the network + cursor at the current epoch boundary."""
        self.flush()
        self._step += 1
        fitted = cursor.get("phase") == "done" or self.network.is_fitted
        model, arrays, extras = _capture_network(self.network, fitted)
        meta = {
            "model": model,
            "layers_extra": extras,
            "network_rng": _rng_state(self.network._rng),
            "history": [
                {
                    "phase": r.phase,
                    "layer_name": r.layer_name,
                    "epoch": r.epoch,
                    "duration_seconds": r.duration_seconds,
                    "metrics": dict(r.metrics),
                }
                for r in self.network.history.records
            ],
            "cursor": dict(cursor),
            "unit": dict(unit) if unit is not None else None,
            "fingerprint": self.fingerprint,
        }
        # Round-trip numpy scalars hiding in metrics/logs into plain JSON.
        meta = json.loads(json.dumps(meta, default=_json_default))
        name, data = self.manager.serialise(arrays, meta, step=self._step)

        def _commit(step: int = self._step) -> None:
            try:
                self.manager.commit(name, data, step)
            except BaseException as exc:  # surfaced at the next flush/save
                self._pending_error.append(exc)

        self._pending = threading.Thread(
            target=_commit, name="repro-checkpoint-writer", daemon=True
        )
        self._pending.start()
        return self.manager.directory / name

    def flush(self, suppress: bool = False) -> None:
        """Join the in-flight commit; re-raise its failure unless asked not to.

        ``suppress=True`` is for exception paths — joining must not mask the
        exception already propagating through ``fit``.
        """
        pending = self._pending
        if pending is not None:
            pending.join()
            self._pending = None
        if self._pending_error:
            error = self._pending_error.pop()
            self._pending_error.clear()
            if not suppress:
                raise error

    def maybe_save(
        self, cursor: Dict[str, object], unit: Optional[Dict[str, object]] = None
    ) -> Optional[Path]:
        """Save if the boundary falls on the ``checkpoint_every`` cadence.

        Unit-completion boundaries (``epochs_done == 0``, the cursor already
        advanced to the next unit) always save — they are the states that
        keep resume from replaying a finished unit.
        """
        if int(cursor.get("epochs_done", 0)) % self.every != 0:
            return None
        return self.save(cursor, unit)

    # --------------------------------------------------------------- resume
    def load_for_resume(self) -> Optional[ResumeState]:
        """Restore the newest checkpoint into the network, if any.

        Returns ``None`` when the directory holds no checkpoint yet (a
        ``--resume`` run that crashed before its first boundary simply
        starts fresh).  A fingerprint mismatch — resuming under changed
        hyperparameters, architecture or data shape — raises a pathed
        :class:`CheckpointError`.
        """
        self.flush()
        loaded = self.manager.load_latest()
        if loaded is None:
            return None
        path, meta, arrays = loaded
        if meta.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                path,
                "schedule fingerprint mismatch — this checkpoint was written "
                "under different hyperparameters, architecture or data; "
                "refusing to resume",
            )
        _restore_network(self.network, meta, arrays)
        self._step = int(meta.get("step", 0))
        return ResumeState(
            path=path,
            cursor=dict(meta["cursor"]),
            unit=dict(meta["unit"]) if meta.get("unit") is not None else None,
            step=self._step,
        )


def network_from_checkpoint(path: Union[str, Path]):
    """Reconstruct a :class:`~repro.core.network.Network` from a checkpoint.

    The archive's checksum, magic and version are validated through
    :class:`CheckpointManager` first — serving's ``/reload`` calls this, so
    a corrupt checkpoint can never be swapped in.
    """
    path = Path(path)
    manager = CheckpointManager(path.parent)
    meta, arrays = manager.load(path)
    if "model" not in meta:
        raise CheckpointError(path, "checkpoint has no model record")
    return _network_from_state(meta["model"], arrays, source=str(path))
