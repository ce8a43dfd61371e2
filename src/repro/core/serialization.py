"""Model persistence: save/load trained networks as ``.npz`` archives.

One flattener serves model files and training checkpoints alike
(:func:`network_state`): every layer's ``state_dict`` becomes namespaced
``layer{i}.{key}`` arrays for its ndarray values and one JSON header entry
for the rest, so a trained Higgs classifier can be shipped, reloaded and
evaluated without retraining.  A model file is the codec at
``training=False``; a checkpoint (:mod:`repro.checkpoint.training`) is the
same payload at ``training=True`` plus its cursor.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.core.heads import BCPNNClassifier, SGDClassifier
from repro.core.layers import StructuralPlasticityLayer
from repro.core.network import Network
from repro.exceptions import SerializationError

__all__ = ["save_network", "load_network"]

_FORMAT_VERSION = 1


def network_state(
    network: Network, training: bool = False
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Flatten every layer's state codec into ``(header, arrays)``."""
    metas: List[Dict[str, object]] = []
    arrays: Dict[str, np.ndarray] = {}
    for index, layer in enumerate(network.layers):
        if not getattr(layer, "is_built", False):
            raise SerializationError(
                f"layer {getattr(layer, 'name', index)} is not built; "
                "train or build the network first"
            )
        meta = {}
        for key, value in layer.state_dict(training=training).items():
            if isinstance(value, np.ndarray):
                arrays[f"layer{index}.{key}"] = value
            else:
                meta[key] = value
        metas.append(meta)
    header = {
        "format_version": _FORMAT_VERSION,
        "network_name": network.name,
        "fitted": bool(network.is_fitted),
        "layers": metas,
    }
    return header, arrays


def layer_states(
    header: Dict[str, object], arrays: Dict[str, np.ndarray]
) -> List[Dict[str, object]]:
    """The inverse of :func:`network_state`: one state dict per layer."""
    states = []
    for index, meta in enumerate(header["layers"]):
        prefix = f"layer{index}."
        state = dict(meta)
        state.update((k[len(prefix) :], v) for k, v in arrays.items() if k.startswith(prefix))
        states.append(state)
    return states


def save_network(network: Network, path: Union[str, Path]) -> Path:
    """Serialise a fitted (or at least built) network to ``path`` (.npz).

    The write is crash-safe: the archive is staged to a temp file, fsync'd
    and atomically renamed over ``path`` (see
    :func:`repro.checkpoint.atomic.atomic_write_bytes`), so an interrupted
    save never leaves a truncated model where a good one used to be.
    """
    from repro.checkpoint.atomic import atomic_write_bytes
    from repro.exceptions import CheckpointError

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    header, arrays = network_state(network)
    arrays["header"] = np.frombuffer(
        json.dumps(header, default=_json_default).encode("utf-8"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    try:
        atomic_write_bytes(path, buffer.getvalue())
    except CheckpointError as exc:
        raise SerializationError(f"failed to write {path}: {exc}") from exc
    return path


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value).__name__}")


def load_network(path: Union[str, Path]) -> Network:
    """Reconstruct a network previously written by :func:`save_network`."""
    path = Path(path)
    if not path.is_file():
        raise SerializationError(f"model file not found: {path}")
    try:
        # np.load leaks the descriptor it opens when the zip layer refuses
        # the file: open it here, so a torn file closes it too.
        with open(path, "rb") as handle, np.load(handle) as archive:  # refuses object arrays
            header_bytes = bytes(archive["header"].tobytes())
            header = json.loads(header_bytes.decode("utf-8"))
            arrays = {key: archive[key] for key in archive.files if key != "header"}
    # Truncated/corrupt archives surface as BadZipFile/EOFError from the zip
    # layer, ValueError/KeyError from npy parsing, JSONDecodeError/
    # UnicodeDecodeError from the header — all collapse to one pathed
    # SerializationError (a DataError) instead of a stack-specific traceback.
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise SerializationError(f"failed to read {path}: {exc}") from exc
    return _network_from_state(header, arrays, source=str(path))


def _network_from_state(
    header: Dict[str, object], arrays: Dict[str, np.ndarray], source: str
) -> Network:
    """Rebuild a network from its flattened state; ``source`` names the file.

    A header or array that does not describe a network — an unknown
    version, a missing field, an array of the wrong shape — raises a
    :class:`SerializationError` naming ``source``.
    """
    try:
        version = header.get("format_version")
        if version != _FORMAT_VERSION:
            raise SerializationError(f"unsupported model format version {version!r}")
        network = Network(name=header.get("network_name", "bcpnn-network"))
        for state in layer_states(header, arrays):
            layer = _instantiate_layer(state["kind"], state)
            layer.load_state_dict(state)
            network.add(layer)
        # Restore the input spec from the first layer so predict() works directly.
        network.input_spec = network.layers[0].input_spec
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        reason = exc if isinstance(exc, SerializationError) else repr(exc)
        raise SerializationError(f"{source}: {reason}") from exc
    network._fitted = bool(header.get("fitted", False))
    return network


_LAYER_KINDS = {
    cls.__name__: cls for cls in (StructuralPlasticityLayer, BCPNNClassifier, SGDClassifier)
}


def _instantiate_layer(kind: str, state: Dict[str, object]):
    """An unbuilt layer of ``kind``, shaped and named as ``state`` says."""
    if kind not in _LAYER_KINDS:
        raise SerializationError(f"unknown layer kind {kind!r} in model file")
    shape = ("n_hypercolumns", "n_minicolumns", "n_classes", "name")
    return _LAYER_KINDS[kind](**{key: state[key] for key in shape if key in state})
