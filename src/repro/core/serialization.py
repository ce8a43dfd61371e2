"""Model persistence: save/load trained networks as ``.npz`` archives.

The format stores every layer's ``state_dict`` flattened into namespaced
arrays plus a small JSON header, so a trained Higgs classifier can be
shipped, reloaded and evaluated without retraining.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.core.heads import BCPNNClassifier, SGDClassifier
from repro.core.layers import StructuralPlasticityLayer
from repro.core.network import Network
from repro.exceptions import SerializationError

__all__ = ["save_network", "load_network"]

_FORMAT_VERSION = 1

_ARRAY_KEYS = {
    "StructuralPlasticityLayer": ["p_i", "p_j", "p_ij", "mask"],
    "BCPNNClassifier": ["p_i", "p_j", "p_ij"],
    "SGDClassifier": ["weights", "bias"],
}


def _network_payload(network: Network) -> Dict[str, np.ndarray]:
    """Flatten a network into the npz keyword payload (header + arrays)."""
    layer_states: List[Dict[str, object]] = []
    arrays: Dict[str, np.ndarray] = {}
    for index, layer in enumerate(network.layers):
        if not getattr(layer, "is_built", False):
            raise SerializationError(
                f"layer {getattr(layer, 'name', index)} is not built; "
                "train or build the network first"
            )
        state = layer.state_dict()
        kind = state["kind"]
        meta = {}
        for key, value in state.items():
            if key in _ARRAY_KEYS.get(kind, []):
                arrays[f"layer{index}.{key}"] = np.asarray(value)
            else:
                meta[key] = value
        layer_states.append(meta)
    header = {
        "format_version": _FORMAT_VERSION,
        "network_name": network.name,
        "fitted": bool(network.is_fitted),
        "layers": layer_states,
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header, default=_json_default).encode("utf-8"), dtype=np.uint8
    )
    return arrays


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
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **_network_payload(network))
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
        with np.load(path, allow_pickle=False) as archive:
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
    if header.get("format_version") != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported model format version {header.get('format_version')!r}"
        )
    network = Network(name=header.get("network_name", "bcpnn-network"))
    for index, meta in enumerate(header["layers"]):
        kind = meta["kind"]
        state = dict(meta)
        for key in _ARRAY_KEYS.get(kind, []):
            array_key = f"layer{index}.{key}"
            if array_key not in arrays:
                raise SerializationError(f"missing array {array_key} in {source}")
            state[key] = arrays[array_key]
        layer = _instantiate_layer(kind, state)
        layer.load_state_dict(state)
        network.add(layer)
    # Restore the input spec from the first layer so predict() works directly.
    first = network.layers[0]
    network.input_spec = first.input_spec
    network._fitted = bool(header.get("fitted", False))
    return network


def _instantiate_layer(kind: str, state: Dict[str, object]):
    if kind == "StructuralPlasticityLayer":
        return StructuralPlasticityLayer(
            n_hypercolumns=int(state["n_hypercolumns"]),
            n_minicolumns=int(state["n_minicolumns"]),
            name=str(state.get("name", "hidden")),
        )
    if kind == "BCPNNClassifier":
        return BCPNNClassifier(
            n_classes=int(state["n_classes"]), name=str(state.get("name", "bcpnn-head"))
        )
    if kind == "SGDClassifier":
        return SGDClassifier(
            n_classes=int(state["n_classes"]), name=str(state.get("name", "sgd-head"))
        )
    raise SerializationError(f"unknown layer kind {kind!r} in model file")
