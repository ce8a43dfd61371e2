"""On-disk checkpoint store: versioned archives + checksummed manifest.

A checkpoint directory managed by :class:`CheckpointManager` contains::

    ckpt-000004.npz     one archive per retained checkpoint (atomic writes)
    MANIFEST.json       the directory's source of truth (atomic writes)

Each archive is a ``.npz`` holding the payload arrays plus one ``meta``
array — the UTF-8 JSON metadata, always carrying the format ``magic`` and
``version`` so foreign files are rejected before any array is touched.  The
manifest records, per checkpoint, the file name, its SHA-256 digest, byte
size and step counter; the loader re-hashes the archive and refuses
mismatches with a pathed :class:`CheckpointError` — a truncated, corrupt or
foreign file can never be loaded.

Write ordering gives crash safety without a WAL: the archive is made
durable *before* the manifest references it, so a crash between the two
leaves an orphan archive (ignored, garbage-collected by rotation) and the
previous manifest still points at the last good checkpoint.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import faults
from repro.checkpoint.atomic import atomic_write_bytes
from repro.exceptions import CheckpointError, ConfigurationError

__all__ = ["CheckpointManager", "MAGIC", "FORMAT_VERSION", "MANIFEST_NAME"]

MAGIC = "repro-checkpoint"
FORMAT_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CheckpointManager:
    """Durable rotation-managed checkpoint store for one directory."""

    def __init__(self, directory: Union[str, Path], keep_last: int = 3) -> None:
        if int(keep_last) < 1:
            raise ConfigurationError("keep_last must be >= 1")
        self.directory = Path(directory)
        self.keep_last = int(keep_last)

    # ------------------------------------------------------------- manifest
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def read_manifest(self) -> Dict[str, object]:
        """The parsed manifest; an empty one if the directory is fresh."""
        path = self.manifest_path
        if not path.is_file():
            return {"magic": MAGIC, "version": FORMAT_VERSION, "checkpoints": []}
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(path, f"unreadable manifest: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("magic") != MAGIC:
            raise CheckpointError(path, "not a repro checkpoint manifest")
        if manifest.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                path, f"unsupported manifest version {manifest.get('version')!r}"
            )
        entries = manifest.get("checkpoints")
        if not isinstance(entries, list):
            raise CheckpointError(path, "manifest has no checkpoint list")
        return manifest

    def _write_manifest(self, manifest: Dict[str, object]) -> None:
        data = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
        atomic_write_bytes(self.manifest_path, data)

    # ----------------------------------------------------------------- save
    def serialise(
        self,
        arrays: Dict[str, np.ndarray],
        meta: Dict[str, object],
        step: int,
    ) -> Tuple[str, bytes]:
        """Render one checkpoint into ``(archive name, npz bytes)``.

        ``meta`` must be JSON-serialisable; ``magic``/``version``/``step``
        are stamped here.  The returned bytes are an immutable snapshot —
        :meth:`commit` can run on another thread while the caller mutates
        the source arrays.
        """
        if "meta" in arrays:
            raise CheckpointError(self.directory, "'meta' is a reserved array name")
        full_meta = dict(meta)
        full_meta["magic"] = MAGIC
        full_meta["version"] = FORMAT_VERSION
        full_meta["step"] = int(step)
        payload = dict(arrays)
        payload["meta"] = np.frombuffer(
            json.dumps(full_meta).encode("utf-8"), dtype=np.uint8
        )
        buffer = io.BytesIO()
        # Uncompressed on purpose: zlib over megabytes of float64 costs more
        # wall-clock per epoch boundary than the training epoch can absorb
        # (the CI gate pins total overhead at <= 1.05x), while the npz
        # container + manifest checksum provide the integrity guarantees.
        np.savez(buffer, **payload)
        return f"ckpt-{int(step):06d}.npz", buffer.getvalue()

    def commit(self, name: str, data: bytes, step: int) -> Path:
        """Durably write serialised bytes and rotate; returns the path.

        The archive is fsync'd before the manifest names it, so an
        interrupted commit never invalidates the previous state.
        """
        path = atomic_write_bytes(self.directory / name, data)

        manifest = self.read_manifest()
        entries: List[Dict[str, object]] = [
            e for e in manifest["checkpoints"] if e.get("file") != name
        ]
        entries.append(
            {"file": name, "sha256": _sha256(data), "bytes": len(data), "step": int(step)}
        )
        entries.sort(key=lambda e: int(e.get("step", 0)))
        dropped = entries[: -self.keep_last] if len(entries) > self.keep_last else []
        manifest["checkpoints"] = entries[len(dropped):]
        manifest["latest"] = name
        self._write_manifest(manifest)
        for entry in dropped:
            try:
                (self.directory / str(entry["file"])).unlink()
            except OSError:  # pragma: no cover - rotation is best-effort
                pass
        return path

    def save(
        self,
        arrays: Dict[str, np.ndarray],
        meta: Dict[str, object],
        step: int,
    ) -> Path:
        """:meth:`serialise` + :meth:`commit` in one synchronous call."""
        name, data = self.serialise(arrays, meta, step)
        return self.commit(name, data, step)

    # ----------------------------------------------------------------- load
    def load(self, path: Union[str, Path]) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """Validate + parse one archive; returns ``(meta, arrays)``.

        Every failure mode — missing file, file absent from the manifest,
        checksum mismatch, truncated/corrupt npz, foreign magic, unsupported
        version — raises a pathed :class:`CheckpointError`.
        """
        path = Path(path)
        if not path.is_file():
            raise CheckpointError(path, "checkpoint file not found")
        manifest = CheckpointManager(path.parent, keep_last=self.keep_last).read_manifest()
        entry = next(
            (e for e in manifest["checkpoints"] if e.get("file") == path.name), None
        )
        if entry is None:
            raise CheckpointError(
                path, "not recorded in the checkpoint manifest (orphan or foreign file)"
            )
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(path, f"unreadable checkpoint: {exc}") from exc
        plan = faults.active_plan()
        if plan is not None and plan.match("checkpoint.corrupt_read", {"path": str(path)}):
            data = plan.corrupt(data)
        if len(data) != int(entry.get("bytes", -1)) or _sha256(data) != entry.get("sha256"):
            raise CheckpointError(
                path, "checksum mismatch (truncated or corrupt checkpoint)"
            )
        try:
            with np.load(io.BytesIO(data)) as archive:  # refuses object arrays
                if "meta" not in archive.files:
                    raise CheckpointError(path, "archive has no metadata record")
                meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
                arrays = {key: archive[key] for key in archive.files if key != "meta"}
        except CheckpointError:
            raise
        except Exception as exc:  # zipfile/np/json parse errors on valid-checksum data
            raise CheckpointError(path, f"unparseable checkpoint: {exc}") from exc
        if meta.get("magic") != MAGIC:
            raise CheckpointError(path, "not a repro checkpoint (bad magic)")
        if meta.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                path, f"unsupported checkpoint version {meta.get('version')!r}"
            )
        return meta, arrays

    def latest_path(self) -> Optional[Path]:
        """Path of the newest manifest-recorded checkpoint, or ``None``."""
        if not self.manifest_path.is_file():
            return None
        manifest = self.read_manifest()
        latest = manifest.get("latest")
        if not latest:
            return None
        return self.directory / str(latest)

    def load_latest(
        self,
    ) -> Optional[Tuple[Path, Dict[str, object], Dict[str, np.ndarray]]]:
        """Load the newest checkpoint; ``None`` when the store is empty."""
        path = self.latest_path()
        if path is None:
            return None
        meta, arrays = self.load(path)
        return path, meta, arrays
