"""Durable, atomic, self-validating on-disk training checkpoints.

Layers of the subsystem (each usable on its own):

* :mod:`repro.checkpoint.atomic` — crash-safe file replacement
  (temp + fsync + rename), shared with model saving and the hyperopt
  journal;
* :mod:`repro.checkpoint.manager` — the directory format: versioned
  ``.npz`` archives plus a SHA-256 manifest with ``keep_last`` rotation,
  and a loader that rejects truncated/corrupt/foreign files with a pathed
  :class:`~repro.exceptions.CheckpointError`;
* :mod:`repro.checkpoint.training` — full ``Network.fit`` state capture and
  bitwise-exact resume (see ``docs/reliability.md``).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "atomic": ["atomic_write_bytes", "fsync_directory"],
        "manager": ["CheckpointManager", "MAGIC", "FORMAT_VERSION", "MANIFEST_NAME"],
        "training": [
            "ResumeState",
            "TrainingCheckpointer",
            "network_from_checkpoint",
            "training_fingerprint",
        ],
    },
)
