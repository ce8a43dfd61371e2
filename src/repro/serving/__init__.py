"""Streaming inference: one tile loop behind every forward pass.

``repro.serving`` is the serving half of the streaming execution engine:
where ``Network.fit`` streams *training* batches through fused backend
primitives, :class:`StreamingPredictor` streams *inference* over arbitrarily
large inputs at O(batch) memory — every hidden layer runs through one
preallocated :class:`~repro.engine.LayerWorkspace`, so bulk prediction
performs zero per-batch layer-sized allocations.

Communicators are for training only: bulk inference is the one tile loop
in the calling process (its tiles run on one lane per core the BLAS pool
leaves free), and the online server never shards either.

The *online* half lives in :mod:`repro.serving.server`: an asyncio
HTTP/JSON endpoint (``repro serve``) whose concurrent single-row requests
are coalesced by :class:`~repro.serving.batcher.MicroBatcher` into
micro-batches and dispatched through a cached predictor's preallocated
workspaces — flush on ``batch_size`` rows or a deadline, bounded-queue
backpressure (503 + ``Retry-After``), per-request timeouts (504) and
zero-downtime model hot-swap (``POST /reload``).  See ``docs/serving.md``.

Entry points:

* :class:`StreamingPredictor` — owns workspace lifecycle + backend
  resolution for a fitted network.
* :func:`predict_stream` / :func:`predict_proba_stream` — one-shot helpers.
* ``Network.predict_stream`` / ``Network.predict_proba_stream`` — facades on
  the network front end (``Network.predict`` and its siblings run the same
  tile loop on a throw-away predictor).
* ``python -m repro.cli predict`` — CSV/npz in, predictions out (bulk).
* :class:`PredictionServer` / ``python -m repro.cli serve`` — the online
  request-facing HTTP endpoint over :class:`ModelRunner` +
  :class:`MicroBatcher`.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "batcher": [
            "BatchResult",
            "DeadlineExceededError",
            "DispatchError",
            "MicroBatcher",
            "QueueFullError",
            "RequestSlice",
            "ServingClosedError",
        ],
        "predictor": ["StreamingPredictor", "predict_proba_stream", "predict_stream"],
        "server": ["ModelRunner", "PredictionServer", "ServerThread", "ServingMetrics"],
    },
)
