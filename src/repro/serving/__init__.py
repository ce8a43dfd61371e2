"""Sharded streaming inference.

``repro.serving`` is the serving half of the streaming execution engine:
where ``Network.fit`` streams *training* batches through fused backend
primitives, :class:`StreamingPredictor` streams *inference* over arbitrarily
large inputs at O(batch) memory — every hidden layer runs through
preallocated (optionally double-buffered)
:class:`~repro.engine.LayerWorkspace` buffers, so bulk prediction performs
zero per-batch layer-sized allocations.

Passing ``comm=`` (a :class:`repro.comm.Communicator`) shards each call
over *real* ranks — worker threads or OS processes — via
``scatter_rows`` + one ragged ``allgather``; the model reaches process
ranks once per call as a broadcast npz blob through shared memory.  The
older in-process simulation (a
:class:`~repro.backend.distributed.DistributedBackend` backend) sharding
rows with a single driver-side gather is still supported.  Both exploit
the same "communication scales with the model, not the data" property the
training path uses.

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

from repro.serving.batcher import (
    BatchResult,
    DeadlineExceededError,
    DispatchError,
    MicroBatcher,
    QueueFullError,
    RequestSlice,
    ServingClosedError,
)
from repro.serving.predictor import (
    StreamingPredictor,
    predict_proba_stream,
    predict_stream,
)
from repro.serving.server import ModelRunner, PredictionServer, ServerThread, ServingMetrics

__all__ = [
    "BatchResult",
    "DeadlineExceededError",
    "DispatchError",
    "MicroBatcher",
    "ModelRunner",
    "PredictionServer",
    "QueueFullError",
    "RequestSlice",
    "ServerThread",
    "ServingClosedError",
    "ServingMetrics",
    "StreamingPredictor",
    "predict_proba_stream",
    "predict_stream",
]
