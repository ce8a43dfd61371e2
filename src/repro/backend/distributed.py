"""Data-parallel BCPNN training over the :mod:`repro.comm` transports.

StreamBrain's MPI backend exploits the fact that BCPNN learning is *local*:
each rank accumulates probability statistics on its own shard of the batch
and the shards are combined with a single allreduce — there is no gradient
to backpropagate across ranks (Section II-B).  This module maps that
algorithm onto the :class:`~repro.comm.Communicator` interface:

* :class:`DistributedBackend` — a :class:`~repro.backend.base.Backend` that
  *simulates* rank-sharding inside one process using the communicator's
  driver-side combine helpers; useful for testing the reduction algebra and
  for the ``backend="mpi"``/``"distributed"`` registry names.
* :class:`DistributedTrainer` — real data-parallel training: an SPMD program
  (:func:`train_layer_program`) launched through ``comm.run`` where every
  rank owns an identical layer replica, computes the sufficient statistics
  of its shard of each global batch, and applies the update from **one
  packed allreduce per batch**.  Rank 0 runs inline in the driver, so the
  caller's layer object is trained in place.  Because the reduction is
  exact, training with ``R`` ranks produces bit-for-bit (up to floating
  point summation order) the same traces as the serial run — on the serial,
  thread and process transports alike (the invariance tests in
  ``tests/backend/test_distributed.py`` and ``tests/comm`` check this).
"""

from __future__ import annotations

import copy
import os
import pickle
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, kernels
from repro.backend.base import Backend
from repro.comm import CommRequest, Communicator, LocalComm, split_ranks
from repro.engine.pipeline import mean_activation_entropy, resolve_comm_overlap
from repro.exceptions import BackendError, DataError
from repro.utils.logging import get_logger
from repro.utils.validation import check_numeric_dtype

logger = get_logger(__name__)

__all__ = [
    "LocalComm",
    "DistributedBackend",
    "DistributedTrainer",
    "split_ranks",
    "ShardStatistics",
    "train_layer_program",
    "resolve_backend_name",
]


class DistributedBackend(Backend):
    """Rank-sharded compute backend over a communicator's combine algebra.

    Every kernel partitions the batch rows over ``comm.size`` ranks, computes
    rank-local results, and combines the sufficient statistics with a single
    allreduce — the same reduction algebra :class:`DistributedTrainer` uses,
    but packaged behind the :class:`Backend` interface so the execution
    engine (and therefore ``Network(backend="mpi")``) can stream batches
    through it end-to-end.  The sharding is simulated in-process through the
    communicator's driver-side combine helpers (real process-parallel
    training/serving goes through ``comm.run`` instead — see
    :class:`DistributedTrainer` and :mod:`repro.serving`).  The forward pass
    needs no communication (each rank computes activations for its own
    rows); only the trace statistics are reduced, which is the paper's
    "communication scales with the model, not the batch" property.

    Numerics match the NumPy reference up to floating-point summation order
    (the per-rank partial sums are added in a different order than one fused
    GEMM).
    """

    name = "distributed"
    precision = "float64"
    supports_parallel = True

    def __init__(self, n_ranks: Optional[int] = None, comm: Optional[Communicator] = None) -> None:
        super().__init__()
        if comm is not None:
            if not isinstance(comm, Communicator):
                raise BackendError("comm must be a repro.comm.Communicator")
            if n_ranks is not None and int(n_ranks) != comm.size:
                raise BackendError("n_ranks disagrees with the supplied communicator size")
            self.comm = comm
        else:
            self.comm = LocalComm(int(n_ranks) if n_ranks is not None else 2)

    # ------------------------------------------------------------- kernels
    def forward(
        self,
        x: np.ndarray,
        weights: np.ndarray,
        bias: np.ndarray,
        mask_expanded: np.ndarray,
        hidden_sizes: Sequence[int],
        bias_gain: float = 1.0,
        sparse=None,
    ) -> np.ndarray:
        return self.forward_into(
            x, weights, bias, mask_expanded, hidden_sizes, bias_gain, sparse=sparse
        )

    def forward_into(
        self,
        x: np.ndarray,
        weights: np.ndarray,
        bias: np.ndarray,
        mask_expanded: np.ndarray,
        hidden_sizes: Sequence[int],
        bias_gain: float = 1.0,
        out: Optional[np.ndarray] = None,
        workspace=None,
        sparse=None,
    ) -> np.ndarray:
        x = self._require_2d(x, "x")
        n_rows = x.shape[0]
        self.stats.forward_calls += 1
        n_hidden = int(sparse.layout.n_hidden if sparse is not None else weights.shape[1])
        self.stats.elements_processed += int(n_rows) * n_hidden
        if out is None:
            if workspace is not None:
                out = workspace.activations[:n_rows]
            else:
                out = np.empty((n_rows, n_hidden), dtype=np.float64)
        if sparse is not None:
            # Rank-local block-sparse forward: each simulated rank runs the
            # gather-GEMMs on its own row shard (no communication needed).
            for lo, hi in split_ranks(n_rows, self.comm.size):
                if hi <= lo:
                    continue
                support = kernels.compute_support_sparse(
                    x[lo:hi], sparse.blocks, bias, sparse.layout, bias_gain
                )
                kernels.hidden_activations(support, hidden_sizes, out=out[lo:hi])
            return out
        if mask_expanded is not None:
            if workspace is not None:
                if getattr(workspace, "masked_valid", False):
                    effective = workspace.masked_weights
                else:
                    effective = np.multiply(weights, mask_expanded, out=workspace.masked_weights)
                    workspace.masked_valid = True
            else:
                effective = weights * mask_expanded
        else:
            effective = weights
        # Rank-local compute: activations of a row only depend on that row.
        for lo, hi in split_ranks(n_rows, self.comm.size):
            if hi <= lo:
                continue
            support = bias_gain * bias[None, :] + x[lo:hi] @ effective
            kernels.hidden_activations(support, hidden_sizes, out=out[lo:hi])
        return out

    def batch_statistics(
        self, x: np.ndarray, a: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = self._require_2d(x, "x")
        a = self._require_2d(a, "a")
        if x.shape[0] != a.shape[0]:
            raise BackendError("x and a must have the same number of rows")
        if x.shape[0] == 0:
            raise BackendError("cannot compute batch statistics of an empty batch")
        self.stats.statistics_calls += 1
        self.stats.elements_processed += int(x.shape[1]) * int(a.shape[1])
        n_input, n_hidden = x.shape[1], a.shape[1]
        sum_x, sum_a, sum_outer, counts = [], [], [], []
        for lo, hi in split_ranks(x.shape[0], self.comm.size):
            if hi <= lo:
                sum_x.append(np.zeros(n_input))
                sum_a.append(np.zeros(n_hidden))
                sum_outer.append(np.zeros((n_input, n_hidden)))
                counts.append(np.zeros(1))
                continue
            xs, as_ = x[lo:hi], a[lo:hi]
            sum_x.append(xs.sum(axis=0))
            sum_a.append(as_.sum(axis=0))
            sum_outer.append(xs.T @ as_)
            counts.append(np.asarray([float(hi - lo)]))
        total = float(self.comm.reduce_parts(counts, op="sum")[0])
        mean_x = self.comm.reduce_parts(sum_x, op="sum") / total
        mean_a = self.comm.reduce_parts(sum_a, op="sum") / total
        mean_outer = self.comm.reduce_parts(sum_outer, op="sum") / total
        return mean_x, mean_a, mean_outer

    def traces_to_weights(
        self,
        p_i: np.ndarray,
        p_j: np.ndarray,
        p_ij: np.ndarray,
        trace_floor: float = 1e-12,
        out_weights: Optional[np.ndarray] = None,
        out_bias: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        # The trace-to-weight conversion is replicated on every rank (the
        # traces themselves are already identical after the allreduce).
        self.stats.weight_updates += 1
        return kernels.traces_to_weights(
            p_i, p_j, p_ij, trace_floor, out_weights=out_weights, out_bias=out_bias
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DistributedBackend(ranks={self.comm.size})"


@dataclass
class ShardStatistics:
    """Per-rank sufficient statistics of one global batch shard."""

    sum_x: np.ndarray
    sum_a: np.ndarray
    sum_outer: np.ndarray
    count: int

    @classmethod
    def empty(cls, n_input: int, n_hidden: int) -> "ShardStatistics":
        return cls(
            sum_x=np.zeros(n_input),
            sum_a=np.zeros(n_hidden),
            sum_outer=np.zeros((n_input, n_hidden)),
            count=0,
        )


@dataclass
class DistributedEpochReport:
    """Bookkeeping returned by :meth:`DistributedTrainer.train_layer`."""

    epochs: int
    global_batches: int
    ranks: int
    samples: int
    allreduce_calls: int
    bytes_communicated: int
    swaps: int = 0
    extra: Dict[str, object] = field(default_factory=dict)


# --------------------------------------------------------------------------
# The SPMD training program (runs on every rank through ``comm.run``).
# --------------------------------------------------------------------------

def _generator_from_state(state: Dict[str, object]) -> np.random.Generator:
    """Rebuild a NumPy generator from a shipped ``bit_generator.state``."""
    bit_generator = getattr(np.random, str(state["bit_generator"]))()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def resolve_backend_name(spec, backend) -> Optional[str]:
    """A registry-resolvable name for a backend choice, or ``None``.

    Worker ranks rebuild model replicas in other threads/processes, so a
    live backend *instance* cannot be shipped — but its registry name can.
    ``spec`` is the constructor-supplied backend spec (string, instance or
    ``None``); ``backend`` is the resolved instance (or ``None``).  Returns
    a name :func:`repro.backend.registry.get_backend` accepts, preferring
    the explicit spec string, then the instance's ``name``, then its
    ``precision`` (the registry key for the low-precision wrappers).
    """
    from repro.backend.registry import list_backends

    if isinstance(spec, str):
        return spec
    if backend is None:
        return None
    names = set(list_backends())
    for candidate in (getattr(backend, "name", None), getattr(backend, "precision", None)):
        if candidate in names:
            return candidate
    return None


def _replica_from_spec(spec: Dict[str, object], rng: np.random.Generator):
    """Construct a worker-rank layer replica from a config-only spec.

    Only small configuration crosses the process boundary; the layer-sized
    trace/mask arrays are broadcast afterwards through the communicator's
    shared-memory path (see :func:`train_layer_program`).  ``rng`` must use
    the same bit-generator type as rank 0's layer so the subsequent in-place
    state synchronisation is well defined.
    """
    from repro.core.hyperparams import BCPNNHyperParameters
    from repro.core.layers import InputSpec, StructuralPlasticityLayer

    layer = StructuralPlasticityLayer(
        n_hypercolumns=int(spec["n_hypercolumns"]),
        n_minicolumns=int(spec["n_minicolumns"]),
        hyperparams=BCPNNHyperParameters.from_dict(dict(spec["hyperparams"])),
        backend=spec.get("backend"),
        # Replicas must make the same dense-vs-sparse execution choice as
        # rank 0, or the per-shard forward bits (and on multi-hypercolumn
        # layers the block structure) would differ across ranks.
        sparse=spec.get("sparse"),
        seed=rng,
        name=str(spec["name"]),
    )
    layer.build(InputSpec([int(s) for s in spec["input_sizes"]]))
    layer.batches_trained = int(spec["batches_trained"])
    return layer


def _payload_token(mask: np.ndarray) -> float:
    """Small integer digest of a plasticity mask, exact in float64.

    Travels inside the sparse-packed statistics vector so ranks can verify
    they packed against the same mask layout: the sum-reduction of ``size``
    identical tokens must equal ``size * token`` exactly (tokens stay far
    below 2**53, so the float64 sum is exact; any disagreement — a diverged
    replica mask — makes the equality fail for every possible rank count).
    """
    return float(zlib.crc32(np.ascontiguousarray(mask).tobytes()) % (1 << 20))


def _sync_replica(comm: Communicator, layer) -> None:
    """Make every rank's replica bit-identical to rank 0's layer.

    Broadcasts the traces, the structural-plasticity mask and the RNG state
    (the plasticity rule shares the layer generator, so synchronising it
    keeps epoch-boundary mask swaps identical across ranks).  Re-imposing
    rank 0's generator state matters for the *stochastic* competition modes:
    their shard-shaped noise draws desynchronise the per-rank generators
    mid-epoch, and without this resync an epoch boundary would not be a
    deterministic resume point — a respawned worker could never replay the
    dead rank's draw stream, breaking the fault-tolerance guarantee that a
    recovered run is bitwise-identical to an uninterrupted one.
    """
    layer.traces.p_i[:] = comm.bcast(layer.traces.p_i, root=0)
    layer.traces.p_j[:] = comm.bcast(layer.traces.p_j, root=0)
    layer.traces.p_ij[:] = comm.bcast(layer.traces.p_ij, root=0)
    layer.plasticity.mask[:] = comm.bcast(layer.plasticity.mask, root=0)
    # PCG64 state holds 128-bit integers, so it ships as a pickled blob
    # rather than a fixed-width array.  Rank 0 round-trips its own state
    # (a no-op); every other rank adopts it in place — never a new
    # Generator object, the plasticity rule shares this one.
    blob = comm.bcast(
        np.frombuffer(pickle.dumps(layer._rng.bit_generator.state), dtype=np.uint8),
        root=0,
    )
    layer._rng.bit_generator.state = pickle.loads(blob.tobytes())
    layer._refresh_mask()
    layer.refresh_weights()


def train_layer_program(
    comm: Communicator,
    layer,
    x: Optional[np.ndarray],
    options: Dict[str, object],
) -> Dict[str, object]:
    """One rank's share of data-parallel hidden-layer training.

    Every rank holds an identical layer replica (rank 0: the driver's live
    layer, in place; workers: rebuilt from ``options["spec"]`` and
    synchronised by broadcast).  Each global batch is block-partitioned over
    the ranks; each rank computes the sufficient statistics of its shard
    and the packed statistics vector ``[count, Σx, Σa, Σ(xᵀa)]`` is combined
    with **one allreduce per batch** — communication scales with the trace
    size, never with the batch.  The reduced update is applied identically
    on every rank, so the replicas never drift.

    ``options["mode"]``:

    * ``"rate"`` — statistics of the raw rate activations (the historical
      :class:`DistributedTrainer` semantics, used by experiment E9);
    * ``"competitive"`` — mirrors ``StructuralPlasticityLayer.train_batch``:
      first-batch marginal calibration (from the *global* batch mean) plus
      the configured competition rule.  Deterministic competition modes
      ("softmax") are rank-invariant; stochastic modes draw shard-shaped
      noise and are statistically, not bitwise, equivalent across rank
      counts.

    Four engine-mirroring options keep the SPMD program aligned with the
    pipelined serial path:

    * ``options["weight_refresh_tol"]`` — stale-weights caching: the
      per-batch ``traces_to_weights`` refresh is skipped while the
      accumulated ``taupdt``-scaled marginal-trace drift stays under the
      tolerance.  The drift is computed from the *reduced* statistics, which
      are identical on every rank, so the refresh decisions — and therefore
      the training — stay rank-invariant.  ``0`` refreshes every batch
      (exact, the historical behaviour).
    * ``options["pipeline"]`` — gather the *next* batch's local shard before
      blocking on the current batch's allreduce, overlapping the gather with
      the other ranks' compute skew.  Purely a scheduling change: the same
      shards are reduced in the same order, so results are bitwise
      unaffected.
    * ``options["comm_overlap"]`` (``"auto"``/``"on"``/``"off"``) — the
      software-pipelined communication schedule: batch ``k``'s packed
      statistics are published through a *nonblocking* ``iallreduce`` and
      batch ``k+1``'s forward + local statistics run **before** waiting on
      ``k``'s reduction, hiding the collective's latency behind local
      compute.  Batch ``k+1`` therefore forwards on one-batch-stale
      weights, which is only admissible under the stale-weights contract —
      overlap engages only when ``weight_refresh_tol > 0`` (see
      :func:`repro.engine.pipeline.resolve_comm_overlap`); at ``tol=0``
      every mode keeps today's blocking schedule bit-for-bit.  The schedule
      stays rank-invariant: the drift accounting runs on reduced statistics
      in the same order on every rank.
    * ``options["sparse_payload"]`` (``"auto"``/``"on"``/``"off"``) — once
      the structural-plasticity mask can no longer rewire inside this
      program (after the last in-program plasticity step, or always when
      plasticity is inert), the ``Σxᵀa`` block of the payload is packed to
      the **active entries only** using the mask's
      :class:`~repro.kernels.SparseLayout` (plus a mask-digest token each
      rank verifies after the reduction), cutting the allreduce payload by
      the density factor.  Silent joint-trace entries then decay toward
      zero instead of tracking co-activations — exactly the statistics the
      mutual-information scoring would never read again in this program —
      while active traces, marginals, masks and predictions are identical
      to the dense payload (the gathered per-block ``Σxᵀa`` GEMM performs
      the same length-``B`` contractions as the dense one).  Dense packing
      is used automatically in every epoch where plasticity may still
      rewire.

    Three fault-tolerance options support crash-and-resume training on the
    fault-tolerant transports (see :meth:`DistributedTrainer.train_layer`):

    * ``options["start_epoch"]`` — re-enter the epoch loop at an epoch
      boundary.  Epoch indices stay *absolute* (schedules like
      ``frozen_from`` and ``end_epoch`` are unaffected) and the shuffle
      stream is fast-forwarded by discarding the completed epochs'
      permutations, so a resumed run draws exactly the orders the
      uninterrupted run would have — the resume is bitwise-exact.
    * ``options["progress"]`` — a live dict rank 0 updates at every epoch
      boundary with the completed-epoch count and a resume snapshot
      (traces, mask, RNG state).  Rank 0 runs inline in the driver, so the
      driver still holds the last consistent state after a crash.
    * ``options["fault_injection"]`` — ``{rank, epoch, batch}`` test hook:
      the matching rank dies at the start of that global batch (a hard
      ``os._exit`` on multi-process transports, a raised
      :class:`BackendError` otherwise).
    """
    rank, size = comm.rank, comm.size
    x = comm.bcast(x, root=0)
    is_replica = layer is None
    if is_replica:
        layer = _replica_from_spec(
            options["spec"], _generator_from_state(options["rng_layer_state"])
        )
    # In-place state reset (never a new Generator object: the plasticity rule
    # shares the layer's generator) makes every replica's draw stream match
    # rank 0's exactly — calibration jitter and mask swaps stay identical.
    layer._rng.bit_generator.state = options["rng_layer_state"]
    _sync_replica(comm, layer)

    shuffle_rng = np.random.default_rng(int(options["shuffle_seed"]))
    epochs = int(options["epochs"])
    batch_size = int(options["batch_size"])
    shuffle = bool(options["shuffle"])
    mode = str(options.get("mode", "rate"))
    competitive = mode == "competitive"
    tol = float(options.get("weight_refresh_tol", 0.0))
    pipelined = bool(options.get("pipeline", False))
    overlap = resolve_comm_overlap(str(options.get("comm_overlap", "auto")), tol, size)
    payload_mode = str(options.get("sparse_payload", "auto"))
    if payload_mode not in ("auto", "on", "off"):
        raise BackendError(
            f"sparse_payload must be 'auto', 'on' or 'off', got {payload_mode!r}"
        )

    n = x.shape[0]
    start_epoch = int(options.get("start_epoch", 0))
    if not 0 <= start_epoch <= epochs:
        raise BackendError(f"start_epoch must be in [0, {epochs}], got {start_epoch}")
    if shuffle:
        # Fast-forward the shuffle stream past the already-completed epochs
        # so epoch e sees the same permutation as in an uninterrupted run.
        for _ in range(start_epoch):
            shuffle_rng.permutation(n)
    inject = options.get("fault_injection")
    progress = options.get("progress") if rank == 0 else None
    taupdt = float(layer.hyperparams.taupdt)
    n_input = layer.traces.n_input
    n_hidden = layer.traces.n_hidden
    stats_head = 1 + n_input + n_hidden
    packed = np.empty(stats_head + n_input * n_hidden, dtype=np.float64)
    mean_entropy: List[float] = []
    epoch_logs: List[Dict[str, float]] = []
    # Resumed programs seed the cumulative counters with the completed work
    # so logs and reports look like one uninterrupted run.
    total_batches = int(options.get("batches_done", 0))
    total_swaps = int(options.get("swaps_done", 0))
    # Accumulated taupdt-scaled marginal-trace drift since the last weight
    # refresh (_sync_replica just refreshed, so the weights start fresh).
    # Computed from reduced statistics only, hence identical on every rank.
    staleness = 0.0
    starts = list(range(0, n, batch_size))

    # First epoch from which the mask can no longer rewire inside this
    # program: structural plasticity fires at the end of epoch e when
    # (e + 1) % mask_update_period == 0, so everything after the last such
    # epoch is a frozen-mask phase.  The schedule depends only on shipped
    # options and synchronised hyper-parameters, hence is identical on every
    # rank.  Sparse payloads are admissible exactly there: the silent-trace
    # statistics they drop are never read by the mutual-information scoring
    # again in this program, and masked forwards never see silent weights.
    period = int(layer.hyperparams.mask_update_period)
    plasticity = getattr(layer, "plasticity", None)
    plasticity_inert = plasticity is None or plasticity.connections_per_hcu in (
        0,
        plasticity.n_input_hypercolumns,
    )
    if plasticity_inert:
        frozen_from = 0
    else:
        swap_epochs = [e for e in range(epochs) if (e + 1) % period == 0]
        frozen_from = (swap_epochs[-1] + 1) if swap_epochs else 0

    # Per-layout sparse-payload state, rebuilt only when the mask layout
    # changes (between plasticity steps the cached buffers are reused).
    sp_state: Dict[str, object] = {}

    def sparse_context(layout) -> Dict[str, object]:
        if sp_state.get("layout") is not layout:
            sp_state["layout"] = layout
            sp_state["token"] = _payload_token(layer.plasticity.mask)
            sp_state["packed"] = np.empty(
                stats_head + 1 + layout.packed_size, dtype=np.float64
            )
            # Pre-zeroed dense mean-outer buffer the reduced active entries
            # scatter into; silent entries stay exactly 0.0 forever, so
            # apply_statistics decays the silent traces and nothing else.
            sp_state["outer"] = np.zeros((n_input, n_hidden), dtype=np.float64)
        return sp_state

    def gather_shard(order: np.ndarray, start: int) -> np.ndarray:
        batch_idx = order[start : start + batch_size]
        lo, hi = split_ranks(batch_idx.shape[0], size)[rank]
        return x[batch_idx[lo:hi]].astype(np.float64, copy=False)

    def fill_statistics(local: np.ndarray, activations, ctx) -> np.ndarray:
        """Pack this rank's shard statistics; returns the payload to reduce."""
        buf = packed if ctx is None else ctx["packed"]
        if local.shape[0] > 0:
            counts = None
            if isinstance(activations, kernels.OneHotActivity):
                # One-hot shard x one-hot winners: the sums below are integer
                # co-activation counts, formed from the indices bit for bit
                # (real-valued inputs densify and take the GEMMs).
                counts = activations.counts(local)
                if counts is None:
                    activations = activations.dense()
            buf[0] = float(local.shape[0])
            buf[1 : 1 + n_input] = local.sum(axis=0)
            buf[1 + n_input : stats_head] = (
                activations.sum(axis=0) if counts is None else counts[0]
            )
            if ctx is None:
                outer = buf[stats_head:].reshape(n_input, n_hidden)
                if counts is None:
                    # ``local.T @ activations``, written straight into the payload.
                    np.matmul(local.T, activations, out=outer)
                else:
                    outer[:] = counts[1]
            else:
                layout = ctx["layout"]
                body = buf[stats_head + 1 :]
                for h, idx, lo, hi in layout.iter_blocks():
                    if idx.size:
                        slab = body[
                            layout.block_starts[h] : layout.block_starts[h + 1]
                        ].reshape(idx.size, hi - lo)
                        if counts is None:
                            # Same length-B contraction as the dense (F,B)@(B,H)
                            # GEMM restricted to active entries, so the reduced
                            # active statistics are bitwise-identical.
                            np.matmul(local[:, idx].T, activations[:, lo:hi], out=slab)
                        else:
                            slab[:] = counts[1][idx, lo:hi]
        else:
            buf[:] = 0.0
        if ctx is not None:
            buf[stats_head] = ctx["token"]
        return buf

    def apply_reduction(reduced: np.ndarray, ctx) -> None:
        """Apply one reduced statistics vector + the drift-gated refresh."""
        nonlocal staleness
        count = reduced[0]
        mean_x_red = reduced[1 : 1 + n_input] / count
        mean_a_red = reduced[1 + n_input : stats_head] / count
        if ctx is None:
            # Caller-owned on every transport, so the mean is formed in place.
            mean_outer = reduced[stats_head:].reshape(n_input, n_hidden)
            mean_outer /= count
        else:
            if reduced[stats_head] != size * ctx["token"]:
                raise BackendError(
                    "sparse-packed allreduce mask tokens disagree across ranks "
                    "(replica masks diverged mid-program)"
                )
            layout = ctx["layout"]
            body = reduced[stats_head + 1 :]
            mean_outer = ctx["outer"]
            for h, idx, lo, hi in layout.iter_blocks():
                if idx.size:
                    slab = body[
                        layout.block_starts[h] : layout.block_starts[h + 1]
                    ].reshape(idx.size, hi - lo)
                    mean_outer[idx, lo:hi] = slab / count
        layer.traces.apply_statistics(mean_x_red, mean_a_red, mean_outer, taupdt)
        if tol > 0.0 and taupdt < 1.0:
            # Stale-weights caching, rank-invariant by construction: the
            # drift is derived from the reduced (identical-everywhere)
            # means and the post-update traces.  The applied max-norm
            # marginal step is taupdt/(1-taupdt) * max|mean - p_new|.
            drift = max(
                float(np.max(np.abs(mean_x_red - layer.traces.p_i))),
                float(np.max(np.abs(mean_a_red - layer.traces.p_j))),
            )
            staleness += drift * taupdt / (1.0 - taupdt)
            if staleness > tol:
                layer.refresh_weights()
                staleness = 0.0
        else:
            layer.refresh_weights()
            staleness = 0.0

    # The in-flight nonblocking reduction of the overlapped schedule: at
    # most ONE request is outstanding at any time (required by the process
    # transport's single-barrier parity-slot protocol), and it never
    # crosses an epoch boundary (drained before end_epoch reads the traces).
    pending: Optional[Tuple[CommRequest, Optional[Dict[str, object]]]] = None

    for epoch in range(start_epoch, epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(n) if shuffle else np.arange(n)
        mean_entropy.clear()
        pending_local: Optional[np.ndarray] = None
        ctx: Optional[Dict[str, object]] = None
        if payload_mode != "off" and epoch >= frozen_from:
            layout = layer.payload_layout()
            if layout is not None and (payload_mode == "on" or layout.density < 1.0):
                ctx = sparse_context(layout)
        for index, start in enumerate(starts):
            if (
                inject is not None
                and epoch == int(inject["epoch"])
                and index == int(inject["batch"])
                and rank == int(inject["rank"])
            ):
                if rank != 0 and comm.transport in ("process", "tcp"):
                    # A hard kill, not an exception: exercises the real
                    # dead-worker detection and respawn/re-admission path.
                    os._exit(17)
                raise BackendError(
                    f"injected crash on rank {rank} at epoch {epoch}, batch {index}"
                )
            local = pending_local if pending_local is not None else gather_shard(order, start)
            pending_local = None
            if competitive and layer.batches_trained == 0:
                # Global first-batch marginals for the trace calibration —
                # one extra packed allreduce, only ever on the first batch
                # of the whole program (so never with a reduction in
                # flight).
                head = np.empty(1 + n_input, dtype=np.float64)
                head[0] = float(local.shape[0])
                head[1:] = local.sum(axis=0) if local.shape[0] else 0.0
                reduced_head = comm.allreduce(head, op="sum")
                layer.traces.calibrate_marginals(
                    mean_x=reduced_head[1:] / reduced_head[0], jitter=0.02, rng=layer._rng
                )
                layer.refresh_weights()
            if local.shape[0] > 0:
                activations = layer.forward_raw(local)
                if competitive:
                    # Entropy of the forward activations, as the plain loop
                    # records it: the competition output is one-hot in
                    # ``sample`` mode, whose entropy is identically zero.
                    mean_entropy.append(mean_activation_entropy(activations))
                    activations = layer._training_activity(activations)
            else:
                activations = None
            buf = fill_statistics(local, activations, ctx)
            if pipelined and index + 1 < len(starts):
                # Pipelining: gather the next batch's shard before blocking
                # on the allreduce, so the copy overlaps other ranks' skew.
                pending_local = gather_shard(order, starts[index + 1])
            if overlap:
                # Software pipeline: this batch's forward and statistics ran
                # BEFORE waiting on the previous batch's reduction (the
                # overlap window), so the forward used one-batch-stale
                # weights — admissible because tol > 0.  The contribution is
                # captured at iallreduce time, so ``buf`` is free for reuse.
                if pending is not None:
                    request, request_ctx = pending
                    pending = None
                    apply_reduction(request.wait(), request_ctx)
                pending = (comm.iallreduce(buf, op="sum"), ctx)
            else:
                apply_reduction(comm.allreduce(buf, op="sum"), ctx)
            if competitive:
                layer.batches_trained += 1
            total_batches += 1
        if pending is not None:
            # Drain the pipeline: plasticity and the epoch-boundary weight
            # flush must observe every applied batch.
            request, request_ctx = pending
            pending = None
            apply_reduction(request.wait(), request_ctx)
        if staleness > 0.0:
            # The epoch boundary publishes weights (mask plasticity reads
            # traces, but callbacks and the caller observe the layer), so
            # flush any accumulated staleness here.
            layer.refresh_weights()
            staleness = 0.0
        swaps = layer.end_epoch(epoch)
        total_swaps += int(swaps)
        if competitive:
            # Stochastic competition modes draw shard-shaped noise, which
            # desynchronises the shared layer generator across ranks and can
            # make the epoch-boundary mask swaps diverge.  Re-imposing rank
            # 0's traces/mask here bounds any divergence to a single epoch
            # (deterministic modes broadcast already-identical state).
            _sync_replica(comm, layer)
        log: Dict[str, float] = {
            "swaps": float(swaps),
            "batches": float(total_batches),
            "seconds": time.perf_counter() - started,
            "sparse_payload": 1.0 if ctx is not None else 0.0,
            "payload_floats": float(
                (ctx["packed"].size if ctx is not None else packed.size)
            ),
        }
        if competitive:
            log["mean_activation_entropy"] = (
                float(np.mean(mean_entropy)) if mean_entropy else 0.0
            )
        epoch_logs.append(log)
        if progress is not None:
            # Epoch boundaries are consistent resume points: the pipeline is
            # drained, staleness flushed and plasticity applied, so the
            # snapshot plus start_epoch=epoch+1 replays the remainder of the
            # run bitwise-identically.
            progress["epoch"] = epoch + 1
            progress["global_batches"] = total_batches
            progress["swaps"] = total_swaps
            progress["epoch_logs"] = list(epoch_logs)
            progress["snapshot"] = {
                "p_i": layer.traces.p_i.copy(),
                "p_j": layer.traces.p_j.copy(),
                "p_ij": layer.traces.p_ij.copy(),
                "mask": layer.plasticity.mask.copy(),
                "rng_state": copy.deepcopy(layer._rng.bit_generator.state),
                "batches_trained": int(layer.batches_trained),
            }
        if rank == 0:
            # Driver-side epoch-boundary hook (rank 0 runs inline): the same
            # consistent state the in-memory snapshot above captures, handed
            # to the durable checkpoint layer.
            hook = options.get("on_epoch_boundary")
            if hook is not None:
                hook(
                    epoch,
                    {
                        "epoch_logs": [dict(log) for log in epoch_logs],
                        "global_batches": total_batches,
                        "swaps": total_swaps,
                    },
                )

    if is_replica:
        layer.backend.close()  # replica-owned pools/buffers die with the program
    return {
        "rank": rank,
        "global_batches": total_batches,
        "swaps": total_swaps,
        "epoch_logs": epoch_logs,
        "allreduce_calls": int(comm.collective_calls["allreduce"]),
        "iallreduce_calls": int(comm.collective_calls["iallreduce"]),
        "bytes_communicated": int(comm.bytes_communicated),
    }


def _layer_snapshot(layer) -> Dict[str, object]:
    """Everything needed to restore a layer to a consistent resume point."""
    snapshot: Dict[str, object] = {
        "p_i": layer.traces.p_i.copy(),
        "p_j": layer.traces.p_j.copy(),
        "p_ij": layer.traces.p_ij.copy(),
        "rng_state": copy.deepcopy(layer._rng.bit_generator.state),
        "batches_trained": int(layer.batches_trained),
    }
    plasticity = getattr(layer, "plasticity", None)
    if plasticity is not None:
        snapshot["mask"] = plasticity.mask.copy()
    return snapshot


def _restore_layer(layer, snapshot: Dict[str, object]) -> None:
    """In-place inverse of :func:`_layer_snapshot` (weights re-derived)."""
    layer.traces.p_i[:] = snapshot["p_i"]
    layer.traces.p_j[:] = snapshot["p_j"]
    layer.traces.p_ij[:] = snapshot["p_ij"]
    if "mask" in snapshot:
        layer.plasticity.mask[:] = snapshot["mask"]
        layer._refresh_mask()
    layer._rng.bit_generator.state = copy.deepcopy(snapshot["rng_state"])
    layer.batches_trained = int(snapshot["batches_trained"])
    layer.refresh_weights()


class DistributedTrainer:
    """Data-parallel trainer for the unsupervised BCPNN hidden layer.

    The trainer launches :func:`train_layer_program` through
    ``comm.run`` — rank 0 executes inline in the driver (training the
    caller's layer object in place), the transport supplies the other ranks
    (threads, OS processes, or MPI ranks).  The trainer is duck-typed
    against :class:`repro.core.layers.StructuralPlasticityLayer`: it
    requires ``layer.forward_raw``, ``layer.traces``,
    ``layer.refresh_weights``, ``layer.end_epoch`` and ``layer.hyperparams``.

    Parameters
    ----------
    comm:
        Any :class:`repro.comm.Communicator` (``SerialComm``, ``ThreadComm``,
        ``ProcessComm`` or ``MPIComm``).
    """

    def __init__(self, comm: Communicator) -> None:
        if not isinstance(comm, Communicator):
            raise BackendError(
                "DistributedTrainer requires a repro.comm.Communicator "
                "(SerialComm, ThreadComm, ProcessComm or MPIComm)"
            )
        self.comm = comm

    # ------------------------------------------------------------ training
    def train_layer(
        self,
        layer,
        x: np.ndarray,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator,
        shuffle: bool = True,
        on_epoch_end: Optional[Callable[[int, Dict[str, float]], None]] = None,
        mode: str = "rate",
        pipeline: bool = False,
        weight_refresh_tol: float = 0.0,
        comm_overlap: str = "auto",
        sparse_payload: str = "auto",
        fault_tolerance: bool = False,
        max_restarts: int = 2,
        fault_injection: Optional[Dict[str, int]] = None,
        resume_state: Optional[Dict[str, object]] = None,
        on_epoch_boundary: Optional[Callable[[int, Dict[str, object]], None]] = None,
    ) -> DistributedEpochReport:
        """Train ``layer`` on ``x`` with rank-sharded batches.

        Every global batch is partitioned into ``comm.size`` shards; each
        rank computes its shard's sufficient statistics and the packed
        statistics are combined with a single allreduce per batch —
        numerically identical to serial training over the same global
        batches (up to floating-point summation order).

        ``pipeline`` overlaps the next shard gather with the allreduce wait
        (bitwise-neutral scheduling); ``weight_refresh_tol`` enables the
        rank-invariant stale-weights caching (see
        :func:`train_layer_program`), with ``0`` refreshing every batch
        exactly as before.

        ``comm_overlap`` (``"auto"``/``"on"``/``"off"``) software-pipelines
        the per-batch allreduce behind the next batch's forward via the
        transport's nonblocking ``iallreduce`` — only engaged when
        ``weight_refresh_tol > 0`` (one-batch-stale weights fall under the
        same contract); at ``tol=0`` every mode is bit-for-bit the blocking
        schedule.  ``sparse_payload`` packs only active-row outer-product
        statistics once the structural-plasticity mask is frozen for the
        remainder of the run, shrinking the reduced payload by roughly the
        mask density (see :func:`train_layer_program` for both contracts).

        ``on_epoch_end`` is invoked on the driver after the program
        completes (the callback cannot cross a process boundary), in epoch
        order, with the rank-0 epoch logs.

        ``resume_state`` re-enters an interrupted call exactly where a prior
        one stopped (the on-disk twin of in-memory worker recovery; used by
        :mod:`repro.checkpoint`): ``{"shuffle_seed", "start_epoch",
        "batches_done", "swaps_done", "completed_logs"}``.  The stored
        shuffle seed is reused instead of drawing from ``rng`` — the
        caller's generator already advanced past that draw before the
        checkpoint was taken — and the program fast-forwards the shuffle
        stream to ``start_epoch``, so the resumed run is bitwise-identical
        to an uninterrupted one at ``weight_refresh_tol=0``.
        ``on_epoch_boundary(epoch, info)`` fires on the driver (rank 0 runs
        inline) at every completed epoch boundary *during* the program —
        the state is consistent there, which is what makes mid-layer
        checkpoints possible; ``info`` carries the shuffle seed, cumulative
        batch/swap counters and all completed epoch logs.

        ``fault_tolerance`` arms crash recovery on transports that support
        it (``comm.fault_tolerant``): when a rank dies mid-program, the
        dead worker is respawned (process) or re-admitted (tcp) through
        ``comm.recover()``, the layer is restored from the last
        completed-epoch snapshot, and training resumes at that epoch
        boundary with the shuffle stream fast-forwarded — at
        ``weight_refresh_tol=0`` the recovered run's final weights are
        bitwise-identical to an uninterrupted run (test-enforced in
        ``tests/backend/test_fault_tolerance.py``).  ``max_restarts``
        bounds the recovery attempts per call.  ``fault_injection``
        (``{"rank": r, "epoch": e, "batch": b}``) kills rank ``r`` at the
        start of that global batch, exactly once — the test hook behind
        ``repro train --inject-crash``.
        """
        x = np.ascontiguousarray(check_numeric_dtype(x))  # broadcast in its stored dtype
        if x.ndim != 2:
            raise DataError("x must be a 2-D activation matrix")
        if x.shape[0] == 0:
            raise DataError("cannot train on an empty batch")
        if epochs < 0:
            raise DataError("epochs must be non-negative")
        if batch_size <= 0:
            raise DataError("batch_size must be positive")
        if mode not in ("rate", "competitive"):
            raise DataError(f"unknown training mode '{mode}'")
        if float(weight_refresh_tol) < 0.0:
            raise DataError("weight_refresh_tol must be non-negative")
        if comm_overlap not in ("auto", "on", "off"):
            raise DataError(
                f"comm_overlap must be 'auto', 'on' or 'off', got {comm_overlap!r}"
            )
        if sparse_payload not in ("auto", "on", "off"):
            raise DataError(
                f"sparse_payload must be 'auto', 'on' or 'off', got {sparse_payload!r}"
            )
        if int(max_restarts) < 0:
            raise DataError("max_restarts must be non-negative")
        if fault_injection is None:
            # An env-activated ``worker.crash`` rule (REPRO_FAULTS) subsumes
            # the explicit hook, so chaos runs need no plumbing changes.
            fault_injection = faults.crash_injection_from_plan()
        injection: Optional[Dict[str, int]] = None
        if fault_injection is not None:
            missing = {"rank", "epoch", "batch"} - set(fault_injection)
            if missing:
                raise DataError(
                    f"fault_injection needs rank/epoch/batch keys, missing {sorted(missing)}"
                )
            injection = {key: int(fault_injection[key]) for key in ("rank", "epoch", "batch")}
            if not 0 <= injection["rank"] < self.comm.size:
                raise DataError(
                    f"fault_injection rank {injection['rank']} out of range for "
                    f"{self.comm.size} ranks"
                )
        n = x.shape[0]
        # Drawing the seed consumes the caller's generator, so repeated
        # calls with one rng get fresh, still-deterministic shuffles.  A
        # recovery restart reuses the SAME seed: the resumed program
        # fast-forwards the stream instead of drawing a new one.  A
        # checkpoint resume supplies the stored seed for the same reason —
        # the caller's generator consumed the draw before the checkpoint.
        if resume_state is not None:
            shuffle_seed = int(resume_state["shuffle_seed"])
            start_epoch = int(resume_state.get("start_epoch", 0))
            batches_done = int(resume_state.get("batches_done", 0))
            swaps_done = int(resume_state.get("swaps_done", 0))
            completed_logs = [dict(log) for log in resume_state.get("completed_logs", [])]
        else:
            shuffle_seed = int(rng.integers(2**63))
            start_epoch = 0
            batches_done = 0
            swaps_done = 0
            completed_logs = []
        restarts = 0
        while True:
            # The snapshot at attempt start covers crashes before the first
            # epoch boundary of this attempt (rank 0 trains the caller's
            # layer in place, so a mid-epoch crash leaves it partial).
            attempt_state = _layer_snapshot(layer)
            spec = {
                "n_hypercolumns": layer.n_hypercolumns,
                "n_minicolumns": layer.n_minicolumns,
                "hyperparams": layer.hyperparams.to_dict(),
                "input_sizes": list(layer.input_spec.hypercolumn_sizes),
                "name": layer.name,
                "batches_trained": int(layer.batches_trained),
                # Worker replicas must compute their shards on the same compute
                # backend as rank 0, or the reduction mixes precisions.
                "backend": resolve_backend_name(layer._backend_spec, layer.backend),
                # ... and on the same execution plan (dense vs block-sparse).
                "sparse": getattr(layer, "sparse_mode", None),
            }
            options = {
                "spec": spec,
                "epochs": int(epochs),
                "batch_size": int(batch_size),
                "shuffle": bool(shuffle),
                "mode": mode,
                "pipeline": bool(pipeline),
                "weight_refresh_tol": float(weight_refresh_tol),
                "comm_overlap": comm_overlap,
                "sparse_payload": sparse_payload,
                "shuffle_seed": shuffle_seed,
                "rng_layer_state": layer._rng.bit_generator.state,
                "start_epoch": start_epoch,
                "batches_done": batches_done,
                "swaps_done": swaps_done,
            }
            progress: Optional[Dict[str, object]] = None
            if fault_tolerance:
                progress = {
                    "epoch": start_epoch,
                    "global_batches": batches_done,
                    "swaps": swaps_done,
                    "epoch_logs": [],
                    "snapshot": None,
                }
                options["progress"] = progress
            if injection is not None:
                options["fault_injection"] = injection
            # The boundary hook is a live driver-side closure, so it rides a
            # rank-0-only shallow copy: worker ranks keep the original,
            # picklable options dict (they share the same ``progress``
            # object through the copy, which rank 0 mutates inline).
            rank0_options = options
            if on_epoch_boundary is not None:
                prior_logs = [dict(log) for log in completed_logs]

                def _boundary_hook(
                    epoch: int, info: Dict[str, object], _prior=prior_logs
                ) -> None:
                    payload = dict(info)
                    payload["shuffle_seed"] = shuffle_seed
                    payload["epoch_logs"] = _prior + list(info["epoch_logs"])
                    on_epoch_boundary(epoch, payload)

                rank0_options = dict(options)
                rank0_options["on_epoch_boundary"] = _boundary_hook
            rank_args: List[tuple] = [(layer, x, rank0_options)]
            rank_args += [(None, None, options) for _ in range(1, self.comm.size)]
            try:
                results = self.comm.run(train_layer_program, rank_args)
                break
            except BackendError:
                if not fault_tolerance:
                    raise
                restarts += 1
                if restarts > int(max_restarts):
                    raise
                if not self.comm.recover():
                    raise
                # An explicit fault_injection dict fires exactly once; a
                # REPRO_FAULTS worker.crash rule with count=N re-arms until
                # its budget is spent (how the chaos tests exceed
                # max_restarts with genuine repeat crashes).
                injection = faults.crash_injection_from_plan()
                if progress is not None and progress.get("snapshot") is not None:
                    start_epoch = int(progress["epoch"])
                    batches_done = int(progress["global_batches"])
                    swaps_done = int(progress["swaps"])
                    completed_logs = list(completed_logs) + list(progress["epoch_logs"])
                    _restore_layer(layer, progress["snapshot"])
                else:
                    _restore_layer(layer, attempt_state)
                logger.warning(
                    "rank failure during distributed training; resuming layer "
                    "'%s' from epoch %d (restart %d/%d)",
                    layer.name,
                    start_epoch,
                    restarts,
                    int(max_restarts),
                )
        if hasattr(layer, "flush_weights"):
            # Settle the dense weight matrix the sparse plan's packed
            # refreshes defer (a no-op on dense layers).
            layer.flush_weights()
        report = results[0]
        epoch_logs = completed_logs + list(report["epoch_logs"])
        if on_epoch_end is not None:
            for epoch, log in enumerate(epoch_logs):
                on_epoch_end(epoch, dict(log))
        return DistributedEpochReport(
            epochs=epochs,
            global_batches=int(report["global_batches"]),
            ranks=self.comm.size,
            samples=n,
            allreduce_calls=self.comm.collective_calls["allreduce"],
            bytes_communicated=self.comm.bytes_communicated,
            swaps=int(report["swaps"]),
            extra={
                "epoch_logs": epoch_logs,
                "iallreduce_calls": int(report.get("iallreduce_calls", 0)),
                "restarts": restarts,
            },
        )
