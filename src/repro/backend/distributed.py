"""Data-parallel BCPNN training over the :mod:`repro.comm` transports.

StreamBrain's MPI backend exploits the fact that BCPNN learning is *local*:
each rank accumulates probability statistics on its own shard of the batch
and the shards are combined with a single allreduce — there is no gradient
to backpropagate across ranks (Section II-B).  This module maps that
algorithm onto the :class:`~repro.comm.Communicator` interface.

:class:`DistributedTrainer` launches an SPMD program
(:func:`train_layer_program`) through ``comm.run`` where every rank owns an
identical layer replica, runs the layer's own learning step (forward,
competition) on its shard of each global batch, and applies the update from
**one allreduce per batch** of the shard's sufficient statistics (or, under
``sample`` competition on {0,1} inputs, only its winners).  Rank 0 runs
inline in the driver, so the caller's layer object is trained in place.
Because the reduction is exact, training with ``R`` ranks produces
bit-for-bit (up to floating point summation order) the same traces as the
serial ``train_batch`` loop — on the serial, thread and tcp transports alike
(the invariance tests in ``tests/backend/test_distributed.py`` and
``tests/comm`` check this).
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import faults, kernels
from repro.comm import Communicator, split_ranks
from repro.engine.pipeline import mean_activation_entropy
from repro.exceptions import BackendError, DataError
from repro.utils.logging import get_logger
from repro.utils.validation import check_numeric_dtype

logger = get_logger(__name__)

__all__ = [
    "DistributedTrainer",
    "split_ranks",
    "train_layer_program",
    "resolve_backend_name",
]


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
    trace/mask arrays are broadcast afterwards (see
    :func:`train_layer_program`).  ``rng`` must use
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
        seed=rng,
        name=str(spec["name"]),
    )
    layer.build(InputSpec([int(s) for s in spec["input_sizes"]]))
    layer.batches_trained = int(spec["batches_trained"])
    return layer


def _winner_payload(layer, x: np.ndarray) -> bool:
    """Whether the ranks reduce winners, not statistics (``sample``, {0,1} x)."""
    rows = max(1, (1 << 20) // max(1, x.shape[1]))  # ~1 MB blocks: no x-sized temporary
    blocks = (x[i : i + rows] for i in range(0, x.shape[0], rows))
    return layer.hyperparams.competition == "sample" and all(
        np.count_nonzero(b == 1) == np.count_nonzero(b) for b in blocks
    )


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
    on_epoch_end: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Dict[str, object]:
    """One rank's share of data-parallel hidden-layer training.

    Every rank holds an identical layer replica (rank 0: the driver's live
    layer, in place; workers: rebuilt from ``options["spec"]`` and
    synchronised by broadcast) and runs the serial learning step
    (``StructuralPlasticityLayer.train_batch``) on its shard of each global
    batch, through the layer's own engine: first-batch marginal calibration
    from the *global* batch mean, the forward and the configured competition
    (:meth:`StructuralPlasticityLayer.shard_activity`), then **one allreduce
    per batch**: the shard's sufficient statistics packed as
    ``[count, Σx, Σa, Σ(xᵀa)]`` (trace-sized), or — under ``sample``
    competition on {0,1}-valued ``x`` (:func:`_winner_payload`) — its rows
    of the batch's ``(B, n_hcu)`` winner matrix, from which every rank
    counts the global batch's statistics: exact integers, so bit for bit
    what the statistics payload reduces.  The reduced means go through
    :meth:`repro.engine.LayerEngine.apply_means` on every rank, so the
    replicas never drift.  Deterministic competition ("softmax") is
    rank-invariant; stochastic modes draw shard-shaped noise and are
    statistically, not bitwise, equivalent across rank counts (the replica
    sync at every epoch boundary bounds their divergence to one epoch).

    ``options["weight_refresh_tol"]`` mirrors the engine's stale-weights
    caching: the per-batch ``traces_to_weights`` refresh is skipped while
    the engine's accumulated ``taupdt``-scaled marginal-trace drift stays
    under the tolerance (:meth:`repro.engine.LayerEngine.should_refresh_weights`,
    the gate ``train_batch`` uses).  The drift is computed from the
    *reduced* statistics, which are identical on every rank, and every rank
    enters with its engine built and its drift account zeroed by the replica
    sync, so the refresh decisions — and therefore the training — stay
    rank-invariant.  ``0`` refreshes every batch (exact).  Either way each
    batch blocks on its own reduction before the next batch's forward.

    Restarts (see :meth:`DistributedTrainer.train_layer`):

    * ``options["record"]`` — the epoch-boundary record the program enters
      at: ``{shuffle_seed, epoch, batches, swaps, epoch_logs}``.  Epoch
      indices stay *absolute* (the ``end_epoch`` plasticity cadence is
      unaffected), the shuffle stream is fast-forwarded by discarding the
      completed epochs' permutations, and the counters and logs continue
      from the record's, so a restarted run is bitwise the uninterrupted
      one.  A fresh start is the record at epoch 0.
    * ``on_epoch_end`` (rank 0 only; it runs inline in the caller) receives
      the next record at every epoch boundary, with the layer's
      :func:`_layer_snapshot` under ``"snapshot"``.
    * ``options["fault_injection"]`` — ``{rank, epoch, batch}`` from the
      fault plan's ``worker.crash`` rule: the matching rank dies at the
      start of that global batch (a hard ``os._exit`` on multi-process
      transports, a raised :class:`BackendError` otherwise).
    """
    rank, size = comm.rank, comm.size
    x = comm.bcast(x, root=0)
    if layer is None:
        layer = _replica_from_spec(
            options["spec"], _generator_from_state(options["rng_layer_state"])
        )
    # In-place state reset (never a new Generator object: the plasticity rule
    # shares the layer's generator) makes every replica's draw stream match
    # rank 0's exactly — calibration jitter and mask swaps stay identical.
    layer._rng.bit_generator.state = options["rng_layer_state"]

    record = options["record"]
    shuffle_rng = np.random.default_rng(int(record["shuffle_seed"]))
    epochs = int(options["epochs"])
    batch_size = int(options["batch_size"])
    shuffle = bool(options["shuffle"])
    tol = float(options.get("weight_refresh_tol", 0.0))

    n = x.shape[0]
    # Build the engine for the largest shard (a full batch's first) before
    # the sync: the sync's weight refresh then zeroes its drift account on
    # every rank alike (a fresh engine starts infinitely stale, which would
    # add a refresh).
    layer.configure_execution(weight_refresh_tol=tol)
    lo, hi = split_ranks(min(batch_size, n), size)[0]
    engine = layer.engine_for(hi - lo)
    _sync_replica(comm, layer)

    start_epoch = int(record["epoch"])
    if not 0 <= start_epoch <= epochs:
        raise BackendError(f"start_epoch must be in [0, {epochs}], got {start_epoch}")
    if shuffle:
        # Fast-forward the shuffle stream past the already-completed epochs
        # so epoch e sees the same permutation as in an uninterrupted run.
        for _ in range(start_epoch):
            shuffle_rng.permutation(n)
    inject = options.get("fault_injection")
    taupdt = float(layer.hyperparams.taupdt)
    n_input = layer.traces.n_input
    n_hidden = layer.traces.n_hidden
    stats_head = 1 + n_input + n_hidden
    winner_payload = bool(options.get("winner_payload", False))
    packed = np.empty(0 if winner_payload else stats_head + n_input * n_hidden)
    mean_entropy: List[float] = []
    # Restarted programs continue the record's cumulative counters and logs
    # so reports look like one uninterrupted run.
    epoch_logs: List[Dict[str, float]] = list(record["epoch_logs"])
    total_batches = int(record["batches"])
    total_swaps = int(record["swaps"])
    starts = list(range(0, n, batch_size))

    def fill_statistics(local: np.ndarray, activations) -> np.ndarray:
        """Pack this rank's shard statistics; returns the payload to reduce."""
        if local.shape[0] > 0:
            if isinstance(activations, kernels.OneHotActivity):
                activations = activations.dense()  # real-valued x: the GEMMs
            packed[0] = float(local.shape[0])
            packed[1 : 1 + n_input] = local.sum(axis=0)
            packed[1 + n_input : stats_head] = activations.sum(axis=0)
            # ``local.T @ activations``, written straight into the payload.
            outer = packed[stats_head:].reshape(n_input, n_hidden)
            np.matmul(local.T, activations, out=outer)
        else:
            packed[:] = 0.0
        return packed

    def apply_means(mean_x, mean_a, mean_outer) -> None:
        engine.apply_means(layer.traces, mean_x, mean_a, mean_outer, taupdt)
        if engine.should_refresh_weights():
            layer.refresh_weights()

    def apply_reduction(reduced: np.ndarray) -> None:
        """Apply one reduced statistics vector + the drift-gated refresh."""
        count = reduced[0]
        mean_x = reduced[1 : 1 + n_input] / count
        mean_a = reduced[1 + n_input : stats_head] / count
        # Caller-owned on every transport, so the mean is formed in place.
        mean_outer = reduced[stats_head:].reshape(n_input, n_hidden)
        mean_outer /= count
        apply_means(mean_x, mean_a, mean_outer)

    def apply_winners(batch: np.ndarray, reduced: np.ndarray) -> None:
        """Count the batch's co-active pairs from its reduced winners and apply."""
        sum_x, sum_a, flat, hits = kernels.one_hot_counts(batch, reduced.astype(np.intp), n_hidden)
        # The same ``/ count`` as apply_reduction: the sums are the same
        # exact integers, so the means are the same bits.
        count = float(batch.shape[0])
        apply_means(sum_x / count, sum_a / count, (flat, hits / count))

    # This rank's shard of a batch, by the batch's row count: a full batch's
    # and the ragged tail's.
    shard = {rows: split_ranks(rows, size)[rank] for rows in (min(batch_size, n), n - starts[-1])}
    # One (B, n_hcu) winner buffer; a ragged tail uses its first rows.
    winner_buf = np.zeros((min(batch_size, n), layer.n_hypercolumns))
    for epoch in range(start_epoch, epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(n) if shuffle else np.arange(n)
        mean_entropy.clear()
        payload_floats = 0  # the epoch's largest payload: a full batch's
        crash = inject is not None and (epoch, rank) == (inject["epoch"], inject["rank"])
        crash_batch = int(inject["batch"]) if crash else -1
        for index, start in enumerate(starts):
            if index == crash_batch:
                if rank != 0 and comm.transport == "tcp":
                    # A hard kill, not an exception: exercises the real
                    # dead-worker detection and respawn/re-admission path.
                    os._exit(17)
                raise BackendError(
                    f"injected crash on rank {rank} at epoch {epoch}, batch {index}"
                )
            # The global batch in x's stored dtype; only the shard widens.
            batch = x[order[start : start + batch_size]]
            lo, hi = shard[batch.shape[0]]
            local = batch[lo:hi].astype(np.float64, copy=False)
            if layer.batches_trained == 0:
                # Global first-batch marginals for the trace calibration.  A
                # winner payload's {0,1} batch sums exactly in any order, so
                # every rank forms them itself; otherwise the shard sums are
                # reduced (one extra allreduce, on the program's first batch
                # only, so never with a reduction in flight).
                if winner_payload:
                    mean_x = batch.mean(axis=0, dtype=np.float64)
                else:
                    head = np.concatenate(([local.shape[0]], local.sum(axis=0)))
                    head = comm.allreduce(head, op="sum")
                    mean_x = head[1:] / head[0]
                layer.calibrate_prior(mean_x)
            if local.shape[0] > 0:
                forward, activations = layer.shard_activity(local)
                # Entropy of the forward activations, as the plain loop
                # records it (the competition never writes them): the
                # competition output is one-hot in ``sample`` mode, whose
                # entropy is identically zero.
                mean_entropy.append(mean_activation_entropy(forward))
            else:
                activations = None
            if winner_payload:
                # This rank's rows of the batch's (B, n_hcu) winner matrix;
                # the other ranks' rows stay 0, so the sum is the matrix.
                buf = winner_buf[: batch.shape[0]]
                buf.fill(0.0)
                if activations is not None:
                    buf[lo:hi] = activations.winners
                apply_winners(batch, comm.allreduce(buf, op="sum"))
            else:
                buf = fill_statistics(local, activations)
                apply_reduction(comm.allreduce(buf, op="sum"))
            payload_floats = max(payload_floats, buf.size)
            layer.batches_trained += 1
            total_batches += 1
        swaps = layer.end_epoch(epoch)
        total_swaps += int(swaps)
        # Stochastic competition modes draw shard-shaped noise, which
        # desynchronises the shared layer generator across ranks and can
        # make the epoch-boundary mask swaps diverge.  Re-imposing rank 0's
        # traces/mask here bounds any divergence to a single epoch
        # (deterministic modes broadcast already-identical state); its
        # weight refresh publishes the boundary's weights to callbacks and
        # the caller.
        _sync_replica(comm, layer)
        epoch_logs.append(
            {
                "swaps": float(swaps),
                "batches": float(total_batches),
                "seconds": time.perf_counter() - started,
                "winner_payload": float(winner_payload),
                "payload_floats": float(payload_floats),
                "mean_activation_entropy": (
                    float(np.mean(mean_entropy)) if mean_entropy else 0.0
                ),
            }
        )
        if on_epoch_end is not None:
            # Epoch boundaries are consistent restart points: every batch is
            # applied, plasticity has run and the weights are fresh, so this
            # record replays the rest of the run bitwise-identically.
            on_epoch_end(
                {
                    "shuffle_seed": int(record["shuffle_seed"]),
                    "epoch": epoch + 1,
                    "batches": total_batches,
                    "swaps": total_swaps,
                    "epoch_logs": list(epoch_logs),
                    "snapshot": _layer_snapshot(layer),
                }
            )

    return {
        "rank": rank,
        "global_batches": total_batches,
        "swaps": total_swaps,
        "epoch_logs": epoch_logs,
    }


def _layer_snapshot(layer) -> Dict[str, object]:
    """The layer's state codec plus its generator state: a resume point."""
    return dict(layer.state_dict(), rng_state=layer._rng.bit_generator.state)


class DistributedTrainer:
    """Data-parallel trainer for the unsupervised BCPNN hidden layer.

    The trainer launches :func:`train_layer_program` through
    ``comm.run`` — rank 0 executes inline in the driver (training the
    caller's layer object in place), the transport supplies the other ranks
    (threads or OS processes).  The trainer is duck-typed against
    :class:`repro.core.layers.StructuralPlasticityLayer`: it requires
    the per-rank step (``shard_activity``, ``calibrate_prior``,
    ``engine_for``, ``configure_execution``, ``refresh_weights``,
    ``end_epoch``, ``traces``, ``hyperparams``) and the restart snapshot
    (``state_dict``, ``load_state_dict`` and the ``_rng`` generator).

    Parameters
    ----------
    comm:
        Any :class:`repro.comm.Communicator` (``SerialComm``, ``ThreadComm``
        or ``TCPComm``).
    """

    def __init__(self, comm: Communicator) -> None:
        if not isinstance(comm, Communicator):
            raise BackendError(
                "DistributedTrainer requires a repro.comm.Communicator "
                "(SerialComm, ThreadComm or TCPComm)"
            )
        self.comm = comm

    # ------------------------------------------------------------ training
    def train_layer(
        self,
        layer,
        x: np.ndarray,
        epochs: int,
        batch_size: int,
        rng: Optional[np.random.Generator],
        shuffle: bool = True,
        on_epoch_end: Optional[Callable[[Dict[str, object]], None]] = None,
        weight_refresh_tol: float = 0.0,
        max_restarts: int = 2,
        resume: Optional[Dict[str, object]] = None,
    ) -> DistributedEpochReport:
        """Train ``layer`` on ``x`` with rank-sharded batches.

        Every global batch is partitioned into ``comm.size`` shards; each
        rank runs the layer's learning step on its shard and the shard
        payloads are combined with a single allreduce per batch —
        numerically identical to the serial ``train_batch`` loop over the
        same global batches (up to floating-point summation order).

        ``weight_refresh_tol`` enables the rank-invariant stale-weights
        caching (see :func:`train_layer_program`), with ``0`` refreshing
        every batch exactly as before.  The layer's engine runs at this
        tolerance for the call, and the layer gets its previous execution
        options back when the call returns.  The report counts this call's
        traffic only, whatever the communicator carried before.

        **Restarts.**  At every epoch boundary rank 0 emits one record —
        ``{shuffle_seed, epoch, batches, swaps, epoch_logs, snapshot}``:
        the shuffle seed, the next epoch, the cumulative batch and swap
        counts and epoch logs, and the layer's :func:`_layer_snapshot`
        (its ``state_dict`` plus its generator state).
        ``on_epoch_end(record)`` receives it in the caller, live, as each
        epoch completes.  The trainer keeps the latest record, and every
        attempt enters at it: when a rank dies on a transport that can
        recover (``comm.fault_tolerant``: tcp, ``process:N`` included), the
        dead worker is respawned or re-admitted through ``comm.recover()``,
        the layer is restored from the record's snapshot and the program
        re-enters at that boundary with the shuffle stream fast-forwarded —
        the recovered run is bitwise-identical to an uninterrupted one, with
        or without stale-weights caching (test-enforced in
        ``tests/backend/test_fault_tolerance.py``).  ``max_restarts``
        bounds the recoveries per call; the thread and serial transports
        raise the :class:`BackendError`.  ``resume`` re-enters a record the
        same way — a checkpoint unit (:mod:`repro.checkpoint`) is a record
        without the snapshot, whose layer the checkpoint itself restored.
        A fresh call draws the shuffle seed from ``rng`` instead.  A
        ``worker.crash`` rule of the active fault plan
        (:func:`repro.faults.crash_injection_from_plan`, e.g.
        ``REPRO_FAULTS="worker.crash@rank=1,epoch=0,batch=2"``) kills that
        rank at the start of that global batch.
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
        if float(weight_refresh_tol) < 0.0:
            raise DataError("weight_refresh_tol must be non-negative")
        if int(max_restarts) < 0:
            raise DataError("max_restarts must be non-negative")
        injection = faults.crash_injection_from_plan()
        if injection is not None and not 0 <= injection["rank"] < self.comm.size:
            raise DataError(
                f"worker.crash rank {injection['rank']} out of range for "
                f"{self.comm.size} ranks"
            )
        # Drawing the seed consumes the caller's generator, so repeated
        # calls with one rng get fresh, still-deterministic shuffles.
        latest: Dict[str, object] = (
            dict(resume)
            if resume is not None
            else {
                "shuffle_seed": int(rng.integers(2**63)),
                "epoch": 0,
                "batches": 0,
                "swaps": 0,
                "epoch_logs": [],
            }
        )

        def keep(record: Dict[str, object]) -> None:
            nonlocal latest
            latest = record
            if on_epoch_end is not None:
                on_epoch_end(record)

        # The communicator's counters live as long as it does; the report
        # books this call's traffic only.
        calls = self.comm.collective_calls
        before = (calls["allreduce"], self.comm.bytes_communicated)
        previous_options = dict(layer._engine_options)
        winner_payload = _winner_payload(layer, x)
        restarts = 0
        while True:
            # Every attempt enters at the latest record: restore its snapshot
            # (a crash leaves rank 0's in-place layer mid-epoch), or take one
            # where the layer already stands at the record's boundary.
            if "snapshot" in latest:
                layer.load_state_dict(latest["snapshot"])  # rebuilds: consumes draws
                layer._rng.bit_generator.state = latest["snapshot"]["rng_state"]
            else:
                latest["snapshot"] = _layer_snapshot(layer)
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
            }
            options = {
                "spec": spec,
                "epochs": int(epochs),
                "batch_size": int(batch_size),
                "shuffle": bool(shuffle),
                "weight_refresh_tol": float(weight_refresh_tol),
                "winner_payload": winner_payload,
                "record": {k: v for k, v in latest.items() if k != "snapshot"},
                "rng_layer_state": layer._rng.bit_generator.state,
            }
            if injection is not None:
                options["fault_injection"] = injection
            rank_args: List[tuple] = [(layer, x, options, keep)]
            rank_args += [(None, None, options) for _ in range(1, self.comm.size)]
            try:
                results = self.comm.run(train_layer_program, rank_args)
                break
            except BackendError:
                restarts += 1
                if (
                    not self.comm.fault_tolerant
                    or restarts > int(max_restarts)
                    or not self.comm.recover()
                ):
                    raise
                # A worker.crash rule with count=N re-arms until its budget
                # is spent (how the chaos tests exceed max_restarts with
                # genuine repeat crashes).
                injection = faults.crash_injection_from_plan()
                logger.warning(
                    "rank failure during distributed training; resuming layer "
                    "'%s' from epoch %d (restart %d/%d)",
                    layer.name,
                    int(latest["epoch"]),
                    restarts,
                    int(max_restarts),
                )
        # Settle the dense weight matrix the sparse plan's packed refreshes
        # defer (a no-op on dense layers), then hand back the options the
        # program's engine replaced.
        layer.flush_weights()
        layer.configure_execution(**previous_options)
        report = results[0]
        return DistributedEpochReport(
            epochs=epochs,
            global_batches=int(report["global_batches"]),
            ranks=self.comm.size,
            samples=x.shape[0],
            allreduce_calls=calls["allreduce"] - before[0],
            bytes_communicated=self.comm.bytes_communicated - before[1],
            swaps=int(report["swaps"]),
            extra={
                "epoch_logs": list(report["epoch_logs"]),
                "restarts": restarts,
            },
        )
