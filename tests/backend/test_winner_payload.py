"""Winner payloads: ``sample`` competition on {0,1} inputs reduces winners.

Contracts under test:

* the ranks reduce each batch's ``(B, n_hcu)`` winner matrix and count the
  statistics themselves, and the result is ``np.array_equal`` to the
  trace-shaped statistics payload (the reference: the same run with the
  payload decision patched off) — on every transport, for remainder
  batches, small batches (20 rows, under the 32 rows from which the
  winners were once counted into a dense matrix), batches with fewer rows
  than ranks, stale-weights caching and crash recovery;
* real-valued inputs and the other competition modes keep the statistics
  payload;
* the traffic of a fit is the fixed broadcasts plus ``B * n_hcu`` floats
  per batch and rank.
"""

import numpy as np
import pytest

from repro import faults
from repro.backend import distributed
from repro.backend.distributed import DistributedTrainer
from repro.comm import SerialComm, TCPComm, ThreadComm
from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer
from repro.utils.rng import as_rng

INPUT_SIZES = [10] * 4
N_HCU, N_MCU = 3, 7


@pytest.fixture(scope="module")
def tcp_pool():
    comm = TCPComm(2, timeout=60.0)
    yield comm
    comm.close()


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.install_plan(None)
    yield
    faults.install_plan(None)


def _one_hot(n, seed=1):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, sum(INPUT_SIZES)), dtype=np.uint8)
    starts = np.cumsum([0] + INPUT_SIZES[:-1])
    x[np.arange(n)[:, None], starts + rng.integers(0, INPUT_SIZES, (n, len(INPUT_SIZES)))] = 1
    return x


def _train(comm, x, competition="sample", batch_size=48, tol=0.0, period=1):
    hyperparams = BCPNNHyperParameters(
        taupdt=0.05, density=0.5, competition=competition, mask_update_period=period
    )
    layer = StructuralPlasticityLayer(N_HCU, N_MCU, hyperparams=hyperparams, seed=5)
    layer.build(InputSpec(INPUT_SIZES))
    report = DistributedTrainer(comm).train_layer(
        layer, x, epochs=3, batch_size=batch_size, rng=as_rng(3), weight_refresh_tol=tol,
    )
    return layer, report


def _dense_reference(monkeypatch, train, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(distributed, "_winner_payload", lambda *a: False)
        return train(*args, **kwargs)


def _assert_same_fit(subject, reference, x):
    (layer, report), (ref_layer, ref_report) = subject, reference
    for name in ("p_i", "p_j", "p_ij"):
        assert np.array_equal(getattr(layer.traces, name), getattr(ref_layer.traces, name))
    assert np.array_equal(layer.plasticity.mask, ref_layer.plasticity.mask)
    assert np.array_equal(layer.weights, ref_layer.weights)
    assert np.array_equal(layer.bias, ref_layer.bias)
    probe = x[:50].astype(np.float64)
    assert np.array_equal(layer.forward(probe), ref_layer.forward(probe))
    history = [
        (log["swaps"], log["batches"], log["mean_activation_entropy"])
        for log in report.extra["epoch_logs"]
    ]
    assert history == [
        (log["swaps"], log["batches"], log["mean_activation_entropy"])
        for log in ref_report.extra["epoch_logs"]
    ]
    assert [log["winner_payload"] for log in report.extra["epoch_logs"]] == [1.0] * 3
    assert [log["winner_payload"] for log in ref_report.extra["epoch_logs"]] == [0.0] * 3


CELLS = {
    "even": dict(n=192, batch_size=48),
    "remainder": dict(n=230, batch_size=48),
    "under-count-threshold": dict(n=100, batch_size=20),
    "fewer-rows-than-ranks": dict(n=7, batch_size=1),
    "stale-weights": dict(n=192, batch_size=48, tol=0.02),
    "frozen-mask-tail": dict(n=192, batch_size=48, period=2),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("transport", ["serial", "thread", "tcp"])
def test_winner_payload_equals_the_statistics_payload(monkeypatch, request, transport, cell):
    options = dict(CELLS[cell])
    x = _one_hot(options.pop("n"))

    def train():
        if transport == "tcp":
            return _train(request.getfixturevalue("tcp_pool"), x, **options)
        with SerialComm() if transport == "serial" else ThreadComm(2) as comm:
            return _train(comm, x, **options)

    subject = train()
    reference = _dense_reference(monkeypatch, train)
    _assert_same_fit(subject, reference, x)


@pytest.mark.parametrize("tol", [0.0, 0.02])
def test_crash_recovery_equals_the_statistics_payload(monkeypatch, tol):
    x = _one_hot(192)

    def train(crash=None):
        if crash is not None:
            faults.install_plan(faults.FaultPlan(f"worker.crash@{crash}"))
        comm = TCPComm(2, timeout=60.0)
        try:
            return _train(comm, x, tol=tol)
        finally:
            comm.close()

    recovered = train(crash="rank=1,epoch=1,batch=2")
    assert recovered[1].extra["restarts"] == 1
    _assert_same_fit(recovered, _dense_reference(monkeypatch, train), x)


@pytest.mark.parametrize(
    "competition, real_valued",
    [("sample", True), ("softmax", False), ("noisy_softmax", False)],
)
def test_other_inputs_and_modes_keep_the_statistics_payload(competition, real_valued):
    x = _one_hot(96).astype(np.float64)
    if real_valued:
        x[3, 0] = 0.5
    with ThreadComm(2) as comm:
        layer, report = _train(comm, x, competition=competition)
    n_input, n_hidden = layer.traces.n_input, layer.traces.n_hidden
    for log in report.extra["epoch_logs"]:
        assert log["winner_payload"] == 0.0
        assert log["payload_floats"] == 1 + n_input + n_hidden + n_input * n_hidden


@pytest.mark.parametrize("transport", ["thread", "tcp"])
def test_traffic_is_the_broadcasts_plus_the_winners(request, transport):
    """The per-batch payload is ``B * n_hcu`` floats, not the trace size."""
    x, batch_size, epochs = _one_hot(192), 48, 3
    if transport == "tcp":
        layer, report = _train(request.getfixturevalue("tcp_pool"), x)
    else:
        with ThreadComm(2) as comm:
            layer, report = _train(comm, x)
    traces = layer.traces
    # x once, then the replica sync (traces, mask, a pickled generator state
    # well under 1 KiB) at the start and after every epoch.
    sync = traces.p_i.nbytes + traces.p_j.nbytes + traces.p_ij.nbytes
    sync += layer.plasticity.mask.nbytes + 1024
    broadcasts = x.nbytes + (1 + epochs) * sync
    winners = report.global_batches * batch_size * N_HCU * 8 * report.ranks
    assert report.bytes_communicated <= broadcasts + winners
    assert report.allreduce_calls == report.global_batches
    floats = [log["payload_floats"] for log in report.extra["epoch_logs"]]
    assert floats == [batch_size * N_HCU] * epochs
