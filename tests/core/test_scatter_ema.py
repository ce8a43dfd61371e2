"""The scatter EMA equals the dense count-matrix EMA it replaced, bit for bit.

A one-hot batch co-activates a few percent of ``p_ij``, so both routes that
train on winners count only the touched ``(input, winner)`` pairs and
``kernels.ema_update`` scatter-adds them after decaying the whole trace:

* the serial route, ``NumpyBackend.update_traces``, scales the joint counts
  by ``* (1/B)`` (the GEMM path's scaling);
* the data-parallel route, the SPMD program's winner payload, divides them
  by ``/ B`` (the statistics payload's scaling).

Each must stay the dense update ``p * (1 - taupdt) + mean * taupdt`` of its
own scaling on every entry of ``p_i``, ``p_j`` and ``p_ij``.  ``5 / 7`` and
``5 * (1 / 7)`` differ in the last bit, so a 7-row batch in which one pair
is counted five times tells the two scalings apart (at ``taupdt = 1`` the
trace *is* the mean).
"""

import numpy as np
import pytest

from repro import kernels
from repro.backend import NumpyBackend
from repro.backend.distributed import DistributedTrainer
from repro.comm import SerialComm
from repro.core import BCPNNHyperParameters, InputSpec, StructuralPlasticityLayer

ROWS = [1, 7, 20, 31, 32, 33, 256]
INPUT_SIZES = [3, 5, 2, 4]
RAGGED = [3, 6, 1, 4]
UNIFORM = [10, 10, 10]


def _starts(sizes):
    return np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)


def _batch(n_rows, hidden_sizes, seed):
    """A {0,1} batch and its winners, with the cases the scatter must get right.

    Rows 0-4 share input unit 0 and hidden unit 0 (a pair counted five
    times), row 1 repeats row 0 whole, and the last row of a batch of two or
    more is all zero.
    """
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, INPUT_SIZES, size=(n_rows, len(INPUT_SIZES)))
    picks[:, 0] = np.where(np.arange(n_rows) < 5, 0, 1)
    x = np.zeros((n_rows, sum(INPUT_SIZES)))
    x[np.arange(n_rows)[:, None], _starts(INPUT_SIZES) + picks] = 1.0
    winners = _starts(hidden_sizes) + rng.integers(
        0, hidden_sizes, size=(n_rows, len(hidden_sizes))
    )
    winners[:5, 0] = 0
    if n_rows > 2:
        x[1], winners[1] = x[0], winners[0]
    if n_rows > 1:
        x[-1] = 0.0
    return x, winners


def _traces(width, seed):
    rng = np.random.default_rng(seed)
    n_input = sum(INPUT_SIZES)
    return (
        rng.uniform(0.05, 0.5, n_input),
        rng.uniform(0.05, 0.5, width),
        rng.uniform(0.001, 0.2, (n_input, width)),
    )


def _dense_ema(traces, x, winners, width, taupdt, reciprocal):
    """The dense count-matrix EMA: a GEMM of the one-hot matrices, scaled."""
    n_rows = x.shape[0]
    a = np.zeros((n_rows, width))
    a[np.arange(n_rows)[:, None], winners] = 1.0
    counts = x.T @ a  # sums of ones: exact
    mean_outer = counts * (1.0 / n_rows) if reciprocal else counts / n_rows
    means = (x.sum(axis=0) / n_rows, a.sum(axis=0) / n_rows, mean_outer)
    decay = 1.0 - taupdt
    return [p * decay + mean * taupdt for p, mean in zip(traces, means)]


def _assert_pair_counted_five_times(x, winners, width):
    _, _, flat, hits = kernels.one_hot_counts(x, winners, width)
    if x.shape[0] >= 7:
        assert hits[flat == 0] == 5  # input unit 0 with hidden unit 0
    assert np.all(np.diff(flat) > 0)


@pytest.mark.parametrize("taupdt", [0.05, 1.0])
@pytest.mark.parametrize("hidden_sizes", [RAGGED, UNIFORM], ids=["ragged", "uniform"])
@pytest.mark.parametrize("n_rows", ROWS)
def test_serial_route_scales_by_the_reciprocal(n_rows, hidden_sizes, taupdt):
    width = sum(hidden_sizes)
    x, winners = _batch(n_rows, hidden_sizes, seed=n_rows)
    _assert_pair_counted_five_times(x, winners, width)
    activity = kernels.OneHotActivity(winners, width)
    # The index path engages at every batch size: the joint mean is sparse.
    assert isinstance(kernels.batch_outer_product(x, activity)[2], tuple)
    traces = _traces(width, seed=1)
    expected = _dense_ema(traces, x, winners, width, taupdt, reciprocal=True)
    NumpyBackend().update_traces(x, activity, *traces, taupdt)
    for actual, reference in zip(traces, expected):
        assert np.array_equal(actual, reference)


@pytest.mark.parametrize("taupdt", [0.05, 1.0])
@pytest.mark.parametrize("n_minicolumns", [1, 3])
@pytest.mark.parametrize("n_rows", ROWS)
def test_winner_payload_divides_by_the_row_count(n_rows, n_minicolumns, taupdt):
    """One batch through the one-rank program: the update it applies is the
    dense EMA of the winners it reduced, with ``/ B`` scaling.  With one
    minicolumn per hypercolumn every row wins the same units, so the pair
    counted five times is certain there."""
    hidden_sizes = [n_minicolumns] * len(INPUT_SIZES)
    x, _ = _batch(n_rows, hidden_sizes, seed=n_rows)
    hyperparams = BCPNNHyperParameters(
        taupdt=taupdt, competition="sample", mask_update_period=1000
    )
    layer = StructuralPlasticityLayer(
        len(hidden_sizes), n_minicolumns, hyperparams=hyperparams, seed=2
    )
    layer.build(InputSpec(INPUT_SIZES))
    seen = {}
    with SerialComm() as comm:
        reduce = comm.allreduce

        def probed(array, op="sum"):
            traces = layer.traces
            seen["before"] = [p.copy() for p in (traces.p_i, traces.p_j, traces.p_ij)]
            seen["winners"] = reduce(array, op=op)
            return seen["winners"].copy()

        comm.allreduce = probed
        report = DistributedTrainer(comm).train_layer(
            layer, x, epochs=1, batch_size=n_rows, rng=np.random.default_rng(3),
            shuffle=False,
        )
    assert report.extra["epoch_logs"][0]["winner_payload"] == 1.0
    width = layer.n_hidden_units
    winners = seen["winners"].astype(np.intp)
    if n_minicolumns == 1:
        _assert_pair_counted_five_times(x, winners, width)
    expected = _dense_ema(seen["before"], x, winners, width, taupdt, reciprocal=False)
    traces = layer.traces
    for actual, reference in zip((traces.p_i, traces.p_j, traces.p_ij), expected):
        assert np.array_equal(actual, reference)
