"""Analytical cost model of the BCPNN training step (Section II-B).

The paper argues that rate-based BCPNN maps onto GEMMs and therefore onto
BLAS / accelerators.  This module quantifies that: for a layer with
``N_in`` input units, ``H`` hidden HCUs of ``M`` MCUs, batch size ``B`` and
receptive-field density ``d``, the per-batch cost decomposes into

* support GEMM:                ``2 * B * N_in * H*M`` FLOPs,
* per-HCU softmax:             ``~5 * B * H*M`` FLOPs,
* co-activation GEMM:          ``2 * B * N_in * H*M`` FLOPs,
* trace EMA update:            ``~4 * N_in * H*M`` FLOPs,
* weight recomputation (logs): ``~3 * N_in * H*M`` FLOPs (counting a log as 1),

and structural plasticity (once per epoch) is ``O(N_in * H*M)`` — which is
why the paper observes that the receptive-field size barely affects training
time while capacity (H, M) drives it linearly.  The model also reports bytes
touched, giving a rough arithmetic-intensity estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.exceptions import ConfigurationError

__all__ = ["CostBreakdown", "BCPNNCostModel"]


@dataclass(frozen=True)
class CostBreakdown:
    """FLOPs / bytes for one training batch of one layer."""

    support_gemm_flops: float
    softmax_flops: float
    statistics_gemm_flops: float
    trace_update_flops: float
    weight_update_flops: float
    bytes_touched: float

    @property
    def total_flops(self) -> float:
        """FLOPs of one batch in the paper's dense, GEMM-shaped formulation.

        ``statistics_gemm_flops`` stays the dense ``2 * B * N_in * N_hid``
        on purpose (the figure feeds cross-run comparisons such as the e2e
        ``kernels.flops_per_fit``): under the default ``sample`` competition
        on one-hot inputs the activity is one-hot and the statistics are
        formed by counting co-activations (``kernels.batch_outer_product``),
        O(nnz) work, so achieved-FLOP/s figures derived from this total
        overstate the arithmetic actually executed there.
        """
        return (
            self.support_gemm_flops
            + self.softmax_flops
            + self.statistics_gemm_flops
            + self.trace_update_flops
            + self.weight_update_flops
        )

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte touched (roofline-style figure of merit)."""
        return self.total_flops / self.bytes_touched if self.bytes_touched > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "support_gemm_flops": self.support_gemm_flops,
            "softmax_flops": self.softmax_flops,
            "statistics_gemm_flops": self.statistics_gemm_flops,
            "trace_update_flops": self.trace_update_flops,
            "weight_update_flops": self.weight_update_flops,
            "total_flops": self.total_flops,
            "bytes_touched": self.bytes_touched,
            "arithmetic_intensity": self.arithmetic_intensity,
        }


class BCPNNCostModel:
    """Cost model parameterised by the layer/network shape.

    Parameters
    ----------
    n_input_units:
        Total input units (e.g. 280 for the Higgs one-hot encoding).
    n_hypercolumns, n_minicolumns:
        Hidden layer capacity.
    batch_size:
        Samples per training batch.
    density:
        Receptive-field density (affects only the *effective* GEMM work when
        a sparse implementation is assumed; the dense-GEMM StreamBrain
        formulation performs the full product regardless, which is the
        default here).
    dtype_bytes:
        Bytes per scalar (8 for float64, 4 for float32, 2 for float16).
    sparse_gemm:
        If True, scale GEMM work by ``density`` (what a gather-based kernel
        would do); if False (default) model the dense masked GEMM.
    """

    def __init__(
        self,
        n_input_units: int,
        n_hypercolumns: int,
        n_minicolumns: int,
        batch_size: int,
        density: float = 1.0,
        dtype_bytes: int = 8,
        sparse_gemm: bool = False,
    ) -> None:
        if min(n_input_units, n_hypercolumns, n_minicolumns, batch_size) <= 0:
            raise ConfigurationError("all shape parameters must be positive")
        if not 0.0 <= density <= 1.0:
            raise ConfigurationError("density must be in [0, 1]")
        if dtype_bytes not in (2, 4, 8):
            raise ConfigurationError("dtype_bytes must be 2, 4 or 8")
        self.n_input_units = int(n_input_units)
        self.n_hypercolumns = int(n_hypercolumns)
        self.n_minicolumns = int(n_minicolumns)
        self.batch_size = int(batch_size)
        self.density = float(density)
        self.dtype_bytes = int(dtype_bytes)
        self.sparse_gemm = bool(sparse_gemm)

    # ----------------------------------------------------------- components
    @property
    def n_hidden_units(self) -> int:
        return self.n_hypercolumns * self.n_minicolumns

    @property
    def n_weights(self) -> int:
        return self.n_input_units * self.n_hidden_units

    def batch_cost(self) -> CostBreakdown:
        """Cost of one training batch (forward + statistics + trace/weight update)."""
        b, n_in, n_hid = self.batch_size, self.n_input_units, self.n_hidden_units
        gemm_scale = self.density if self.sparse_gemm else 1.0
        support = 2.0 * b * n_in * n_hid * gemm_scale
        softmax = 5.0 * b * n_hid
        statistics = 2.0 * b * n_in * n_hid * gemm_scale
        trace = 4.0 * (n_in * n_hid + n_in + n_hid)
        weight = 3.0 * n_in * n_hid
        bytes_touched = self.dtype_bytes * (
            b * n_in  # inputs read twice is ignored; count once
            + b * n_hid * 2  # activations written + read
            + self.n_weights * 4  # weights read (GEMM) + p_ij read/write + weights write
            + n_in * 2
            + n_hid * 2
        )
        return CostBreakdown(
            support_gemm_flops=support,
            softmax_flops=softmax,
            statistics_gemm_flops=statistics,
            trace_update_flops=trace,
            weight_update_flops=weight,
            bytes_touched=float(bytes_touched),
        )

    def epoch_cost(self, n_samples: int) -> CostBreakdown:
        """Cost of one epoch over ``n_samples`` (plus one plasticity update)."""
        if n_samples <= 0:
            raise ConfigurationError("n_samples must be positive")
        n_batches = max(1, int(round(n_samples / self.batch_size)))
        batch = self.batch_cost()
        plasticity_flops = 4.0 * self.n_weights  # MI scores + block reductions
        return CostBreakdown(
            support_gemm_flops=batch.support_gemm_flops * n_batches,
            softmax_flops=batch.softmax_flops * n_batches,
            statistics_gemm_flops=batch.statistics_gemm_flops * n_batches,
            trace_update_flops=batch.trace_update_flops * n_batches,
            weight_update_flops=batch.weight_update_flops * n_batches + plasticity_flops,
            bytes_touched=batch.bytes_touched * n_batches,
        )

    def memory_bytes(self) -> float:
        """Resident model state: traces + weights + mask."""
        return float(
            self.dtype_bytes
            * (2 * self.n_weights + 2 * (self.n_input_units + self.n_hidden_units))
            + self.n_hypercolumns * self.n_input_units  # mask (stored as float64/8 but negligible)
        )

    def scaling_table(self, hcu_values, mcu_values, n_samples: int):
        """Predicted epoch FLOPs for a grid of (HCU, MCU) capacities.

        Mirrors the structure of Fig. 3: rows are MCU counts, columns HCU
        counts, entries total FLOPs per epoch.
        """
        table = {}
        for mcus in mcu_values:
            row = {}
            for hcus in hcu_values:
                model = BCPNNCostModel(
                    self.n_input_units, int(hcus), int(mcus), self.batch_size,
                    self.density, self.dtype_bytes, self.sparse_gemm,
                )
                row[int(hcus)] = model.epoch_cost(n_samples).total_flops
            table[int(mcus)] = row
        return table
