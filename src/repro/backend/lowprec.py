"""Reduced-precision backend (FPGA / posit exploration stand-in).

StreamBrain's FPGA backend exists to explore "reduced/different numerical
representation (e.g., Posits)" (Section III-A).  Without an FPGA we simulate
the numerical effect: every kernel runs the reference computation and then
rounds its results to a reduced representation —

* ``float32`` / ``float16`` — straightforward IEEE rounding;
* ``posit16`` — a software model of a posit(16, 1)-like tapered format:
  values are rounded to a mantissa whose width shrinks as the magnitude
  moves away from 1.0, mimicking posits' accuracy profile.

The precision ablation benchmark (E10 in DESIGN.md) trains the same network
under each representation and reports the accuracy/AUC degradation.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backend.base import Backend
from repro.backend.numpy_backend import NumpyBackend
from repro.exceptions import BackendError

__all__ = ["LowPrecisionBackend", "posit_round"]

_SUPPORTED = ("float64", "float32", "float16", "posit16")


def posit_round(values: np.ndarray, nbits: int = 16, es: int = 1) -> np.ndarray:
    """Round values to a posit(nbits, es)-style tapered precision.

    This is a numerical model, not a bit-exact posit codec: for each value we
    compute the regime length implied by its exponent, derive the number of
    mantissa bits remaining, and round the mantissa to that many bits.  The
    key posit property — maximum accuracy near ±1, tapering toward the
    extremes — is preserved, which is what matters for studying its effect on
    BCPNN training.
    """
    if nbits < 4:
        raise BackendError("posit nbits must be >= 4")
    if es < 0:
        raise BackendError("posit es must be non-negative")
    arr = np.asarray(values, dtype=np.float64)
    out = np.zeros_like(arr)
    finite = np.isfinite(arr) & (arr != 0.0)
    if not np.any(finite):
        return out
    vals = arr[finite]
    useed_exp = 2**es  # each regime step scales by 2**useed_exp
    exponent = np.floor(np.log2(np.abs(vals)))
    regime = np.floor(exponent / useed_exp)
    # Bits consumed: sign (1) + regime (|regime|+2) + exponent field (es).
    regime_bits = np.abs(regime) + 2
    mantissa_bits = np.maximum(nbits - 1 - regime_bits - es, 0)
    # Round mantissa: value = sign * 2**exponent * (1 + frac); quantise frac.
    scale = np.power(2.0, exponent)
    frac = np.abs(vals) / scale - 1.0
    step = np.power(2.0, -np.maximum(mantissa_bits, 1))
    frac_q = np.round(frac / step) * step
    frac_q = np.where(mantissa_bits == 0, 0.0, frac_q)
    rounded = np.sign(vals) * scale * (1.0 + frac_q)
    # Clamp to the representable posit range.
    max_mag = float(2.0 ** (useed_exp * (nbits - 2)))
    min_mag = 1.0 / max_mag
    rounded = np.clip(np.abs(rounded), min_mag, max_mag) * np.sign(rounded)
    out[finite] = rounded
    return out.reshape(arr.shape)


class LowPrecisionBackend(Backend):
    """Wrap the reference backend and quantise every kernel output."""

    def __init__(self, precision: str = "float16") -> None:
        super().__init__()
        if precision not in _SUPPORTED:
            raise BackendError(
                f"unsupported precision {precision!r}; choose one of {_SUPPORTED}"
            )
        self.precision = precision
        self.name = f"lowprec-{precision}"
        self._reference = NumpyBackend()

    # ---------------------------------------------------------- quantisers
    def quantize(self, array: np.ndarray) -> np.ndarray:
        """Round an array to the backend's working precision (as float64)."""
        arr = np.asarray(array, dtype=np.float64)
        if self.precision == "float64":
            return arr
        if self.precision == "float32":
            return arr.astype(np.float32).astype(np.float64)
        if self.precision == "float16":
            # float16 overflows at 65504; clamp first to avoid inf weights.
            clipped = np.clip(arr, -65000.0, 65000.0)
            return clipped.astype(np.float16).astype(np.float64)
        return posit_round(arr, nbits=16, es=1)

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
        # The quantisation of the operands allocates by construction (this
        # backend simulates number formats, it is not a perf path), but the
        # reference forward still streams through the shared workspace.
        # Sparse slabs are re-quantised at dispatch — idempotent for slabs
        # this backend packed itself, and it upholds the precision contract
        # for slabs packed elsewhere (mirroring the dense path, which
        # quantises the weight matrix at every dispatch).
        if sparse is not None:
            from repro import kernels as _kernels

            sparse = _kernels.SparseWeights(
                sparse.layout, [self.quantize(b) for b in sparse.blocks], sparse.flat
            )
        activations = self._reference.forward_into(
            self.quantize(x),
            None if sparse is not None else self.quantize(weights),
            self.quantize(bias),
            mask_expanded,
            hidden_sizes,
            bias_gain,
            out=out,
            workspace=workspace,
            sparse=sparse,
        )
        n_hidden = sparse.layout.n_hidden if sparse is not None else np.asarray(weights).shape[1]
        self.stats.count_forward(np.asarray(x).shape[0], n_hidden)
        # Re-normalise after quantisation so each hypercolumn still sums to 1.
        quantised = self.quantize(activations)
        if out is not None and quantised is not out:
            np.copyto(out, quantised)
            quantised = out
        sizes = np.asarray(hidden_sizes, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        for b in range(sizes.shape[0]):
            lo, hi = offsets[b], offsets[b + 1]
            block_sum = quantised[:, lo:hi].sum(axis=1, keepdims=True)
            block_sum[block_sum <= 0] = 1.0
            quantised[:, lo:hi] /= block_sum
        return quantised

    def batch_statistics(
        self, x: np.ndarray, a: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        mean_x, mean_a, mean_outer = self._reference.batch_statistics(
            self.quantize(x), self.quantize(a)
        )
        self.stats.statistics_calls += 1
        return self.quantize(mean_x), self.quantize(mean_a), self.quantize(mean_outer)

    def pack_weights(
        self,
        p_i: np.ndarray,
        p_j: np.ndarray,
        p_ij: np.ndarray,
        layout,
        trace_floor: float = 1e-12,
        out_blocks=None,
        out_bias: Optional[np.ndarray] = None,
    ):
        """Packed sparse refresh with the backend's precision contract.

        Each slab entry is the quantisation of the value the dense
        :meth:`traces_to_weights` + mask would produce for that connection,
        so the sparse path matches the dense low-precision path exactly.
        """
        blocks, bias = self._reference.pack_weights(
            p_i, p_j, p_ij, layout, trace_floor, out_blocks=out_blocks, out_bias=out_bias
        )
        self.stats.weight_updates += 1
        for slab in blocks:
            slab[...] = self.quantize(slab)
        quant_b = self.quantize(bias)
        if quant_b is not bias:
            np.copyto(bias, quant_b)
        return blocks, bias

    def traces_to_weights(
        self,
        p_i: np.ndarray,
        p_j: np.ndarray,
        p_ij: np.ndarray,
        trace_floor: float = 1e-12,
        out_weights: Optional[np.ndarray] = None,
        out_bias: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        weights, bias = self._reference.traces_to_weights(
            p_i, p_j, p_ij, trace_floor, out_weights=out_weights, out_bias=out_bias
        )
        self.stats.weight_updates += 1
        quant_w, quant_b = self.quantize(weights), self.quantize(bias)
        if out_weights is not None and quant_w is not out_weights:
            np.copyto(out_weights, quant_w)
            quant_w = out_weights
        if out_bias is not None and quant_b is not out_bias:
            np.copyto(out_bias, quant_b)
            quant_b = out_bias
        return quant_w, quant_b
