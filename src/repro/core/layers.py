"""BCPNN layers.

:class:`InputSpec` describes the modular (hypercolumn) layout of the input
activations; :class:`StructuralPlasticityLayer` is the unsupervised hidden
layer — the paper's main computational object — combining the probability
trace learning rule with a trainable receptive field.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.core.execution import BackendExecutionMixin
from repro.core.hyperparams import BCPNNHyperParameters
from repro.core.plasticity import StructuralPlasticity
from repro.core.traces import ProbabilityTraces
from repro.exceptions import ConfigurationError, DataError
from repro.utils.rng import as_rng
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["InputSpec", "StructuralPlasticityLayer", "complementary_encode"]


def complementary_encode(values: np.ndarray) -> np.ndarray:
    """Encode continuous values in [0, 1] as two-unit hypercolumns ``(v, 1-v)``.

    This is the standard BCPNN trick for feeding continuous (e.g. pixel)
    intensities to a network whose input layer expects per-hypercolumn
    probability distributions: each scalar becomes a Bernoulli distribution
    over an (on, off) pair.  Used by the MNIST receptive-field example.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError("values must be a 2-D matrix")
    if np.any(arr < -1e-9) or np.any(arr > 1 + 1e-9):
        raise DataError("values must lie in [0, 1] for complementary encoding")
    arr = np.clip(arr, 0.0, 1.0)
    n, f = arr.shape
    out = np.empty((n, 2 * f), dtype=np.float64)
    out[:, 0::2] = arr
    out[:, 1::2] = 1.0 - arr
    return out


class InputSpec:
    """Describes the hypercolumn structure of a layer's input.

    Parameters
    ----------
    hypercolumn_sizes:
        Sizes of the consecutive blocks the input vector is divided into.
        In the Higgs pipeline this is ``[10] * 28`` (28 features, 10 quantile
        bins each); for complementary-coded images it is ``[2] * n_pixels``.
    """

    def __init__(self, hypercolumn_sizes: Sequence[int]) -> None:
        sizes = [check_positive_int(int(s), "hypercolumn size") for s in hypercolumn_sizes]
        if not sizes:
            raise ConfigurationError("hypercolumn_sizes must not be empty")
        self.hypercolumn_sizes: List[int] = sizes
        self.n_hypercolumns = len(sizes)
        self.n_units = int(sum(sizes))

    @classmethod
    def uniform(cls, n_hypercolumns: int, units_per_hypercolumn: int) -> "InputSpec":
        """Uniform layout of ``n_hypercolumns`` blocks of equal size."""
        check_positive_int(n_hypercolumns, "n_hypercolumns")
        check_positive_int(units_per_hypercolumn, "units_per_hypercolumn")
        return cls([units_per_hypercolumn] * n_hypercolumns)

    @classmethod
    def from_encoder(cls, encoder) -> "InputSpec":
        """Build the spec from a fitted :class:`QuantileOneHotEncoder`."""
        return cls(encoder.hypercolumn_sizes)

    def validate_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise DataError(f"input batch must be 2-D, got shape {x.shape}")
        if x.shape[1] != self.n_units:
            raise DataError(
                f"input batch has {x.shape[1]} columns, expected {self.n_units}"
            )
        return x

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InputSpec):
            return NotImplemented
        return self.hypercolumn_sizes == other.hypercolumn_sizes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if len(set(self.hypercolumn_sizes)) == 1:
            return f"InputSpec({self.n_hypercolumns} x {self.hypercolumn_sizes[0]})"
        return f"InputSpec(sizes={self.hypercolumn_sizes})"


class StructuralPlasticityLayer(BackendExecutionMixin):
    """Unsupervised BCPNN hidden layer with a trainable receptive field.

    Parameters
    ----------
    n_hypercolumns:
        Number of hidden HCUs (the paper sweeps 1-8).
    n_minicolumns:
        Number of MCUs per HCU (the paper sweeps 30 / 300 / 3000).
    density:
        Receptive-field density over input hypercolumns (paper sweeps 0-1).
    hyperparams:
        Optional :class:`BCPNNHyperParameters`; the ``density`` argument
        overrides the value in the hyper-parameter set.
    backend:
        Backend name or instance (default "numpy").
    sparse:
        Block-sparse execution policy: ``"auto"`` (default — gather-GEMM
        kernels whenever the receptive-field density is at or below the
        measured break-even), ``"on"``/``True`` (force sparse) or
        ``"off"``/``False`` (force the dense masked GEMM).
    seed:
        RNG seed controlling mask initialisation.
    """

    def __init__(
        self,
        n_hypercolumns: int,
        n_minicolumns: int,
        density: Optional[float] = None,
        hyperparams: Optional[BCPNNHyperParameters] = None,
        backend=None,
        sparse=None,
        seed=None,
        name: Optional[str] = None,
    ) -> None:
        self.n_hypercolumns = check_positive_int(n_hypercolumns, "n_hypercolumns")
        self.n_minicolumns = check_positive_int(n_minicolumns, "n_minicolumns")
        base = hyperparams or BCPNNHyperParameters()
        if density is not None:
            density = check_fraction(density, "density")
            base = base.replace(density=density)
        self.hyperparams = base
        self._init_execution(backend, sparse=sparse)
        self._rng = as_rng(seed)
        self.name = name or f"hidden-{self.n_hypercolumns}x{self.n_minicolumns}"

        self.input_spec: Optional[InputSpec] = None
        self.traces: Optional[ProbabilityTraces] = None
        self.plasticity: Optional[StructuralPlasticity] = None
        self.weights: Optional[np.ndarray] = None
        self.bias: Optional[np.ndarray] = None
        self._mask_expanded: Optional[np.ndarray] = None
        self._mask_token = 0
        self.batches_trained = 0

    @property
    def mask_token(self) -> int:
        """Generation counter of the receptive-field mask.

        Bumped on every mask (re)expansion — build, structural-plasticity
        swaps, ``set_density``, state loads — so consumers that cache
        mask-derived artifacts (e.g. serving replicas keyed on the model
        token) can detect in-place mask mutations that no weight refresh
        accompanies.
        """
        return self._mask_token

    # ----------------------------------------------------------------- meta
    @property
    def hidden_sizes(self) -> List[int]:
        return [self.n_minicolumns] * self.n_hypercolumns

    @property
    def n_hidden_units(self) -> int:
        return self.n_hypercolumns * self.n_minicolumns

    @property
    def _trace_floor(self) -> float:
        return self.hyperparams.trace_floor

    @property
    def output_spec(self) -> InputSpec:
        """The hypercolumn layout this layer produces (input spec of the next layer)."""
        return InputSpec.uniform(self.n_hypercolumns, self.n_minicolumns)

    @property
    def mask(self) -> np.ndarray:
        self._require_built()
        return self.plasticity.mask

    @property
    def mask_expanded(self) -> Optional[np.ndarray]:
        """Unit-level receptive-field mask ``(n_input, n_hidden)``.

        This is the expanded form the backends consume; the streaming
        serving path (:mod:`repro.serving`) reads it per dispatch so mask
        swaps between batches are honoured without rebuilding engines.
        """
        self._require_built()
        return self._mask_expanded

    # ---------------------------------------------------------------- build
    def build(self, input_spec: InputSpec) -> "StructuralPlasticityLayer":
        """Allocate traces, masks and weights for the given input layout."""
        if not isinstance(input_spec, InputSpec):
            raise ConfigurationError("build() requires an InputSpec")
        self.input_spec = input_spec
        self.traces = ProbabilityTraces(
            input_spec.hypercolumn_sizes,
            self.hidden_sizes,
            initial_counts=self.hyperparams.initial_counts,
        )
        self.plasticity = StructuralPlasticity(
            n_input_hypercolumns=input_spec.n_hypercolumns,
            n_hidden_hypercolumns=self.n_hypercolumns,
            density=self.hyperparams.density,
            swap_fraction=self.hyperparams.swap_fraction,
            hysteresis=self.hyperparams.plasticity_hysteresis,
            seed=self._rng,
        )
        # Break the symmetry of the uniform prior with a random perturbation
        # of the joint trace, otherwise all MCUs in an HCU would learn
        # identical features (competitive learning needs initial asymmetry).
        noise = self._rng.uniform(0.95, 1.05, size=self.traces.p_ij.shape)
        self.traces.p_ij *= noise
        # The mask (and its compiled sparse layout) must exist before the
        # first refresh: under the sparse plan the refresh packs per-block
        # weight slabs along the layout.
        self._refresh_mask()
        self.refresh_weights()
        self._reset_engine()
        self.batches_trained = 0
        return self

    def _sparse_source(self):
        """The ``(mask, input_sizes, hidden_sizes)`` the sparse layout compiles."""
        if self.plasticity is None or self.input_spec is None:
            return None
        return (
            self.plasticity.mask,
            self.input_spec.hypercolumn_sizes,
            self.hidden_sizes,
        )

    def _refresh_mask(self) -> None:
        self._mask_expanded = kernels.expand_mask(
            self.plasticity.mask, self.input_spec.hypercolumn_sizes, self.hidden_sizes
        )
        self._mask_token += 1
        # Recompile the block-CSC layout: a fresh layout object invalidates
        # every engine cache keyed on it, and the packed slabs re-pack
        # lazily on the next sparse dispatch.
        self._refresh_sparse_layout()

    # ------------------------------------------------------------- forward
    def forward_raw(self, x: np.ndarray) -> np.ndarray:
        """Hidden activations for a validated batch (no input validation copy)."""
        self._require_built()
        # ``_weights`` (not the property): a sparse dispatch reads the packed
        # slabs, so materialising the dense matrix here would throw away the
        # sparse plan's refresh saving; dense dispatches keep the historical
        # in-place-refreshed buffer semantics.
        return self.backend.forward(
            x,
            self._weights,
            self.bias,
            self._mask_expanded,
            self.hidden_sizes,
            self.hyperparams.bias_gain,
            sparse=self.sparse_context(),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Hidden activations (softmax per HCU) for an input batch."""
        self._require_built()
        x = self.input_spec.validate_batch(x)
        return self.forward_raw(x)

    # -------------------------------------------------------------- training
    def _training_activity(self, activations: np.ndarray, scratch=None):
        """The configured competition rule applied to rate-based activations.

        A thin binding of the layer's hyper-parameters, bias and generator
        to :func:`repro.kernels.compete_into` (which documents the rule and
        the draw-order contract).  The occupancy bias is re-weighted to
        ``competition_bias_gain`` (0 by default — the conscience mechanism
        that prevents a single minicolumn from monopolising its HCU).
        ``scratch`` is the workspace whose forward produced ``activations``.
        """
        hp = self.hyperparams
        return kernels.compete_into(
            activations,
            self.hidden_sizes,
            hp.competition,
            hp.competition_noise,
            self.bias,
            hp.competition_bias_gain - hp.bias_gain,
            self._rng,
            scratch=scratch,
        )

    def train_batch(self, x: np.ndarray, taupdt: Optional[float] = None) -> np.ndarray:
        """One unsupervised learning step on a batch; returns the activations.

        The returned activations are a view into the layer's streaming
        workspace: they are valid until the next training or engine dispatch
        on this layer and are overwritten then.  Callers that retain
        per-batch activations across batches must copy them.

        On the very first batch the trace prior is re-anchored to the
        observed input marginals (see
        :meth:`repro.core.traces.ProbabilityTraces.calibrate_marginals`), so
        structural plasticity's mutual-information scores are not biased by
        the uniform-prior initialisation when the data marginals are far from
        uniform (e.g. mostly-blank image pixels).
        """
        self._require_built()
        x = self.input_spec.validate_batch(x)
        taupdt = self.hyperparams.taupdt if taupdt is None else float(taupdt)
        if self.batches_trained == 0:
            self.traces.calibrate_marginals(
                mean_x=x.mean(axis=0), jitter=0.02, rng=self._rng
            )
            self.refresh_weights()
        # One fused dispatch: forward + competition + statistics + trace
        # update, streamed through the engine's preallocated workspace.  The
        # returned activations are a workspace view, valid until the next
        # engine dispatch on this layer.  Under the sparse plan the dispatch
        # carries the packed slabs and the dense weight buffer goes along
        # un-materialised (backends never read it on a sparse dispatch).
        engine = self.engine_for(x.shape[0])
        activations = engine.fused_update(
            x,
            self._weights,
            self.bias,
            self._mask_expanded,
            self.hyperparams.bias_gain,
            self.traces,
            taupdt,
            # engine.workspace is the one this dispatch streams through.
            activity_fn=partial(self._training_activity, scratch=engine.workspace),
            sparse=self.sparse_context(),
        )
        # Stale-weights caching: the engine tracks the accumulated
        # taupdt-scaled trace drift and only asks for the (log-heavy)
        # traces_to_weights refresh once it exceeds the configured tolerance
        # (always, at the default tolerance of 0).
        if engine.should_refresh_weights():
            self.refresh_weights()
        self.batches_trained += 1
        return activations

    def end_epoch(self, epoch: int) -> int:
        """Run structural plasticity if this epoch is on the update cadence.

        Returns the number of connection swaps performed (0 when skipped).
        """
        self._require_built()
        period = self.hyperparams.mask_update_period
        if (epoch + 1) % period != 0:
            return 0
        scores = self.traces.mutual_information(self.hyperparams.trace_floor)
        swaps = self.plasticity.update(scores)
        if swaps:
            self._refresh_mask()
        return swaps

    def set_density(self, density: float) -> None:
        """Change the receptive-field density in place (used by sweeps)."""
        self._require_built()
        self.plasticity.set_density(density)
        self.hyperparams = self.hyperparams.replace(density=check_fraction(density, "density"))
        self._refresh_mask()

    # ----------------------------------------------------------- diagnostics
    def receptive_field_masks(self) -> np.ndarray:
        """Masks as an ``(H, F)`` array (one row per HCU) for visualisation."""
        self._require_built()
        return self.plasticity.mask.T.copy()

    def state_dict(self) -> Dict[str, object]:
        """Serialisable state (used by :mod:`repro.core.serialization`)."""
        self._require_built()
        return {
            "kind": "StructuralPlasticityLayer",
            "name": self.name,
            "n_hypercolumns": self.n_hypercolumns,
            "n_minicolumns": self.n_minicolumns,
            "hyperparams": self.hyperparams.to_dict(),
            "input_sizes": list(self.input_spec.hypercolumn_sizes),
            "sparse": self._sparse_spec,
            "p_i": self.traces.p_i.copy(),
            "p_j": self.traces.p_j.copy(),
            "p_ij": self.traces.p_ij.copy(),
            "mask": self.plasticity.mask.copy(),
            "batches_trained": self.batches_trained,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a layer previously exported with :meth:`state_dict`."""
        input_spec = InputSpec([int(s) for s in state["input_sizes"]])
        self.hyperparams = BCPNNHyperParameters.from_dict(
            {k: v for k, v in dict(state["hyperparams"]).items()}
        )
        # Restore the sparse policy before building so the worker-replica /
        # deserialisation paths make the same dense-vs-sparse choice as the
        # process that exported the state (older saves default to "auto").
        sparse = state.get("sparse")
        if sparse is not None:
            self._sparse_spec = str(sparse)
            self.configure_execution(sparse=self._sparse_spec)
        self.build(input_spec)
        self.traces.p_i[:] = np.asarray(state["p_i"])
        self.traces.p_j[:] = np.asarray(state["p_j"])
        self.traces.p_ij[:] = np.asarray(state["p_ij"])
        self.plasticity.mask[:] = np.asarray(state["mask"])
        self.batches_trained = int(state["batches_trained"])
        self._refresh_mask()
        self.refresh_weights()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StructuralPlasticityLayer(H={self.n_hypercolumns}, M={self.n_minicolumns}, "
            f"density={self.hyperparams.density:.2f}, backend={self.backend.name})"
        )
