"""Hyper-parameter containers for the BCPNN model.

The paper stresses (Section IV) that BCPNN exposes more hyper-parameters
than conventional deep learning: trace time constants, bias gain, receptive
field density, structural-plasticity cadence, and the usual capacity knobs
(#HCUs, #MCUs).  Collecting them in a frozen dataclass keeps every layer,
backend and experiment referring to the same validated set of values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict

from repro.exceptions import ConfigurationError
from repro.kernels import COMPETITION_MODES
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["BCPNNHyperParameters", "TrainingSchedule"]


@dataclass(frozen=True)
class BCPNNHyperParameters:
    """Learning-rule hyper-parameters shared by BCPNN layers.

    Attributes
    ----------
    taupdt:
        Probability-trace update rate per presented batch (the inverse of the
        trace time constant).  Larger values forget faster.
    bias_gain:
        Multiplier ``k_beta`` applied to the bias term ``log(p_j)`` in the
        support computation.
    initial_counts:
        Virtual sample count used to initialise the probability traces to a
        uniform prior (Laplace-style smoothing); larger values make early
        updates more conservative.
    trace_floor:
        Numerical floor applied to traces before logarithms.
    density:
        Receptive-field density: fraction of input hypercolumns each hidden
        HCU is connected to (0 < density <= 1).
    mask_update_period:
        Number of training *epochs* between structural-plasticity updates
        (the paper updates the receptive field once per epoch).
    swap_fraction:
        Maximum fraction of a hidden HCU's active connections exchanged per
        structural-plasticity update.
    plasticity_hysteresis:
        A silent connection only replaces an active one if its score exceeds
        the active score by this multiplicative margin (>= 1 keeps churn low).
    competition:
        How hidden activations are computed *during unsupervised training*
        (inference always uses the plain rate-based softmax):

        * ``"softmax"`` — plain rate-based softmax (slowest differentiation).
        * ``"noisy_softmax"`` — Gaussian noise of scale ``competition_noise``
          is added to the support before the softmax, encouraging
          exploration (the formulation of Ravichandran et al., 2020).
        * ``"sample"`` — one winning minicolumn per HCU is sampled from the
          softmax distribution (spiking-flavoured winner-take-all); this is
          the default because it differentiates MCUs quickly on tabular data.
    competition_noise:
        Scale of the exploration noise used by ``"noisy_softmax"`` and added
        (at 10% strength) to ``"sample"`` to break exact ties.
    competition_bias_gain:
        Bias gain used when computing the *training-time* competition.  The
        default of 0 removes the ``log(p_j)`` occupancy term from the
        competition, acting as a conscience mechanism: without it, a
        frequently-winning minicolumn gets an ever larger bias and the HCU
        collapses onto a single unit.  Inference always uses ``bias_gain``.
    """

    taupdt: float = 0.01
    bias_gain: float = 1.0
    initial_counts: float = 10.0
    trace_floor: float = 1e-12
    density: float = 1.0
    mask_update_period: int = 1
    swap_fraction: float = 0.25
    plasticity_hysteresis: float = 1.0
    competition: str = "sample"
    competition_noise: float = 0.1
    competition_bias_gain: float = 0.0

    def __post_init__(self) -> None:
        if self.competition not in COMPETITION_MODES:
            raise ConfigurationError(
                f"competition must be one of {COMPETITION_MODES}, got {self.competition!r}"
            )
        if self.competition_noise < 0:
            raise ConfigurationError("competition_noise must be non-negative")
        if self.competition_bias_gain < 0:
            raise ConfigurationError("competition_bias_gain must be non-negative")
        if not 0.0 < self.taupdt <= 1.0:
            raise ConfigurationError(f"taupdt must be in (0, 1], got {self.taupdt}")
        if self.bias_gain < 0:
            raise ConfigurationError("bias_gain must be non-negative")
        if self.initial_counts <= 0:
            raise ConfigurationError("initial_counts must be positive")
        if not 0.0 < self.trace_floor < 1e-3:
            raise ConfigurationError("trace_floor must be a small positive number")
        check_fraction(self.density, "density", inclusive_low=False)
        check_positive_int(self.mask_update_period, "mask_update_period")
        check_fraction(self.swap_fraction, "swap_fraction")
        if self.plasticity_hysteresis < 1.0:
            raise ConfigurationError("plasticity_hysteresis must be >= 1")

    def replace(self, **overrides) -> "BCPNNHyperParameters":
        """Return a copy with the given fields overridden (re-validated)."""
        return replace(self, **overrides)

    def to_dict(self) -> Dict[str, float]:
        return {
            "taupdt": self.taupdt,
            "bias_gain": self.bias_gain,
            "initial_counts": self.initial_counts,
            "trace_floor": self.trace_floor,
            "density": self.density,
            "mask_update_period": self.mask_update_period,
            "swap_fraction": self.swap_fraction,
            "plasticity_hysteresis": self.plasticity_hysteresis,
            "competition": self.competition,
            "competition_noise": self.competition_noise,
            "competition_bias_gain": self.competition_bias_gain,
        }

    @classmethod
    def from_dict(cls, values: Dict[str, float]) -> "BCPNNHyperParameters":
        known = {  # type: ignore[attr-defined]
            f: values[f] for f in cls.__dataclass_fields__ if f in values
        }
        unknown = set(values) - set(known)
        if unknown:
            raise ConfigurationError(f"unknown hyper-parameters: {sorted(unknown)}")
        return cls(**known)


@dataclass(frozen=True)
class TrainingSchedule:
    """Per-phase epoch/batch schedule for a full training run.

    StreamBrain trains the hidden (unsupervised) layer for a number of
    epochs, then the classification head, optionally fine-tuning the head
    with SGD (the paper's "BCPNN+SGD" hybrid reaching 69.15% accuracy).  The
    head trains at its own ``learning_rate`` (a tenth of it in the
    ``sgd_epochs`` fine-tuning epochs).

    ``pipeline`` switches the hidden phase to the overlapped training loop
    (:mod:`repro.engine.pipeline`): double-buffered engine workspaces, batch
    gathers prefetched on a background thread, and the per-batch entropy
    reduction running off the critical path.  Bit-for-bit identical results
    (test-enforced) — only the schedule of the work changes.  Under a
    communicator the hidden phase has one schedule, and ``pipeline`` only
    prefetches the head phase's batches.

    ``weight_refresh_tol`` enables the engine's stale-weights caching: the
    per-batch ``traces_to_weights`` refresh is skipped while the accumulated
    ``taupdt``-scaled trace drift stays under the tolerance.  ``0`` (the
    default) refreshes every batch — exact training; ``> 0`` trades bounded
    weight staleness for throughput.  It gates only the weight refresh:
    under a communicator every batch still blocks on its own allreduce.

    Hidden layers whose mask density is at or below
    :data:`repro.kernels.SPARSE_DENSITY_THRESHOLD` run the block-sparse
    plan.  Under ``weight_refresh_tol > 0`` a mask swap repacks their
    weights from the current traces, so they are only ever *fresher* than
    the dense plan's stale buffer would be.
    """

    hidden_epochs: int = 5
    classifier_epochs: int = 5
    batch_size: int = 128
    sgd_epochs: int = 0
    #: Overlapped hidden-phase training loop (double-buffered workspaces).
    pipeline: bool = False
    #: Stale-weights tolerance for the per-batch weight refresh (0 = exact).
    weight_refresh_tol: float = 0.0

    def __post_init__(self) -> None:
        check_positive_int(self.hidden_epochs, "hidden_epochs", minimum=0)
        check_positive_int(self.classifier_epochs, "classifier_epochs", minimum=0)
        check_positive_int(self.batch_size, "batch_size")
        check_positive_int(self.sgd_epochs, "sgd_epochs", minimum=0)
        if self.weight_refresh_tol < 0:
            raise ConfigurationError("weight_refresh_tol must be non-negative")

    def replace(self, **overrides) -> "TrainingSchedule":
        return replace(self, **overrides)

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)
