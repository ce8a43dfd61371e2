"""Structural plasticity: learning *where to look*.

Each hidden hypercolumn unit (HCU) owns a binary receptive-field mask over
the input hypercolumns.  The mask density (fraction of active connections)
is fixed by the ``density`` hyper-parameter; what changes during training is
*which* connections are active.  Once per ``mask_update_period`` epochs, the
plasticity step computes the mutual information carried by every
(input hypercolumn, HCU) pair from the probability traces and exchanges
active connections with low information for silent connections with high
information — the paper's description of "exchanging active (used)
connections with low entropy for silent (inactive) high-entropy
connections" (Section III-B).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DataError
from repro.utils.rng import as_rng
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["StructuralPlasticity"]


class StructuralPlasticity:
    """Receptive-field masks plus the swap rule that updates them.

    Parameters
    ----------
    n_input_hypercolumns:
        Number of input hypercolumns ``F`` (= number of raw features in the
        Higgs pipeline).
    n_hidden_hypercolumns:
        Number of hidden HCUs ``H``.
    density:
        Fraction of input hypercolumns each HCU is connected to.  The number
        of active connections per HCU is ``max(1, round(density * F))`` for
        any ``density > 0``; ``density == 0`` is allowed and produces
        completely silent HCUs (used by the paper's 0%-receptive-field data
        point where accuracy collapses to chance).
    swap_fraction:
        Upper bound on the fraction of active connections swapped per update.
    hysteresis:
        A silent candidate replaces an active connection only if
        ``score_silent > hysteresis * score_active`` (with a small absolute
        epsilon for near-zero scores), which avoids thrashing.
    seed:
        RNG used for the initial random masks and tie-breaking.
    """

    def __init__(
        self,
        n_input_hypercolumns: int,
        n_hidden_hypercolumns: int,
        density: float = 0.3,
        swap_fraction: float = 0.25,
        hysteresis: float = 1.0,
        seed=None,
    ) -> None:
        self.n_input_hypercolumns = check_positive_int(
            n_input_hypercolumns, "n_input_hypercolumns"
        )
        self.n_hidden_hypercolumns = check_positive_int(
            n_hidden_hypercolumns, "n_hidden_hypercolumns"
        )
        self.density = check_fraction(density, "density")
        self.swap_fraction = check_fraction(swap_fraction, "swap_fraction")
        if hysteresis < 1.0:
            raise ConfigurationError("hysteresis must be >= 1")
        self.hysteresis = float(hysteresis)
        self._rng = as_rng(seed)
        if self.density == 0.0:
            self.connections_per_hcu = 0
        else:
            self.connections_per_hcu = max(
                1, int(round(self.density * self.n_input_hypercolumns))
            )
        self.connections_per_hcu = min(self.connections_per_hcu, self.n_input_hypercolumns)
        self.mask = np.zeros(
            (self.n_input_hypercolumns, self.n_hidden_hypercolumns), dtype=np.float64
        )
        self._initialise_masks()

    # ---------------------------------------------------------------- masks
    def _initialise_masks(self) -> None:
        """Give every HCU a random receptive field of the target size."""
        self.mask[:] = 0.0
        for h in range(self.n_hidden_hypercolumns):
            if self.connections_per_hcu == 0:
                continue
            chosen = self._rng.choice(
                self.n_input_hypercolumns, size=self.connections_per_hcu, replace=False
            )
            self.mask[chosen, h] = 1.0

    # --------------------------------------------------------------- update
    def update(self, scores: np.ndarray) -> int:
        """Swap low-information active connections for high-information silent ones.

        Parameters
        ----------
        scores:
            ``(F, H)`` mutual-information matrix from
            :meth:`repro.core.traces.ProbabilityTraces.mutual_information`.

        Returns
        -------
        int
            Number of swaps performed across all HCUs.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != self.mask.shape:
            raise DataError(
                f"scores shape {scores.shape} does not match mask shape {self.mask.shape}"
            )
        if self.connections_per_hcu in (0, self.n_input_hypercolumns):
            # Nothing to rearrange for empty or full receptive fields.
            return 0

        max_swaps = max(1, int(round(self.swap_fraction * self.connections_per_hcu)))
        swaps_done = 0
        eps = 1e-12
        for h in range(self.n_hidden_hypercolumns):
            active = np.nonzero(self.mask[:, h] > 0.5)[0]
            silent = np.nonzero(self.mask[:, h] <= 0.5)[0]
            if active.size == 0 or silent.size == 0:
                continue
            active_sorted = active[np.argsort(scores[active, h])]          # ascending
            silent_sorted = silent[np.argsort(-scores[silent, h])]         # descending
            n_candidates = min(max_swaps, active_sorted.size, silent_sorted.size)
            for k in range(n_candidates):
                worst_active = active_sorted[k]
                best_silent = silent_sorted[k]
                if scores[best_silent, h] > self.hysteresis * scores[worst_active, h] + eps:
                    self.mask[worst_active, h] = 0.0
                    self.mask[best_silent, h] = 1.0
                    swaps_done += 1
                else:
                    break  # candidates are sorted; no further swap can qualify
        return swaps_done
