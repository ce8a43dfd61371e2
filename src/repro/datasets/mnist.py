"""Procedural MNIST-like digit generator.

Figure 1 of the paper illustrates structural plasticity on MNIST: the HCUs'
receptive fields converge onto the informative central pixels of handwritten
digits.  The real MNIST files are not available offline, so this module
renders 28x28 digit images procedurally: each digit class is a set of
line/arc strokes on a canonical 20x20 glyph, randomly translated, scaled,
thickened and corrupted with pixel noise.  What matters for the experiment —
that information concentrates in the image centre while the fringes are
blank — is preserved by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.exceptions import DataError
from repro.utils.rng import as_rng

__all__ = ["SyntheticDigits"]

IMAGE_SIZE = 28
GLYPH_SIZE = 20

# Stroke descriptions per digit on a unit square [0,1]^2: each stroke is a
# pair of endpoints; arcs are approximated by polylines.
def _circle(
    cx: float, cy: float, r: float, n: int = 12, start: float = 0.0, stop: float = 2 * np.pi
):
    angles = np.linspace(start, stop, n)
    pts = [(cx + r * np.cos(a), cy + r * np.sin(a)) for a in angles]
    return list(zip(pts[:-1], pts[1:]))


_DIGIT_STROKES: Dict[int, List[Tuple[Tuple[float, float], Tuple[float, float]]]] = {
    0: _circle(0.5, 0.5, 0.38),
    1: [((0.5, 0.08), (0.5, 0.92)), ((0.5, 0.08), (0.32, 0.28))],
    2: _circle(0.5, 0.3, 0.25, start=np.pi, stop=2.2 * np.pi)
    + [((0.72, 0.42), (0.25, 0.9)), ((0.25, 0.9), (0.78, 0.9))],
    3: _circle(0.5, 0.3, 0.22, start=np.pi * 0.8, stop=2.3 * np.pi)
    + _circle(0.5, 0.7, 0.22, start=np.pi * 1.7, stop=3.2 * np.pi),
    4: [((0.65, 0.08), (0.65, 0.92)), ((0.65, 0.08), (0.25, 0.6)), ((0.25, 0.6), (0.85, 0.6))],
    5: [((0.75, 0.1), (0.3, 0.1)), ((0.3, 0.1), (0.3, 0.48))]
    + _circle(0.5, 0.68, 0.24, start=np.pi * 1.4, stop=3.1 * np.pi),
    6: _circle(0.5, 0.68, 0.24) + [((0.3, 0.68), (0.45, 0.1))],
    7: [((0.22, 0.1), (0.8, 0.1)), ((0.8, 0.1), (0.42, 0.92))],
    8: _circle(0.5, 0.3, 0.2) + _circle(0.5, 0.72, 0.24),
    9: _circle(0.5, 0.32, 0.24) + [((0.72, 0.32), (0.6, 0.9))],
}


class SyntheticDigits:
    """Render digit images procedurally.

    Parameters
    ----------
    noise:
        Standard deviation of additive pixel noise (images are in [0, 1]).
    jitter:
        Maximum absolute translation (pixels) applied to each glyph.
    thickness:
        Stroke thickness in pixels.
    seed:
        RNG seed.
    """

    def __init__(
        self, noise: float = 0.08, jitter: int = 3, thickness: float = 1.4, seed=None
    ) -> None:
        if noise < 0:
            raise DataError("noise must be non-negative")
        if jitter < 0:
            raise DataError("jitter must be non-negative")
        if thickness <= 0:
            raise DataError("thickness must be positive")
        self.noise = float(noise)
        self.jitter = int(jitter)
        self.thickness = float(thickness)
        self._rng = as_rng(seed)

    def render_digit(self, digit: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Render one ``28x28`` image of ``digit`` (values in [0, 1])."""
        if digit not in _DIGIT_STROKES:
            raise DataError(f"digit must be 0-9, got {digit}")
        rng = rng or self._rng
        canvas = np.zeros((IMAGE_SIZE, IMAGE_SIZE), dtype=np.float64)
        scale = GLYPH_SIZE * rng.uniform(0.85, 1.05)
        dx = (IMAGE_SIZE - scale) / 2 + rng.integers(-self.jitter, self.jitter + 1)
        dy = (IMAGE_SIZE - scale) / 2 + rng.integers(-self.jitter, self.jitter + 1)
        yy, xx = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE]
        for (x0, y0), (x1, y1) in _DIGIT_STROKES[digit]:
            ax, ay = x0 * scale + dx, y0 * scale + dy
            bx, by = x1 * scale + dx, y1 * scale + dy
            # Distance from every pixel centre to the segment (a, b).
            abx, aby = bx - ax, by - ay
            ab2 = abx * abx + aby * aby
            if ab2 < 1e-9:
                t = np.zeros_like(xx, dtype=np.float64)
            else:
                t = np.clip(((xx - ax) * abx + (yy - ay) * aby) / ab2, 0.0, 1.0)
            px = ax + t * abx
            py = ay + t * aby
            dist = np.sqrt((xx - px) ** 2 + (yy - py) ** 2)
            canvas = np.maximum(canvas, np.clip(1.0 - dist / self.thickness, 0.0, 1.0))
        if self.noise > 0:
            canvas = canvas + rng.normal(0.0, self.noise, size=canvas.shape)
        return np.clip(canvas, 0.0, 1.0)

    def sample(
        self,
        n_samples: int,
        digits: Sequence[int] = tuple(range(10)),
    ) -> Dataset:
        """Generate a dataset of flattened digit images."""
        if n_samples <= 0:
            raise DataError("n_samples must be positive")
        digits = list(digits)
        if not digits or any(d not in _DIGIT_STROKES for d in digits):
            raise DataError("digits must be a non-empty subset of 0-9")
        rng = self._rng
        labels = rng.integers(0, len(digits), size=n_samples)
        images = np.empty((n_samples, IMAGE_SIZE * IMAGE_SIZE), dtype=np.float64)
        for i in range(n_samples):
            images[i] = self.render_digit(digits[labels[i]], rng).ravel()
        return Dataset(
            features=images,
            labels=np.asarray([digits.index(digits[lab]) for lab in labels], dtype=np.int64),
            feature_names=[f"px_{r}_{c}" for r in range(IMAGE_SIZE) for c in range(IMAGE_SIZE)],
            name="digits-synthetic",
            metadata={"synthetic": True, "image_shape": (IMAGE_SIZE, IMAGE_SIZE), "digits": digits},
        )
