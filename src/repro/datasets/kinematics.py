"""Relativistic kinematics helpers for the synthetic HIGGS generator.

The UCI HIGGS dataset's high-level features are invariant masses of
combinations of the reconstructed objects (lepton, missing energy, four
jets).  To make the synthetic substitute faithful, the generator builds
events out of actual four-vectors: resonances are produced with transverse
momentum and rapidity, decayed isotropically in their rest frame, boosted to
the lab frame, smeared by a detector model, and only then flattened into the
21 low-level features.  The 7 high-level features are *derived* from the
low-level ones with the functions here, exactly as in Baldi et al. (2014).

All functions are vectorised over events: a "four-vector array" is an
``(n, 4)`` float array ordered ``(E, px, py, pz)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import DataError

__all__ = [
    "four_vector",
    "pt",
    "eta",
    "phi",
    "mass",
    "invariant_mass",
    "two_body_decay",
    "boost",
]


def four_vector(
    pt_: np.ndarray, eta_: np.ndarray, phi_: np.ndarray, m: np.ndarray = 0.0
) -> np.ndarray:
    """Build ``(E, px, py, pz)`` four-vectors from collider coordinates.

    ``pt`` is the transverse momentum, ``eta`` the pseudorapidity, ``phi``
    the azimuthal angle and ``m`` the rest mass (0 for massless objects).
    """
    pt_ = np.asarray(pt_, dtype=np.float64)
    eta_ = np.asarray(eta_, dtype=np.float64)
    phi_ = np.asarray(phi_, dtype=np.float64)
    m = np.broadcast_to(np.asarray(m, dtype=np.float64), pt_.shape)
    if np.any(pt_ < 0):
        raise DataError("transverse momentum must be non-negative")
    px = pt_ * np.cos(phi_)
    py = pt_ * np.sin(phi_)
    pz = pt_ * np.sinh(eta_)
    energy = np.sqrt(px**2 + py**2 + pz**2 + m**2)
    return np.stack([energy, px, py, pz], axis=-1)


def pt(p4: np.ndarray) -> np.ndarray:
    """Transverse momentum of four-vectors."""
    p4 = np.asarray(p4, dtype=np.float64)
    return np.sqrt(p4[..., 1] ** 2 + p4[..., 2] ** 2)


def eta(p4: np.ndarray) -> np.ndarray:
    """Pseudorapidity; clips the polar angle away from the beam axis."""
    p4 = np.asarray(p4, dtype=np.float64)
    p = np.sqrt(p4[..., 1] ** 2 + p4[..., 2] ** 2 + p4[..., 3] ** 2)
    pz = p4[..., 3]
    # Guard against p == |pz| (exactly along the beam) producing infinities.
    ratio = np.clip(pz / np.maximum(p, 1e-12), -0.999999999, 0.999999999)
    return np.arctanh(ratio)


def phi(p4: np.ndarray) -> np.ndarray:
    """Azimuthal angle in ``(-pi, pi]``."""
    p4 = np.asarray(p4, dtype=np.float64)
    return np.arctan2(p4[..., 2], p4[..., 1])


def mass(p4: np.ndarray) -> np.ndarray:
    """Invariant (rest) mass of four-vectors; negative radicands clip to 0."""
    p4 = np.asarray(p4, dtype=np.float64)
    m2 = p4[..., 0] ** 2 - p4[..., 1] ** 2 - p4[..., 2] ** 2 - p4[..., 3] ** 2
    return np.sqrt(np.maximum(m2, 0.0))


def invariant_mass(*vectors: np.ndarray) -> np.ndarray:
    """Invariant mass of the sum of several four-vector arrays."""
    if not vectors:
        raise DataError("invariant_mass requires at least one four-vector array")
    total = np.zeros_like(np.asarray(vectors[0], dtype=np.float64))
    for vec in vectors:
        total = total + np.asarray(vec, dtype=np.float64)
    return mass(total)


def boost(p4: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Lorentz boost of four-vectors by velocity vector ``beta`` (shape (..., 3)).

    Implements the standard general boost matrix applied row-wise; fully
    vectorised over events.
    """
    p4 = np.asarray(p4, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape[-1] != 3:
        raise DataError("beta must have a trailing dimension of 3")
    b2 = np.sum(beta**2, axis=-1)
    if np.any(b2 >= 1.0):
        raise DataError("boost velocity must be < 1 (in units of c)")
    gamma = 1.0 / np.sqrt(1.0 - b2)
    bp = np.sum(beta * p4[..., 1:], axis=-1)  # beta . p
    # gamma2 = (gamma - 1) / beta^2, finite limit 1/2 as beta -> 0.
    gamma2 = np.where(b2 > 1e-14, (gamma - 1.0) / np.maximum(b2, 1e-14), 0.5)
    e_new = gamma * (p4[..., 0] + bp)
    coeff = (gamma2 * bp + gamma * p4[..., 0])[..., None]
    p_new = p4[..., 1:] + coeff * beta
    return np.concatenate([e_new[..., None], p_new], axis=-1)


def two_body_decay(
    parent: np.ndarray,
    m1: np.ndarray,
    m2: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Decay each parent four-vector into two daughters of masses ``m1``/``m2``.

    The decay is isotropic in the parent rest frame; daughters are boosted
    back to the lab frame.  If the parent mass is below ``m1 + m2`` the
    daughter masses are scaled down proportionally (keeps the generator
    robust to smeared inputs).
    """
    parent = np.asarray(parent, dtype=np.float64)
    n = parent.shape[0]
    m_parent = mass(parent)
    m1 = np.broadcast_to(np.asarray(m1, dtype=np.float64), (n,)).copy()
    m2 = np.broadcast_to(np.asarray(m2, dtype=np.float64), (n,)).copy()

    # Rescale daughter masses when kinematically forbidden.
    total = m1 + m2
    over = total > 0.98 * m_parent
    if np.any(over):
        scale = np.where(over, 0.98 * m_parent / np.maximum(total, 1e-12), 1.0)
        m1 *= scale
        m2 *= scale

    # Momentum magnitude of the daughters in the parent rest frame.
    term = (m_parent**2 - (m1 + m2) ** 2) * (m_parent**2 - (m1 - m2) ** 2)
    p_star = np.sqrt(np.maximum(term, 0.0)) / np.maximum(2.0 * m_parent, 1e-12)

    # Isotropic direction in the rest frame.
    cos_theta = rng.uniform(-1.0, 1.0, size=n)
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    azimuth = rng.uniform(-np.pi, np.pi, size=n)
    direction = np.stack(
        [sin_theta * np.cos(azimuth), sin_theta * np.sin(azimuth), cos_theta], axis=-1
    )

    e1 = np.sqrt(p_star**2 + m1**2)
    e2 = np.sqrt(p_star**2 + m2**2)
    d1_rest = np.concatenate([e1[:, None], p_star[:, None] * direction], axis=-1)
    d2_rest = np.concatenate([e2[:, None], -p_star[:, None] * direction], axis=-1)

    # Boost from the parent rest frame to the lab frame.
    beta = parent[:, 1:] / np.maximum(parent[:, 0:1], 1e-12)
    d1 = boost(d1_rest, beta)
    d2 = boost(d2_rest, beta)
    return d1, d2
