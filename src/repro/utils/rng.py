"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either ``None``, an
integer seed, or a :class:`numpy.random.Generator`.  Components never call
the global NumPy RNG; instead they normalise their argument through
:func:`as_rng` so that experiments are reproducible.

A generator that must cross a boundary — into a checkpoint, or to another
rank — travels as :func:`generator_state`'s fixed-width ``uint64`` array and
is re-imposed in place by :func:`set_generator_state`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import BackendError

RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]

__all__ = ["RandomState", "as_rng", "generator_state", "set_generator_state"]

_WORD = (1 << 64) - 1


def as_rng(seed: RandomState = None) -> np.random.Generator:
    """Normalise ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh unpredictable generator), an ``int`` seed, a
        ``SeedSequence``, or an existing ``Generator`` (returned as-is).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return np.random.default_rng(int(seed))
    raise TypeError(
        "seed must be None, an int, numpy.random.SeedSequence or "
        f"numpy.random.Generator, got {type(seed).__name__}"
    )


def _pcg64(generator: np.random.Generator) -> np.random.PCG64:
    bit_generator = generator.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise BackendError(
            f"generator state codec supports PCG64 only, not {type(bit_generator).__name__}"
        )
    return bit_generator


def generator_state(generator: np.random.Generator) -> np.ndarray:
    """A PCG64 generator's full state as six ``uint64`` words.

    ``[state hi, state lo, inc hi, inc lo, has_uint32, uinteger]``: the
    128-bit LCG state and increment split into words, plus the buffered
    half of a 64-bit draw that a ``uint32`` draw leaves behind.  Any other
    bit generator is refused with a :class:`BackendError` naming it.
    """
    state = _pcg64(generator).state
    lcg, inc = state["state"]["state"], state["state"]["inc"]
    words = [lcg >> 64, lcg & _WORD, inc >> 64, inc & _WORD]
    return np.array(words + [state["has_uint32"], state["uinteger"]], dtype=np.uint64)


def set_generator_state(generator: np.random.Generator, words: np.ndarray) -> None:
    """Re-impose :func:`generator_state`'s words on ``generator`` in place.

    In place, never a new object: a layer's plasticity rule shares its
    generator, so the restored stream must reach every holder.
    """
    bit_generator = _pcg64(generator)
    words = [int(w) for w in np.asarray(words, dtype=np.uint64).reshape(-1)]
    if len(words) != 6:
        raise BackendError(f"a PCG64 state is 6 uint64 words, got {len(words)}")
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": words[0] << 64 | words[1], "inc": words[2] << 64 | words[3]},
        "has_uint32": words[4],
        "uinteger": words[5],
    }
