"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.exceptions import BackendError
from repro.utils.rng import as_rng, generator_state, set_generator_state


class TestAsRng:
    def test_none_returns_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_rng(42).integers(0, 1000, size=10)
        b = as_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_rng(1).integers(0, 10**9, size=8)
        b = as_rng(2).integers(0, 10**9, size=8)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(as_rng(seq), np.random.Generator)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            as_rng(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            as_rng("seed")


def _mixed_draws(gen, n=1000):
    """``n`` draws cycling through dtypes that consume 32 and 64 bits."""
    out = []
    for i in range(n):
        kind = i % 5
        if kind == 0:
            out.append(int(gen.integers(0, 2**32, dtype=np.uint32)))
        elif kind == 1:
            out.append(int(gen.integers(0, 2**63, dtype=np.int64)))
        elif kind == 2:
            out.append(float(gen.random()))
        elif kind == 3:
            out.append(float(gen.random(dtype=np.float32)))
        else:
            out.append(float(gen.standard_normal()))
    return out


class TestGeneratorCodec:
    def test_mid_stream_state_round_trips(self):
        source = as_rng(11)
        source.random(7)
        source.integers(0, 2**32, dtype=np.uint32)  # leaves half a word buffered
        words = generator_state(source)
        assert words.dtype == np.uint64 and words.shape == (6,)
        assert words[4] == 1  # has_uint32
        target = np.random.default_rng(999)
        set_generator_state(target, words)
        assert target.bit_generator.state == source.bit_generator.state
        assert _mixed_draws(target) == _mixed_draws(source)

    def test_state_is_set_in_place(self):
        source, target = as_rng(1), as_rng(2)
        bit_generator = target.bit_generator
        set_generator_state(target, generator_state(source))
        assert target.bit_generator is bit_generator
        assert target.random() == source.random()

    def test_other_bit_generators_refused(self):
        foreign = np.random.Generator(np.random.Philox(0))
        with pytest.raises(BackendError, match="Philox"):
            generator_state(foreign)
        with pytest.raises(BackendError, match="Philox"):
            set_generator_state(foreign, generator_state(as_rng(0)))

    def test_wrong_width_refused(self):
        with pytest.raises(BackendError, match="6 uint64 words"):
            set_generator_state(as_rng(0), np.zeros(4, dtype=np.uint64))
