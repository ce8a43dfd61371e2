"""Tests for the four-vector kinematics substrate (with physics invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import kinematics as kin
from repro.exceptions import DataError


class TestFourVector:
    def test_massless_energy_equals_momentum(self):
        p4 = kin.four_vector(np.array([10.0]), np.array([0.0]), np.array([0.0]), 0.0)
        energy = p4[0, 0]
        momentum = np.linalg.norm(p4[0, 1:])
        assert energy == pytest.approx(momentum)

    def test_coordinates_round_trip(self):
        pt_in, eta_in, phi_in = np.array([35.0]), np.array([1.2]), np.array([-2.1])
        p4 = kin.four_vector(pt_in, eta_in, phi_in, 0.0)
        assert kin.pt(p4)[0] == pytest.approx(35.0)
        assert kin.eta(p4)[0] == pytest.approx(1.2, abs=1e-6)
        assert kin.phi(p4)[0] == pytest.approx(-2.1)

    def test_mass_round_trip(self):
        p4 = kin.four_vector(np.array([50.0]), np.array([0.5]), np.array([0.3]), np.array([91.2]))
        assert kin.mass(p4)[0] == pytest.approx(91.2, rel=1e-9)

    def test_negative_pt_rejected(self):
        with pytest.raises(DataError):
            kin.four_vector(np.array([-1.0]), np.array([0.0]), np.array([0.0]))


class TestInvariantMass:
    def test_two_back_to_back_massless(self):
        # Two massless particles of energy E back-to-back: m = 2E.
        a = kin.four_vector(np.array([20.0]), np.array([0.0]), np.array([0.0]), 0.0)
        b = kin.four_vector(np.array([20.0]), np.array([0.0]), np.array([np.pi]), 0.0)
        assert kin.invariant_mass(a, b)[0] == pytest.approx(40.0)

    def test_collinear_massless_is_zero(self):
        a = kin.four_vector(np.array([20.0]), np.array([0.5]), np.array([1.0]), 0.0)
        assert kin.invariant_mass(a, a)[0] == pytest.approx(0.0, abs=1e-6)

    def test_requires_input(self):
        with pytest.raises(DataError):
            kin.invariant_mass()


class TestBoost:
    def test_zero_boost_is_identity(self):
        p4 = kin.four_vector(np.array([30.0]), np.array([0.7]), np.array([0.2]), np.array([5.0]))
        boosted = kin.boost(p4, np.zeros((1, 3)))
        assert np.allclose(boosted, p4)

    def test_superluminal_rejected(self):
        p4 = kin.four_vector(np.array([30.0]), np.array([0.0]), np.array([0.0]), 0.0)
        with pytest.raises(DataError):
            kin.boost(p4, np.array([[1.1, 0.0, 0.0]]))

    def test_mass_invariance_under_boost(self):
        rng = np.random.default_rng(0)
        p4 = kin.four_vector(rng.uniform(10, 100, 50), rng.normal(0, 1, 50),
                             rng.uniform(-np.pi, np.pi, 50), rng.uniform(0, 90, 50))
        beta = rng.uniform(-0.8, 0.8, size=(50, 3)) / np.sqrt(3)
        boosted = kin.boost(p4, beta)
        assert np.allclose(kin.mass(boosted), kin.mass(p4), rtol=1e-6, atol=1e-6)


class TestTwoBodyDecay:
    def test_energy_momentum_conservation(self):
        rng = np.random.default_rng(1)
        parent = kin.four_vector(rng.uniform(5, 80, 100), rng.normal(0, 1.5, 100),
                                 rng.uniform(-np.pi, np.pi, 100), np.full(100, 125.0))
        d1, d2 = kin.two_body_decay(parent, np.full(100, 4.7), np.full(100, 4.7), rng)
        assert np.allclose(d1 + d2, parent, rtol=1e-6, atol=1e-6)

    def test_daughter_masses(self):
        rng = np.random.default_rng(2)
        parent = kin.four_vector(np.full(50, 30.0), np.zeros(50), np.zeros(50), np.full(50, 91.2))
        d1, d2 = kin.two_body_decay(parent, np.full(50, 10.0), np.full(50, 20.0), rng)
        assert np.allclose(kin.mass(d1), 10.0, atol=1e-6)
        assert np.allclose(kin.mass(d2), 20.0, atol=1e-6)

    def test_forbidden_decay_rescales(self):
        rng = np.random.default_rng(3)
        parent = kin.four_vector(
            np.array([10.0]), np.array([0.0]), np.array([0.0]), np.array([50.0])
        )
        d1, d2 = kin.two_body_decay(parent, np.array([40.0]), np.array([40.0]), rng)
        # Conservation still holds even though the daughter masses were reduced.
        assert np.allclose(d1 + d2, parent, rtol=1e-6)

    def test_invariant_mass_of_daughters_equals_parent_mass(self):
        rng = np.random.default_rng(4)
        parent = kin.four_vector(rng.uniform(0, 60, 40), rng.normal(0, 1, 40),
                                 rng.uniform(-np.pi, np.pi, 40), np.full(40, 172.5))
        d1, d2 = kin.two_body_decay(parent, np.full(40, 80.4), np.full(40, 4.7), rng)
        assert np.allclose(kin.invariant_mass(d1, d2), kin.mass(parent), rtol=1e-6)


@given(
    pt_=st.floats(1.0, 500.0),
    eta_=st.floats(-3.0, 3.0),
    phi_=st.floats(-3.1, 3.1),
    m=st.floats(0.0, 200.0),
)
@settings(max_examples=60, deadline=None)
def test_property_mass_reconstruction(pt_, eta_, phi_, m):
    """mass(four_vector(pt, eta, phi, m)) == m for all physical inputs.

    The absolute tolerance accounts for catastrophic cancellation in
    ``E^2 - |p|^2`` when the true mass is far below the momentum scale.
    """
    p4 = kin.four_vector(np.array([pt_]), np.array([eta_]), np.array([phi_]), np.array([m]))
    assert kin.mass(p4)[0] == pytest.approx(m, rel=1e-6, abs=1e-4)


@given(
    pt_=st.floats(1.0, 200.0),
    eta_=st.floats(-2.5, 2.5),
    phi_=st.floats(-3.0, 3.0),
    m=st.floats(1.0, 150.0),
    bx=st.floats(-0.5, 0.5),
    by=st.floats(-0.5, 0.5),
    bz=st.floats(-0.5, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_property_boost_preserves_mass(pt_, eta_, phi_, m, bx, by, bz):
    """Invariant mass is unchanged by any (sub-luminal) Lorentz boost."""
    p4 = kin.four_vector(np.array([pt_]), np.array([eta_]), np.array([phi_]), np.array([m]))
    boosted = kin.boost(p4, np.array([[bx, by, bz]]))
    assert kin.mass(boosted)[0] == pytest.approx(m, rel=1e-5, abs=1e-5)
