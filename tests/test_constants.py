"""Physical constants and unit conversion helpers."""

import math

import pytest
import scipy.constants

from fluxrabi.constants import (
    CONSTANTS,
    bias_to_ghz,
    charging_energy_ghz,
    current_flux_to_ghz,
    inductive_energy_ghz,
)


def test_constants_are_codata():
    assert CONSTANTS.h == scipy.constants.h
    assert CONSTANTS.e == scipy.constants.e
    assert CONSTANTS.hbar == pytest.approx(scipy.constants.hbar, rel=1e-12)
    assert CONSTANTS.Phi0 == pytest.approx(
        scipy.constants.h / (2.0 * scipy.constants.e), rel=1e-15)


def test_charging_energy_closed_form():
    # e^2 / (2 C h) for CJ = 4.84 fF
    c = 4.84e-15
    expected = CONSTANTS.e**2 / (2.0 * c * CONSTANTS.h) / 1e9
    assert charging_energy_ghz(c) == pytest.approx(expected, rel=1e-15)
    assert charging_energy_ghz(c) == pytest.approx(4.0, rel=5e-3)


def test_inductive_energy_closed_form():
    lj = 990.0e-12
    phi_j = CONSTANTS.Phi0 / (2.0 * math.pi)
    expected = phi_j**2 / (lj * CONSTANTS.h) / 1e9
    assert inductive_energy_ghz(lj) == pytest.approx(expected, rel=1e-15)
    assert inductive_energy_ghz(lj) == pytest.approx(165.1, rel=1e-3)


def test_current_flux_energy():
    # I Phi / h in GHz for 100 nA through one flux quantum
    expected = 100e-9 * CONSTANTS.Phi0 / CONSTANTS.h / 1e9
    assert current_flux_to_ghz(100.0, 1.0) == pytest.approx(expected, rel=1e-14)


def test_bias_vanishes_at_symmetry_point():
    assert bias_to_ghz(281.0, 0.5) == 0.0


def test_bias_is_linear_and_odd():
    up = bias_to_ghz(281.0, 0.503)
    down = bias_to_ghz(281.0, 0.497)
    assert up == pytest.approx(-down, rel=1e-14)
    assert bias_to_ghz(281.0, 0.506) == pytest.approx(2.0 * up, rel=1e-12)
    assert up == pytest.approx(
        2.0 * 281e-9 * 0.003 * CONSTANTS.Phi0 / CONSTANTS.h / 1e9, rel=1e-14)
