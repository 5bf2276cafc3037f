"""Coupled-circuit eigensolves: builds, cross-checks, and observables."""

import dataclasses

import numpy as np
import pytest

from fluxrabi.coupled import (
    DENSE_DIM_LIMIT,
    build_coupled_eigenbasis,
    build_coupled_planewave,
    charge_coupling_ghz,
    flux_coupling_ghz,
    ladder_difference,
    ladder_sum,
    observables,
    transitions,
)
from fluxrabi.planewave import EigensolveError

from conftest import circuit_parts


def test_ladder_quadratures():
    sum_mat = ladder_sum(4)
    expected = np.zeros((4, 4))
    for n in range(3):
        expected[n, n + 1] = expected[n + 1, n] = np.sqrt(n + 1.0)
    assert np.abs(sum_mat - expected).max() == 0.0
    diff = ladder_difference(4)
    assert np.abs(diff - diff.conj().T).max() == 0.0
    assert diff[0, 1] == pytest.approx(-1j)
    assert diff[1, 0] == pytest.approx(1j)


def test_coupling_coefficients_vanish_when_decoupled():
    p = circuit_parts(0.0)
    assert flux_coupling_ghz(p.raw, p.eff, p.scales) == 0.0
    assert charge_coupling_ghz(p.raw, p.eff) == 0.0


def test_coupling_coefficients_negative_when_coupled(parts20):
    p = parts20
    assert flux_coupling_ghz(p.raw, p.eff, p.scales) < 0.0
    assert charge_coupling_ghz(p.raw, p.eff) < 0.0


def test_gauge_argument_validated(parts20):
    p = parts20
    with pytest.raises(ValueError):
        build_coupled_eigenbasis("mixed", p.raw, p.eff, p.scales)


def test_dense_dimension_guard(parts20):
    p = parts20
    with pytest.raises(EigensolveError):
        build_coupled_eigenbasis("flux", p.raw, p.eff, p.scales,
                                 n_qubit=60, n_fock=80)
    assert 60 * 80 > DENSE_DIM_LIMIT


def test_truncation_flag_honest_for_starved_charge_solve():
    # at Lc = 350 the charge-gauge build needs far more qubit levels than
    # the default truncation; the verify pass must say so
    p = circuit_parts(350.0)
    spec = build_coupled_eigenbasis("charge", p.raw, p.eff, p.scales,
                                    n_qubit=6, n_fock=40, verify=True)
    assert not spec.converged
    assert spec.truncation_shift > 0.1


def test_flux_eigenbasis_converged_at_default_truncation(parts20):
    p = parts20
    spec = build_coupled_eigenbasis("flux", p.raw, p.eff, p.scales,
                                    verify=True)
    assert spec.converged
    assert spec.truncation_shift < 1e-3


def test_transitions_helper(parts20):
    p = parts20
    spec = build_coupled_eigenbasis("flux", p.raw, p.eff, p.scales,
                                    verify=False)
    t = transitions(spec, [(0, 1), (0, 2), (1, 3)])
    e = spec.energies
    assert t == pytest.approx([e[1] - e[0], e[2] - e[0], e[3] - e[1]])


def test_charge_gauge_planewave_agrees_with_eigenbasis(parts20):
    p = parts20
    eigen = build_coupled_eigenbasis("charge", p.raw, p.eff, p.scales,
                                     verify=False)
    plane = build_coupled_planewave("charge", p.raw, p.eff, p.scales)
    gap = np.abs(eigen.energies[:8] - plane.energies[:8]).max()
    assert gap < 1e-3


def test_loop_one_carries_no_current(parts20):
    p = parts20
    for gauge in ("flux", "charge"):
        spec = build_coupled_eigenbasis(gauge, p.raw, p.eff, p.scales,
                                        verify=False)
        for state in range(4):
            obs = observables(spec, p.raw, p.eff, p.scales, state)
            assert abs(obs.current_1) < 1e-2


def test_ground_flux_expectation_is_odd_around_symmetry(parts20):
    p = parts20
    values = []
    for phix in (0.498, 0.502):
        raw = dataclasses.replace(p.raw, phix=phix)
        spec = build_coupled_eigenbasis("flux", raw, p.eff, p.scales,
                                        verify=False)
        values.append(observables(spec, raw, p.eff, p.scales, 0))
    assert values[0].flux_2 == pytest.approx(-values[1].flux_2, rel=1e-6)
    assert values[0].flux_1 == pytest.approx(-values[1].flux_1, rel=1e-6)
    assert abs(values[0].flux_2) > 0.1


def test_charge_gauge_frame_flux_vanishes(parts20):
    p = parts20
    raw = dataclasses.replace(p.raw, phix=0.498)
    spec = build_coupled_eigenbasis("charge", raw, p.eff, p.scales,
                                    verify=False)
    obs = observables(spec, raw, p.eff, p.scales, 0)
    # the momentum-shifted oscillator mode has no flux displacement; the
    # loop currents still come out through the gauge-restored flux
    assert abs(obs.flux_1) < 1e-6
    assert abs(obs.current_2) > 100.0


def test_observables_rejects_spectrum_without_eigenbasis_context(parts20):
    # the plane-wave build sets no context; observables must not misread it
    p = parts20
    spec = build_coupled_eigenbasis("flux", p.raw, p.eff, p.scales,
                                    verify=False)
    with pytest.raises(ValueError):
        observables(dataclasses.replace(spec, context=None), p.raw, p.eff,
                    p.scales, 0)


def test_photon_number_nonnegative_and_small_in_ground_state(parts20):
    p = parts20
    spec = build_coupled_eigenbasis("flux", p.raw, p.eff, p.scales,
                                    verify=False)
    obs = observables(spec, p.raw, p.eff, p.scales, 0)
    assert 0.0 <= obs.photon_number < 0.1
