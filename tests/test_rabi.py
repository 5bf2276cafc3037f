"""Two-level oscillator models: exact limits, symmetries, and the mapping."""

import dataclasses
import math

import numpy as np
import pytest

from fluxrabi.coupled import CONVERGENCE_LIMIT_GHZ
from fluxrabi.rabi import (
    FOCK_TOL_GHZ,
    RABI_FOCK_LADDER,
    RabiParams,
    fock_rung,
    fock_shift,
    map_circuit_to_rabi,
    rabi_energies,
    rabi_hamiltonian,
)
from fluxrabi.qubit import TwoLevelFit, characterize_qubit

from conftest import FIT_GRID, circuit_parts, mapped_params

# The fit grid's two ends and middle, where the fits pick their rung.
RUNG_BIASES = FIT_GRID[[0, len(FIT_GRID) // 2, -1]]


def test_variant_validation():
    with pytest.raises(ValueError):
        RabiParams(omega=6.0, Delta_q=1.2, Ip=280.0, g=0.4, variant="mixed")


@pytest.mark.parametrize("lc, variant, rung", [
    (20.0, "flux", 10), (20.0, "charge", 10), (185.0, "flux", 20),
    (350.0, "flux", 30)])
def test_fock_rung_of_mapped_models(lc, variant, rung):
    # the smallest rung whose lowest 8 levels move by under 1e-12 GHz
    # against the next: the rung below it moves them by more
    params = mapped_params(lc, variant)
    assert fock_rung(params, RUNG_BIASES) == rung
    assert fock_shift(params, RUNG_BIASES, rung) < FOCK_TOL_GHZ
    below = RABI_FOCK_LADDER.index(rung) - 1
    if below >= 0:
        assert fock_shift(params, RUNG_BIASES,
                          RABI_FOCK_LADDER[below]) >= FOCK_TOL_GHZ


def test_fock_rung_falls_back_to_the_top_when_none_settles():
    # g / omega = 5: the levels still move by 2e-9 GHz from 80 to 120
    params = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=30.0)
    assert fock_rung(params, RUNG_BIASES) == RABI_FOCK_LADDER[-1]
    assert fock_shift(params, RUNG_BIASES, 120) == fock_shift(
        params, RUNG_BIASES, 80) >= FOCK_TOL_GHZ


@pytest.mark.parametrize("variant", ["flux", "charge"])
def test_stacked_levels_match_per_point_calls_bit_for_bit(variant):
    params = RabiParams(omega=6.0, Delta_q=1.24, Ip=281.0, g=2.0,
                        variant=variant)
    stacked = rabi_energies(params, FIT_GRID, 30)
    assert stacked.shape == (len(FIT_GRID), 60)
    for row, phix in zip(stacked, FIT_GRID):
        assert np.array_equal(row, rabi_energies(params, phix, 30))


def test_decoupled_model_is_exact_sum():
    params = RabiParams(omega=6.0, Delta_q=1.24, Ip=281.0, g=0.0)
    for phix in (0.5, 0.503):
        eps = params.epsilon(phix)
        split = math.hypot(eps, params.Delta_q)
        exact = np.sort(np.concatenate([
            6.0 * (np.arange(10) + 0.5) - split / 2.0,
            6.0 * (np.arange(10) + 0.5) + split / 2.0,
        ]))
        energies = rabi_energies(params, phix, n_fock=40)
        assert np.abs(energies[:12] - exact[:12]).max() < 1e-10


def test_displaced_oscillator_limit():
    # Delta_q = 0 at the symmetry point: two displaced oscillators with
    # ground energy omega/2 - g^2/omega and mean photon number (g/omega)^2
    omega, g = 6.0, 1.2
    params = RabiParams(omega=omega, Delta_q=0.0, Ip=281.0, g=g)
    energies, vectors = np.linalg.eigh(rabi_hamiltonian(params, 0.5, 60))
    assert energies[0] == pytest.approx(omega / 2.0 - g**2 / omega, abs=1e-10)
    # every level is twofold degenerate in this limit
    assert np.abs(energies[1] - energies[0]) < 1e-10
    psi = vectors[:, 0].reshape(60, 2)
    photon = float(np.sum(np.abs(psi) ** 2, axis=1) @ np.arange(60))
    assert photon == pytest.approx((g / omega) ** 2, abs=1e-10)


def test_spectrum_even_in_bias_and_coupling_sign():
    params = RabiParams(omega=6.0, Delta_q=1.24, Ip=281.0, g=2.0)
    up = rabi_energies(params, 0.503, n_fock=40)
    down = rabi_energies(params, 0.497, n_fock=40)
    assert np.abs(up[:10] - down[:10]).max() < 1e-9
    flipped = dataclasses.replace(params, g=-2.0)
    assert np.abs(rabi_energies(params, 0.502, 40)[:10]
                  - rabi_energies(flipped, 0.502, 40)[:10]).max() < 1e-9


def test_variants_isospectral_at_symmetry_point():
    # at eps = 0 the two coupling forms are related by a unitary qubit
    # rotation, so identical parameters give identical spectra
    flux = RabiParams(omega=6.0, Delta_q=1.24, Ip=281.0, g=2.0)
    charge = RabiParams(omega=6.0, Delta_q=1.24, Ip=281.0, g=2.0,
                        variant="charge")
    gap = np.abs(rabi_energies(flux, 0.5, 40)[:10]
                 - rabi_energies(charge, 0.5, 40)[:10]).max()
    assert gap < 1e-9


def test_variants_differ_off_symmetry():
    flux = RabiParams(omega=6.0, Delta_q=1.24, Ip=281.0, g=2.0)
    charge = RabiParams(omega=6.0, Delta_q=1.24, Ip=281.0, g=2.0,
                        variant="charge")
    gap = np.abs(rabi_energies(flux, 0.503, 40)[:6]
                 - rabi_energies(charge, 0.503, 40)[:6]).max()
    assert gap > 1e-4


def test_hamiltonian_is_real_symmetric():
    for variant in ("flux", "charge"):
        params = RabiParams(omega=6.0, Delta_q=1.24, Ip=281.0, g=2.0,
                            variant=variant)
        h = rabi_hamiltonian(params, 0.503, 16)
        assert h.dtype == np.float64
        assert np.abs(h - h.T).max() == 0.0


def _doubling_shift(params, n_fock):
    """Largest shift of the lowest 8 levels at n_fock against 2 n_fock."""
    return float(np.abs(rabi_energies(params, 0.5, n_fock)[:8]
                        - rabi_energies(params, 0.5, 2 * n_fock)[:8]).max())


def test_truncation_flag_is_honest():
    # the deep-coupling Rabi model converges at 60 Fock states and a
    # starved 6-state truncation is flagged against its doubled solve
    deep = RabiParams(omega=6.27, Delta_q=2.14, Ip=282.0, g=7.31)
    assert _doubling_shift(deep, 60) < CONVERGENCE_LIMIT_GHZ
    shift = _doubling_shift(deep, 6)
    assert not shift < CONVERGENCE_LIMIT_GHZ
    assert shift > 0.1


def test_fock_truncation_converged_at_mapped_deep_coupling():
    params = mapped_params(350.0, "flux")
    gap = np.abs(rabi_energies(params, 0.5, 40)[:8]
                 - rabi_energies(params, 0.5, 80)[:8]).max()
    assert gap < 1e-3


def test_avoided_crossing_location_and_gap():
    # mapped parameters at Lc = 20: crossings where the qubit splitting
    # meets omega, with minimal gap close to 2 g Delta_q / omega
    params = mapped_params(20.0, "flux")
    grid = np.linspace(0.494, 0.5, 121)
    gaps = np.array([np.diff(rabi_energies(params, x, 20)[1:3])[0]
                     for x in grid])
    i = int(np.argmin(gaps))
    assert 0.496 < grid[i] < 0.4972
    perturbative = 2.0 * params.g * params.Delta_q / params.omega
    assert gaps[i] == pytest.approx(perturbative, rel=0.1)


def test_decoupled_circuit_maps_to_zero_coupling():
    # at Lc = 0 the charge gauge is the flux gauge, bit for bit
    p = circuit_parts(0.0)
    flux = map_circuit_to_rabi("flux", p.raw,
                               characterize_qubit(*p.flux.qubit_node))
    charge = map_circuit_to_rabi("charge", p.raw,
                                 characterize_qubit(*p.charge.qubit_node))
    assert flux.g == 0.0
    assert charge.g == 0.0
    assert flux.omega == charge.omega


def test_mapping_requires_matrix_element_scales(parts20):
    p = parts20
    bare = TwoLevelFit(Delta_q=1.24, Ip=281.0, omega_os=40.0,
                       fit_residual=0.0)
    for gauge in ("flux", "charge"):
        with pytest.raises(ValueError):
            map_circuit_to_rabi(gauge, p.raw, bare)


def test_mapped_variants_are_physically_different_models():
    # each gauge's own mapping, same circuit: the two models disagree on
    # every excited level at the symmetry point
    flux = mapped_params(350.0, "flux")
    charge = mapped_params(350.0, "charge")
    ef = rabi_energies(flux, 0.5, 60)
    ec = rabi_energies(charge, 0.5, 60)
    rel_f = ef[1:4] - ef[0]
    rel_c = ec[1:4] - ec[0]
    assert np.abs(rel_f - rel_c).min() > 1e-3
