"""Plane-wave eigensolver: kernels, exact limits, and basis handling."""

import numpy as np
import pytest

from oracles import charge_grid, harmonic_levels, kernel_via_dft, n_representation
from fluxrabi.planewave import (
    BasisRangeWarning,
    PlaneWaveBasis,
    diagonalize_flux_qubit,
    linear_kernel,
    oscillator_hamiltonian,
    quadratic_kernel,
)

from conftest import circuit_parts


def test_basis_validation():
    with pytest.raises(ValueError):
        PlaneWaveBasis(n_max=0.0)
    with pytest.raises(ValueError):
        PlaneWaveBasis(n_max=8.0, n_waves=31)
    with pytest.raises(ValueError):
        PlaneWaveBasis(n_max=8.0, n_waves=6)


def test_oscillator_basis_sizing():
    basis = PlaneWaveBasis.for_oscillator(0.02, 60.0, n_widths=10.0)
    assert basis.n_max == pytest.approx(10.0 * (60.0 / (32.0 * 0.02)) ** 0.25)


def test_wave_numbers_symmetric_range():
    basis = PlaneWaveBasis(n_max=8.0, n_waves=32)
    k = basis.wave_numbers
    assert len(k) == 32
    assert k[0] == pytest.approx(-16.0 * np.pi / 8.0)
    assert np.all(np.diff(k) > 0)


def test_closed_form_kernels_match_dft():
    basis = PlaneWaveBasis(n_max=8.0, n_waves=32)
    fine = 16 * 32
    # the DFT route carries aliasing error that shrinks with the grid
    for power, kernel in ((2, quadratic_kernel), (1, linear_kernel)):
        coarse_err = np.abs(kernel(basis) - kernel_via_dft(basis, power)).max()
        fine_err = np.abs(kernel(basis)
                          - kernel_via_dft(basis, power, fine)).max()
        assert fine_err < coarse_err
    assert np.abs(quadratic_kernel(basis)
                  - kernel_via_dft(basis, 2, fine)).max() < 5e-4
    assert np.abs(linear_kernel(basis)
                  - kernel_via_dft(basis, 1, fine)).max() < 5e-2


def test_kernels_hermitian():
    basis = PlaneWaveBasis(n_max=8.0, n_waves=32)
    q = quadratic_kernel(basis)
    l = linear_kernel(basis)
    assert np.abs(q - q.T).max() == 0.0
    assert np.abs(l - l.conj().T).max() == 0.0


def test_oscillator_reproduces_harmonic_ladder():
    p = circuit_parts(20.0)
    basis = PlaneWaveBasis.for_oscillator(p.flux.EC, p.flux.EL)
    energies = np.linalg.eigvalsh(oscillator_hamiltonian(p.flux.EC,
                                                         p.flux.EL, basis))
    exact = harmonic_levels(p.flux.EC, p.flux.EL, k=10)
    assert np.abs(energies[:10] - exact).max() < 1e-6


def test_unresolvable_phase_extent_warns():
    p = circuit_parts(20.0)
    # a huge charge interval starves the phase-space coverage of the fixed
    # wave count, pushing ground-state weight onto the outermost waves
    basis = PlaneWaveBasis.for_qubit(n_max=40.0)
    with pytest.warns(BasisRangeWarning):
        diagonalize_flux_qubit(*p.flux.qubit_node, 0.5, basis)


def test_qubit_levels_ordered_and_converged_in_basis():
    p = circuit_parts(20.0)
    small = diagonalize_flux_qubit(*p.flux.qubit_node, 0.5,
                                   PlaneWaveBasis.for_qubit())
    big = diagonalize_flux_qubit(*p.flux.qubit_node, 0.5,
                                 PlaneWaveBasis.for_qubit(n_waves=64))
    # ascending and free of degenerate pairs (no two levels within 1 Hz)
    assert np.diff(small.energies).min() >= 1e-9
    assert np.abs(small.energies[:6] - big.energies[:6]).max() < 1e-6


def test_phase_convention_fixes_coefficients():
    p = circuit_parts(20.0)
    spec = diagonalize_flux_qubit(*p.flux.qubit_node, 0.5,
                                  PlaneWaveBasis.for_qubit())
    for i in range(4):
        coeff = spec.coefficients[i]
        peak = coeff[np.argmax(np.abs(coeff))]
        assert abs(peak.imag) < 1e-12
        assert peak.real > 0.0


def test_charge_wavefunction_normalized():
    p = circuit_parts(20.0)
    spec = diagonalize_flux_qubit(*p.flux.qubit_node, 0.5,
                                  PlaneWaveBasis.for_qubit())
    grid = charge_grid(spec.basis)
    dn = 2.0 * spec.basis.n_max / len(grid)
    for i in range(3):
        psi = n_representation(spec, i)
        assert np.sum(np.abs(psi) ** 2) * dn == pytest.approx(1.0, rel=1e-10)
