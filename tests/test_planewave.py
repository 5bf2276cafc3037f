"""Plane-wave eigensolver: kernels, exact limits, and basis handling."""

import numpy as np
import pytest

from oracles import (charge_grid, fix_phases_loop, harmonic_levels,
                     kernel_via_dft, n_representation)
from fluxrabi.planewave import (
    PlaneWaveBasis,
    _fix_phases,
    diagonalize_flux_qubit,
    linear_kernel,
    oscillator_hamiltonian,
    quadratic_kernel,
    qubit_hamiltonian,
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
    basis = PlaneWaveBasis.for_oscillator(0.02, 60.0)
    assert basis.n_max == pytest.approx(10.0 * (60.0 / (32.0 * 0.02)) ** 0.25)
    assert basis.n_waves == 64


def test_wave_numbers_symmetric_range():
    basis = PlaneWaveBasis(n_max=8.0, n_waves=32)
    k = basis.wave_numbers
    assert len(k) == 32
    assert k[0] == pytest.approx(-16.0 * np.pi / 8.0)
    assert np.all(np.diff(k) > 0)


def test_closed_form_kernels_match_dft():
    basis = PlaneWaveBasis(n_max=8.0, n_waves=32)
    fine = 16 * 32
    def charge_kernel(b):
        return 1j * linear_kernel(b)

    # the DFT route carries aliasing error that shrinks with the grid
    for power, kernel in ((2, quadratic_kernel), (1, charge_kernel)):
        coarse_err = np.abs(kernel(basis) - kernel_via_dft(basis, power)).max()
        fine_err = np.abs(kernel(basis)
                          - kernel_via_dft(basis, power, fine)).max()
        assert fine_err < coarse_err
    assert np.abs(quadratic_kernel(basis)
                  - kernel_via_dft(basis, 2, fine)).max() < 5e-4
    assert np.abs(charge_kernel(basis)
                  - kernel_via_dft(basis, 1, fine)).max() < 5e-2


def test_kernels_hermitian():
    basis = PlaneWaveBasis(n_max=8.0, n_waves=32)
    q = quadratic_kernel(basis)
    a = linear_kernel(basis)
    assert np.abs(q - q.T).max() == 0.0
    # n = 1j A is Hermitian exactly when the real A is antisymmetric
    assert np.abs(a + a.T).max() == 0.0


def test_oscillator_reproduces_harmonic_ladder():
    p = circuit_parts(20.0)
    basis = PlaneWaveBasis.for_oscillator(p.flux.EC, p.flux.EL)
    energies = np.linalg.eigvalsh(oscillator_hamiltonian(p.flux.EC,
                                                         p.flux.EL, basis))
    exact = harmonic_levels(p.flux.EC, p.flux.EL, k=10)
    assert np.abs(energies[:10] - exact).max() < 1e-6


def test_qubit_levels_ordered_and_converged_in_basis():
    p = circuit_parts(20.0)
    small = diagonalize_flux_qubit(*p.flux.qubit_node, 0.5,
                                   PlaneWaveBasis.for_qubit())
    big = diagonalize_flux_qubit(*p.flux.qubit_node, 0.5,
                                 PlaneWaveBasis(n_max=8.0, n_waves=64))
    # ascending and free of degenerate pairs (no two levels within 1 Hz)
    assert np.diff(small.energies).min() >= 1e-9
    assert np.abs(small.energies[:6] - big.energies[:6]).max() < 1e-6


def test_phase_convention_fixes_coefficients():
    p = circuit_parts(20.0)
    spec = diagonalize_flux_qubit(*p.flux.qubit_node, 0.5,
                                  PlaneWaveBasis.for_qubit())
    for i in range(4):
        coeff = spec.coefficients[i]
        assert coeff[np.argmax(np.abs(coeff))] > 0.0


def test_vectorized_phase_fix_equals_column_loop():
    # a sign flip per column, bit for bit the column loop's: on the real
    # qubit eigenvectors of both gauges' qubit nodes, and on columns whose
    # largest-magnitude entry is negative or tied (a tie goes to the first
    # entry, as np.argmax breaks it)
    basis = PlaneWaveBasis.for_qubit()
    for lc in (20.0, 350.0):
        for phix in (0.494, 0.5, 0.503):
            p = circuit_parts(lc, phix)
            for circuit in (p.flux, p.charge):
                h = qubit_hamiltonian(*circuit.qubit_node, phix, basis)
                vectors = np.linalg.eigh(h)[1]
                assert (_fix_phases(vectors).tobytes()
                        == fix_phases_loop(vectors).tobytes())
    columns = np.array([
        [0.3, -0.9, 0.2],    # negative peak
        [0.6, -0.7, 0.3],    # negative peak, no tie
        [0.5, -0.5, 0.5],    # peaks tied in magnitude, the first positive
        [-0.5, 0.5, 0.1],    # tied, the first one negative
    ]).T
    rng = np.random.default_rng(7)
    noise = rng.standard_normal((9, 5)) * 10.0 ** rng.uniform(-6, 6)
    for vectors in (columns, noise):
        fixed = _fix_phases(vectors)
        assert fixed.tobytes() == fix_phases_loop(vectors).tobytes()
    fixed = _fix_phases(columns)
    assert fixed[1, 0] == 0.9 and fixed[1, 1] == 0.7
    assert fixed[0, 2] == 0.5 and fixed[1, 2] == -0.5
    assert fixed[0, 3] == 0.5 and fixed[1, 3] == -0.5


def test_charge_wavefunction_normalized():
    p = circuit_parts(20.0)
    spec = diagonalize_flux_qubit(*p.flux.qubit_node, 0.5,
                                  PlaneWaveBasis.for_qubit())
    grid = charge_grid(spec.basis)
    dn = 2.0 * spec.basis.n_max / len(grid)
    for i in range(3):
        psi = n_representation(spec, i)
        assert np.sum(np.abs(psi) ** 2) * dn == pytest.approx(1.0, rel=1e-10)
