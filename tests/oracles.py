"""Independent reference solutions used to cross-check the library solvers.

The finite-difference oracle discretizes the single-node Hamiltonian
4 EC n^2 + V(phi) on a uniform phase grid with Dirichlet walls and solves
the tridiagonal eigenproblem directly.  It shares no code with the
plane-wave solver, so agreement between the two is a real check.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal


def finite_difference_qubit_levels(ecj, ej, elfq, phix, span=8.0,
                                   n_grid=6001, k=8):
    """Lowest k levels (GHz) of the flux-qubit node on a Dirichlet grid."""
    phi = np.linspace(-span, span, n_grid)
    step = phi[1] - phi[0]
    kin = 4.0 * ecj / step**2
    potential = -ej * np.cos(phi - 2.0 * math.pi * phix) + 0.5 * elfq * phi**2
    diag = np.full(n_grid, 2.0 * kin) + potential
    off = np.full(n_grid - 1, -kin)
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))[0]
    return vals


def harmonic_levels(ec, el, k=10):
    """Exact levels (GHz) of 4 EC n^2 + EL phi^2 / 2."""
    nu = math.sqrt(8.0 * ec * el)
    return nu * (np.arange(k) + 0.5)


def hyperbola_levels(omega_os, delta_q, ip_na, phix, eps_per_phix):
    """Two-level doublet omega_os -+ sqrt(eps^2 + Delta_q^2) / 2 in GHz.

    eps_per_phix converts a bias offset in Phi0 units to GHz.
    """
    eps = eps_per_phix * (np.asarray(phix) - 0.5)
    split = np.sqrt(eps**2 + delta_q**2)
    return omega_os - 0.5 * split, omega_os + 0.5 * split


def origin_r_squared(x, y):
    """R^2 of the best through-origin line y = a x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope = float(x @ y) / float(x @ x)
    ss_res = float(np.sum((y - slope * x) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot, slope


def charge_grid(basis, grid_points=None):
    """Periodic charge samples n_j on [-n_max, n_max), right end excluded.

    grid_points defaults to 4 n_waves.
    """
    if grid_points is None:
        grid_points = 4 * basis.n_waves
    step = 2.0 * basis.n_max / grid_points
    return -basis.n_max + step * np.arange(grid_points)


def kernel_via_dft(basis, power, grid_points=None):
    """Kernel matrix built from sampled n^power by discrete Fourier transform.

    Reference for the closed-form plane-wave kernels; it carries the
    aliasing error of the finite sampling, which shrinks as grid_points
    grows.
    """
    n = charge_grid(basis, grid_points)
    step = 2.0 * basis.n_max / len(n)
    idx = basis.wave_indices
    m_values = np.arange(-(basis.n_waves - 1), basis.n_waves)
    dk = m_values * (math.pi / basis.n_max)
    coeffs = (np.exp(-1j * np.outer(dk, n)) @ n.astype(complex) ** power)
    coeffs *= step / (2.0 * basis.n_max)
    lookup = dict(zip(m_values.tolist(), coeffs))
    m = idx[:, None] - idx[None, :]
    out = np.empty(m.shape, dtype=complex)
    for row in range(m.shape[0]):
        for col in range(m.shape[1]):
            out[row, col] = lookup[int(m[row, col])]
    return out


def n_representation(spectrum, index, grid_points=None):
    """Charge-space wavefunction psi(n) of one level on charge_grid.

    Inverse transform of the coefficient vector; unit normalized in the
    sense sum |psi|^2 dn = 1.
    """
    basis = spectrum.basis
    waves = np.exp(1j * np.outer(charge_grid(basis, grid_points),
                                 basis.wave_numbers))
    waves /= math.sqrt(2.0 * basis.n_max)
    return waves @ spectrum.coefficients[index]


def complex_eigenbasis_hamiltonian(gauge, raw, eff, scales, n_qubit, n_fock,
                                   n_table):
    """Eigenbasis-product Hamiltonian assembled in complex arithmetic.

    The coupling enters as written in the physics, (a + a') (x) <j|phase|i>
    in the flux gauge and -1j (a - a') (x) <j|n|i> in the charge gauge,
    with the complex element tables of the lowest n_table qubit levels and
    no claim about which part of them vanishes.  Reference for the real
    assembly in fluxrabi.coupled.build_coupled_eigenbasis, whose tables
    cover the lowest 2 n_qubit levels of its first truncation.
    """
    from fluxrabi.circuit import charge_gauge_frequency_ghz, y_delta
    from fluxrabi.coupled import (charge_coupling_ghz, flux_coupling_ghz,
                                  ladder_difference, ladder_sum,
                                  qubit_node_energies)
    from fluxrabi.planewave import PlaneWaveBasis, diagonalize_flux_qubit
    from fluxrabi.qubit import number_matrix, phase_matrix

    ecj, ej, elfq = qubit_node_energies(gauge, raw, eff, scales)
    spectrum = diagonalize_flux_qubit(ecj, ej, elfq, raw.phix,
                                      PlaneWaveBasis.for_qubit())
    if gauge == "flux":
        omega = scales.omega
        coupling = flux_coupling_ghz(raw, eff, scales)
        elems, osc = phase_matrix(spectrum, n_table), ladder_sum(n_fock)
    else:
        omega = charge_gauge_frequency_ghz(raw, y_delta(raw), eff)
        coupling = charge_coupling_ghz(raw, eff)
        elems, osc = number_matrix(spectrum, n_table), ladder_difference(n_fock)
    h = np.kron(np.diag(omega * (np.arange(n_fock) + 0.5)), np.eye(n_qubit))
    h = h + np.kron(np.eye(n_fock), np.diag(spectrum.energies[:n_qubit]))
    return h + coupling * np.kron(osc, elems[:n_qubit, :n_qubit])
