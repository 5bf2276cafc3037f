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


def annihilation_matrix(n_fock):
    """Matrix of a on Fock states 0 .. n_fock - 1, written here rather than
    read from fluxrabi.constants."""
    return np.diag(np.sqrt(np.arange(1, n_fock)), 1)


def quadrature_matrix(gauge, n_fock):
    """The real oscillator quadrature X of a gauge: a + a' in the flux
    gauge, a - a' in the charge gauge."""
    ladder = annihilation_matrix(n_fock)
    return ladder + ladder.T if gauge == "flux" else ladder - ladder.T


def ladder_difference(n_fock):
    """Matrix of -1j (a - a') (dimensionless q-type quadrature), complex."""
    return -1j * quadrature_matrix("charge", n_fock)


def complex_eigenbasis_hamiltonian(gauge, raw, n_qubit, n_fock, n_table):
    """Eigenbasis-product Hamiltonian assembled in complex arithmetic.

    The coupling enters as written in the physics, (a + a') (x) <j|phase|i>
    in the flux gauge and -1j (a - a') (x) <j|n|i> in the charge gauge,
    with the element tables of the lowest n_table qubit levels lifted to
    their complex forms, Phi + 0j and <j|n|i> = 1j B, and no claim about
    which part of the product vanishes.  Reference for the real
    assembly in fluxrabi.coupled.build_coupled_eigenbasis, whose tables
    cover the lowest max(n_qubit, 6) levels.

    The network reduction and the gauge parameters are written out here
    rather than read from fluxrabi.circuit.gauge_circuit:

    * star values: with N = Lc L1 + Lc L2 + L1 L2, Lg1 = N / L2,
      Lg2 = N / L1 and L12 = N / Lc (inf at Lc = 0, which zeroes c);
      1/L_LC = 1/Lg1 + 1/L12 and 1/L_FQ = 1/Lg2 + 1/L12;
    * flux gauge: omega = 1 / sqrt(L_LC C), qubit inductance L_FQ and
      c = -(L_LC / L12) Izpf Phi0 / (2 pi h), Izpf = sqrt(hbar omega / 2 L_LC);
    * charge gauge: 1/C' = 1/C + L_LC^2 / (CJ L12^2), omega' =
      1 / sqrt(L_LC C'), qubit inductance Lc + L2 and
      c = -(L_LC / (CJ L12)) q1zpf 2e / h, q1zpf = sqrt(hbar omega' C' / 2).

    Each is evaluated in the library's operation order (C' passes through
    pF, as there), so the real part can be compared bit for bit.
    """
    from fluxrabi.constants import (CONSTANTS, FF, GHZ, NA, PF, PH,
                                    charging_energy_ghz, current_flux_to_ghz,
                                    inductive_energy_ghz)
    from fluxrabi.planewave import PlaneWaveBasis, diagonalize_flux_qubit
    from fluxrabi.qubit import number_matrix, phase_matrix

    num = raw.Lc * raw.L1 + raw.Lc * raw.L2 + raw.L1 * raw.L2
    l12 = num / raw.Lc if raw.Lc > 0.0 else math.inf
    l_lc = 1.0 / (1.0 / (num / raw.L2) + 1.0 / l12)
    coupled = raw.Lc > 0.0
    if gauge == "flux":
        omega_rad = 1.0 / math.sqrt((l_lc * PH) * (raw.C * PF))
        omega = omega_rad / (2.0 * math.pi * GHZ)
        izpf_na = math.sqrt(CONSTANTS.hbar * omega_rad / (2.0 * l_lc * PH)) / NA
        coupling = (-(l_lc / l12)
                    * current_flux_to_ghz(izpf_na, 1.0 / (2.0 * math.pi))
                    if coupled else 0.0)
        l_fq = 1.0 / (1.0 / (num / raw.L1) + 1.0 / l12)
        elfq = inductive_energy_ghz(l_fq * PH)
        osc = quadrature_matrix("flux", n_fock)

        def table(spectrum, n):
            return phase_matrix(spectrum, n) + 0j
    else:
        inv_c = 1.0 / (raw.C * PF) + (l_lc / l12) ** 2 / (raw.CJ * FF)
        c_prime = 1.0 / inv_c / PF * PF
        omega = 1.0 / math.sqrt((l_lc * PH) * c_prime) / (2.0 * math.pi * GHZ)
        q1zpf = math.sqrt(CONSTANTS.hbar * (2.0 * math.pi * omega * GHZ)
                          * c_prime / 2.0)
        coupling = (-(l_lc * PH) * q1zpf * 2.0 * CONSTANTS.e
                    / ((raw.CJ * FF) * (l12 * PH) * CONSTANTS.h * GHZ)
                    if coupled else 0.0)
        elfq = inductive_energy_ghz((raw.Lc + raw.L2) * PH)
        osc = ladder_difference(n_fock)

        def table(spectrum, n):
            return 1j * number_matrix(spectrum, n)
    spectrum = diagonalize_flux_qubit(charging_energy_ghz(raw.CJ * FF), raw.EJ,
                                      elfq, raw.phix, PlaneWaveBasis.for_qubit())
    elems = table(spectrum, n_table)
    h = np.kron(np.diag(omega * (np.arange(n_fock) + 0.5)), np.eye(n_qubit))
    h = h + np.kron(np.eye(n_fock), np.diag(spectrum.energies[:n_qubit]))
    return h + coupling * np.kron(osc, elems[:n_qubit, :n_qubit])


def dense_planewave_hamiltonian(gauge, raw):
    """Plane-wave product Hamiltonian assembled densely by Kronecker products.

    64 oscillator times 32 qubit waves (dimension 2048), oscillator-major:
    H_osc (x) 1 + 1 (x) H_qub, minus c diag(k1) (x) diag(k2) in the flux
    gauge, minus c n1 (x) n2 in the charge gauge, with n = 1j A the complex
    charge kernel of each node (so the charge-gauge matrix is complex
    Hermitian).  Reference for the matrix-free operator of
    fluxrabi.coupled.build_coupled_planewave.
    """
    from fluxrabi.circuit import gauge_circuit
    from fluxrabi.planewave import (PlaneWaveBasis, linear_kernel,
                                    oscillator_hamiltonian, qubit_hamiltonian)

    circuit = gauge_circuit(gauge, raw)
    basis_osc = PlaneWaveBasis.for_oscillator(circuit.EC, circuit.EL)
    basis_qubit = PlaneWaveBasis.for_qubit()
    h_osc = oscillator_hamiltonian(circuit.EC, circuit.EL, basis_osc)
    h_qub = qubit_hamiltonian(*circuit.qubit_node, raw.phix, basis_qubit)
    h = np.kron(h_osc, np.eye(basis_qubit.n_waves))
    h += np.kron(np.eye(basis_osc.n_waves), h_qub)
    if gauge == "flux":
        term = np.kron(np.diag(basis_osc.wave_numbers),
                       np.diag(basis_qubit.wave_numbers))
        h -= circuit.node_coupling * term
    else:
        term = np.kron(1j * linear_kernel(basis_osc),
                       1j * linear_kernel(basis_qubit))
        h = h - circuit.node_coupling * term
    return h


def _product_tables(spec):
    """(X, oscillator energies, qubit energies, K, c) of the eigenbasis
    product of a CoupledSpectrum at its dims.

    X is written here from this module's own ladder, a + a' in the flux
    gauge and a - a' in the charge gauge; only the qubit side, the
    oscillator frequency and c are read from spec.coupling.
    """
    n_fock, n_qubit = spec.dims
    coupling = spec.coupling
    return (quadrature_matrix(spec.gauge, n_fock), coupling.omega * (np.arange(n_fock) + 0.5),
            coupling.qubit_energies[:n_qubit],
            coupling.qubit_elements[:n_qubit, :n_qubit], coupling.strength)


def kron_product_hamiltonian(spec):
    """Eigenbasis-product Hamiltonian of a CoupledSpectrum at its dims by
    Kronecker products, oscillator-major, in the operation order

        diag(osc) (x) 1 + 1 (x) diag(qubit) + c X (x) K.

    Reference for the product matrix of fluxrabi.coupled._band: the band
    both eigenbasis calls solve must be this form's upper band bit for bit.
    """
    osc, osc_energies, qubit_energies, qub, strength = _product_tables(spec)
    h = np.kron(np.diag(osc_energies), np.eye(len(qubit_energies)))
    h += np.kron(np.eye(len(osc_energies)), np.diag(qubit_energies))
    term = np.kron(osc, qub)
    term *= strength
    h += term
    return h


def fix_phases_loop(vectors):
    """Column-by-column sign fix: negate each real column whose
    largest-magnitude entry (the first, on a tie) is negative.

    Reference for the vectorized fluxrabi.planewave._fix_phases, which must
    equal it bit for bit.
    """
    out = vectors.copy()
    for col in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, col])))
        if out[i, col] < 0.0:
            out[:, col] = -out[:, col]
    return out


def product_matvec(spec):
    """Eigenbasis-product Hamiltonian of a CoupledSpectrum at its dims as a
    matvec on flat oscillator-major states.

    A state held as an n_fock x n_qubit array x maps to E o x + (X x K') c,
    with E the bare energies, read from the full tables rather than from
    the band.  Reference for the product matrix whose banded Cholesky
    factor fluxrabi.coupled applies at dimensions too large for
    kron_product_hamiltonian.
    """
    osc, osc_energies, qubit_energies, qub, strength = _product_tables(spec)
    bare = np.add.outer(osc_energies, qubit_energies)

    def matvec(v):
        x = v.reshape(bare.shape)
        return (bare * x + (osc @ x @ qub.T) * strength).ravel()

    return matvec


def second_order_terms(coupling, gauge, photon, level):
    """Brute-force second-order terms of |photon, level> under the product
    coupling c X (x) K of a ProductCoupling, X the quadrature of gauge.

    Assembles V = c X (x) K densely over 40 Fock states, oscillator major,
    and visits every off-diagonal element <s|V|t> of the row of
    s = |photon, level> (the row, as K is symmetric only to 1e-12 of its
    scale and the library reads K[level, j]).  A nonzero element whose
    qubit factor K[level, j] exceeds 1e-10 of max |K| (smaller ones are
    rounding noise) gives the term |V_st|^2 / (E_s - E_t), unless
    |E_s - E_t| is below 1e-3 GHz; then t is listed by its (photon, level)
    pair instead.

    Returns (terms, excluded): terms[n, j] the term through |n, j>, zero
    where there is none, and excluded in ascending t.  Reference for
    fluxrabi.perturbation.second_order_table, which visits only
    |photon -+ 1, j>.
    """
    n_fock, n_levels = 40, len(coupling.qubit_energies)
    v = coupling.strength * np.kron(quadrature_matrix(gauge, n_fock),
                                    coupling.qubit_elements)
    bare = np.add.outer(coupling.omega * (np.arange(n_fock) + 0.5),
                        coupling.qubit_energies).ravel()
    s = photon * n_levels + level
    noise = 1e-10 * np.abs(coupling.qubit_elements).max()
    terms = np.zeros(n_fock * n_levels)
    excluded = []
    for t in range(len(bare)):
        qubit_factor = coupling.qubit_elements[level, t % n_levels]
        if t == s or v[s, t] == 0.0 or not abs(qubit_factor) > noise:
            continue
        amp2 = v[s, t] ** 2
        denom = bare[s] - bare[t]
        if abs(denom) < 1e-3:
            excluded.append(divmod(t, n_levels))
        else:
            terms[t] = amp2 / denom
    return terms.reshape(n_fock, n_levels), tuple(excluded)
