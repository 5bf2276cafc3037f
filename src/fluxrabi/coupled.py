"""Product-basis diagonalization of the coupled two-node circuit.

Two constructions of the same spectrum:

* eigenbasis product: analytic oscillator Fock states times numerically
  computed qubit eigenstates, with the coupling expressed through ladder
  and qubit matrix elements.  Truncation set by (n_fock, n_qubit).  The
  levels call (coupled_levels) solves only the lowest N_COUPLED_LEVELS
  levels from the upper band of the product matrix; the states call
  (build_coupled_eigenbasis) copies that band into the upper triangle of a
  dense matrix and solves it for only the lowest n_states levels and
  eigenvectors.  _band is the one writer of the product matrix: the bare
  energies and the blocks c X[m, m + 1] K, with no Kronecker product.
* plane-wave product: the direct tensor product of the two plane-wave
  bases, where both flux operators are diagonal (flux gauge) or both
  charge operators are kernel matrices (charge gauge).  Free of eigenbasis
  truncation; used as a cross-check, matrix-free, lowest levels only.

Both builds take (gauge, raw) and read the node parameters, zero-point
scales and coupling strengths of the gauge from circuit.gauge_circuit; the
gauge only chooses operators here.  In the eigenbasis the coupling
factorizes as c X (x) K; circuit_coupling builds that ProductCoupling once
per bias point, and the eigenbasis builds, the perturbation sums and the
observables all read slices of it.  truncation_check compares two levels
calls, the second at both truncations doubled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import RawCircuit, gauge_circuit
from .constants import (CONSTANTS, N_COUPLED_LEVELS, annihilation,
                        truncation_shift)
from .planewave import (
    EigensolveError,
    PlaneWaveBasis,
    check_hermitian,
    diagonalize_flux_qubit,
    linear_kernel,
    oscillator_hamiltonian,
    qubit_hamiltonian,
)
from .qubit import number_matrix, phase_matrix

# Largest product dimension the states call, the one dense solve, will
# assemble.
DENSE_DIM_LIMIT = 4096

# Qubit levels the fixed plane-wave qubit basis resolves, one per wave.
QUBIT_LEVEL_LIMIT = PlaneWaveBasis.for_qubit().n_waves

# Fock states and qubit levels the second-order perturbation sums run over;
# the coupling of every eigenbasis build covers at least this slice.
N_PERT_FOCK = 12
N_PERT_LEVELS = 6


@dataclass(frozen=True)
class ProductCoupling:
    """Factorized coupling c X (x) K of one gauge, with the bare energies.

    X is the real oscillator quadrature on Fock states (a + a' in the flux
    gauge, a - a' in the charge gauge) and K the real qubit element table
    (<j|phase|i>, or the imaginary part B of <j|n|i> = 1j B, so that
    -1j (a - a') (x) 1j B = (a - a') (x) B).  omega is the bare oscillator
    frequency of the gauge; qubit_phase is <j|phase|i>, read by
    observables().
    """

    strength: float
    osc_elements: np.ndarray
    qubit_elements: np.ndarray
    omega: float
    qubit_energies: np.ndarray
    qubit_phase: np.ndarray

    def __post_init__(self) -> None:
        if self.osc_elements.shape[0] != self.osc_elements.shape[1]:
            raise ValueError("oscillator elements must be square")
        n_levels = len(self.qubit_energies)
        if (self.qubit_elements.shape != (n_levels, n_levels)
                or self.qubit_phase.shape != (n_levels, n_levels)):
            raise ValueError("qubit tables do not match the qubit energies")

    @property
    def osc_energies(self) -> np.ndarray:
        return self.omega * (np.arange(len(self.osc_elements)) + 0.5)

    def truncated(self, n_fock: int, n_levels: int) -> "ProductCoupling":
        """The coupling on the lowest n_fock Fock states and n_levels qubit
        levels (at most the tabulated ones)."""
        return replace(self, osc_elements=self.osc_elements[:n_fock, :n_fock],
                       qubit_elements=self.qubit_elements[:n_levels, :n_levels],
                       qubit_energies=self.qubit_energies[:n_levels],
                       qubit_phase=self.qubit_phase[:n_levels, :n_levels])


@dataclass(frozen=True)
class CoupledSpectrum:
    """Eigensolution of the eigenbasis-product build in one gauge.

    energies in GHz, ascending: the lowest n_states levels from the states
    call, the lowest N_COUPLED_LEVELS from the levels call.  vectors holds
    the matching real eigencolumns, shape (dimension, n_states), or None
    from the levels call.  coupling is the product coupling the build
    assembled from, tabulated at dims and at least N_PERT_FOCK x
    N_PERT_LEVELS.
    """

    energies: np.ndarray
    vectors: np.ndarray | None
    gauge: str
    dims: tuple[int, int]
    coupling: ProductCoupling


@dataclass(frozen=True)
class Observables:
    """Expectation values in one eigenstate.

    Fluxes are reported as 2 pi <Phi> / Phi0; currents in nA follow from
    inverting the inductance matrix of the two loops, using the physical
    (gauge-transformed) flux in the charge gauge.
    """

    photon_number: float
    flux_1: float
    flux_2: float
    current_1: float
    current_2: float


def ladder_sum(n_fock: int) -> np.ndarray:
    """Matrix of a + a' (dimensionless Phi-type quadrature)."""
    ladder = annihilation(n_fock)
    return ladder + ladder.T


def _checked_part(elems: np.ndarray, part: str) -> np.ndarray:
    """The real or imaginary part of a qubit element table, as float64.

    The plane-wave phase convention makes phase elements real and number
    elements purely imaginary; the other part must vanish to 1e-12 of the
    elements' scale, so dropping it leaves the real Hamiltonian equal to
    the complex one.
    """
    kept, dropped = ((elems.real, elems.imag) if part == "real"
                     else (elems.imag, elems.real))
    scale = max(float(np.abs(elems).max()), 1e-30)
    if np.abs(dropped).max() > 1e-12 * scale:
        raise EigensolveError(f"qubit element table is not purely {part}")
    return kept


def circuit_coupling(gauge: str, raw: RawCircuit, n_fock: int = N_PERT_FOCK,
                     n_levels: int = N_PERT_LEVELS) -> ProductCoupling:
    """The physical product coupling of one gauge, in GHz units.

    Solves the qubit node of gauge_circuit(gauge, raw) and tabulates n_fock
    Fock states and n_levels qubit levels, at most QUBIT_LEVEL_LIMIT.
    """
    circuit = gauge_circuit(gauge, raw)
    if n_levels > QUBIT_LEVEL_LIMIT:
        raise EigensolveError(
            f"{n_levels} qubit levels requested; the qubit basis resolves "
            f"{QUBIT_LEVEL_LIMIT}")
    qubit_spectrum = diagonalize_flux_qubit(*circuit.qubit_node, raw.phix,
                                            PlaneWaveBasis.for_qubit())
    phase = _checked_part(phase_matrix(qubit_spectrum, n_levels), "real")
    ladder = annihilation(n_fock)
    if gauge == "flux":
        osc, qub = ladder + ladder.T, phase
    else:
        osc = ladder - ladder.T
        qub = _checked_part(number_matrix(qubit_spectrum, n_levels), "imaginary")
    return ProductCoupling(
        strength=circuit.strength, osc_elements=osc, qubit_elements=qub,
        omega=circuit.omega, qubit_energies=qubit_spectrum.energies[:n_levels],
        qubit_phase=phase)


def _checked_slice(coupling: ProductCoupling, n_fock: int,
                   n_qubit: int) -> ProductCoupling:
    """coupling.truncated(n_fock, n_qubit), once c X (x) K is checked
    symmetric.

    The band holds only the blocks c X[m, m + 1] K, so X must vanish
    outside its first off-diagonals, and K must share the symmetry of X
    (symmetric with a + a', antisymmetric with a - a') to 1e-12 of its
    scale, judged on the tabulated table before it is sliced, for the
    blocks below the diagonal to be their transposes.
    """
    osc, qub = coupling.osc_elements, coupling.qubit_elements
    neighbours = np.diag(np.diag(osc, 1), 1) + np.diag(np.diag(osc, -1), -1)
    if not np.array_equal(osc, neighbours):
        raise EigensolveError(
            "oscillator quadrature has entries outside its first "
            "off-diagonals")
    parity = 1.0 if np.array_equal(osc, osc.T) else -1.0
    scale = max(float(np.abs(qub).max()), 1e-30)
    if np.abs(qub - parity * qub.T).max() > 1e-12 * scale:
        raise EigensolveError(
            "qubit element table does not share the symmetry of the "
            "oscillator quadrature")
    return coupling.truncated(n_fock, n_qubit)


def _band(coupling: ProductCoupling, n_fock: int, n_qubit: int) -> np.ndarray:
    """The product Hamiltonian at (n_fock, n_qubit), oscillator-major, as
    its upper band in LAPACK upper band storage.

    The one writer of the eigenbasis-product matrix.  Row kd - d holds
    diagonal d, with kd = 2 n_qubit - 1: the bare energies on the diagonal
    and above it only the blocks c X[m, m+1] K, because X = a +- a' couples
    only neighbouring Fock states; the blocks c X[m+1, m] K below follow
    from the symmetry _checked_slice enforces.
    """
    sliced = _checked_slice(coupling, n_fock, n_qubit)
    kd = 2 * n_qubit - 1
    band = np.zeros((kd + 1, n_fock * n_qubit))
    band[kd] = np.add.outer(sliced.osc_energies, sliced.qubit_energies).ravel()
    a, b = np.indices((n_qubit, n_qubit))
    cols = n_qubit * np.arange(1, n_fock)[:, None, None] + b
    band[n_qubit - 1 + a - b, cols] = (
        np.multiply.outer(np.diag(sliced.osc_elements, 1),
                          sliced.qubit_elements) * sliced.strength)
    return band


def _dense_upper(band: np.ndarray) -> np.ndarray:
    """The dense matrix whose upper triangle is band (LAPACK upper band
    storage) and whose strict lower triangle is zero.

    Each entry is added to a zero, as the Kronecker form adds its coupling
    term, so the upper triangle is that form's bit for bit, signed zeros
    included.
    """
    kd = band.shape[0] - 1
    rows, cols = np.indices(band.shape)
    keep = rows + cols >= kd  # band[r, j] holds h[j - kd + r, j]
    h = np.zeros((band.shape[1], band.shape[1]))
    h[(rows + cols - kd)[keep], cols[keep]] += band[keep]
    return h


def _coupling_for(gauge: str, raw: RawCircuit, n_qubit: int,
                  n_fock: int) -> ProductCoupling:
    """circuit_coupling at (n_fock, n_qubit), and at least N_PERT_FOCK x
    N_PERT_LEVELS."""
    return circuit_coupling(gauge, raw, max(n_fock, N_PERT_FOCK),
                            max(n_qubit, N_PERT_LEVELS))


def coupled_levels(gauge: str, raw: RawCircuit, n_qubit: int,
                   n_fock: int) -> CoupledSpectrum:
    """The lowest N_COUPLED_LEVELS levels of the eigenbasis-product build.

    The levels call: the same coupling as build_coupled_eigenbasis, with
    the upper band of the product matrix handed to LAPACK's banded solver
    (scipy.linalg.eigvals_banded, lowest levels by index).  No dense
    matrix is formed, so DENSE_DIM_LIMIT does not apply; more qubit levels
    than the qubit basis resolves are still refused.  vectors is None.
    """
    import scipy.linalg

    coupling = _coupling_for(gauge, raw, n_qubit, n_fock)
    band = _band(coupling, n_fock, n_qubit)
    count = min(N_COUPLED_LEVELS, band.shape[1])
    try:
        energies = scipy.linalg.eigvals_banded(band, select="i",
                                               select_range=(0, count - 1))
    except np.linalg.LinAlgError as err:
        raise EigensolveError(f"banded coupled eigensolve failed: {err}") from err
    return CoupledSpectrum(energies=energies, vectors=None, gauge=gauge,
                           dims=(n_fock, n_qubit), coupling=coupling)


def build_coupled_eigenbasis(gauge: str, raw: RawCircuit, n_qubit: int,
                             n_fock: int, n_states: int) -> CoupledSpectrum:
    """The lowest n_states levels and eigenvectors in the Fock (x)
    qubit-eigenstate product basis.

    The states call: one circuit_coupling, tabulated at (n_fock, n_qubit)
    and at least N_PERT_FOCK x N_PERT_LEVELS, gives the band of the levels
    call; copied into the upper triangle of a dense matrix, it goes to
    LAPACK's subset solver (scipy.linalg.eigh on the upper triangle, lowest
    n_states by index), which computes only the eigenpairs it returns;
    n_states outside 1 .. n_qubit n_fock raises its ValueError.  A product
    dimension above DENSE_DIM_LIMIT, or more qubit levels than the qubit
    basis resolves, is refused before anything is assembled.
    """
    import scipy.linalg

    if n_qubit * n_fock > DENSE_DIM_LIMIT:
        raise EigensolveError(
            f"product dimension {n_qubit * n_fock} exceeds DENSE_DIM_LIMIT = "
            f"{DENSE_DIM_LIMIT}")
    coupling = _coupling_for(gauge, raw, n_qubit, n_fock)
    h = _dense_upper(_band(coupling, n_fock, n_qubit))
    try:
        energies, vectors = scipy.linalg.eigh(
            h, lower=False, subset_by_index=[0, n_states - 1])
    except np.linalg.LinAlgError as err:
        raise EigensolveError(f"coupled eigensolve failed: {err}") from err
    return CoupledSpectrum(energies=energies, vectors=vectors, gauge=gauge,
                           dims=(n_fock, n_qubit), coupling=coupling)


def truncation_check(gauge: str, raw: RawCircuit, n_qubit: int,
                     n_fock: int) -> tuple[float, bool]:
    """(shift, converged) of the lowest N_COUPLED_LEVELS levels at
    (n_qubit, n_fock) against (2 n_qubit, 2 n_fock), as
    constants.truncation_shift; both are levels calls.
    """
    spec = coupled_levels(gauge, raw, n_qubit, n_fock)
    doubled = coupled_levels(gauge, raw, 2 * n_qubit, 2 * n_fock)
    return truncation_shift(spec.energies, doubled.energies)


def build_coupled_planewave(gauge: str, raw: RawCircuit) -> np.ndarray:
    """Lowest N_COUPLED_LEVELS levels on a product of plane-wave bases.

    Matrix-free on 64 oscillator times 32 qubit waves: ARPACK's Lanczos
    solver (scipy.sparse.linalg.eigsh, smallest algebraic, tol 1e-13, from
    a seeded start vector so the bytes repeat) applies the Hamiltonian to
    a state X, held as a 64 x 32 array, as

        H_osc X + X H_qub' - c (k1 k2') o X      (flux gauge)
        H_osc X + X H_qub' + c A1 X A2'         (charge gauge)

    with k1, k2 the diagonal flux operators and 1j A1, 1j A2 the
    imaginary charge kernels, so that -c (1j A1) (x) (1j A2) = c A1 (x) A2
    and the operator is real symmetric.  Each node Hamiltonian is checked
    Hermitian and each A antisymmetric; a solve that does not converge
    raises EigensolveError.  Returns the levels ascending.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    circuit = gauge_circuit(gauge, raw)
    basis_osc = PlaneWaveBasis.for_oscillator(circuit.EC, circuit.EL)
    basis_qubit = PlaneWaveBasis.for_qubit()
    h_osc = oscillator_hamiltonian(circuit.EC, circuit.EL, basis_osc)
    h_qub = qubit_hamiltonian(*circuit.qubit_node, raw.phix, basis_qubit)
    check_hermitian(h_osc, "oscillator Hamiltonian")
    check_hermitian(h_qub, "qubit Hamiltonian")
    c = circuit.node_coupling
    dims = (basis_osc.n_waves, basis_qubit.n_waves)
    if gauge == "flux":
        k12 = np.outer(basis_osc.wave_numbers, basis_qubit.wave_numbers)

        def coupling(x):
            return -c * (k12 * x)
    else:
        a1 = linear_kernel(basis_osc).imag
        a2 = linear_kernel(basis_qubit).imag
        # 1j A is Hermitian exactly when the real A is antisymmetric
        check_hermitian(1j * a1, "oscillator charge kernel")
        check_hermitian(1j * a2, "qubit charge kernel")

        def coupling(x):
            return c * (a1 @ x @ a2.T)

    def matvec(v):
        x = v.reshape(dims)
        return (h_osc @ x + x @ h_qub.T + coupling(x)).ravel()

    dim = dims[0] * dims[1]
    start = np.random.default_rng(0).standard_normal(dim)
    try:
        levels = eigsh(LinearOperator((dim, dim), matvec=matvec, dtype=float),
                       k=N_COUPLED_LEVELS, which="SA", tol=1e-13, v0=start,
                       return_eigenvectors=False)
    except ArpackError as err:
        raise EigensolveError(f"plane-wave product eigensolve failed: {err}") from err
    return np.sort(levels)


def observables(spec: CoupledSpectrum, raw: RawCircuit,
                state_index: int) -> Observables:
    """Photon number, flux expectations, and loop currents of one eigenstate.

    state_index counts from the ground state and must be below the number
    of states the spectrum holds; a spectrum from the levels call carries
    no eigenvectors and is rejected.
    """
    if spec.vectors is None:
        raise ValueError("observables needs a spectrum built with vectors")
    if not 0 <= state_index < spec.vectors.shape[1]:
        raise ValueError(
            f"state_index {state_index} is outside the "
            f"{spec.vectors.shape[1]} states of the spectrum")
    circuit = gauge_circuit(spec.gauge, raw)
    n_fock, n_qubit = spec.dims
    qubit_phase = spec.coupling.qubit_phase[:n_qubit, :n_qubit]
    psi = spec.vectors[:, state_index].reshape(n_fock, n_qubit)
    weights = np.sum(np.abs(psi) ** 2, axis=1)
    photon = float(weights @ np.arange(n_fock))
    # Phi1 is proportional to a + a' in both gauges (the zero-point
    # amplitude differs through the gauge's own omega).
    quad = ladder_sum(n_fock)
    phi1 = float(np.einsum("mi,mn,ni->", psi, quad, psi))
    phi1 *= circuit.phi1_zpf
    phi2 = float(np.einsum("mi,ij,mj->", psi, qubit_phase, psi))
    phi1_physical = phi1
    if spec.gauge == "charge" and circuit.coupled:
        phi1_physical = phi1 + (circuit.L_LC / circuit.L12) * phi2
    flux_quantum = CONSTANTS.Phi0 / (2.0 * math.pi)
    l_matrix = np.array([[raw.Lc + raw.L1, raw.Lc], [raw.Lc, raw.Lc + raw.L2]])
    flux_wb = np.array([phi1_physical, phi2]) * flux_quantum
    currents = np.linalg.solve(l_matrix, flux_wb) * 1e21
    return Observables(photon_number=photon, flux_1=phi1, flux_2=phi2,
                       current_1=float(currents[0]), current_2=float(currents[1]))
