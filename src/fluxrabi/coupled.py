"""Product-basis diagonalization of the coupled two-node circuit.

Two constructions of the same spectrum:

* eigenbasis product: analytic oscillator Fock states times numerically
  computed qubit eigenstates, with the coupling expressed through ladder
  and qubit matrix elements.  Cheap; truncation set by (n_fock, n_qubit).
* plane-wave product: the direct tensor product of the two plane-wave
  bases, where both flux operators are diagonal (flux gauge) or both
  charge operators are kernel matrices (charge gauge).  Expensive but free
  of eigenbasis truncation; used as a cross-check, levels only.

Both builds take (gauge, raw) and read the node parameters, zero-point
scales and coupling strengths of the gauge from circuit.gauge_circuit; the
gauge only chooses operators here.  In the eigenbasis the coupling
factorizes as c X (x) K; circuit_coupling builds that ProductCoupling once
per bias point, and the eigenbasis build, the perturbation sums and the
observables all read slices of it.  truncation_check compares a build with
a levels-only build at both truncations doubled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import RawCircuit, gauge_circuit
from .constants import CONSTANTS, annihilation, truncation_shift
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

# Largest dense product dimension the eigenbasis build will diagonalize.
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

    energies in GHz (full set of the product dimension, ascending); vectors
    holds the matching real eigencolumns, or None for a levels-only build.
    coupling is the product coupling the build assembled from, tabulated
    at dims and at least N_PERT_FOCK x N_PERT_LEVELS.
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


def _assemble(coupling: ProductCoupling) -> np.ndarray:
    """Real symmetric product Hamiltonian, oscillator-major."""
    nf, nq = len(coupling.osc_elements), len(coupling.qubit_energies)
    h = np.kron(np.diag(coupling.osc_energies), np.eye(nq))
    h += np.kron(np.eye(nf), np.diag(coupling.qubit_energies))
    term = np.kron(coupling.osc_elements, coupling.qubit_elements)
    term *= coupling.strength
    h += term
    check_hermitian(h, "assembled coupled Hamiltonian")
    return h


def build_coupled_eigenbasis(gauge: str, raw: RawCircuit, n_qubit: int,
                             n_fock: int, vectors: bool = True) -> CoupledSpectrum:
    """Diagonalize in the Fock (x) qubit-eigenstate product basis.

    One circuit_coupling, tabulated at (n_fock, n_qubit) and at least
    N_PERT_FOCK x N_PERT_LEVELS, feeds one solve of the real symmetric
    product Hamiltonian: eigh, or eigvalsh for levels only.  A product
    dimension above DENSE_DIM_LIMIT, or more qubit levels than the qubit
    basis resolves, is refused before anything is assembled.
    """
    if n_qubit * n_fock > DENSE_DIM_LIMIT:
        raise EigensolveError(
            f"product dimension {n_qubit * n_fock} exceeds DENSE_DIM_LIMIT = "
            f"{DENSE_DIM_LIMIT}")
    coupling = circuit_coupling(gauge, raw, max(n_fock, N_PERT_FOCK),
                                max(n_qubit, N_PERT_LEVELS))
    h = _assemble(coupling.truncated(n_fock, n_qubit))
    energies, eigvecs = (np.linalg.eigh(h) if vectors
                         else (np.linalg.eigvalsh(h), None))
    return CoupledSpectrum(energies=energies, vectors=eigvecs, gauge=gauge,
                           dims=(n_fock, n_qubit), coupling=coupling)


def truncation_check(gauge: str, raw: RawCircuit, n_qubit: int,
                     n_fock: int) -> tuple[float, bool]:
    """(shift, converged) of the lowest N_COUPLED_LEVELS levels of the
    eigenbasis build at (n_qubit, n_fock) against a levels-only build at
    (2 n_qubit, 2 n_fock), as constants.truncation_shift; both pass the
    build's guards.
    """
    spec = build_coupled_eigenbasis(gauge, raw, n_qubit, n_fock)
    doubled = build_coupled_eigenbasis(gauge, raw, 2 * n_qubit, 2 * n_fock,
                                       vectors=False)
    return truncation_shift(spec.energies, doubled.energies)


def build_coupled_planewave(gauge: str, raw: RawCircuit) -> np.ndarray:
    """Diagonalize the coupled Hamiltonian on a product of plane-wave bases.

    Dense, on 64 oscillator times 32 qubit waves (dimension 2048).  The
    matrix is real symmetric in both gauges: the flux-gauge coupling is
    diagonal and the charge-gauge coupling is a product of two imaginary
    antisymmetric kernels.  Returns the ascending levels only.
    """
    circuit = gauge_circuit(gauge, raw)
    basis_osc = PlaneWaveBasis.for_oscillator(circuit.EC, circuit.EL)
    basis_qubit = PlaneWaveBasis.for_qubit()
    h_osc = oscillator_hamiltonian(circuit.EC, circuit.EL, basis_osc)
    h_qub = qubit_hamiltonian(*circuit.qubit_node, raw.phix, basis_qubit)
    dims = (basis_osc.n_waves, basis_qubit.n_waves)
    h = np.kron(h_osc, np.eye(dims[1]))
    h += np.kron(np.eye(dims[0]), h_qub)
    if circuit.coupled:
        if gauge == "flux":
            term = np.kron(np.diag(basis_osc.wave_numbers),
                           np.diag(basis_qubit.wave_numbers))
            term *= circuit.node_coupling
            h -= term
        else:
            a1 = linear_kernel(basis_osc).imag
            a2 = linear_kernel(basis_qubit).imag
            # -(coef) (1j a1) (x) (1j a2) = +coef a1 (x) a2
            term = np.kron(a1, a2)
            term *= circuit.node_coupling
            h += term
        del term  # freed before eigvalsh copies h
    check_hermitian(h, "assembled coupled Hamiltonian")
    return np.linalg.eigvalsh(h)


def observables(spec: CoupledSpectrum, raw: RawCircuit,
                state_index: int) -> Observables:
    """Photon number, flux expectations, and loop currents of one eigenstate.

    A levels-only spectrum carries no eigenvectors and is rejected.
    """
    if spec.vectors is None:
        raise ValueError("observables needs a spectrum built with vectors")
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
