"""Product-basis diagonalization of the coupled two-node circuit.

Two constructions of the same spectrum:

* eigenbasis product: analytic oscillator Fock states times numerically
  computed qubit eigenstates, with the coupling expressed through ladder
  and qubit matrix elements.  Cheap; truncation set by (n_fock, n_qubit).
* plane-wave product: the direct tensor product of the two plane-wave
  bases, where both flux operators are diagonal (flux gauge) or both
  charge operators are kernel matrices (charge gauge).  Expensive but free
  of eigenbasis truncation; used as a cross-check.

In the flux gauge the coupling is -Phi1 Phi2 / L12; in the charge gauge it
is -(L_LC / (CJ L12)) q1 q2 and the oscillator and qubit nodes carry the
transformed parameters (C', frequency omega', qubit inductance Lc + L2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    EffectiveInductances,
    EnergyScales,
    RawCircuit,
    charge_gauge_capacitance_pf,
    charge_gauge_frequency_ghz,
    y_delta,
)
from .constants import (
    CONSTANTS,
    FF,
    GHZ,
    NA,
    PF,
    PH,
    annihilation,
    charging_energy_ghz,
    current_flux_to_ghz,
    inductive_energy_ghz,
    truncation_shift,
)
from .planewave import (
    EigensolveError,
    PlaneWaveBasis,
    diagonalize_flux_qubit,
    linear_kernel,
    oscillator_hamiltonian,
    qubit_hamiltonian,
)
from .qubit import number_matrix, phase_matrix

GAUGES = ("flux", "charge")

# Canonical eigenbasis truncations.
N_QUBIT_DEFAULT = 6
N_FOCK_DEFAULT = 40

# Largest dense product dimension the eigenbasis build will diagonalize.
DENSE_DIM_LIMIT = 4096


@dataclass(frozen=True)
class _EigenContext:
    """Operator data needed to evaluate observables in the eigenbasis build."""

    qubit_phase: np.ndarray
    phi1_per_ladder: float


@dataclass(frozen=True)
class CoupledSpectrum:
    """Eigensolution of the coupled circuit in one gauge.

    energies in GHz (full set of the product dimension, ascending); vectors
    holds the matching real eigencolumns, or None where the build solves
    for levels only (plane-wave product).  omega is the bare oscillator
    frequency of this gauge, used for photon numbers.  context carries the
    operator data observables() needs; only the eigenbasis build sets it.
    """

    energies: np.ndarray
    vectors: np.ndarray | None
    gauge: str
    provenance: str
    dims: tuple[int, int]
    omega: float
    converged: bool
    truncation_shift: float
    context: _EigenContext | None


@dataclass(frozen=True)
class Observables:
    """Expectation values in one eigenstate.

    Fluxes are reported as 2 pi <Phi> / Phi0; currents in nA follow from
    inverting the inductance matrix of the two loops, using the physical
    (gauge-transformed) flux in the charge gauge.
    """

    state_index: int
    photon_number: float
    flux_1: float
    flux_2: float
    current_1: float
    current_2: float
    gauge: str


def ladder_sum(n_fock: int) -> np.ndarray:
    """Matrix of a + a' (dimensionless Phi-type quadrature)."""
    ladder = annihilation(n_fock)
    return ladder + ladder.T


def _ladder_antisymmetric(n_fock: int) -> np.ndarray:
    """Matrix of a - a' (real)."""
    ladder = annihilation(n_fock)
    return ladder - ladder.T


def ladder_difference(n_fock: int) -> np.ndarray:
    """Matrix of -1j (a - a') (dimensionless q-type quadrature)."""
    return -1j * _ladder_antisymmetric(n_fock)


def qubit_node_energies(gauge: str, raw: RawCircuit, eff: EffectiveInductances,
                        scales: EnergyScales) -> tuple[float, float, float]:
    """(ECJ, EJ, ELFQ) of the qubit node in the requested gauge."""
    if gauge == "flux":
        return scales.ECJ, raw.EJ, scales.ELFQ
    return scales.ECJ, raw.EJ, inductive_energy_ghz(eff.L_FQ_charge * PH)


def flux_coupling_ghz(raw: RawCircuit, eff: EffectiveInductances,
                      scales: EnergyScales) -> float:
    """Coefficient of (a + a') (x) phase in -Phi1 Phi2 / L12, in GHz."""
    star = y_delta(raw)
    if not star.is_coupled:
        return 0.0
    return -(eff.L_LC / star.L12) * current_flux_to_ghz(
        scales.Izpf, 1.0 / (2.0 * math.pi))


def charge_coupling_ghz(raw: RawCircuit, eff: EffectiveInductances) -> float:
    """Coefficient of -1j(a - a') (x) number in -(L_LC/(CJ L12)) q1 q2, GHz."""
    star = y_delta(raw)
    if not star.is_coupled:
        return 0.0
    omega_prime = charge_gauge_frequency_ghz(raw, star, eff)
    c_prime = charge_gauge_capacitance_pf(raw, star, eff) * PF
    q1zpf = math.sqrt(CONSTANTS.hbar * (2.0 * math.pi * omega_prime * GHZ) * c_prime / 2.0)
    return -(eff.L_LC * PH) * q1zpf * 2.0 * CONSTANTS.e / (
        (raw.CJ * FF) * (star.L12 * PH) * CONSTANTS.h * GHZ)


def _check_hermitian(h: np.ndarray) -> None:
    """Raise unless max|h - h^H| <= 1e-12 max|h|, 256 rows at a time."""
    scale = asym = 0.0
    for start in range(0, h.shape[0], 256):
        rows = h[start:start + 256]
        scale = max(scale, float(np.abs(rows).max()))
        asym = max(asym, float(np.abs(
            rows - h[:, start:start + 256].conj().T).max()))
    if asym > 1e-12 * max(scale, 1e-30):
        raise EigensolveError("assembled coupled Hamiltonian is not Hermitian")


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


def build_coupled_eigenbasis(gauge: str, raw: RawCircuit, eff: EffectiveInductances,
                             scales: EnergyScales,
                             n_qubit: int = N_QUBIT_DEFAULT,
                             n_fock: int = N_FOCK_DEFAULT,
                             verify: bool = True) -> CoupledSpectrum:
    """Diagonalize in the Fock (x) qubit-eigenstate product basis.

    The qubit node is solved with the node parameters of the gauge (see
    qubit_node_energies).  verify repeats the solve with both truncations
    doubled and records the largest shift of the lowest eight levels.

    The product Hamiltonian is assembled real symmetric in both gauges:
    the flux coupling is (a + a') (x) <j|phase|i>, with a real table, and
    the charge coupling -1j (a - a') (x) <j|n|i>, with a purely imaginary
    table 1j B, equals (a - a') (x) B.
    """
    if gauge not in GAUGES:
        raise ValueError(f"gauge must be one of {GAUGES}")
    if n_qubit * n_fock > DENSE_DIM_LIMIT:
        raise EigensolveError(
            f"product dimension {n_qubit * n_fock} exceeds the dense-solver "
            f"budget {DENSE_DIM_LIMIT}")
    ecj, ej, elfq = qubit_node_energies(gauge, raw, eff, scales)
    qubit_spectrum = diagonalize_flux_qubit(ecj, ej, elfq, raw.phix,
                                            PlaneWaveBasis.for_qubit())
    star = y_delta(raw)
    n_elems = min(2 * n_qubit, qubit_spectrum.basis.n_waves)
    if gauge == "flux":
        omega = scales.omega
        coupling = flux_coupling_ghz(raw, eff, scales)
        qubit_elems = _checked_part(phase_matrix(qubit_spectrum, n_elems), "real")
        phi1_per_ladder = (2.0 * math.pi / CONSTANTS.Phi0) * (eff.L_LC * PH) * (
            scales.Izpf * NA)
        osc_elems = ladder_sum
    else:
        omega = charge_gauge_frequency_ghz(raw, star, eff)
        coupling = charge_coupling_ghz(raw, eff)
        qubit_elems = _checked_part(number_matrix(qubit_spectrum, n_elems),
                                    "imaginary")
        izpf_prime = math.sqrt(CONSTANTS.hbar * (2.0 * math.pi * omega * GHZ)
                               / (2.0 * eff.L_LC * PH))
        phi1_per_ladder = (2.0 * math.pi / CONSTANTS.Phi0) * (eff.L_LC * PH) * izpf_prime
        osc_elems = _ladder_antisymmetric

    qubit_energies = qubit_spectrum.energies

    def assemble(nq: int, nf: int) -> np.ndarray:
        h = np.kron(np.diag(omega * (np.arange(nf) + 0.5)), np.eye(nq))
        h += np.kron(np.eye(nf), np.diag(qubit_energies[:nq]))
        term = np.kron(osc_elems(nf), qubit_elems[:nq, :nq])
        term *= coupling
        h += term
        _check_hermitian(h)
        return h

    energies, vectors = np.linalg.eigh(assemble(n_qubit, n_fock))
    shift, converged = 0.0, True
    if verify:
        nq_big = min(2 * n_qubit, len(qubit_energies), qubit_elems.shape[0])
        shift, converged = truncation_shift(
            energies, np.linalg.eigvalsh(assemble(nq_big, 2 * n_fock)))
    context = _EigenContext(qubit_phase=phase_matrix(qubit_spectrum, n_qubit),
                            phi1_per_ladder=phi1_per_ladder)
    return CoupledSpectrum(energies=energies, vectors=vectors, gauge=gauge,
                           provenance="eigenbasis-product",
                           dims=(n_fock, n_qubit), omega=omega,
                           converged=converged, truncation_shift=shift,
                           context=context)


def build_coupled_planewave(gauge: str, raw: RawCircuit, eff: EffectiveInductances,
                            scales: EnergyScales) -> CoupledSpectrum:
    """Diagonalize the coupled Hamiltonian on a product of plane-wave bases.

    Dense, on 64 oscillator times 32 qubit waves (dimension 2048).  The
    matrix is real symmetric in both gauges: the flux-gauge coupling is
    diagonal and the charge-gauge coupling is a product of two imaginary
    antisymmetric kernels.  It solves for levels only: the result carries
    no eigenvectors, no truncation check and no observables context.
    """
    if gauge not in GAUGES:
        raise ValueError(f"gauge must be one of {GAUGES}")
    star = y_delta(raw)
    ecj, ej, elfq = qubit_node_energies(gauge, raw, eff, scales)
    if gauge == "flux":
        ec_osc = scales.EC
        omega = scales.omega
    else:
        ec_osc = charging_energy_ghz(charge_gauge_capacitance_pf(raw, star, eff) * PF)
        omega = charge_gauge_frequency_ghz(raw, star, eff)
    basis_osc = PlaneWaveBasis.for_oscillator(ec_osc, scales.EL)
    basis_qubit = PlaneWaveBasis.for_qubit()
    h_osc = oscillator_hamiltonian(ec_osc, scales.EL, basis_osc)
    h_qub = qubit_hamiltonian(ecj, ej, elfq, raw.phix, basis_qubit)
    dims = (basis_osc.n_waves, basis_qubit.n_waves)
    h = np.kron(h_osc, np.eye(dims[1]))
    h += np.kron(np.eye(dims[0]), h_qub)
    if star.is_coupled:
        if gauge == "flux":
            el12 = inductive_energy_ghz(star.L12 * PH)
            term = np.kron(np.diag(basis_osc.wave_numbers),
                           np.diag(basis_qubit.wave_numbers))
            term *= el12
            h -= term
        else:
            coef = (eff.L_LC * PH) * (2.0 * CONSTANTS.e) ** 2 / (
                (raw.CJ * FF) * (star.L12 * PH) * CONSTANTS.h * GHZ)
            a1 = linear_kernel(basis_osc).imag
            a2 = linear_kernel(basis_qubit).imag
            # -(coef) (1j a1) (x) (1j a2) = +coef a1 (x) a2
            term = np.kron(a1, a2)
            term *= coef
            h += term
        del term  # freed before eigvalsh copies h
    _check_hermitian(h)
    energies = np.linalg.eigvalsh(h)
    return CoupledSpectrum(energies=energies, vectors=None, gauge=gauge,
                           provenance="planewave-product", dims=dims,
                           omega=omega, converged=True, truncation_shift=0.0,
                           context=None)


def transitions(spec: CoupledSpectrum, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Transition frequencies E_j - E_i in GHz for (i, j) pairs."""
    return np.array([spec.energies[j] - spec.energies[i] for i, j in pairs])


def observables(spec: CoupledSpectrum, raw: RawCircuit, eff: EffectiveInductances,
                scales: EnergyScales, state_index: int) -> Observables:
    """Photon number, flux expectations, and loop currents of one eigenstate.

    Only an eigenbasis-product spectrum carries the operator data this
    needs; any other spectrum is rejected.
    """
    ctx = spec.context
    if not isinstance(ctx, _EigenContext):
        raise ValueError("observables needs an eigenbasis-product spectrum")
    star = y_delta(raw)
    n_fock, n_qubit = spec.dims
    psi = spec.vectors[:, state_index].reshape(n_fock, n_qubit)
    weights = np.sum(np.abs(psi) ** 2, axis=1)
    photon = float(weights @ np.arange(n_fock))
    # Phi1 is proportional to a + a' in both gauges (the zero-point
    # amplitude differs through the gauge's own omega).
    quad = ladder_sum(n_fock)
    phi1 = float(np.real(np.einsum("mi,mn,ni->", psi.conj(), quad, psi)))
    phi1 *= ctx.phi1_per_ladder
    phi2 = float(np.real(np.einsum("mi,ij,mj->", psi.conj(), ctx.qubit_phase, psi)))
    phi1_physical = phi1
    if spec.gauge == "charge" and star.is_coupled:
        phi1_physical = phi1 + (eff.L_LC / star.L12) * phi2
    flux_quantum = CONSTANTS.Phi0 / (2.0 * math.pi)
    l_matrix = np.array([[raw.Lc + raw.L1, raw.Lc], [raw.Lc, raw.Lc + raw.L2]])
    flux_wb = np.array([phi1_physical, phi2]) * flux_quantum
    currents = np.linalg.solve(l_matrix, flux_wb) * 1e21
    return Observables(state_index=state_index, photon_number=photon,
                       flux_1=phi1, flux_2=phi2,
                       current_1=float(currents[0]), current_2=float(currents[1]),
                       gauge=spec.gauge)
