"""Product-basis diagonalization of the coupled two-node circuit.

Two constructions of the same spectrum:

* eigenbasis product: analytic oscillator Fock states times numerically
  computed qubit eigenstates, with the coupling expressed through ladder
  and qubit matrix elements.  Truncation set by (n_fock, n_qubit).  One
  call, build_coupled_eigenbasis, solves it, with one result: the lowest
  max(N_COUPLED_LEVELS, n_states) eigenpairs, fewer than the product
  dimension, of the one form of the product matrix: its band, written by
  _band as the bare energies and the blocks c X[m, m + 1] K, with no
  Kronecker product.  The solve is shift-invert Lanczos on the band's
  Cholesky factor (_shift_invert).
* plane-wave product: the direct tensor product of the two plane-wave
  bases, where both flux operators are diagonal (flux gauge) or both
  charge operators are kernel matrices (charge gauge).  Free of eigenbasis
  truncation; used as a cross-check, matrix-free, lowest levels only.

Both builds take (gauge, raw) and read the node parameters, zero-point
scales and coupling strengths of the gauge from circuit.gauge_circuit; the
gauge only chooses operators here.  In the eigenbasis the coupling
factorizes as c X (x) K, with X a real quadrature and K a real qubit table
(the phase table, or B of <j|n|i> = 1j B), taken as qubit.phase_matrix and
qubit.number_matrix return them.  X is a + a' in the flux gauge and a - a'
in the charge gauge: both hold sqrt(m + 1) at (m, m + 1) and nothing else
above the diagonal, so X is never tabulated; every reader writes the
oscillator side from the one ladder, constants.fock_ladder, and the gauge
lives in K alone.
circuit_coupling builds that ProductCoupling once per bias point, and the
eigenbasis builds, the perturbation sums and the observables all read
slices of it.  truncation_check compares two solves, the second at both
truncations doubled, each shared within a run (planewave._shared).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import RawCircuit, gauge_circuit
from .constants import CONSTANTS, N_COUPLED_LEVELS, fock_ladder
from .planewave import (
    EigensolveError,
    PlaneWaveBasis,
    _shared,
    check_hermitian,
    linear_kernel,
    oscillator_hamiltonian,
    qubit_hamiltonian,
)
from .qubit import QUBIT_LEVEL_TAGS, node_spectrum, number_matrix, phase_matrix

# Largest shift (GHz) of the lowest levels on doubling a truncation that
# still counts as converged.
CONVERGENCE_LIMIT_GHZ = 1e-3

# Entries of a qubit element table under this fraction of its largest are
# rounding noise to the perturbation sums: at phix = 0.5 the parity-
# forbidden entries of the 6-level tables reach 2.3e-12 of it and the
# allowed ones are at least 2.5e-2 of it; at phix = 0.5006 the smallest
# flux-gauge entry is 1.7e-5 of it.
TABLE_NOISE = 1e-10


@dataclass(frozen=True)
class ProductCoupling:
    """Factorized coupling c X (x) K of one gauge, with the bare energies.

    Holds only what the gauge varies.  X, the real oscillator quadrature on
    Fock states, is a + a' in the flux gauge and a - a' in the charge gauge;
    it is not stored, since both hold sqrt(m + 1) at (m, m + 1) and nothing
    else above the diagonal.  K is the real qubit element table as
    qubit.phase_matrix or qubit.number_matrix returns it (<j|phase|i>, or B
    with <j|n|i> = 1j B, so that -1j (a - a') (x) 1j B = (a - a') (x) B),
    symmetric with a + a' and antisymmetric with a - a'.  omega is the bare
    oscillator frequency of the gauge; qubit_phase is <j|phase|i>, read by
    observables().
    """

    strength: float
    omega: float
    qubit_energies: np.ndarray
    qubit_elements: np.ndarray
    qubit_phase: np.ndarray

    def __post_init__(self) -> None:
        n_levels = len(self.qubit_energies)
        if (self.qubit_elements.shape != (n_levels, n_levels)
                or self.qubit_phase.shape != (n_levels, n_levels)):
            raise ValueError("qubit tables do not match the qubit energies")

    def truncated(self, n_levels: int) -> "ProductCoupling":
        """The coupling on the lowest n_levels qubit levels (at most the
        tabulated ones)."""
        return replace(self,
                       qubit_elements=self.qubit_elements[:n_levels, :n_levels],
                       qubit_energies=self.qubit_energies[:n_levels],
                       qubit_phase=self.qubit_phase[:n_levels, :n_levels])


@dataclass(frozen=True)
class CoupledSpectrum:
    """Eigensolution of the eigenbasis-product build in one gauge.

    energies in GHz, ascending: the lowest max(N_COUPLED_LEVELS, n_states)
    levels, fewer than the product dimension dim = n_fock n_qubit.  vectors
    holds the matching real eigencolumns, shape (dim, len(energies)), each
    of arbitrary sign.  coupling is the product coupling the build
    assembled from, tabulated at max(n_qubit, len(QUBIT_LEVEL_TAGS))
    qubit levels; the oscillator side of any n_fock comes from the ladder.
    """

    energies: np.ndarray
    vectors: np.ndarray
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


def circuit_coupling(gauge: str, raw: RawCircuit,
                     n_levels: int = len(QUBIT_LEVEL_TAGS)) -> ProductCoupling:
    """The physical product coupling of one gauge, in GHz units.

    Tabulates the lowest n_levels levels of the qubit node of
    gauge_circuit(gauge, raw), as qubit.node_spectrum hands them out.  The
    band holds only the blocks above the diagonal, so K must share the
    symmetry of X (symmetric with a + a', antisymmetric with a - a'),
    judged on the tabulated table by check_hermitian on K or on 1j K, for
    the blocks below the diagonal to be their transposes; else
    EigensolveError.
    """
    circuit = gauge_circuit(gauge, raw)
    qubit_spectrum = node_spectrum(*circuit.qubit_node, raw.phix, n_levels)
    phase = phase_matrix(qubit_spectrum, n_levels)
    if gauge == "flux":
        qub = phase
        check_hermitian(qub, "qubit element table, by the symmetry of a + a',")
    else:
        qub = number_matrix(qubit_spectrum, n_levels)
        check_hermitian(1j * qub,
                        "qubit element table, by the symmetry of a - a',")
    return ProductCoupling(
        strength=circuit.strength, omega=circuit.omega,
        qubit_energies=qubit_spectrum.energies,
        qubit_elements=qub, qubit_phase=phase)


def _band(coupling: ProductCoupling, n_fock: int, n_qubit: int) -> np.ndarray:
    """The product Hamiltonian at (n_fock, n_qubit), oscillator-major, as
    its upper band in LAPACK upper band storage.

    The one writer of the eigenbasis-product matrix.  Row kd - d holds
    diagonal d, with kd = 2 n_qubit - 1: the bare energies on the diagonal
    and above it only the blocks c X[m, m+1] K = c sqrt(m + 1) K, because
    X = a +- a' couples only neighbouring Fock states, with the same upper
    entries in both gauges; the blocks below follow from the symmetry
    circuit_coupling enforces on K.  Each block entry is added to a zero,
    as the Kronecker form adds its coupling term, so the band is that
    form's upper band bit for bit, signed zeros included.
    """
    sliced = coupling.truncated(n_qubit)
    kd = 2 * n_qubit - 1
    band = np.zeros((kd + 1, n_fock * n_qubit))
    band[kd] = np.add.outer(sliced.omega * (np.arange(n_fock) + 0.5),
                            sliced.qubit_energies).ravel()
    a, b = np.indices((n_qubit, n_qubit))
    cols = n_qubit * np.arange(1, n_fock)[:, None, None] + b
    band[n_qubit - 1 + a - b, cols] += (
        np.multiply.outer(fock_ladder(n_fock), sliced.qubit_elements)
        * sliced.strength)
    return band


def _lowest_levels(matvec, dim: int, what: str,
                   n_levels: int = N_COUPLED_LEVELS):
    """(energies, vectors): the lowest n_levels eigenpairs, ascending, of
    the real symmetric operator matvec of dimension dim, n_levels below dim.

    ARPACK's Lanczos solver (scipy.sparse.linalg.eigsh, smallest algebraic,
    tol 1e-13, from a seeded start vector so the bytes repeat), shared by
    the plane-wave cross-check, whose matvec applies its Hamiltonian, and
    the eigenbasis product's _shift_invert, whose matvec applies
    -(H - sigma I)^-1.  A solve that fails raises EigensolveError naming
    what.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    start = np.random.default_rng(0).standard_normal(dim)
    try:
        levels, vectors = eigsh(
            LinearOperator((dim, dim), matvec=matvec, dtype=float),
            k=n_levels, which="SA", tol=1e-13, v0=start)
    except ArpackError as err:
        raise EigensolveError(f"{what} eigensolve failed: {err}") from err
    order = np.argsort(levels)
    return levels[order], vectors[:, order]


def _shift_invert(band: np.ndarray, n_levels: int):
    """_lowest_levels of the matrix H whose upper band is band, by the
    spectral transformation: the lowest levels E of H are the best
    separated levels theta = -1 / (E - sigma) of -(H - sigma I)^-1
    (Ericsson and Ruhe, Math. Comp. 35, 1251 (1980)).

    LAPACK's banded Cholesky factorization (dpbtrf) of H - sigma I succeeds
    exactly when sigma lies below the lowest level.  So sigma steps down
    from the lowest bare energy by 1, 2, 4, ... GHz, floored 1 GHz under
    the Gershgorin bound of the band, where the factorization must succeed,
    and the first sigma that factors is kept; if none does, EigensolveError.
    The operator applies the factor by dpbtrs, and the levels are
    sigma - 1 / theta, in the ascending order of theta.
    """
    import scipy.linalg

    what = "shift-invert coupled"
    pbtrf, pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), (band,))
    kd = band.shape[0] - 1
    radius = np.abs(band[:kd]).sum(axis=0)  # row j left of the diagonal
    for d in range(1, kd + 1):
        radius[:-d] += np.abs(band[kd - d, d:])  # and right of it
    floor = float(np.min(band[kd] - radius)) - 1.0
    bottom, step = float(band[kd].min()), 1.0
    while True:
        sigma = max(bottom - step, floor)
        factor = np.array(band, order="F")  # so dpbtrf factors it in place
        factor[kd] -= sigma
        factor, info = pbtrf(factor, overwrite_ab=True)
        if info == 0:
            break
        if not sigma > floor:
            raise EigensolveError(
                f"{what} eigensolve failed: H - sigma I does not factor at "
                f"sigma = {sigma:.6g} GHz, under the Gershgorin bound")
        step *= 2.0

    def apply(v):
        return -pbtrs(factor, v)[0]

    theta, vectors = _lowest_levels(apply, band.shape[1], what, n_levels)
    return sigma - 1.0 / theta, vectors


def build_coupled_eigenbasis(
        gauge: str, raw: RawCircuit, n_qubit: int, n_fock: int,
        n_states: int = N_COUPLED_LEVELS) -> CoupledSpectrum:
    """The one eigenbasis-product solve, in the Fock (x) qubit-eigenstate
    product basis: the lowest max(N_COUPLED_LEVELS, n_states) eigenpairs.

    circuit_coupling at max(n_qubit, len(QUBIT_LEVEL_TAGS)) qubit levels,
    its _band, and the shift-invert Lanczos solve of _shift_invert; nothing
    dense at any dimension.  Lanczos solves for fewer levels than the
    operator has, so that count must be below the product dimension
    n_qubit n_fock, and n_states at least 1, else ValueError before any
    solve.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be at least 1, not {n_states}")
    solved = max(N_COUPLED_LEVELS, n_states)
    if not solved < n_qubit * n_fock:
        raise ValueError(
            f"max({N_COUPLED_LEVELS}, n_states) must be below the product "
            f"dimension n_qubit * n_fock = {n_qubit * n_fock}, not {solved}")
    coupling = circuit_coupling(gauge, raw,
                                max(n_qubit, len(QUBIT_LEVEL_TAGS)))
    energies, vectors = _shift_invert(_band(coupling, n_fock, n_qubit), solved)
    return CoupledSpectrum(energies=energies, vectors=vectors, gauge=gauge,
                           dims=(n_fock, n_qubit), coupling=coupling)


def truncation_check(gauge: str, raw: RawCircuit, n_qubit: int,
                     n_fock: int) -> tuple[float, bool]:
    """(shift, converged): the largest shift in GHz of the lowest
    N_COUPLED_LEVELS levels at (n_qubit, n_fock) against (2 n_qubit,
    2 n_fock), and whether it is under CONVERGENCE_LIMIT_GHZ.
    """
    levels, doubled = (_shared(build_coupled_eigenbasis, gauge, raw,
                               k * n_qubit, k * n_fock,
                               N_COUPLED_LEVELS).energies for k in (1, 2))
    shift = float(np.abs(levels - doubled).max())
    return shift, shift < CONVERGENCE_LIMIT_GHZ


def build_coupled_planewave(gauge: str, raw: RawCircuit) -> np.ndarray:
    """Lowest N_COUPLED_LEVELS levels on a product of plane-wave bases.

    Matrix-free on 64 oscillator times 32 qubit waves: ARPACK's Lanczos
    solver (scipy.sparse.linalg.eigsh, smallest algebraic, tol 1e-13, from
    a seeded start vector so the bytes repeat) applies the Hamiltonian to
    a state X, held as a 64 x 32 array, as

        H_osc X + X H_qub' - c (k1 k2') o X      (flux gauge)
        H_osc X + X H_qub' + c A1 X A2'         (charge gauge)

    with k1, k2 the diagonal flux operators and A1, A2 the real
    antisymmetric charge kernels of planewave.linear_kernel (n = 1j A), so
    that -c (1j A1) (x) (1j A2) = c A1 (x) A2 and the operator is real
    symmetric.  Each node Hamiltonian is checked Hermitian and each A
    antisymmetric; the solve is _lowest_levels, the Lanczos driver the
    eigenbasis build's shift-invert solve shares.  Returns the levels
    ascending.
    """
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
        a1 = linear_kernel(basis_osc)
        a2 = linear_kernel(basis_qubit)
        # 1j A is Hermitian exactly when the real A is antisymmetric
        check_hermitian(1j * a1, "oscillator charge kernel")
        check_hermitian(1j * a2, "qubit charge kernel")

        def coupling(x):
            return c * (a1 @ x @ a2.T)

    def matvec(v):
        x = v.reshape(dims)
        return (h_osc @ x + x @ h_qub.T + coupling(x)).ravel()

    return _lowest_levels(matvec, dims[0] * dims[1], "plane-wave product")[0]


def observables(spec: CoupledSpectrum,
                raw: RawCircuit) -> tuple[Observables, ...]:
    """Photon number, flux expectations, and loop currents of every
    eigenstate the spectrum holds, ground state first.

    One pass over the (states, n_fock, n_qubit) block of the vectors and
    one 2 x 2 solve for the currents of all states.
    """
    circuit = gauge_circuit(spec.gauge, raw)
    n_fock, n_qubit = spec.dims
    qubit_phase = spec.coupling.qubit_phase[:n_qubit, :n_qubit]
    psi = spec.vectors.T.reshape(-1, n_fock, n_qubit)
    photon = np.sum(np.sum(psi**2, axis=2) * np.arange(n_fock), axis=1)
    # Phi1 is proportional to a + a' in both gauges (the zero-point
    # amplitude differs through the gauge's own omega), whose only entries
    # are sqrt(m + 1) at (m, m + 1) and (m + 1, m).
    overlap = np.sum(psi[:, :-1] * psi[:, 1:], axis=2)
    phi1 = (2.0 * np.sum(overlap * fock_ladder(n_fock), axis=1)
            * circuit.phi1_zpf)
    phi2 = np.sum((psi @ qubit_phase) * psi, axis=(1, 2))
    phi1_physical = phi1
    if spec.gauge == "charge" and circuit.coupled:
        phi1_physical = phi1 + (circuit.L_LC / circuit.L12) * phi2
    flux_quantum = CONSTANTS.Phi0 / (2.0 * math.pi)
    l_matrix = np.array([[raw.Lc + raw.L1, raw.Lc], [raw.Lc, raw.Lc + raw.L2]])
    # one solve for the inverse; each state's currents are then its 2 x 2
    # product, written out so that no state's bits depend on the others
    inverse = np.linalg.solve(l_matrix, np.eye(2)) * 1e21
    currents = (inverse[:, :1] * (phi1_physical * flux_quantum)
                + inverse[:, 1:] * (phi2 * flux_quantum))
    return tuple(Observables(*map(float, values))
                 for values in zip(photon, phi1, phi2, *currents))
