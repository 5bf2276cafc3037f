"""Plane-wave eigensolver for single-node circuit Hamiltonians.

A node Hamiltonian 4 EC n^2 + V(phi), with dimensionless charge n and phase
phi = 2 pi Phi / Phi0 obeying [phi, n] = i, is diagonalized in a basis of
plane waves exp(i k n) / sqrt(2 n_max) on the charge interval
[-n_max, n_max) with periodic boundary conditions.  The wave numbers are
k = (pi / n_max) eta for integer eta, so phase-type potentials are diagonal
in the wave index while powers of n become Toeplitz kernels

    f_dk(n^p) = 1/(2 n_max) * integral of exp(-i dk n) n^p dn.

The kernels have closed forms; for dk = m pi / n_max:

    f_0(n^2) = n_max^2 / 3,   f_dk(n^2) = 2 (-1)^m n_max^2 / (m pi)^2,
    f_0(n)   = 0,             f_dk(n)   = 1j (-1)^m n_max / (m pi).

The n kernel is purely imaginary, so linear_kernel returns the real
antisymmetric A with n = 1j A.  Both node Hamiltonians are real symmetric;
eigensolves are dense, return all levels of the chosen basis, and give
real eigenvectors.

Within one tasks.run, solves go through one memo, _shared, keyed on the
solver and its positional arguments: every qubit-node solve, all made by
qubit.node_spectrum, every coupled call, every two-level reduction and
each BasisRangeWarning, so a node is solved once per bias and a warning
given once for the whole run.  Outside run each call solves fresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np


class EigensolveError(RuntimeError):
    """Raised when an eigensolve fails or its input breaks the symmetry the
    solver relies on."""


class BasisRangeWarning(UserWarning):
    """A level read carries non-negligible weight on the outermost waves."""


EDGE_WEIGHT_LIMIT = 1e-6


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Plane-wave basis on the charge interval [-n_max, n_max).

    n_waves must be even and >= 8; the wave indices run over the symmetric
    FFT-style range -n_waves/2 .. n_waves/2 - 1.
    """

    n_max: float
    n_waves: int = 32

    def __post_init__(self) -> None:
        if not math.isfinite(self.n_max):
            raise ValueError("n_max must be finite")
        if self.n_max <= 0.0:
            raise ValueError("n_max must be > 0")
        if self.n_waves < 8 or self.n_waves % 2:
            raise ValueError("n_waves must be even and >= 8")

    @property
    def wave_indices(self) -> np.ndarray:
        return np.arange(-self.n_waves // 2, self.n_waves // 2)

    @property
    def wave_numbers(self) -> np.ndarray:
        """Wave numbers k, equal to the phase values the basis resolves."""
        return self.wave_indices * (math.pi / self.n_max)

    @classmethod
    def for_qubit(cls) -> "PlaneWaveBasis":
        """The fixed qubit basis: 32 waves on n_max = 8, which spans phases
        of roughly +-2 pi."""
        return cls(n_max=8.0, n_waves=32)

    @classmethod
    def for_oscillator(cls, ec_ghz: float, el_ghz: float) -> "PlaneWaveBasis":
        """64 waves on an interval of 10 zero-point charge widths.

        The ground state of 4 EC n^2 + EL phi^2 / 2 has
        <n^2> = sqrt(EL / (32 EC)).
        """
        n_zpf = (el_ghz / (32.0 * ec_ghz)) ** 0.25
        return cls(n_max=10.0 * n_zpf, n_waves=64)


@dataclass(frozen=True)
class SubsystemSpectrum:
    """Eigenlevels and plane-wave coefficients of a single node.

    energies are in GHz, ascending.  coefficients[i] is the real unit-norm
    coefficient vector of level i over basis.wave_numbers, sign fixed so
    its largest-magnitude coefficient is positive.  Phase (flux) matrix
    elements are then real and charge matrix elements purely imaginary.
    """

    energies: np.ndarray
    coefficients: np.ndarray
    basis: PlaneWaveBasis


def quadratic_kernel(basis: PlaneWaveBasis) -> np.ndarray:
    """Toeplitz matrix of f_{k-k'}(n^2), the n^2 operator in the wave basis."""
    idx = basis.wave_indices
    m = idx[:, None] - idx[None, :]
    out = np.full(m.shape, basis.n_max**2 / 3.0)
    nz = m != 0
    sign = np.where(m[nz] % 2 == 0, 1.0, -1.0)
    out[nz] = 2.0 * sign * basis.n_max**2 / (m[nz] * math.pi) ** 2
    return out

def linear_kernel(basis: PlaneWaveBasis) -> np.ndarray:
    """The real antisymmetric A whose 1j A is the Toeplitz matrix of
    f_{k-k'}(n), the n operator."""
    idx = basis.wave_indices
    m = idx[:, None] - idx[None, :]
    out = np.zeros(m.shape)
    nz = m != 0
    sign = np.where(m[nz] % 2 == 0, 1.0, -1.0)
    out[nz] = sign * basis.n_max / (m[nz] * math.pi)
    return out


def oscillator_hamiltonian(ec: float, el: float, basis: PlaneWaveBasis) -> np.ndarray:
    """4 EC n^2 + EL k^2 / 2 in the plane-wave basis (GHz, real symmetric)."""
    k = basis.wave_numbers
    return 4.0 * ec * quadratic_kernel(basis) + np.diag(0.5 * el * k**2)


def qubit_hamiltonian(ecj: float, ej: float, elfq: float, phix: float,
                      basis: PlaneWaveBasis) -> np.ndarray:
    """4 ECJ n^2 - EJ cos(k - kx) + ELFQ k^2 / 2 with kx = 2 pi phix."""
    k = basis.wave_numbers
    kx = 2.0 * math.pi * phix
    diag = -ej * np.cos(k - kx) + 0.5 * elfq * k**2
    return 4.0 * ecj * quadratic_kernel(basis) + np.diag(diag)


def check_hermitian(h: np.ndarray, what: str) -> None:
    """Raise unless max|h - h^H| <= 1e-12 max|h|."""
    scale = float(np.abs(h).max())
    if np.abs(h - h.conj().T).max() > 1e-12 * max(scale, 1e-30):
        raise EigensolveError(f"{what} is not Hermitian")


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Flip the sign of each real column whose largest-magnitude entry is
    negative; ties go to the first such entry, as np.argmax breaks them."""
    peak = vectors[np.argmax(np.abs(vectors), axis=0),
                   np.arange(vectors.shape[1])]
    return vectors * np.where(peak < 0.0, -1.0, 1.0)


def diagonalize_flux_qubit(ecj: float, ej: float, elfq: float, phix: float,
                           basis: PlaneWaveBasis) -> SubsystemSpectrum:
    """All levels of the qubit node in the given basis, none checked."""
    h = qubit_hamiltonian(ecj, ej, elfq, phix, basis)
    check_hermitian(h, "assembled qubit Hamiltonian")
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as err:
        raise EigensolveError(f"qubit eigensolve failed: {err}") from err
    return SubsystemSpectrum(energies=energies,
                             coefficients=_fix_phases(vectors).T, basis=basis)


# Point solves of the current tasks.run, keyed on the solver and its
# arguments; None outside run.
_solves: dict | None = None


def _read_only(value):
    """value with every array it holds, in nested dataclasses too, made
    read-only, so a write into a shared solve raises."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif is_dataclass(value):
        for field in fields(value):
            _read_only(getattr(value, field.name))
    return value


def _shared(solve, *args):
    """solve(*args), solved once per run and read-only when run is running;
    solved fresh otherwise.

    Callers pass the solver as a module global looked up at call time, so
    a wrapper installed on that name sees every real solve.
    """
    if _solves is None:
        return solve(*args)
    key = (solve, *args)
    if key not in _solves:
        _solves[key] = _read_only(solve(*args))
    return _solves[key]
