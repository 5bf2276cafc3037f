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

Eigensolves are dense and return all levels of the chosen basis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class EigensolveError(RuntimeError):
    """Raised when an eigensolve fails or its input breaks the symmetry the
    solver relies on."""


class BasisRangeWarning(UserWarning):
    """Ground state carries non-negligible weight on the outermost waves."""


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
    def for_qubit(cls, n_waves: int = 32, n_max: float = 8.0) -> "PlaneWaveBasis":
        """Default qubit basis; n_max = 8 spans phases of roughly +-2 pi."""
        return cls(n_max=n_max, n_waves=n_waves)

    @classmethod
    def for_oscillator(cls, ec_ghz: float, el_ghz: float, n_waves: int = 64,
                       n_widths: float = 10.0) -> "PlaneWaveBasis":
        """Size the interval to n_widths zero-point charge widths.

        The ground state of 4 EC n^2 + EL phi^2 / 2 has
        <n^2> = sqrt(EL / (32 EC)).
        """
        n_zpf = (el_ghz / (32.0 * ec_ghz)) ** 0.25
        return cls(n_max=n_widths * n_zpf, n_waves=n_waves)


@dataclass(frozen=True)
class SubsystemSpectrum:
    """Eigenlevels and plane-wave coefficients of a single node.

    energies are in GHz, ascending.  coefficients[i] is the unit-norm
    coefficient vector of level i over basis.wave_numbers; its phase is fixed
    so the largest-magnitude coefficient is real and positive, which makes
    phase (flux) matrix elements real and charge matrix elements purely
    imaginary.
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
    """Toeplitz matrix of f_{k-k'}(n), the n operator; purely imaginary."""
    idx = basis.wave_indices
    m = idx[:, None] - idx[None, :]
    out = np.zeros(m.shape, dtype=complex)
    nz = m != 0
    sign = np.where(m[nz] % 2 == 0, 1.0, -1.0)
    out[nz] = 1j * sign * basis.n_max / (m[nz] * math.pi)
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
    """Rotate each column so its largest-magnitude entry is real positive.

    Ties go to the first such entry, as np.argmax breaks them.  The
    modulus of that entry is np.hypot of its parts, which is bit for bit
    the scalar abs() of a complex entry; np.abs on a complex array rounds
    differently.
    """
    out = vectors.astype(complex)
    z = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
    out *= z.conjugate() / np.hypot(z.real, z.imag)
    return out


def diagonalize_flux_qubit(ecj: float, ej: float, elfq: float, phix: float,
                           basis: PlaneWaveBasis) -> SubsystemSpectrum:
    """All levels of the flux-qubit node Hamiltonian in the given basis."""
    h = qubit_hamiltonian(ecj, ej, elfq, phix, basis)
    check_hermitian(h, "assembled qubit Hamiltonian")
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as err:
        raise EigensolveError(f"qubit eigensolve failed: {err}") from err
    coeffs = _fix_phases(vectors).T
    edge = np.abs(coeffs[0, 0]) ** 2 + np.abs(coeffs[0, -1]) ** 2
    if edge > EDGE_WEIGHT_LIMIT:
        warnings.warn(
            f"qubit ground state has weight {edge:.2e} on the outermost "
            "waves; enlarge the basis",
            BasisRangeWarning,
            stacklevel=2,
        )
    return SubsystemSpectrum(energies=energies, coefficients=coeffs,
                             basis=basis)
