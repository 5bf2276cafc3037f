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

The model is solved dense, at one bias or stacked over many in one call.
Its Fock truncation is a rung of RABI_FOCK_LADDER chosen by evidence
(fock_rung): the smallest whose lowest levels stop moving against the
next rung.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import GAUGES, RawCircuit, gauge_circuit
from .constants import N_COUPLED_LEVELS, bias_to_ghz, fock_ladder
from .qubit import TwoLevelFit

# Fock truncations of the model, tried in turn: the first rung whose lowest
# N_COUPLED_LEVELS levels (those the fits read) move by less than
# FOCK_TOL_GHZ against the next rung is the one a model solve needs.  At
# 20 pH 10 suffices; at 350 pH the flux variant (g / omega = 1.2) needs 30.
RABI_FOCK_LADDER = (10, 15, 20, 30, 40, 60, 80, 120)
FOCK_TOL_GHZ = 1e-12


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
        if self.variant not in GAUGES:
            raise ValueError(f"variant must be one of {GAUGES}")

    def epsilon(self, phix: float) -> float:
        """Bias eps(phix) in GHz."""
        return bias_to_ghz(self.Ip, phix)


@lru_cache(maxsize=32)
def _structure(n_fock: int, variant: str) -> tuple[np.ndarray, ...]:
    """Real symmetric structure matrices (H = omega A + Delta_q B + eps C + g D).

    Product ordering is oscillator (x) qubit with the qubit index fastest.
    """
    number = np.diag(np.arange(n_fock) + 0.5)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye2 = np.eye(2)
    eye_f = np.eye(n_fock)
    a_mat = np.kron(number, eye2)
    b_mat = -0.5 * np.kron(eye_f, sz)
    c_mat = -0.5 * np.kron(eye_f, sx)
    up = np.diag(fock_ladder(n_fock), 1)
    if variant == "flux":
        d_mat = np.kron(up + up.T, sx)
    else:
        # 1j sigma_y (a - a') is real: both factors are antisymmetric.
        isy = np.array([[0.0, 1.0], [-1.0, 0.0]])
        d_mat = np.kron(up.T - up, isy)
    return a_mat, b_mat, c_mat, d_mat


def rabi_hamiltonian(params: RabiParams, phix, n_fock: int) -> np.ndarray:
    """Assembled model Hamiltonian in GHz (real symmetric), (2 n_fock,
    2 n_fock) at one bias, stacked to (P, 2 n_fock, 2 n_fock) over an
    array of P biases; each matrix of the stack holds the same bits as
    the call at its bias alone."""
    a_mat, b_mat, c_mat, d_mat = _structure(n_fock, params.variant)
    eps = params.epsilon(np.asarray(phix, dtype=float))[..., None, None]
    return (params.omega * a_mat + params.Delta_q * b_mat
            + eps * c_mat + params.g * d_mat)


def rabi_energies(params: RabiParams, phix, n_fock: int) -> np.ndarray:
    """Ascending levels in GHz, (2 n_fock,) at one bias or (P, 2 n_fock)
    over an array of P biases, from one stacked eigvalsh."""
    return np.linalg.eigvalsh(rabi_hamiltonian(params, phix, n_fock))


def fock_shift(params: RabiParams, phix, n_fock: int) -> float:
    """Largest move of the lowest N_COUPLED_LEVELS levels at the biases phix
    from n_fock to the next rung of RABI_FOCK_LADDER above it.  At or
    above the top rung there is none: the move is then the one between
    the ladder's last two rungs."""
    above = [rung for rung in RABI_FOCK_LADDER if rung > n_fock]
    low, high = (n_fock, above[0]) if above else RABI_FOCK_LADDER[-2:]
    moved = (rabi_energies(params, phix, low)[..., :N_COUPLED_LEVELS]
             - rabi_energies(params, phix, high)[..., :N_COUPLED_LEVELS])
    return float(np.abs(moved).max())


def fock_rung(params: RabiParams, phix) -> int:
    """Smallest rung of RABI_FOCK_LADDER whose fock_shift at the biases
    phix is below FOCK_TOL_GHZ; the top rung when none is."""
    return next((rung for rung in RABI_FOCK_LADDER[:-1]
                 if fock_shift(params, phix, rung) < FOCK_TOL_GHZ),
                RABI_FOCK_LADDER[-1])


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
