"""Physical constants, unit conversion helpers and shared numerical pieces.

Energies are handled throughout as ordinary frequencies in GHz (the energy
divided by the Planck constant).  Circuit element values use pH for
inductances, pF for the oscillator capacitance, fF for the junction
capacitance, nA for currents, uV for voltages, and external flux in units of
the flux quantum Phi0 = h/(2e).

Two numerical pieces are kept here: the oscillator ladder sqrt(m + 1),
from which every Fock-basis operator is written, and the one least-squares
loop, levenberg_marquardt, that both the qubit's two-level reduction and
the Rabi fit run, capped at MAX_EVAL evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Exact SI values (CODATA 2018, as in scipy.constants), written out so that
# importing the package does not load scipy.
PLANCK_J_S = 6.62607015e-34
ELEMENTARY_CHARGE_C = 1.602176634e-19


@dataclass(frozen=True)
class PhysicalConstants:
    """Planck constant, elementary charge, and the quantities derived from them."""

    h: float = PLANCK_J_S
    e: float = ELEMENTARY_CHARGE_C
    hbar: float = PLANCK_J_S / (2.0 * math.pi)
    Phi0: float = PLANCK_J_S / (2.0 * ELEMENTARY_CHARGE_C)

    def __post_init__(self) -> None:
        if not math.isclose(self.hbar, self.h / (2.0 * math.pi), rel_tol=1e-15):
            raise ValueError("hbar must equal h / (2 pi)")
        if not math.isclose(self.Phi0, self.h / (2.0 * self.e), rel_tol=1e-15):
            raise ValueError("Phi0 must equal h / (2 e)")


CONSTANTS = PhysicalConstants()

PACKAGE_VERSION = "0.1.0"

# SI scale factors for the internal unit system.
GHZ = 1e9
PH = 1e-12
PF = 1e-12
FF = 1e-15
NA = 1e-9
UV = 1e-6

# Coupled levels each sweep point keeps and the truncation shift compares;
# the fits use pairs among them.
N_COUPLED_LEVELS = 8


def charging_energy_ghz(c_farad: float) -> float:
    """Charging energy e^2 / (2 C) of a capacitance in Farad, as GHz."""
    return CONSTANTS.e**2 / (2.0 * c_farad * CONSTANTS.h * GHZ)


def inductive_energy_ghz(l_henry: float) -> float:
    """Inductive energy [Phi0/(2 pi)]^2 / L of an inductance in Henry, as GHz."""
    phi_j = CONSTANTS.Phi0 / (2.0 * math.pi)
    return phi_j**2 / (l_henry * CONSTANTS.h * GHZ)


def current_flux_to_ghz(current_na: float, flux_phi0: float) -> float:
    """Energy of a current (nA) threading a flux (Phi0 units), as GHz."""
    energy = (current_na * NA) * (flux_phi0 * CONSTANTS.Phi0)
    return energy / (CONSTANTS.h * GHZ)


def bias_to_ghz(ip_na: float, phix_phi0: float) -> float:
    """Qubit energy bias 2 Ip (Phix - Phi0/2) in GHz for Ip in nA."""
    return 2.0 * current_flux_to_ghz(ip_na, phix_phi0 - 0.5)


def fock_ladder(n_fock: int) -> np.ndarray:
    """<m|a|m + 1> = sqrt(m + 1) for m = 0 .. n_fock - 2: a on Fock states
    0 .. n_fock - 1 is np.diag(fock_ladder(n_fock), 1), and a + a' and
    a - a' hold the same entries above the diagonal and no others."""
    return np.sqrt(np.arange(1, n_fock))


# Relative step below which a least-squares loop has reached its minimum,
# and the rounding floor of the data, below which steps stop shrinking.
STEP_CONVERGED = 1e-15
STEP_NOISE = 1e-12
# Residual evaluations one Levenberg-Marquardt run may spend.
MAX_EVAL = 60
# Predicted gain, as a share of the cost, below which the gain ratio is
# rounding noise: 100 times the cost's own rounding on the Rabi fits (1e-12).
COST_NOISE = 1e-10


def _trust_step(jac: np.ndarray, grad: np.ndarray,
                radius: float) -> tuple[np.ndarray, bool]:
    """(step, gauss_newton): -(J'J + lam)^-1 J'r for the smallest lam >= 0
    whose step fits in radius; gauss_newton is True when lam = 0.

    lam comes from the eigen-decomposition of J'J: |step(lam)| = radius is
    solved by Newton's method on 1 / |step|, concave and increasing in lam,
    so the iterates approach the root from below (More, 1978).  Directions
    without curvature get no step (the least-norm solution).
    """
    curvature, basis = np.linalg.eigh(jac.T @ jac)
    curvature = np.maximum(curvature, 0.0)
    along = basis.T @ grad
    lam = 0.0
    for _ in range(30):
        inverse = np.divide(1.0, curvature + lam, out=np.zeros_like(along),
                            where=curvature + lam > 0.0)
        step = -along * inverse
        norm = float(np.linalg.norm(step))
        if norm <= 1.001 * radius:
            break
        lam += ((1.0 / radius - 1.0 / norm) * norm**3
                / float(np.sum(step**2 * inverse)))
    return basis @ step, lam == 0.0


def levenberg_marquardt(evaluate, theta0: np.ndarray):
    """(theta, residuals at theta, settled) of one Levenberg-Marquardt run;
    evaluate(theta) returns the residuals and their Jacobian together.

    Steps live in the variables scaled by |theta0|, inside a trust radius
    that starts at |theta0 / |theta0||, so the first step stays within
    about twice each parameter, and then grows or shrinks with the gain
    ratio (More, 1978).  A step is taken if it lowers the cost; where the
    gain ratio is rounding noise it is taken without that test: a step
    moving no parameter by more than STEP_NOISE, or a Gauss-Newton step
    whose predicted gain is below COST_NOISE of the cost or 100 times its
    rounding (each residual rounds at eps of its model value J theta: the
    model must be homogeneous of degree one in theta, as both fits' are).
    That polishes the run to the Gauss-Newton minimum.  Moves are judged
    relative to each parameter, or to 1e-3 of the first start parameter
    where that is larger.  The run settles on a taken step that moves none
    by more than STEP_CONVERGED, or that does not halve the step before it
    and either moves none by more than STEP_NOISE or is such a polishing
    Gauss-Newton step; and on a damped step with a gain below the noise
    that fails to lower the cost (no step the model trusts can).  MAX_EVAL
    residual evaluations leave it unsettled.
    """
    scale = np.abs(theta0)
    floor = 1e-3 * scale[0]
    theta, (res, jac) = theta0, evaluate(theta0)
    jac = jac * scale
    radius = float(np.linalg.norm(theta0 / scale))
    last, n_eval = math.inf, 1
    while n_eval < MAX_EVAL:
        grad = jac.T @ res
        step, gauss_newton = _trust_step(jac, grad, radius)
        trial = theta + scale * step
        trial_res, trial_jac = evaluate(trial)
        n_eval += 1
        cost = 0.5 * float(res @ res)
        predicted = -float(grad @ step + 0.5 * np.sum((jac @ step) ** 2))
        actual = cost - 0.5 * float(trial_res @ trial_res)
        rounding = float(np.abs(res) @ np.abs(jac @ (theta / scale)))
        noise = predicted <= max(COST_NOISE * cost,
                                 100.0 * np.finfo(float).eps * rounding)
        size = float(np.max(np.abs(trial - theta)
                            / np.maximum(np.abs(trial), floor)))
        if size <= STEP_NOISE or noise and gauss_newton:
            # the gain ratio is rounding noise: polish without it
            taken = bool(np.isfinite(actual))
        elif noise:
            # a damped step the model cannot tell from rounding: if it
            # fails, no step within the radius lowers the cost
            if not actual > 0.0:
                return theta, res, True
            taken = True
        else:
            ratio = actual / predicted
            if not ratio >= 0.25:  # a non-finite cost shrinks it too
                radius = 0.25 * float(np.linalg.norm(step))
            elif ratio > 0.75 and not gauss_newton:
                radius *= 2.0
            taken = actual > 0.0
        if not taken:
            continue
        theta, res, jac = trial, trial_res, trial_jac * scale
        # ill-conditioned data put the rounding floor of a step above
        # STEP_NOISE: a polishing step that stops halving has reached it too
        if size <= STEP_CONVERGED or size >= 0.5 * last and (
                size <= STEP_NOISE or noise and gauss_newton):
            return theta, res, True
        last = size
    return theta, res, False
