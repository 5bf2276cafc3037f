"""Least-squares extraction of two-level model parameters from spectra.

Fits the four parameters (omega, Delta_q, g, Ip) of the qubit-oscillator
model to a table of transition frequencies sampled on a flux grid:
table[p, c] is transition pairs[c] at grid[p], and model_pair_table
evaluates the model on the same layout.  The objective is the mean squared
residual over all (flux, transition) points in MHz^2, minimized by a numpy
Levenberg-Marquardt loop with one re-start from the nudged minimum.  The
model Hamiltonian is linear in the parameters, so the Jacobian is exact: by
the Hellmann-Feynman theorem each level's derivative is the expectation of
the matching structure matrix in its eigenvector, one eigh per bias point.
Each run keeps a trust radius on the parameters scaled by its start and
takes Gauss-Newton steps once the cost's rounding hides their gain, until
a step meets the stopping rule of constants.step_settled: the fit ends at
the Gauss-Newton minimum, not at a cost test short of it.  Nothing is
random, so repeated runs give identical results.  The residual reported
alongside the fitted parameters is restricted to transitions from the
ground state, which is the conventional figure of merit for this kind of
spectrum fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import STEP_NOISE, bias_to_ghz, step_settled
from .rabi import (RabiParams, _structure, default_n_fock, rabi_energies,
                   rabi_hamiltonian)

# Relative nudge of the first minimum that the agreement re-start runs from.
RESTART_STEP = (1.02, 0.98, 1.05, 1.001)

# Order of the fitted parameters in the optimizer's vector.
PARAM_NAMES = ("omega", "Delta_q", "g", "Ip")

# Residual evaluations one Levenberg-Marquardt run may spend.
MAX_EVAL = 60
# Predicted gain, as a share of the cost, below which the gain ratio is
# rounding noise: 100 times the cost's own rounding on the fits (1e-12).
COST_NOISE = 1e-10


class FitDataError(ValueError):
    """The transition table or the start cannot be fit."""


def fit_transition_pairs(max_level: int) -> tuple[tuple[int, int], ...]:
    """Transition set used for spectrum fits up to max_level.

    Transitions from the ground state to every level up to max_level; for
    max_level = 3 the thermally relevant 1->2 and 1->3 lines are included
    as well, matching the set of visible spectral lines near the symmetry
    point.
    """
    if max_level < 1:
        raise FitDataError("max_level must be >= 1")
    pairs = [(0, i) for i in range(1, max_level + 1)]
    if max_level == 3:
        pairs += [(1, 2), (1, 3)]
    return tuple(pairs)


@dataclass(frozen=True)
class RabiFitResult:
    """residual_mhz2 covers ground-state transitions only; objective_mhz2
    is the minimized mean over every data point."""

    params: RabiParams
    residual_mhz2: float
    objective_mhz2: float
    n_eval: int
    n_jac: int
    converged: bool
    restart_spread: float


def _check_params(params: RabiParams) -> None:
    """FitDataError unless every model parameter is finite and omega > 0."""
    values = [getattr(params, name) for name in PARAM_NAMES]
    if not np.isfinite(values).all() or not params.omega > 0.0:
        raise FitDataError("model parameters must be finite, omega > 0")


def model_pair_table(params: RabiParams, phix_grid: np.ndarray,
                     pairs: tuple[tuple[int, int], ...],
                     n_fock: int | None = None) -> np.ndarray:
    """table[p, c] = model transition pairs[c] at phix_grid[p], in GHz.

    Raises FitDataError before any solve unless params pass _check_params.
    """
    _check_params(params)
    if n_fock is None:
        n_fock = default_n_fock(params.g / params.omega)
    return _pair_table(params, phix_grid, pairs, n_fock)


def _pair_table(params: RabiParams, phix_grid: np.ndarray,
                pairs: tuple[tuple[int, int], ...], n_fock: int) -> np.ndarray:
    out = np.empty((len(phix_grid), len(pairs)))
    for p, phix in enumerate(phix_grid):
        energies = rabi_energies(params, phix, n_fock)
        out[p] = [energies[j] - energies[i] for i, j in pairs]
    return out


def _pair_jacobian(params: RabiParams, phix_grid: np.ndarray,
                   pairs: tuple[tuple[int, int], ...],
                   n_fock: int) -> np.ndarray:
    """jac[p, c, k] = d table[p, c] / d theta_k, theta in PARAM_NAMES order.

    H = omega A + Delta_q B + eps C + g D with eps = bias_to_ghz(Ip, phix)
    linear in Ip, so dE_n/dtheta = <n|dH/dtheta|n> (Hellmann-Feynman) on
    the lowest max(j) + 1 eigenvectors of one eigh per bias point.
    """
    a_mat, b_mat, c_mat, d_mat = _structure(n_fock, params.variant)
    lower, upper = np.array(pairs).T
    count = upper.max() + 1
    out = np.empty((len(phix_grid), len(pairs), len(PARAM_NAMES)))
    for p, phix in enumerate(phix_grid):
        h = rabi_hamiltonian(params, phix, n_fock)
        v = np.linalg.eigh(h)[1][:, :count]
        slopes = np.array([np.sum(v * (m @ v), axis=0)
                           for m in (a_mat, b_mat, d_mat, c_mat)])
        slopes[3] *= bias_to_ghz(1.0, phix)
        out[p] = (slopes[:, upper] - slopes[:, lower]).T
    return out


def _check_table(grid: np.ndarray, pairs: tuple[tuple[int, int], ...],
                 table: np.ndarray) -> np.ndarray:
    """table as a float array; FitDataError unless it can be fit."""
    table = np.asarray(table, dtype=float)
    if table.shape != (len(grid), len(pairs)):
        raise FitDataError(f"table shape {table.shape} is not (grid, pairs) "
                           f"= ({len(grid)}, {len(pairs)})")
    if table.size < 4:
        raise FitDataError("need at least as many points as parameters")
    if any(i < 0 or j <= i for i, j in pairs):
        raise FitDataError("each transition must go up the level ladder")
    if all(i != 0 for i, _ in pairs):
        raise FitDataError("no ground-state transitions in the data")
    if not np.isfinite(table).all():
        raise FitDataError("transition table entries must be finite")
    return table


def ground_residual_mhz2(params: RabiParams, grid: np.ndarray,
                         pairs: tuple[tuple[int, int], ...], table: np.ndarray,
                         n_fock: int | None = None) -> float:
    """Mean squared residual restricted to transitions from the ground state."""
    table = _check_table(grid, pairs, table)
    ground = [c for c, (i, _) in enumerate(pairs) if i == 0]
    residuals = 1e3 * (model_pair_table(params, grid, pairs, n_fock) - table)
    return float((residuals[:, ground].ravel() ** 2).mean())


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


def _levenberg_marquardt(residuals, jacobian, theta0: np.ndarray):
    """(theta, residuals at theta, settled) of one Levenberg-Marquardt run.

    Steps live in the variables scaled by |theta0|, inside a trust radius
    that starts at |theta0 / |theta0||, so the first step stays within
    about twice each parameter, and then grows or shrinks with the gain
    ratio (More, 1978).  A step is taken if it lowers the cost; where the
    gain ratio is rounding noise it is taken without that test: a step
    moving no parameter by more than STEP_NOISE, or a Gauss-Newton step
    whose predicted gain is below COST_NOISE of the cost.  That polishes
    the run to the Gauss-Newton minimum.  Moves are judged relative to each
    parameter, or to 1e-3 theta0[0] where that is larger.  The run settles
    on a taken step that constants.step_settled ends or, past COST_NOISE,
    on a Gauss-Newton step that does not halve the one before it, and on a
    damped step below COST_NOISE that fails to lower the cost (no step the
    model trusts can).  MAX_EVAL residual evaluations leave it unsettled.
    """
    scale = np.abs(theta0)
    floor = 1e-3 * scale[0]
    theta, res = theta0, residuals(theta0)
    radius = float(np.linalg.norm(theta0 / scale))
    last, n_eval = math.inf, 1
    jac = jacobian(theta) * scale
    while n_eval < MAX_EVAL:
        grad = jac.T @ res
        step, gauss_newton = _trust_step(jac, grad, radius)
        trial = theta + scale * step
        trial_res = residuals(trial)
        n_eval += 1
        cost = 0.5 * float(res @ res)
        predicted = -float(grad @ step + 0.5 * np.sum((jac @ step) ** 2))
        actual = cost - 0.5 * float(trial_res @ trial_res)
        noise = predicted <= COST_NOISE * cost
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
        theta, res = trial, trial_res
        # ill-conditioned data put the rounding floor of a step above
        # STEP_NOISE: a polishing step that stops halving has reached it too
        if (step_settled(size, last)
                or noise and gauss_newton and size >= 0.5 * last):
            return theta, res, True
        last = size
        jac = jacobian(theta) * scale
    return theta, res, False


def fit_rabi(grid: np.ndarray, pairs: tuple[tuple[int, int], ...],
             table: np.ndarray, initial: RabiParams,
             n_fock: int | None = None) -> RabiFitResult:
    """Minimize the mean squared transition residual from a mapped start.

    table[p, c] is transition pairs[c] at grid[p], in GHz; the residuals
    run over it in row-major order.  Runs Levenberg-Marquardt on the signed
    residuals from the start, then once more from the first minimum nudged
    by RESTART_STEP, and keeps the lower minimum; converged requires both
    runs to settle and to agree below 0.1% on every parameter (relative to
    1e-3 omega for a parameter smaller than that).  n_eval counts every
    residual evaluation and n_jac every evaluation of the exact Jacobian
    (_pair_jacobian), over both runs.
    """
    table = _check_table(grid, pairs, table)
    _check_params(initial)
    start = np.array([getattr(initial, name) for name in PARAM_NAMES])
    if n_fock is None:
        n_fock = default_n_fock(initial.g / initial.omega)

    def with_theta(theta: np.ndarray) -> RabiParams:
        return replace(initial, **{name: float(value)
                                   for name, value in zip(PARAM_NAMES, theta)})

    n_eval = n_jac = 0

    def residuals(theta: np.ndarray) -> np.ndarray:
        nonlocal n_eval
        n_eval += 1
        # unchecked: a step may leave the physical region and come back
        model = _pair_table(with_theta(theta), grid, pairs, n_fock)
        return 1e3 * (model - table).ravel()

    def jacobian(theta: np.ndarray) -> np.ndarray:
        nonlocal n_jac
        n_jac += 1
        slopes = _pair_jacobian(with_theta(theta), grid, pairs, n_fock)
        return 1e3 * slopes.reshape(-1, len(PARAM_NAMES))

    # The objective is even in g, so g = 0 (the mapped start at Lc = 0) is a
    # stationary point: each run starts at least 1e-3 omega off zero.  Near
    # that point J'J has no curvature along g, the case the damped-step
    # settle covers: decoupled data end there with g below 1e-7.
    def minimize(theta0: np.ndarray):
        floor = 1e-3 * abs(theta0[0])
        theta0 = np.where(np.abs(theta0) < floor, floor, theta0)
        return _levenberg_marquardt(residuals, jacobian, theta0)

    first, first_res, first_settled = minimize(start)
    second, second_res, second_settled = minimize(np.abs(first) * RESTART_STEP)
    best, best_res = ((first, first_res)  # first on a tie
                      if first_res @ first_res <= second_res @ second_res
                      else (second, second_res))
    theta = np.abs(best)
    gap = np.abs(np.abs(first) - np.abs(second))
    # gaps are judged against 1e-3 omega where a parameter is smaller, as in
    # the start lift: a fitted g near 0 must not inflate them
    spread = float((gap / np.maximum(theta, 1e-3 * theta[0])).max())
    params = with_theta(theta)
    return RabiFitResult(params=params,
                         residual_mhz2=ground_residual_mhz2(params, grid, pairs,
                                                            table, n_fock),
                         objective_mhz2=float(np.mean(best_res ** 2)),
                         n_eval=n_eval, n_jac=n_jac,
                         converged=(first_settled and second_settled
                                    and spread < 1e-3),
                         restart_spread=spread)
