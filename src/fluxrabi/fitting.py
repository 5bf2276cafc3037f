"""Least-squares extraction of two-level model parameters from spectra.

Fits the four parameters (omega, Delta_q, g, Ip) of the qubit-oscillator
model to a table of transition frequencies sampled on a flux grid:
table[p, c] is transition pairs[c] at grid[p], and model_pair_table
evaluates the model on the same layout.  The objective is the mean squared
residual over all (flux, transition) points in MHz^2, minimized by
Levenberg-Marquardt with one re-start from the nudged minimum.  The model
Hamiltonian is linear in the parameters, so the Jacobian is exact: by the
Hellmann-Feynman theorem each level's derivative is the expectation of the
matching structure matrix in its eigenvector, one eigh per bias point.
Nothing is random, so repeated runs give identical results.  The residual
reported alongside the fitted parameters is restricted to transitions from the
ground state, which is the conventional figure of merit for this kind of
spectrum fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import bias_to_ghz
from .rabi import (RabiParams, _structure, default_n_fock, rabi_energies,
                   rabi_hamiltonian)

# Relative nudge of the first minimum that the agreement re-start runs from.
RESTART_STEP = (1.02, 0.98, 1.05, 1.001)

# Order of the fitted parameters in the optimizer's vector.
PARAM_NAMES = ("omega", "Delta_q", "g", "Ip")


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


def fit_rabi(grid: np.ndarray, pairs: tuple[tuple[int, int], ...],
             table: np.ndarray, initial: RabiParams,
             n_fock: int | None = None) -> RabiFitResult:
    """Minimize the mean squared transition residual from a mapped start.

    table[p, c] is transition pairs[c] at grid[p], in GHz; the residuals
    run over it in row-major order.  Runs Levenberg-Marquardt on the signed
    residuals from the start, then once more from the first minimum nudged
    by RESTART_STEP, and keeps the lower minimum; converged requires both
    runs to succeed and to agree below 0.1% on every parameter (relative to
    1e-3 omega for a parameter smaller than that).  n_eval counts every
    residual evaluation and n_jac every evaluation of the exact Jacobian
    (_pair_jacobian), over both runs.
    """
    table = _check_table(grid, pairs, table)
    _check_params(initial)
    start = np.array([getattr(initial, name) for name in PARAM_NAMES])
    if n_fock is None:
        n_fock = default_n_fock(initial.g / initial.omega)
    from scipy.optimize import least_squares  # on first use, as in qubit.py

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

    # Levenberg-Marquardt in scipy's trust-region form, scaled to the run's
    # start so that the first step stays within about twice each parameter;
    # MINPACK's method="lm" may step 100 times that, and on a drawn
    # self-fit it settled in a wrong minimum (tests/test_fitting.py pins it).
    # The objective is even in g, so g = 0 (the mapped start at Lc = 0) is a
    # stationary point: each run starts at least 1e-3 omega off zero.
    def minimize(theta0: np.ndarray):
        floor = 1e-3 * abs(theta0[0])
        theta0 = np.where(np.abs(theta0) < floor, floor, theta0)
        return least_squares(residuals, theta0, jac=jacobian, method="trf",
                             x_scale=np.abs(theta0),
                             xtol=1e-15, ftol=1e-15, gtol=1e-15)

    first = minimize(start)
    second = minimize(np.abs(first.x) * RESTART_STEP)
    best = min(first, second, key=lambda sol: sol.cost)  # first on a tie
    theta = np.abs(best.x)
    gap = np.abs(np.abs(first.x) - np.abs(second.x))
    # gaps are judged against 1e-3 omega where a parameter is smaller, as in
    # the start lift: a fitted g near 0 must not inflate them
    spread = float((gap / np.maximum(theta, 1e-3 * theta[0])).max())
    params = with_theta(theta)
    return RabiFitResult(params=params,
                         residual_mhz2=ground_residual_mhz2(params, grid, pairs,
                                                            table, n_fock),
                         objective_mhz2=float(np.mean(best.fun ** 2)),
                         n_eval=n_eval, n_jac=n_jac,
                         converged=first.success and second.success
                         and spread < 1e-3,
                         restart_spread=spread)
