"""Least-squares extraction of two-level model parameters from spectra.

Fits the four parameters (omega, Delta_q, g, Ip) of the qubit-oscillator
model to the circuit's levels on a flux grid: fit_rabi takes levels[p] at
grid[p] and a top level, fits the transitions fit_transition_pairs picks
among them, and returns the data and the model's fitted transitions with
the parameters.  The objective is the mean squared residual over all
(flux, transition) points in MHz^2, minimized by
constants.levenberg_marquardt, the loop the qubit's two-level reduction
also runs, with one re-start from the nudged minimum.  The model
Hamiltonian is linear in the parameters, so the Jacobian is exact: by the
Hellmann-Feynman theorem each level's derivative is the expectation of the
matching structure matrix in its eigenvector.  One evaluation is one eigh
over the Hamiltonians of the whole grid, stacked, and returns the
residuals and the Jacobian together.  The Fock truncation is the rung of
rabi.RABI_FOCK_LADDER that rabi.fock_rung picks at the grid's two ends and
middle, and the fit checks it again at the parameters it ends at.
Each run keeps a trust radius on the parameters scaled by its start and
takes Gauss-Newton steps once the cost's rounding hides their gain, until
a step meets the loop's stopping rule: the fit ends at the Gauss-Newton
minimum, not at a cost test short of it.  Nothing is random, so repeated
runs give identical results.  The residual reported alongside the fitted
parameters is restricted to transitions from the ground state, which is
the conventional figure of merit for this kind of spectrum fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import bias_to_ghz, levenberg_marquardt
from .rabi import (FOCK_TOL_GHZ, RABI_FOCK_LADDER, RabiParams, _structure,
                   fock_rung, fock_shift, rabi_energies, rabi_hamiltonian)

# Relative nudge of the first minimum that the agreement re-start runs from.
RESTART_STEP = (1.02, 0.98, 1.05, 1.001)

# Order of the fitted parameters in the optimizer's vector.
PARAM_NAMES = ("omega", "Delta_q", "g", "Ip")


class FitDataError(ValueError):
    """The levels or the start cannot be fit."""


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
    """pairs are the fit's transitions, fit_transition_pairs(max_level);
    data[p, c] is the circuit's transition pairs[c] at grid[p] and
    fitted[p, c] the model's at the fitted parameters and n_fock, in GHz.
    residual_mhz2 is the mean square of fitted - data over the
    ground-state columns only; objective_mhz2 is the minimized mean over
    every data point.  n_fock is the Fock truncation the fit ran at and
    fock_shift_GHz its rabi.fock_shift at the fitted parameters."""

    params: RabiParams
    residual_mhz2: float
    objective_mhz2: float
    n_eval: int
    converged: bool
    restart_spread: float
    n_fock: int
    fock_shift_GHz: float
    pairs: tuple[tuple[int, int], ...]
    data: np.ndarray
    fitted: np.ndarray


def _check_params(params: RabiParams) -> None:
    """FitDataError unless every model parameter is finite and omega > 0."""
    values = [getattr(params, name) for name in PARAM_NAMES]
    if not np.isfinite(values).all() or not params.omega > 0.0:
        raise FitDataError("model parameters must be finite, omega > 0")


def _transitions(values: np.ndarray,
                 pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """out[p, c] = values[p, j] - values[p, i] for pairs[c] = (i, j)."""
    lower, upper = np.array(pairs).T
    return values[:, upper] - values[:, lower]


def _table_and_jacobian(params: RabiParams, grid: np.ndarray,
                        pairs: tuple[tuple[int, int], ...],
                        n_fock: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, jac): the model's transitions table[p, c] = pairs[c] at
    grid[p] and jac[p, c, k] = d table[p, c] / d theta_k, theta in
    PARAM_NAMES order, from one stacked eigh.

    H = omega A + Delta_q B + eps C + g D with eps = bias_to_ghz(Ip, phix)
    linear in Ip, so dE_n/dtheta = <n|dH/dtheta|n> (Hellmann-Feynman) on
    the lowest max(j) + 1 eigenvectors at each bias.
    """
    a_mat, b_mat, c_mat, d_mat = _structure(n_fock, params.variant)
    energies, vectors = np.linalg.eigh(rabi_hamiltonian(params, grid, n_fock))
    v = vectors[..., :max(j for _, j in pairs) + 1]
    slopes = np.stack([np.sum(v * (m @ v), axis=-2)
                       for m in (a_mat, b_mat, d_mat, c_mat)], axis=-1)
    slopes[..., 3] *= bias_to_ghz(1.0, grid)[:, None]
    return _transitions(energies, pairs), _transitions(slopes, pairs)


def _fit_data(grid: np.ndarray, levels: np.ndarray, max_level: int
              ) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """(pairs, data): fit_transition_pairs(max_level) and their transitions
    in levels; FitDataError unless they can be fit."""
    pairs = fit_transition_pairs(max_level)
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 2 or levels.shape[0] != len(grid) \
            or levels.shape[1] <= max_level:
        raise FitDataError(f"levels shape {levels.shape} is not (grid, "
                           f"> max_level) = ({len(grid)}, > {max_level})")
    data = _transitions(levels, pairs)
    if data.size < 4:
        raise FitDataError("need at least as many points as parameters")
    if not np.isfinite(data).all():
        raise FitDataError("transitions must be finite")
    return pairs, data


def fit_rabi(grid: np.ndarray, levels: np.ndarray, max_level: int,
             initial: RabiParams) -> RabiFitResult:
    """Fit the model to the circuit's levels from a mapped start.

    levels[p] holds the circuit's lowest levels at grid[p], in GHz, at
    least max_level + 1 of them; the data are their transitions
    fit_transition_pairs(max_level), and the residuals run over them in
    row-major order.  Runs Levenberg-Marquardt on the signed residuals
    from the start, then once more from the first minimum nudged by
    RESTART_STEP, and keeps the lower minimum; converged requires both
    runs to settle and to agree below 0.1% on every parameter (relative to
    1e-3 omega for a parameter smaller than that).  n_eval counts the
    evaluations of residuals and Jacobian, one stacked eigh each, over all
    runs.  The Fock truncation is the rung fock_rung picks at the start;
    where that rung does not hold at the fitted parameters, the fit takes
    the rung fock_rung picks there and runs once more from the start.
    converged also needs the fock_shift of the final rung at the fitted
    parameters below FOCK_TOL_GHZ and a rung below the ladder's top (the
    top is where no rung settled).  One stacked eigvalsh at the fitted
    parameters gives fitted and, with data, residual_mhz2.  Raises
    FitDataError before any solve for levels or a start that cannot be
    fit.
    """
    pairs, data = _fit_data(grid, levels, max_level)
    _check_params(initial)
    grid = np.asarray(grid, dtype=float)
    probe = grid[[0, len(grid) // 2, -1]]
    start = np.array([getattr(initial, name) for name in PARAM_NAMES])
    n_fock = fock_rung(initial, probe)

    def with_theta(theta: np.ndarray) -> RabiParams:
        return replace(initial, **{name: float(value)
                                   for name, value in zip(PARAM_NAMES, theta)})

    n_eval = 0

    def evaluate(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal n_eval
        n_eval += 1
        # unchecked: a step may leave the physical region and come back
        model, slopes = _table_and_jacobian(with_theta(theta), grid, pairs,
                                            n_fock)
        return (1e3 * (model - data).ravel(),
                1e3 * slopes.reshape(-1, len(PARAM_NAMES)))

    # The objective is even in g, so g = 0 (the mapped start at Lc = 0) is a
    # stationary point: each run starts at least 1e-3 omega off zero.  Near
    # that point J'J has no curvature along g, the case the damped-step
    # settle covers: decoupled data end there with g below 1e-7.
    def minimize(theta0: np.ndarray):
        floor = 1e-3 * abs(theta0[0])
        theta0 = np.where(np.abs(theta0) < floor, floor, theta0)
        return levenberg_marquardt(evaluate, theta0)

    def fit_twice():
        """(first run, second run, kept run); a run is (theta, residuals,
        settled) and the kept one has the lower cost, the first on a tie."""
        first = minimize(start)
        second = minimize(np.abs(first[0]) * RESTART_STEP)
        return first, second, min(first, second,
                                  key=lambda run: run[1] @ run[1])

    first, second, best = fit_twice()
    params = with_theta(np.abs(best[0]))
    shift = fock_shift(params, probe, n_fock)
    if shift >= FOCK_TOL_GHZ and n_fock < RABI_FOCK_LADDER[-1]:
        n_fock = fock_rung(params, probe)
        first, second, best = fit_twice()
        params = with_theta(np.abs(best[0]))
        shift = fock_shift(params, probe, n_fock)
    theta = np.abs(best[0])
    gap = np.abs(np.abs(first[0]) - np.abs(second[0]))
    # gaps are judged against 1e-3 omega where a parameter is smaller, as in
    # the start lift: a fitted g near 0 must not inflate them
    spread = float((gap / np.maximum(theta, 1e-3 * theta[0])).max())
    fitted = _transitions(rabi_energies(params, grid, n_fock), pairs)
    ground = [c for c, (i, _) in enumerate(pairs) if i == 0]
    misses = 1e3 * (fitted - data)[:, ground].ravel()
    return RabiFitResult(params=params,
                         residual_mhz2=float((misses ** 2).mean()),
                         objective_mhz2=float(np.mean(best[1] ** 2)),
                         n_eval=n_eval,
                         converged=(first[2] and second[2] and spread < 1e-3
                                    and shift < FOCK_TOL_GHZ
                                    and n_fock < RABI_FOCK_LADDER[-1]),
                         restart_spread=spread, n_fock=n_fock,
                         fock_shift_GHz=shift, pairs=pairs, data=data,
                         fitted=fitted)
