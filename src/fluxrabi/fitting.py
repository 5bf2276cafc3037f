"""Least-squares extraction of two-level model parameters from spectra.

Fits the four parameters (omega, Delta_q, g, Ip) of the qubit-oscillator
model to a table of transition frequencies sampled on a flux grid.  The
objective is the mean squared residual over all (flux, transition) points
in MHz^2, minimized by Levenberg-Marquardt with one re-start from the
nudged minimum; nothing is random, so repeated runs give identical
results.  The residual reported alongside the fitted parameters is
restricted to transitions from the ground state, which is the
conventional figure of merit for this kind of spectrum fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rabi import RabiParams, default_n_fock, rabi_energies

# Relative nudge of the first minimum that the agreement re-start runs from.
RESTART_STEP = (1.02, 0.98, 1.05, 1.001)


class FitDataError(ValueError):
    """The transition table cannot be fit (wrong shape or empty)."""


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
class TransitionData:
    """Long-format transition table: freqs[p] couples sources[p] to levels[p].

    sources defaults to the ground state for every point.
    """

    phix: np.ndarray
    levels: np.ndarray
    freqs: np.ndarray
    sources: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.sources is None:
            object.__setattr__(self, "sources",
                               np.zeros(len(self.levels, ), dtype=int))
        if not (len(self.phix) == len(self.levels) == len(self.freqs)
                == len(self.sources)):
            raise FitDataError("phix, levels, freqs, sources must have equal "
                               "length")
        if len(self.phix) < 4:
            raise FitDataError("need at least as many points as parameters")
        if np.any(self.sources < 0) or np.any(self.levels <= self.sources):
            raise FitDataError("each transition must go up the level ladder")

    @classmethod
    def from_pair_table(cls, phix_grid: np.ndarray, table: np.ndarray,
                        pairs: tuple[tuple[int, int], ...]) -> "TransitionData":
        """table[p, c] = transition pairs[c] at phix_grid[p]."""
        table = np.asarray(table, dtype=float)
        n_phix, n_pairs = table.shape
        if n_pairs != len(pairs):
            raise FitDataError("table columns must match the pair list")
        phix = np.repeat(np.asarray(phix_grid, dtype=float), n_pairs)
        sources = np.tile(np.array([p[0] for p in pairs], dtype=int), n_phix)
        levels = np.tile(np.array([p[1] for p in pairs], dtype=int), n_phix)
        return cls(phix=phix, levels=levels, freqs=table.reshape(-1),
                   sources=sources)

    @property
    def max_level(self) -> int:
        return int(self.levels.max())


@dataclass(frozen=True)
class RabiFitResult:
    """residual_mhz2 covers ground-state transitions only; objective_mhz2
    is the minimized mean over every data point."""

    params: RabiParams
    residual_mhz2: float
    objective_mhz2: float
    n_eval: int
    converged: bool
    restart_spread: float


def model_pair_table(params: RabiParams, phix_grid: np.ndarray,
                     pairs: tuple[tuple[int, int], ...],
                     n_fock: int | None = None) -> np.ndarray:
    """table[p, c] = model transition pairs[c] at phix_grid[p], in GHz."""
    if n_fock is None:
        n_fock = default_n_fock(params.g / params.omega)
    out = np.empty((len(phix_grid), len(pairs)))
    for p, phix in enumerate(phix_grid):
        energies = rabi_energies(params, phix, n_fock)
        out[p] = [energies[j] - energies[i] for i, j in pairs]
    return out


def _residuals_mhz(theta: np.ndarray, data: TransitionData, variant: str,
                   n_fock: int) -> np.ndarray:
    """Per-point residuals model - data in MHz, in data order."""
    params = RabiParams(omega=theta[0], Delta_q=theta[1], Ip=theta[3],
                        g=theta[2], variant=variant)
    out = np.empty(len(data.freqs))
    for phix in np.unique(data.phix):
        mask = data.phix == phix
        energies = rabi_energies(params, phix, n_fock)
        model = energies[data.levels[mask]] - energies[data.sources[mask]]
        out[mask] = 1e3 * (model - data.freqs[mask])
    return out


def ground_residual_mhz2(params: RabiParams, data: TransitionData,
                         n_fock: int | None = None) -> float:
    """Mean squared residual restricted to transitions from the ground state."""
    if n_fock is None:
        n_fock = default_n_fock(params.g / params.omega)
    theta = np.array([params.omega, params.Delta_q, params.g, params.Ip])
    residuals = _residuals_mhz(theta, data, params.variant, n_fock)
    mask = data.sources == 0
    if not mask.any():
        raise FitDataError("no ground-state transitions in the data")
    return float((residuals[mask] ** 2).mean())


def fit_rabi(data: TransitionData, initial: RabiParams,
             n_fock: int | None = None) -> RabiFitResult:
    """Minimize the mean squared transition residual from a mapped start.

    Runs Levenberg-Marquardt on the signed residuals from the start, then
    once more from the first minimum nudged by RESTART_STEP, and keeps the
    lower minimum; converged requires both runs to succeed and to agree
    below 0.1% on every parameter (relative to 1e-3 omega for a parameter
    smaller than that).  n_eval counts every residual evaluation,
    finite-difference Jacobian columns included.
    """
    if n_fock is None:
        n_fock = default_n_fock(initial.g / initial.omega)
    start = np.array([initial.omega, initial.Delta_q, initial.g, initial.Ip])
    if np.any(~np.isfinite(start)):
        raise FitDataError("initial parameters must be finite")
    from scipy.optimize import least_squares  # on first use, as in qubit.py

    n_eval = 0

    def residuals(theta: np.ndarray) -> np.ndarray:
        nonlocal n_eval
        n_eval += 1
        return _residuals_mhz(theta, data, initial.variant, n_fock)

    # Levenberg-Marquardt in scipy's trust-region form, scaled to the run's
    # start so that the first step stays within about twice each parameter;
    # MINPACK's method="lm" may step 100 times that, and on a drawn
    # self-fit it settled in a wrong minimum (tests/test_fitting.py pins it).
    # The objective is even in g, so g = 0 (the mapped start at Lc = 0) is a
    # stationary point: each run starts at least 1e-3 omega off zero.
    def minimize(theta0: np.ndarray):
        floor = 1e-3 * abs(theta0[0])
        theta0 = np.where(np.abs(theta0) < floor, floor, theta0)
        return least_squares(residuals, theta0, method="trf",
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
    params = replace(initial, omega=float(theta[0]), Delta_q=float(theta[1]),
                     g=float(theta[2]), Ip=float(theta[3]))
    reported = ground_residual_mhz2(params, data, n_fock)
    return RabiFitResult(params=params, residual_mhz2=reported,
                         objective_mhz2=float(np.mean(best.fun ** 2)),
                         n_eval=n_eval,
                         converged=first.success and second.success
                         and spread < 1e-3,
                         restart_spread=spread)
