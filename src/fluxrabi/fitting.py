"""Least-squares extraction of two-level model parameters from spectra.

Fits the four parameters (omega, Delta_q, g, Ip) of the qubit-oscillator
model to a table of transition frequencies sampled on a flux grid.  The
objective is the mean squared residual over all (flux, transition) points
in MHz^2, minimized with deterministic Nelder-Mead restarts so repeated
runs give identical results.  The residual reported alongside the fitted
parameters is restricted to transitions from the ground state, which is
the conventional figure of merit for this kind of spectrum fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rabi import RabiParams, default_n_fock, rabi_energies

# Deterministic restart schedule: relative perturbations applied to the
# best point so far before each re-minimization.
RESTART_STEPS = ((1.0, 1.0, 1.0, 1.0),
                 (1.02, 0.98, 1.05, 1.001),
                 (0.98, 1.02, 0.95, 0.999))
MAX_EVALS = 2000
XATOL = 1e-10
FATOL = 1e-10


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


def _squared_residuals(theta: np.ndarray, data: TransitionData, variant: str,
                       n_fock: int) -> np.ndarray:
    """Per-point squared residuals in MHz^2, in data order."""
    params = RabiParams(omega=theta[0], Delta_q=theta[1], Ip=theta[3],
                        g=theta[2], variant=variant)
    out = np.empty(len(data.freqs))
    for phix in np.unique(data.phix):
        mask = data.phix == phix
        energies = rabi_energies(params, phix, n_fock)
        model = energies[data.levels[mask]] - energies[data.sources[mask]]
        out[mask] = (1e3 * (model - data.freqs[mask])) ** 2
    return out


def _residual_mhz2(theta: np.ndarray, data: TransitionData, variant: str,
                   n_fock: int) -> float:
    return float(_squared_residuals(theta, data, variant, n_fock).mean())


def ground_residual_mhz2(params: RabiParams, data: TransitionData,
                         n_fock: int | None = None) -> float:
    """Mean squared residual restricted to transitions from the ground state."""
    if n_fock is None:
        n_fock = default_n_fock(params.g / params.omega)
    theta = np.array([params.omega, params.Delta_q, params.g, params.Ip])
    squared = _squared_residuals(theta, data, params.variant, n_fock)
    mask = data.sources == 0
    if not mask.any():
        raise FitDataError("no ground-state transitions in the data")
    return float(squared[mask].mean())


def fit_rabi(data: TransitionData, initial: RabiParams,
             n_fock: int | None = None) -> RabiFitResult:
    """Minimize the mean squared transition residual from a mapped start.

    Runs the deterministic restart schedule and keeps the best minimum;
    converged requires optimizer success and restart agreement below 0.1%
    on every parameter.
    """
    from scipy.optimize import minimize  # on first use, as in qubit.py

    if n_fock is None:
        n_fock = default_n_fock(initial.g / initial.omega)
    start = np.array([initial.omega, initial.Delta_q, initial.g, initial.Ip])
    if np.any(~np.isfinite(start)):
        raise FitDataError("initial parameters must be finite")

    best_theta = start
    best_value = np.inf
    minima = []
    n_eval = 0
    success = False
    for step in RESTART_STEPS:
        theta0 = best_theta * np.array(step)
        opt = minimize(_residual_mhz2, theta0,
                       args=(data, initial.variant, n_fock),
                       method="Nelder-Mead",
                       options={"maxfev": MAX_EVALS, "xatol": XATOL,
                                "fatol": FATOL, "adaptive": True})
        n_eval += opt.nfev
        minima.append(np.abs(opt.x))
        if opt.fun < best_value:
            best_value = float(opt.fun)
            best_theta = np.abs(opt.x)
            success = bool(opt.success)

    spread = 0.0
    for theta in minima:
        rel = np.abs(theta - best_theta) / np.maximum(np.abs(best_theta), 1e-12)
        spread = max(spread, float(rel.max()))
    params = replace(initial, omega=float(best_theta[0]),
                     Delta_q=float(best_theta[1]), g=float(best_theta[2]),
                     Ip=float(best_theta[3]))
    reported = ground_residual_mhz2(params, data, n_fock)
    return RabiFitResult(params=params, residual_mhz2=reported,
                         objective_mhz2=best_value, n_eval=n_eval,
                         converged=success and spread < 1e-3,
                         restart_spread=spread)
