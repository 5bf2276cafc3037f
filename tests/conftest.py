"""Shared fixtures: reference circuits and cached expensive solves.

The module-level lru_cache helpers are shared by every test module in the
session, so the deep-strong-coupling fits and the big eigensolves run at
most once no matter which tests request them.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from fluxrabi.circuit import gauge_circuit
from fluxrabi.config import reference_config
from fluxrabi.coupled import build_coupled_eigenbasis
from fluxrabi.fitting import fit_rabi, fit_transition_pairs
from fluxrabi.perturbation import second_order_table
from fluxrabi.qubit import characterize_qubit
from fluxrabi.rabi import map_circuit_to_rabi

# Bias grid the spectrum fits run on.
FIT_GRID = np.linspace(0.494, 0.506, 41)


@dataclasses.dataclass(frozen=True)
class CircuitParts:
    """A reference circuit with the node parameters of both gauges."""

    raw: object
    flux: object
    charge: object


@lru_cache(maxsize=None)
def circuit_parts(lc, phix=0.5):
    """Reference circuit (fixed branch sums 800 / 2050 pH) at one Lc."""
    raw = dataclasses.replace(reference_config(lc=lc).circuit, phix=phix)
    return CircuitParts(raw=raw, flux=gauge_circuit("flux", raw),
                        charge=gauge_circuit("charge", raw))


def dispersive_shift(coupling, level=0):
    """Second-order shift of the oscillator transition against a qubit level."""
    return (second_order_table(coupling, 1, level).total
            - second_order_table(coupling, 0, level).total)


@lru_cache(maxsize=None)
def mapped_params(lc, gauge):
    """First-principles model parameters of one gauge at one Lc."""
    raw = circuit_parts(lc).raw
    fit = characterize_qubit(*gauge_circuit(gauge, raw).qubit_node)
    return map_circuit_to_rabi(gauge, raw, fit)


@lru_cache(maxsize=None)
def coupled_fit_levels(lc):
    """Lowest 8 coupled flux-gauge levels over FIT_GRID, truncation (8, 60)."""
    p = circuit_parts(lc)
    rows = []
    for phix in FIT_GRID:
        raw = dataclasses.replace(p.raw, phix=float(phix))
        spec = build_coupled_eigenbasis("flux", raw, n_qubit=8, n_fock=60)
        rows.append(spec.energies[:8])
    return np.array(rows)


@lru_cache(maxsize=None)
def fit_data(lc, max_level):
    """table[p, c] = transition fit_transition_pairs(max_level)[c] at
    FIT_GRID[p], from the exact flux-gauge levels."""
    energies = coupled_fit_levels(lc)
    return np.column_stack([energies[:, j] - energies[:, i]
                            for i, j in fit_transition_pairs(max_level)])


@lru_cache(maxsize=None)
def fit_result(lc, variant, max_level=3):
    """Spectrum fit of one model variant to the exact flux-gauge data."""
    return fit_rabi(FIT_GRID, fit_transition_pairs(max_level),
                    fit_data(lc, max_level), mapped_params(lc, variant))


@pytest.fixture(scope="session")
def parts20():
    return circuit_parts(20.0)


@pytest.fixture(scope="session")
def parts350():
    return circuit_parts(350.0)


@pytest.fixture(scope="session")
def mapped():
    return mapped_params


@pytest.fixture(scope="session")
def fits():
    return fit_result


def patch_pbtrf(monkeypatch, wrap):
    """Make scipy.linalg.get_lapack_funcs hand out wrap(dpbtrf) for every
    "pbtrf" it is asked for, the other routines unchanged."""
    get_funcs = scipy.linalg.get_lapack_funcs

    def lapack_funcs(names, *args, **kwargs):
        funcs = get_funcs(names, *args, **kwargs)
        return [wrap(f) if name == "pbtrf" else f
                for name, f in zip(names, funcs)]

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lapack_funcs)


def solver_calls(monkeypatch):
    """Names of the coupled eigensolvers and factorizations called, in call
    order: "eig_banded", "eigsh" and "pbtrf"."""
    calls = []
    for module, name in ((scipy.linalg, "eig_banded"),
                         (scipy.sparse.linalg, "eigsh")):
        original = getattr(module, name)

        def record(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, record)

    def name_factor(pbtrf):
        def factor(*args, **kwargs):
            calls.append("pbtrf")
            return pbtrf(*args, **kwargs)
        return factor

    patch_pbtrf(monkeypatch, name_factor)
    return calls


def nothing_dense(calls):
    """Whether solver_calls recorded solves, each on the band's Cholesky
    factor and matrix-free: no LAPACK solve of a whole band, no dense
    matrix."""
    return bool(calls) and set(calls) <= {"pbtrf", "eigsh"}
