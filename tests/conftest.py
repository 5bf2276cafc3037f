"""Shared fixtures: reference circuits and cached expensive solves.

The module-level lru_cache helpers are shared by every test module in the
session, so the deep-strong-coupling fits and the big eigensolves run at
most once no matter which tests request them.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

import fluxrabi.coupled as coupled
from fluxrabi.circuit import gauge_circuit
from fluxrabi.config import reference_config
from fluxrabi.coupled import coupled_levels
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
        spec = coupled_levels("flux", raw, n_qubit=8, n_fock=60)
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


@pytest.fixture
def assembled_dims(monkeypatch):
    """Dimensions of every dense matrix the states call assembles; one above
    DENSE_DIM_LIMIT fails the test before it is allocated."""
    dims = []
    dense_upper = coupled._dense_upper

    def recorder(band):
        dim = band.shape[1]
        dims.append(dim)
        assert dim <= coupled.DENSE_DIM_LIMIT, f"dense assembly at {dim}"
        return dense_upper(band)

    monkeypatch.setattr(coupled, "_dense_upper", recorder)
    return dims
