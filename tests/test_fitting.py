"""Transition-table fitting: data containers, model tables, optimizer."""

import numpy as np
import pytest

from fluxrabi.fitting import (
    FitDataError,
    TransitionData,
    fit_rabi,
    fit_transition_pairs,
    ground_residual_mhz2,
    model_pair_table,
)
from fluxrabi.rabi import RabiParams, diagonalize_rabi


GRID = np.linspace(0.496, 0.504, 11)


def test_transition_pair_sets():
    assert fit_transition_pairs(1) == ((0, 1),)
    assert fit_transition_pairs(3) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    assert fit_transition_pairs(4) == ((0, 1), (0, 2), (0, 3), (0, 4))
    assert fit_transition_pairs(7) == tuple((0, i) for i in range(1, 8))
    with pytest.raises(FitDataError):
        fit_transition_pairs(0)


def test_transition_data_validation():
    with pytest.raises(FitDataError):
        TransitionData(phix=np.zeros(4), levels=np.ones(3, dtype=int),
                       freqs=np.zeros(4))
    with pytest.raises(FitDataError):
        TransitionData(phix=np.zeros(3), levels=np.ones(3, dtype=int),
                       freqs=np.zeros(3))
    with pytest.raises(FitDataError):
        TransitionData(phix=np.zeros(4), levels=np.zeros(4, dtype=int),
                       freqs=np.zeros(4))
    data = TransitionData(phix=np.zeros(4), levels=np.ones(4, dtype=int),
                          freqs=np.zeros(4))
    assert np.array_equal(data.sources, np.zeros(4, dtype=int))
    assert data.max_level == 1


def test_from_pair_table_layout():
    pairs = ((0, 1), (1, 2))
    table = np.array([[1.0, 2.0], [3.0, 4.0]])
    data = TransitionData.from_pair_table(np.array([0.5, 0.501]), table, pairs)
    assert np.array_equal(data.phix, [0.5, 0.5, 0.501, 0.501])
    assert np.array_equal(data.sources, [0, 1, 0, 1])
    assert np.array_equal(data.levels, [1, 2, 1, 2])
    assert np.array_equal(data.freqs, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(FitDataError):
        TransitionData.from_pair_table(np.array([0.5, 0.501]), table,
                                       ((0, 1),))


def test_model_tables_agree_with_direct_diagonalization():
    params = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.5)
    table = model_pair_table(params, GRID, ((0, 1), (0, 2), (0, 3)), n_fock=24)
    pair = model_pair_table(params, GRID, ((0, 2), (1, 3)), n_fock=24)
    for p, phix in enumerate(GRID):
        levels = diagonalize_rabi(params, phix, n_fock=24,
                                  check_convergence=False).energies[:4]
        assert table[p] == pytest.approx(levels[1:] - levels[0], abs=1e-12)
        assert pair[p, 0] == pytest.approx(levels[2] - levels[0], abs=1e-12)
        assert pair[p, 1] == pytest.approx(levels[3] - levels[1], abs=1e-12)


def test_ground_residual_ignores_excited_source_rows():
    params = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.5)
    pairs = fit_transition_pairs(3)
    clean = model_pair_table(params, GRID, pairs, n_fock=24)
    noisy = clean.copy()
    noisy[:, 3:] += 0.25  # corrupt only the 1->2 and 1->3 columns
    data_clean = TransitionData.from_pair_table(GRID, clean, pairs)
    data_noisy = TransitionData.from_pair_table(GRID, noisy, pairs)
    assert ground_residual_mhz2(params, data_clean, n_fock=24) < 1e-12
    assert ground_residual_mhz2(params, data_noisy, n_fock=24) < 1e-12


def test_ground_residual_requires_ground_rows():
    params = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.5)
    data = TransitionData(phix=np.full(4, 0.5),
                          levels=np.array([2, 2, 3, 3]),
                          freqs=np.ones(4),
                          sources=np.array([1, 1, 1, 1]))
    with pytest.raises(FitDataError):
        ground_residual_mhz2(params, data, n_fock=16)


@pytest.mark.parametrize("variant", ["flux", "charge"])
def test_self_fit_recovers_generating_parameters(variant):
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4,
                       variant=variant)
    pairs = fit_transition_pairs(3)
    table = model_pair_table(truth, GRID, pairs, n_fock=16)
    data = TransitionData.from_pair_table(GRID, table, pairs)
    start = RabiParams(omega=truth.omega * 1.03, Delta_q=truth.Delta_q * 0.95,
                       Ip=truth.Ip * 1.01, g=truth.g * 1.1, variant=variant)
    result = fit_rabi(data, start, n_fock=16)
    assert result.converged
    assert result.objective_mhz2 < 1e-10
    assert result.params.omega == pytest.approx(truth.omega, rel=1e-5)
    assert result.params.Delta_q == pytest.approx(truth.Delta_q, rel=1e-5)
    assert result.params.g == pytest.approx(truth.g, rel=1e-5)
    assert result.params.Ip == pytest.approx(truth.Ip, rel=1e-5)
    assert result.params.variant == variant


def test_fit_is_deterministic():
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)
    pairs = fit_transition_pairs(2)
    table = model_pair_table(truth, GRID, pairs, n_fock=16)
    data = TransitionData.from_pair_table(GRID, table, pairs)
    start = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=0.45)
    a = fit_rabi(data, start, n_fock=16)
    b = fit_rabi(data, start, n_fock=16)
    assert a.params == b.params
    assert a.objective_mhz2 == b.objective_mhz2
    assert a.n_eval == b.n_eval


def test_fit_insensitive_to_tiny_start_perturbation():
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)
    pairs = fit_transition_pairs(2)
    table = model_pair_table(truth, GRID, pairs, n_fock=16)
    data = TransitionData.from_pair_table(GRID, table, pairs)
    base = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=0.45)
    nudged = RabiParams(omega=6.1 * (1 + 1e-9), Delta_q=1.25, Ip=282.0,
                        g=0.45)
    a = fit_rabi(data, base, n_fock=16)
    b = fit_rabi(data, nudged, n_fock=16)
    assert a.params.omega == pytest.approx(b.params.omega, abs=1e-6)
    assert a.params.Delta_q == pytest.approx(b.params.Delta_q, abs=1e-6)
    assert a.params.g == pytest.approx(b.params.g, abs=1e-6)
    assert a.params.Ip == pytest.approx(b.params.Ip, abs=1e-6)


def test_fit_reports_positive_coupling():
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)
    pairs = fit_transition_pairs(2)
    table = model_pair_table(truth, GRID, pairs, n_fock=16)
    data = TransitionData.from_pair_table(GRID, table, pairs)
    start = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=-0.45)
    result = fit_rabi(data, start, n_fock=16)
    assert result.params.g == pytest.approx(truth.g, rel=1e-5)
    assert result.params.g > 0


def test_fit_rejects_nonfinite_start():
    pairs = fit_transition_pairs(1)
    data = TransitionData.from_pair_table(
        GRID, np.ones((len(GRID), 1)), pairs)
    bad = RabiParams(omega=np.nan, Delta_q=1.0, Ip=280.0, g=0.1)
    with pytest.raises(FitDataError):
        fit_rabi(data, bad, n_fock=16)
