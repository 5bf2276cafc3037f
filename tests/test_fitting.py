"""Transition-table fitting: table checks, model tables, optimizer."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fluxrabi.fitting as fitting
from conftest import FIT_GRID, fit_data, fit_result, mapped_params
from fluxrabi.fitting import (
    FitDataError,
    fit_rabi,
    fit_transition_pairs,
    ground_residual_mhz2,
    model_pair_table,
)
from fluxrabi.rabi import RabiParams, rabi_energies


GRID = np.linspace(0.496, 0.504, 11)


def test_transition_pair_sets():
    assert fit_transition_pairs(1) == ((0, 1),)
    assert fit_transition_pairs(3) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    assert fit_transition_pairs(4) == ((0, 1), (0, 2), (0, 3), (0, 4))
    assert fit_transition_pairs(7) == tuple((0, i) for i in range(1, 8))
    with pytest.raises(FitDataError):
        fit_transition_pairs(0)


START = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)


@pytest.fixture
def solves(monkeypatch):
    """Arguments of every rabi_energies call the fitting module makes."""
    calls = []
    original = fitting.rabi_energies

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fitting, "rabi_energies", counted)
    return calls


def ones_with(value, row, col):
    table = np.ones((len(GRID), 2))
    table[row, col] = value
    return table


@pytest.mark.parametrize("grid, pairs, table, start", [
    (GRID, ((0, 1), (1, 2)), np.ones((len(GRID) - 1, 2)), START),
    (GRID, ((0, 1), (1, 2)), np.ones((len(GRID), 3)), START),
    (GRID, ((0, 1), (1, 2)), np.ones(2 * len(GRID)), START),
    (GRID[:1], ((0, 1), (0, 2), (0, 3)), np.ones((1, 3)), START),
    (GRID, ((0, 1), (2, 2)), np.ones((len(GRID), 2)), START),
    (GRID, ((0, 2), (2, 1)), np.ones((len(GRID), 2)), START),
    (GRID, ((0, 1), (-1, 1)), np.ones((len(GRID), 2)), START),
    (GRID, ((1, 2), (1, 3)), np.ones((len(GRID), 2)), START),
    (GRID, ((0, 1), (1, 2)), ones_with(np.nan, 3, 1), START),
    (GRID, ((0, 1), (1, 2)), ones_with(-np.inf, 10, 0), START),
    (GRID, ((0, 1), (1, 2)), np.ones((len(GRID), 2)),
     dataclasses.replace(START, omega=0.0)),
    (GRID, ((0, 1), (1, 2)), np.ones((len(GRID), 2)),
     dataclasses.replace(START, omega=-6.0)),
    (GRID, ((0, 1), (1, 2)), np.ones((len(GRID), 2)),
     dataclasses.replace(START, Ip=np.inf)),
], ids=["missing-row", "extra-column", "flat", "three-entries",
        "level-to-itself", "down-the-ladder", "negative-source",
        "no-ground-pair", "nan-entry", "inf-entry", "zero-omega",
        "negative-omega", "infinite-start"])
def test_unfittable_input_rejected_before_any_solve(solves, grid, pairs,
                                                    table, start):
    with pytest.raises(FitDataError):
        fit_rabi(grid, pairs, table, start)
    assert solves == []


@pytest.mark.parametrize("omega", [0.0, -6.0, np.nan])
def test_model_parameters_checked_before_any_solve(solves, omega):
    params = dataclasses.replace(START, omega=omega)
    pairs = ((0, 1), (1, 2))
    with pytest.raises(FitDataError):
        model_pair_table(params, GRID, pairs)
    with pytest.raises(FitDataError):
        ground_residual_mhz2(params, GRID, pairs, np.ones((len(GRID), 2)))
    assert solves == []


def test_model_tables_agree_with_direct_diagonalization():
    params = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.5)
    table = model_pair_table(params, GRID, ((0, 1), (0, 2), (0, 3)), n_fock=24)
    pair = model_pair_table(params, GRID, ((0, 2), (1, 3)), n_fock=24)
    for p, phix in enumerate(GRID):
        levels = rabi_energies(params, phix, 24)[:4]
        assert table[p] == pytest.approx(levels[1:] - levels[0], abs=1e-12)
        assert pair[p, 0] == pytest.approx(levels[2] - levels[0], abs=1e-12)
        assert pair[p, 1] == pytest.approx(levels[3] - levels[1], abs=1e-12)


def test_ground_residual_ignores_excited_source_rows():
    params = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.5)
    pairs = fit_transition_pairs(3)
    clean = model_pair_table(params, GRID, pairs, n_fock=24)
    noisy = clean.copy()
    noisy[:, 3:] += 0.25  # corrupt only the 1->2 and 1->3 columns
    assert ground_residual_mhz2(params, GRID, pairs, clean, n_fock=24) < 1e-12
    assert ground_residual_mhz2(params, GRID, pairs, noisy, n_fock=24) < 1e-12


def test_ground_residual_requires_ground_rows():
    params = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.5)
    with pytest.raises(FitDataError):
        ground_residual_mhz2(params, np.full(2, 0.5), ((1, 2), (1, 3)),
                             np.ones((2, 2)), n_fock=16)


@pytest.mark.parametrize("variant", ["flux", "charge"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(omega=st.floats(4.0, 8.0), delta_q=st.floats(0.5, 3.0),
       ip=st.floats(250.0, 300.0), ratio=st.floats(0.02, 0.15),
       signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 4))
# a first step of MINPACK's unscaled Levenberg-Marquardt took g to 6.8 GHz
# here (flux) and both runs agreed on a minimum 7374 MHz^2 deep
@example(omega=6.125, delta_q=0.5, ip=250.0, ratio=0.02,
         signs=(1.0, -1.0, 1.0, -1.0))
@example(omega=6.0, delta_q=1.3, ip=280.0, ratio=0.4 / 6.0,
         signs=(1.0, -1.0, 1.0, 1.0))
def test_self_fit_recovers_generating_parameters(variant, omega, delta_q, ip,
                                                 ratio, signs):
    truth = RabiParams(omega=omega, Delta_q=delta_q, Ip=ip, g=ratio * omega,
                       variant=variant)
    pairs = fit_transition_pairs(3)
    table = model_pair_table(truth, GRID, pairs, n_fock=16)
    nudge = 1.0 + np.array(signs) * (0.03, 0.05, 0.10, 0.01)
    start = RabiParams(omega=omega * nudge[0], Delta_q=delta_q * nudge[1],
                       g=truth.g * nudge[2], Ip=ip * nudge[3], variant=variant)
    result = fit_rabi(GRID, pairs, table, start, n_fock=16)
    assert result.converged
    assert result.objective_mhz2 < 1e-10
    assert result.params.omega == pytest.approx(truth.omega, rel=1e-5)
    assert result.params.Delta_q == pytest.approx(truth.Delta_q, rel=1e-5)
    assert result.params.g == pytest.approx(truth.g, rel=1e-5)
    assert result.params.Ip == pytest.approx(truth.Ip, rel=1e-5)
    assert result.params.variant == variant


def test_n_eval_counts_every_residual_evaluation(monkeypatch, solves):
    jacobian_solves = []
    hamiltonian = fitting.rabi_hamiltonian

    def counted(*args):
        jacobian_solves.append(args)
        return hamiltonian(*args)

    monkeypatch.setattr(fitting, "rabi_hamiltonian", counted)
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)
    pairs = fit_transition_pairs(3)
    table = model_pair_table(truth, GRID, pairs, n_fock=16)
    start = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=0.45)
    solves.clear()
    result = fit_rabi(GRID, pairs, table, start, n_fock=16)
    # one model solve per bias point per evaluation, plus the reported
    # ground residual's pass; the Jacobian takes one eigh per bias point
    # per evaluation, at least one in each of the two runs
    assert len(solves) == result.n_eval * len(GRID) + len(GRID)
    assert len(jacobian_solves) == result.n_jac * len(GRID)
    assert 2 <= result.n_jac <= result.n_eval


@pytest.mark.parametrize("variant", ["flux", "charge"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(omega=st.floats(4.0, 8.0), delta_q=st.floats(0.5, 3.0),
       ip=st.floats(250.0, 300.0), ratio=st.floats(0.02, 1.5),
       n_fock=st.integers(16, 30))
def test_exact_jacobian_matches_central_differences(variant, omega, delta_q,
                                                    ip, ratio, n_fock):
    # a wrong sign, structure matrix or d eps / d Ip factor is off by the
    # derivative itself, far outside the differences' error
    params = RabiParams(omega=omega, Delta_q=delta_q, Ip=ip, g=ratio * omega,
                        variant=variant)
    pairs = fit_transition_pairs(3)
    jac = fitting._pair_jacobian(params, GRID, pairs, n_fock)
    for k, name in enumerate(fitting.PARAM_NAMES):
        value = getattr(params, name)
        step = 1e-5 * value
        up, down = (model_pair_table(
            dataclasses.replace(params, **{name: value + sign * step}),
            GRID, pairs, n_fock) for sign in (1.0, -1.0))
        central = (up - down) / (2.0 * step)
        scale = np.abs(central).max()
        assert np.abs(jac[:, :, k] - central).max() <= 1e-6 * scale, name


def test_fit_stable_under_last_bit_data_changes():
    # fit data moves by a few ulp between LAPACK paths; the fitted minimum
    # and its verdict must not
    table = fit_data(20.0, 3)
    base = fit_result(20.0, "charge")
    # alternating in row-major order, the order the residuals run in
    alternating = np.where(np.arange(table.size) % 2, 4e-13,
                           -4e-13).reshape(table.shape)
    for shift in (4e-13, -4e-13, alternating):
        result = fit_rabi(FIT_GRID, fit_transition_pairs(3), table + shift,
                          mapped_params(20.0, "charge"))
        assert result.converged == base.converged
        for name in ("omega", "Delta_q", "g", "Ip"):
            assert getattr(result.params, name) == pytest.approx(
                getattr(base.params, name), rel=1e-6)


def test_fit_is_deterministic():
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)
    pairs = fit_transition_pairs(2)
    table = model_pair_table(truth, GRID, pairs, n_fock=16)
    start = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=0.45)
    a = fit_rabi(GRID, pairs, table, start, n_fock=16)
    b = fit_rabi(GRID, pairs, table, start, n_fock=16)
    assert a.params == b.params
    assert a.objective_mhz2 == b.objective_mhz2
    assert a.n_eval == b.n_eval


def test_fit_insensitive_to_tiny_start_perturbation():
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)
    pairs = fit_transition_pairs(2)
    table = model_pair_table(truth, GRID, pairs, n_fock=16)
    base = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=0.45)
    nudged = RabiParams(omega=6.1 * (1 + 1e-9), Delta_q=1.25, Ip=282.0,
                        g=0.45)
    a = fit_rabi(GRID, pairs, table, base, n_fock=16)
    b = fit_rabi(GRID, pairs, table, nudged, n_fock=16)
    assert a.params.omega == pytest.approx(b.params.omega, abs=1e-6)
    assert a.params.Delta_q == pytest.approx(b.params.Delta_q, abs=1e-6)
    assert a.params.g == pytest.approx(b.params.g, abs=1e-6)
    assert a.params.Ip == pytest.approx(b.params.Ip, abs=1e-6)


def test_fit_reports_positive_coupling():
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)
    pairs = fit_transition_pairs(2)
    table = model_pair_table(truth, GRID, pairs, n_fock=16)
    start = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=-0.45)
    result = fit_rabi(GRID, pairs, table, start, n_fock=16)
    assert result.params.g == pytest.approx(truth.g, rel=1e-5)
    assert result.params.g > 0


@pytest.mark.parametrize("g", [0.4, 0.04])
def test_fit_leaves_zero_coupling_start(g):
    # the mapped start at Lc = 0 has g exactly 0, a stationary point of the
    # objective (even in g); the fit must still move g to the data's value
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=g)
    pairs = fit_transition_pairs(2)
    table = model_pair_table(truth, GRID, pairs, n_fock=16)
    start = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=0.0)
    result = fit_rabi(GRID, pairs, table, start, n_fock=16)
    assert result.converged
    assert result.objective_mhz2 < 1e-10
    assert result.params.g == pytest.approx(g, rel=1e-5)


def test_fit_rejects_nonfinite_start():
    bad = RabiParams(omega=np.nan, Delta_q=1.0, Ip=280.0, g=0.1)
    with pytest.raises(FitDataError):
        fit_rabi(GRID, fit_transition_pairs(1), np.ones((len(GRID), 1)), bad,
                 n_fock=16)


@pytest.mark.parametrize("variant", ["flux", "charge"])
def test_decoupled_data_fit_converges(variant):
    # at Lc = 0 the data's own minimum has g -> 0 (about 1e-8 GHz); the two
    # runs reach the same objective, and their gap in g is judged against
    # 1e-3 omega rather than against the vanishing g itself
    result = fit_result(0.0, variant, 3)
    assert result.params.g < 1e-6
    assert result.restart_spread < 1e-3
    assert result.converged
