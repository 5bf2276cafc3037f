"""Spectrum fitting: data checks, data and model transitions, optimizer."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fluxrabi.constants as constants
import fluxrabi.fitting as fitting
from conftest import FIT_GRID, coupled_fit_levels, fit_result, mapped_params
from fluxrabi.fitting import FitDataError, fit_rabi, fit_transition_pairs
from fluxrabi.rabi import (FOCK_TOL_GHZ, RABI_FOCK_LADDER, RabiParams,
                           fock_rung, fock_shift, rabi_energies)


GRID = np.linspace(0.496, 0.504, 11)


def model_levels(truth, grid=GRID):
    """The model's levels over grid at the rung fock_rung picks for truth
    at the grid's two ends and middle."""
    return rabi_energies(truth, grid,
                         fock_rung(truth, grid[[0, len(grid) // 2, -1]]))


def model_table(params, pairs, n_fock, grid=GRID):
    """table[p, c] = the model's transition pairs[c] at grid[p], from the
    stacked eigvalsh."""
    energies = rabi_energies(params, grid, n_fock)
    return np.array([[row[j] - row[i] for i, j in pairs] for row in energies])


def gauss_newton_move(params, grid, pairs, table, n_fock):
    """Largest relative parameter move of one Gauss-Newton step, with the
    exact Jacobian, from params; near 0 at a least-squares minimum."""
    theta = np.array([getattr(params, name) for name in fitting.PARAM_NAMES])
    model, jac = fitting._table_and_jacobian(params, grid, pairs, n_fock)
    residuals = (model - table).ravel()
    step = np.linalg.lstsq(jac.reshape(residuals.size, -1), -residuals,
                           rcond=None)[0]
    return float(np.max(np.abs(step) / np.abs(theta)))


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
    """(name, argument) of every numpy eigensolve call made while it is in
    use, whichever module makes it."""
    calls = []

    def counted(name):
        original = getattr(np.linalg, name)

        def solve(a, *args, **kwargs):
            calls.append((name, a))
            return original(a, *args, **kwargs)
        return solve

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


def ones_with(value, row, col):
    levels = np.ones((len(GRID), 8))
    levels[row, col] = value
    return levels


@pytest.mark.parametrize("grid, levels, max_level, start", [
    (GRID, np.ones((len(GRID) - 1, 8)), 3, START),
    (GRID, np.ones((len(GRID) + 1, 8)), 3, START),
    (GRID, np.ones(8 * len(GRID)), 3, START),
    (GRID[:3], np.ones((3, 8)), 1, START),
    (GRID, np.ones((len(GRID), 8)), 0, START),
    (GRID, np.ones((len(GRID), 4)), 4, START),
    (GRID, ones_with(np.nan, 3, 1), 3, START),
    (GRID, ones_with(-np.inf, 10, 0), 3, START),
    (GRID, np.ones((len(GRID), 8)), 3, dataclasses.replace(START, omega=0.0)),
    (GRID, np.ones((len(GRID), 8)), 3,
     dataclasses.replace(START, omega=-6.0)),
    (GRID, np.ones((len(GRID), 8)), 3,
     dataclasses.replace(START, Ip=np.inf)),
], ids=["missing-row", "extra-row", "flat", "three-entries", "max-level-0",
        "too-few-levels", "nan-entry", "inf-entry", "zero-omega",
        "negative-omega", "infinite-start"])
def test_unfittable_input_rejected_before_any_solve(solves, grid, levels,
                                                    max_level, start):
    with pytest.raises(FitDataError):
        fit_rabi(grid, levels, max_level, start)
    assert solves == []


@pytest.mark.parametrize("omega", [0.0, -6.0, np.nan])
def test_model_parameters_checked_before_any_solve(solves, omega):
    # fittable data do not let a start through that the model cannot take
    levels = model_levels(RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4))
    solves.clear()
    with pytest.raises(FitDataError):
        fit_rabi(GRID, levels, 3, dataclasses.replace(START, omega=omega))
    assert solves == []


@pytest.mark.parametrize("variant", ["flux", "charge"])
def test_fit_returns_its_data_and_the_models_transitions(variant):
    # data are the transitions of the levels passed in, fitted those of the
    # model at the fitted parameters and rung, each bit for bit
    result = fit_result(20.0, variant)
    levels = coupled_fit_levels(20.0)
    assert result.pairs == fit_transition_pairs(3)
    data = np.array([[row[j] - row[i] for i, j in result.pairs]
                     for row in levels])
    assert np.array_equal(result.data, data)
    assert np.array_equal(result.fitted, model_table(
        result.params, result.pairs, result.n_fock, FIT_GRID))


def test_model_tables_agree_with_direct_diagonalization():
    # the stacked model transitions a fit returns match a solve per bias
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.5)
    result = fit_rabi(GRID, model_levels(truth), 3, truth)
    for p, phix in enumerate(GRID):
        levels = rabi_energies(result.params, phix, result.n_fock)[:4]
        fitted = result.fitted[p]
        assert fitted[:3] == pytest.approx(levels[1:] - levels[0], abs=1e-12)
        assert fitted[3] == pytest.approx(levels[2] - levels[1], abs=1e-12)
        assert fitted[4] == pytest.approx(levels[3] - levels[1], abs=1e-12)


def test_ground_residual_ignores_excited_source_rows():
    # the reported residual is the mean square of fitted - data over the
    # ground-state columns; the 1->2 and 1->3 columns do not enter it
    for variant in ("flux", "charge"):
        result = fit_result(20.0, variant)
        moved = result.fitted - result.data
        ground = [c for c, (i, _) in enumerate(result.pairs) if i == 0]
        assert ground == [0, 1, 2]
        assert result.residual_mhz2 == pytest.approx(
            1e6 * np.mean(moved[:, ground] ** 2), rel=1e-12)
        assert result.residual_mhz2 != pytest.approx(
            1e6 * np.mean(moved ** 2), rel=1e-3)


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
    nudge = 1.0 + np.array(signs) * (0.03, 0.05, 0.10, 0.01)
    start = RabiParams(omega=omega * nudge[0], Delta_q=delta_q * nudge[1],
                       g=truth.g * nudge[2], Ip=ip * nudge[3], variant=variant)
    result = fit_rabi(GRID, model_levels(truth), 3, start)
    assert result.converged
    assert result.objective_mhz2 < 1e-10
    assert result.params.omega == pytest.approx(truth.omega, rel=1e-5)
    assert result.params.Delta_q == pytest.approx(truth.Delta_q, rel=1e-5)
    assert result.params.g == pytest.approx(truth.g, rel=1e-5)
    assert result.params.Ip == pytest.approx(truth.Ip, rel=1e-5)
    assert result.params.variant == variant


@pytest.mark.parametrize("variant", ["flux", "charge"])
def test_fit_is_a_gauss_newton_minimum(variant):
    # the fit stops where one more Gauss-Newton step no longer moves it: a
    # stop on the cost alone left it up to 5e-8 short.  The self-fit is the
    # drawn example at the conftest circuit's scale; at g / omega = 0.02 and
    # Delta_q = 0.5 (scaled condition number 7e3) the zero-residual noise
    # floor alone moves g by 4e-12
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4,
                       variant=variant)
    start = RabiParams(omega=6.18, Delta_q=1.235, Ip=282.8, g=0.44,
                       variant=variant)
    result = fit_rabi(GRID, model_levels(truth), 3, start)
    assert gauss_newton_move(result.params, GRID, result.pairs, result.data,
                             result.n_fock) <= 1e-12
    result = fit_result(20.0, variant)
    move = gauss_newton_move(result.params, FIT_GRID, result.pairs,
                             result.data, result.n_fock)
    assert move <= 1e-12


def test_fit_at_the_evaluation_cap_is_not_converged(monkeypatch):
    # a run out of evaluations reports what it reached, with no exception
    monkeypatch.setattr(constants, "MAX_EVAL", 3)
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)
    start = RabiParams(omega=6.3, Delta_q=1.2, Ip=290.0, g=0.5)
    result = fit_rabi(GRID, model_levels(truth), 3, start)
    assert not result.converged
    assert result.n_eval == 6
    assert np.isfinite(result.objective_mhz2)


def test_n_eval_counts_one_eigh_per_evaluation(solves):
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)
    levels = model_levels(truth)
    start = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=0.45)
    solves.clear()
    result = fit_rabi(GRID, levels, 3, start)
    # each evaluation is one eigh of the whole grid's stacked Hamiltonians
    # (the 2-D eighs are the trust steps' 4 x 4 J'J); outside the runs only
    # eigenvalues are solved: the rung check at the start and at the fitted
    # parameters, 2 x 3 biases each, and one stacked solve for the fitted
    # transitions and the reported ground residual
    dim = 2 * result.n_fock
    model = [a.shape for name, a in solves if name == "eigh" and a.ndim == 3]
    assert model == [(len(GRID), dim, dim)] * result.n_eval
    assert all(a.shape == (4, 4) for name, a in solves
               if name == "eigh" and a.ndim == 2)
    levels = [a.shape for name, a in solves if name == "eigvalsh"]
    next_dim = 2 * RABI_FOCK_LADDER[RABI_FOCK_LADDER.index(result.n_fock) + 1]
    rung_check = [(3, dim, dim), (3, next_dim, next_dim)]
    assert levels == rung_check * 2 + [(len(GRID), dim, dim)]
    assert 2 <= result.n_eval


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
    jac = fitting._table_and_jacobian(params, GRID, pairs, n_fock)[1]
    for k, name in enumerate(fitting.PARAM_NAMES):
        value = getattr(params, name)
        step = 1e-5 * value
        up, down = (model_table(
            dataclasses.replace(params, **{name: value + sign * step}),
            pairs, n_fock) for sign in (1.0, -1.0))
        central = (up - down) / (2.0 * step)
        scale = np.abs(central).max()
        assert np.abs(jac[:, :, k] - central).max() <= 1e-6 * scale, name


@pytest.mark.parametrize("variant", ["flux", "charge"])
@pytest.mark.parametrize("ratio", [0.02, 0.4, 1.4])
def test_fit_table_matches_model_pair_table(variant, ratio):
    # the fit's levels come from eigh, its reported fitted transitions' from
    # eigvalsh: they differ only in the last bits
    params = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=ratio * 6.0,
                        variant=variant)
    pairs = fit_transition_pairs(3)
    table = fitting._table_and_jacobian(params, GRID, pairs, 30)[0]
    direct = model_table(params, pairs, 30)
    assert np.abs(table - direct).max() <= 1e-12 * np.abs(table).max()


@pytest.mark.parametrize("variant", ["flux", "charge"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(omega=st.floats(4.0, 8.0), delta_q=st.floats(0.5, 3.0),
       ip=st.floats(250.0, 300.0), ratio=st.floats(0.02, 1.4),
       signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 4))
# the start picks 15, the fitted g needs 20: fit_rabi fits again at 20
@example(omega=6.0, delta_q=1.3, ip=280.0, ratio=0.42,
         signs=(1.0, -1.0, -1.0, -1.0))
def test_chosen_rung_holds_at_the_fitted_parameters(variant, omega, delta_q,
                                                   ip, ratio, signs):
    truth = RabiParams(omega=omega, Delta_q=delta_q, Ip=ip, g=ratio * omega,
                       variant=variant)
    nudge = 1.0 + np.array(signs) * (0.03, 0.05, 0.10, 0.01)
    start = RabiParams(omega=omega * nudge[0], Delta_q=delta_q * nudge[1],
                       g=truth.g * nudge[2], Ip=ip * nudge[3], variant=variant)
    result = fit_rabi(GRID, model_levels(truth), 3, start)
    biases = GRID[[0, len(GRID) // 2, -1]]
    assert result.n_fock < RABI_FOCK_LADDER[-1]
    assert result.n_fock >= fock_rung(start, biases)
    assert result.fock_shift_GHz < FOCK_TOL_GHZ
    assert result.fock_shift_GHz == fock_shift(result.params, biases,
                                               result.n_fock)


def test_fit_where_no_rung_settles_is_not_converged():
    # g / omega = 5: the lowest 8 levels still move by 1e-10 GHz from 80 to
    # 120 Fock states, so the fit runs at 120 and says it is not converged
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=30.0)
    grid = np.array([0.499, 0.5, 0.501])
    result = fit_rabi(grid, rabi_energies(truth, grid, 120), 3, truth)
    assert result.n_fock == RABI_FOCK_LADDER[-1]
    assert result.fock_shift_GHz >= FOCK_TOL_GHZ
    assert not result.converged


@pytest.mark.parametrize("lc, variant", [(20.0, "charge"), (350.0, "flux")])
def test_fit_stable_under_last_bit_data_changes(lc, variant):
    # fit data moves by a few ulp between LAPACK paths; the fitted minimum
    # and its verdict must not.  The largest move measured is 3.2e-12 (20 pH
    # charge) and 4.1e-13 (350 pH flux); the least_squares fits moved by up
    # to 4.4e-8
    levels = coupled_fit_levels(lc)
    base = fit_result(lc, variant)
    # every level above the ground moved: each transition from the ground
    # moves by 4e-13; alternating in row-major order, so adjacent levels
    # move apart and a transition moves by 4e-13 or 0
    excited = np.zeros(levels.shape)
    excited[:, 1:] = 4e-13
    alternating = np.where(np.arange(levels.size) % 2, 2e-13,
                           -2e-13).reshape(levels.shape)
    for shift in (excited, -excited, alternating):
        result = fit_rabi(FIT_GRID, levels + shift, 3,
                          mapped_params(lc, variant))
        assert np.abs(result.data - base.data).max() <= 4e-13
        assert result.converged == base.converged
        for name in ("omega", "Delta_q", "g", "Ip"):
            assert getattr(result.params, name) == pytest.approx(
                getattr(base.params, name), rel=3.3e-11)


def test_fit_is_deterministic():
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)
    levels = model_levels(truth)
    start = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=0.45)
    a = fit_rabi(GRID, levels, 2, start)
    b = fit_rabi(GRID, levels, 2, start)
    assert a.params == b.params
    assert a.objective_mhz2 == b.objective_mhz2
    assert a.n_eval == b.n_eval


def test_fit_insensitive_to_tiny_start_perturbation():
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)
    levels = model_levels(truth)
    base = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=0.45)
    nudged = RabiParams(omega=6.1 * (1 + 1e-9), Delta_q=1.25, Ip=282.0,
                        g=0.45)
    a = fit_rabi(GRID, levels, 2, base)
    b = fit_rabi(GRID, levels, 2, nudged)
    assert a.params.omega == pytest.approx(b.params.omega, abs=1e-6)
    assert a.params.Delta_q == pytest.approx(b.params.Delta_q, abs=1e-6)
    assert a.params.g == pytest.approx(b.params.g, abs=1e-6)
    assert a.params.Ip == pytest.approx(b.params.Ip, abs=1e-6)


def test_fit_reports_positive_coupling():
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=0.4)
    levels = model_levels(truth)
    start = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=-0.45)
    result = fit_rabi(GRID, levels, 2, start)
    assert result.params.g == pytest.approx(truth.g, rel=1e-5)
    assert result.params.g > 0


@pytest.mark.parametrize("g", [0.4, 0.04])
def test_fit_leaves_zero_coupling_start(g):
    # the mapped start at Lc = 0 has g exactly 0, a stationary point of the
    # objective (even in g); the fit must still move g to the data's value
    truth = RabiParams(omega=6.0, Delta_q=1.3, Ip=280.0, g=g)
    levels = model_levels(truth)
    start = RabiParams(omega=6.1, Delta_q=1.25, Ip=282.0, g=0.0)
    result = fit_rabi(GRID, levels, 2, start)
    assert result.converged
    assert result.objective_mhz2 < 1e-10
    assert result.params.g == pytest.approx(g, rel=1e-5)


def test_fit_rejects_nonfinite_start():
    bad = RabiParams(omega=np.nan, Delta_q=1.0, Ip=280.0, g=0.1)
    with pytest.raises(FitDataError):
        fit_rabi(GRID, np.ones((len(GRID), 2)), 1, bad)


@pytest.mark.parametrize("variant", ["flux", "charge"])
def test_decoupled_data_fit_converges(variant):
    # at Lc = 0 the data's own minimum has g -> 0 (about 1e-8 GHz); the two
    # runs reach the same objective, and their gap in g is judged against
    # 1e-3 omega rather than against the vanishing g itself
    result = fit_result(0.0, variant, 3)
    assert result.params.g < 1e-6
    assert result.restart_spread < 1e-3
    assert result.converged
