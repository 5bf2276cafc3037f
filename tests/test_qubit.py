"""Two-level reduction of the qubit node and its matrix elements."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fluxrabi.constants as constants
from oracles import hyperbola_levels
from fluxrabi.constants import CONSTANTS
from fluxrabi.coupled import circuit_coupling
from fluxrabi.planewave import (EDGE_WEIGHT_LIMIT, PlaneWaveBasis,
                                diagonalize_flux_qubit, linear_kernel)
from fluxrabi.qubit import (
    PHIX_FIT_GRID,
    TwoLevelFit,
    TwoLevelFitError,
    characterize_qubit,
    extract_phi2max,
    fit_two_level,
    number_matrix,
    phase_matrix,
)

from conftest import circuit_parts


def eps_per_phix(ip_na):
    return 2.0 * ip_na * 1e-9 * CONSTANTS.Phi0 / CONSTANTS.h / 1e9


def test_two_level_fit_recovers_exact_hyperbola():
    grid = np.linspace(0.496, 0.504, 41)
    e0, e1 = hyperbola_levels(40.0, 1.3, 280.0, grid, eps_per_phix(280.0))
    fit = fit_two_level(grid, e0, e1)
    assert fit.Delta_q == pytest.approx(1.3, rel=1e-14)
    assert fit.Ip == pytest.approx(280.0, rel=1e-14)
    assert fit.omega_os == pytest.approx(40.0, rel=1e-14)
    assert fit.fit_residual < 1e-16


@settings(max_examples=50, deadline=None)
@given(omega_os=st.floats(20.0, 200.0), delta_q=st.floats(0.5, 10.0),
       ip=st.floats(100.0, 500.0), n_points=st.integers(5, 61))
@example(omega_os=121.1, delta_q=9.47, ip=115.0, n_points=5)
def test_two_level_fit_recovers_random_hyperbolas(omega_os, delta_q, ip,
                                                  n_points):
    # the levels round at about eps omega_os, which bounds how well any fit
    # can place Delta_q; these ranges keep that well below 1e-12 relative.
    # An even point count leaves 0.5 off the grid, so the start is not exact.
    # In the explicit example the relative steps stall at rounding noise
    # above 1e-15, which only the rounding-floor stop ends
    grid = np.linspace(0.496, 0.504, n_points)
    e0, e1 = hyperbola_levels(omega_os, delta_q, ip, grid, eps_per_phix(ip))
    fit = fit_two_level(grid, e0, e1)
    assert fit.Delta_q == pytest.approx(delta_q, rel=1e-12)
    assert fit.Ip == pytest.approx(ip, rel=1e-12)
    assert fit.omega_os == pytest.approx(omega_os, rel=1e-12)


def gauss_newton_move(fit, phix, split):
    """Largest relative move of (Delta_q, Ip) by one Gauss-Newton step of
    sqrt(eps^2 + Delta_q^2) towards split, from fit."""
    slope = eps_per_phix(1.0) * (phix - 0.5)
    theta = np.array([fit.Delta_q, fit.Ip])
    model = np.sqrt((fit.Ip * slope) ** 2 + fit.Delta_q**2)
    jac = np.column_stack([fit.Delta_q / model, fit.Ip * slope**2 / model])
    step = np.linalg.lstsq(jac, split - model, rcond=None)[0]
    return float(np.max(np.abs(step) / theta))


@pytest.mark.parametrize("lc", [0.0, 20.0, 200.0, 350.0, 700.0])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_two_level_fit_stops_at_its_minimum(gauge, lc):
    node = getattr(circuit_parts(lc), gauge).qubit_node
    basis = PlaneWaveBasis.for_qubit()
    levels = np.array([diagonalize_flux_qubit(*node, float(phix), basis)
                       .energies[:2] for phix in PHIX_FIT_GRID])
    fit = fit_two_level(PHIX_FIT_GRID, levels[:, 0], levels[:, 1])
    assert gauss_newton_move(fit, PHIX_FIT_GRID,
                             levels[:, 1] - levels[:, 0]) <= 1e-14
    # the offset decouples from the splitting: the mean doublet midpoint
    assert fit.omega_os == pytest.approx(levels.mean(), rel=1e-14)


def test_two_level_fit_rejects_non_finite_levels():
    grid = np.linspace(0.496, 0.504, 21)
    e0, e1 = hyperbola_levels(40.0, 1.3, 280.0, grid, eps_per_phix(280.0))
    for bad in (np.nan, np.inf):
        broken = e1.copy()
        broken[4] = bad
        with pytest.raises(TwoLevelFitError, match="not finite"):
            fit_two_level(grid, e0, broken)


def test_two_level_fit_gives_up_at_the_evaluation_cap(monkeypatch):
    # an even point count leaves 0.5 off the grid, so the start is not
    # exact; two evaluations cannot settle the fit, and it says so rather
    # than return where it stopped
    grid = np.linspace(0.496, 0.504, 20)
    e0, e1 = hyperbola_levels(40.0, 1.3, 280.0, grid, eps_per_phix(280.0))
    assert fit_two_level(grid, e0, e1).Delta_q == pytest.approx(1.3, rel=1e-12)
    monkeypatch.setattr(constants, "MAX_EVAL", 2)
    with pytest.raises(TwoLevelFitError, match="did not settle"):
        fit_two_level(grid, e0, e1)


def test_closing_doublet_is_a_fit_error():
    # Delta_q = 0 with 0.5 on the grid: the splitting reaches 0 there, so
    # the start has no scale; the fit says so before any step, silently
    grid = np.linspace(0.496, 0.504, 21)
    e0, e1 = hyperbola_levels(40.0, 0.0, 280.0, grid, eps_per_phix(280.0))
    assert np.min(e1 - e0) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TwoLevelFitError, match="closes"):
            fit_two_level(grid, e0, e1)


@settings(max_examples=50, deadline=None)
@given(omega_os=st.floats(20.0, 200.0), delta_q=st.floats(0.1, 10.0),
       ip=st.floats(50.0, 800.0), n_points=st.integers(5, 61),
       log_noise=st.floats(-9.0, -3.0), seed=st.integers(0, 2**32 - 1))
# the noise leaves residuals of about 1e-8 of the levels, so the cost rounds
# at about 1e-8 of itself and hides the gain of the last polishing step
@example(omega_os=176.6, delta_q=7.48, ip=368.8, n_points=16, log_noise=-5.6,
         seed=299)
# six points and Delta_q << eps at the edge: cond 2400, so the step rounds
# at about 1e-13 of the parameters
@example(omega_os=132.4, delta_q=0.15, ip=599.8, n_points=6, log_noise=-3.5,
         seed=916)
def test_two_level_fit_of_noisy_hyperbolas_stops_at_its_minimum(
        omega_os, delta_q, ip, n_points, log_noise, seed):
    # levels with Gaussian noise of 1e-9 to 1e-3 GHz: one more Gauss-Newton
    # step moves the fit by at most 1e-14, or by the rounding of such a
    # step, cond eps of the parameters, where the Jacobian scaled by them
    # is ill-conditioned
    grid = np.linspace(0.496, 0.504, n_points)
    e0, e1 = hyperbola_levels(omega_os, delta_q, ip, grid, eps_per_phix(ip))
    rng = np.random.default_rng(seed)
    noise = 10.0**log_noise
    e0 = e0 + noise * rng.standard_normal(n_points)
    e1 = e1 + noise * rng.standard_normal(n_points)
    fit = fit_two_level(grid, e0, e1)
    eps = eps_per_phix(fit.Ip) * (grid - 0.5)
    model = np.sqrt(eps**2 + fit.Delta_q**2)
    scaled = np.column_stack([fit.Delta_q**2 / model, eps**2 / model])
    floor = np.linalg.cond(scaled) * np.finfo(float).eps
    assert gauss_newton_move(fit, grid, e1 - e0) <= max(1e-14, floor)


def test_characterization_of_reference_qubit(parts20):
    p = parts20
    fit = characterize_qubit(*p.flux.qubit_node)
    assert fit.Delta_q == pytest.approx(1.2420424170016595, rel=1e-6)
    assert fit.Ip == pytest.approx(281.24168705083804, rel=1e-6)
    assert fit.Phi2max == pytest.approx(0.27873026608256585, rel=1e-6)
    assert fit.q2max == pytest.approx(0.067982870452571217, rel=1e-6)
    # the doublet really follows the two-level form on this grid
    assert fit.fit_residual < 1e-6


def test_charge_node_parameters_fixed_along_lc_sweep():
    # the charge-gauge qubit node sees Lc + L2, which the sweep holds fixed,
    # bit for bit: a run solves it once for every Lc.  The flux node moves
    nodes = {gauge: [np.array(getattr(circuit_parts(lc), gauge).qubit_node)
                     for lc in (20.0, 350.0)] for gauge in ("flux", "charge")}
    assert nodes["charge"][0].tobytes() == nodes["charge"][1].tobytes()
    assert not np.array_equal(*nodes["flux"])


def test_extract_phi2max_rejects_inconsistent_branches():
    grid = np.linspace(0.496, 0.504, 21)
    fit = TwoLevelFit(Delta_q=1.3, Ip=280.0, omega_os=40.0, fit_residual=0.0)
    eps = eps_per_phix(280.0) * (grid - 0.5)
    x = eps / np.sqrt(eps**2 + fit.Delta_q**2)
    with pytest.raises(TwoLevelFitError):
        extract_phi2max(grid, -0.30 * x, 0.40 * x, fit)


def test_extract_phi2max_recovers_scale():
    grid = np.linspace(0.496, 0.504, 21)
    fit = TwoLevelFit(Delta_q=1.3, Ip=280.0, omega_os=40.0, fit_residual=0.0)
    eps = eps_per_phix(280.0) * (grid - 0.5)
    x = eps / np.sqrt(eps**2 + fit.Delta_q**2)
    assert extract_phi2max(grid, -0.28 * x, 0.28 * x, fit) == pytest.approx(
        0.28, rel=1e-12)


def test_matrix_element_tables_follow_phase_convention(parts20):
    p = parts20
    spec = diagonalize_flux_qubit(*p.flux.qubit_node, 0.5,
                                  PlaneWaveBasis.for_qubit())
    phase = phase_matrix(spec, 4)
    number = number_matrix(spec, 4)
    # <j|phase|i> is real symmetric and <j|n|i> = 1j B with B real
    # antisymmetric, so both operators are Hermitian
    assert np.abs(phase - phase.T).max() < 1e-10 * np.abs(phase).max()
    assert np.abs(number + number.T).max() < 1e-10 * np.abs(number).max()
    # symmetric bias point: diagonal flux elements of g and e cancel
    assert abs(phase[0, 0] + phase[1, 1]) / (2.0 * math.pi) < 1e-6


def test_diagonal_flux_elements_split_off_symmetry(parts20):
    p = parts20
    spec = diagonalize_flux_qubit(*p.flux.qubit_node,
                                  0.503, PlaneWaveBasis.for_qubit())
    phase = phase_matrix(spec, 2) / (2.0 * math.pi)
    gg, ee = float(phase[0, 0]), float(phase[1, 1])
    assert gg < 0.0 < ee
    assert abs(gg + ee) < 0.01 * abs(ee)


def test_qubit_layer_is_real(parts20):
    # the qubit eigenvectors, both element tables, the charge kernel and
    # every table of the product coupling are float64, not complex
    p = parts20
    basis = PlaneWaveBasis.for_qubit()
    spec = diagonalize_flux_qubit(*p.flux.qubit_node, 0.503, basis)
    tables = [spec.coefficients, phase_matrix(spec, 6),
              number_matrix(spec, 6), linear_kernel(basis)]
    for gauge in ("flux", "charge"):
        coupling = circuit_coupling(gauge, p.raw)
        tables += [coupling.qubit_elements, coupling.qubit_energies,
                   coupling.qubit_phase]
    assert [t.dtype for t in tables] == [np.float64] * len(tables)


@settings(max_examples=25, deadline=None)
@given(ecj=st.floats(2.0, 10.0), ej=st.floats(80.0, 280.0),
       elfq=st.floats(50.0, 170.0), phix=st.floats(0.48, 0.52))
def test_charge_table_follows_from_phase_table(ecj, ej, elfq, phix):
    # [H, phase] = -8i ECJ n gives <i|n|j> = i (E_j - E_i) / (8 ECJ)
    # <i|phase|j>, so B[i, j] = (E_j - E_i) / (8 ECJ) Phi[i, j]; the two
    # tables are computed independently, and this pins the sign and scale
    # of both.  Judged only on levels the basis resolves.
    n = 6
    spec = diagonalize_flux_qubit(ecj, ej, elfq, phix,
                                  PlaneWaveBasis.for_qubit())
    coeffs = spec.coefficients[:n]
    ok = coeffs[:, 0] ** 2 + coeffs[:, -1] ** 2 < EDGE_WEIGHT_LIMIT
    assert ok[:2].all()
    energies = spec.energies[:n]
    predicted = ((energies[None, :] - energies[:, None]) / (8.0 * ecj)
                 * phase_matrix(spec, n))
    number = number_matrix(spec, n)
    judged = np.ix_(ok, ok)
    scale = np.abs(number[judged]).max()
    assert np.abs(number - predicted)[judged].max() <= 1e-10 * scale
