"""Two-level reduction of the qubit node and its matrix elements."""

import numpy as np
import pytest

from oracles import hyperbola_levels
from fluxrabi.constants import CONSTANTS
from fluxrabi.planewave import PlaneWaveBasis, diagonalize_flux_qubit
from fluxrabi.qubit import (
    TwoLevelFit,
    TwoLevelFitError,
    characterize_qubit,
    extract_phi2max,
    fit_two_level,
    matrix_elements,
)

from conftest import circuit_parts


def eps_per_phix(ip_na):
    return 2.0 * ip_na * 1e-9 * CONSTANTS.Phi0 / CONSTANTS.h / 1e9


def test_two_level_fit_recovers_exact_hyperbola():
    grid = np.linspace(0.496, 0.504, 41)
    e0, e1 = hyperbola_levels(40.0, 1.3, 280.0, grid, eps_per_phix(280.0))
    fit = fit_two_level(grid, e0, e1)
    assert fit.Delta_q == pytest.approx(1.3, rel=1e-9)
    assert fit.Ip == pytest.approx(280.0, rel=1e-9)
    assert fit.omega_os == pytest.approx(40.0, rel=1e-9)
    assert fit.fit_residual < 1e-16


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
    # the charge-gauge qubit node sees Lc + L2, which the sweep holds fixed
    fits = []
    for lc in (20.0, 350.0):
        fits.append(characterize_qubit(*circuit_parts(lc).charge.qubit_node))
    assert fits[0].Delta_q == pytest.approx(fits[1].Delta_q, rel=1e-12)
    assert fits[0].q2max == pytest.approx(fits[1].q2max, rel=1e-12)


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
    elems = matrix_elements(spec, 0.5, n_levels=4)
    assert np.abs(np.imag(elems.flux_elems)).max() < 1e-10
    assert np.abs(np.real(elems.charge_elems)).max() < 1e-10
    # symmetric bias point: diagonal flux elements of g and e cancel
    assert abs(elems.flux_elems[0, 0] + elems.flux_elems[1, 1]) < 1e-6


def test_diagonal_flux_elements_split_off_symmetry(parts20):
    p = parts20
    spec = diagonalize_flux_qubit(*p.flux.qubit_node,
                                  0.503, PlaneWaveBasis.for_qubit())
    elems = matrix_elements(spec, 0.503, n_levels=2)
    gg = float(np.real(elems.flux_elems[0, 0]))
    ee = float(np.real(elems.flux_elems[1, 1]))
    assert gg < 0.0 < ee
    assert abs(gg + ee) < 0.01 * abs(ee)
