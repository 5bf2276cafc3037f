"""Second-order dispersive shifts against exact diagonalization."""

import numpy as np
import pytest

from fluxrabi.coupled import (ProductCoupling, build_coupled_eigenbasis,
                              circuit_coupling)
from fluxrabi.perturbation import first_order_shift, second_order_table

from conftest import circuit_parts, dispersive_shift


def synthetic_coupling(strength=0.1, qubit_gap=1.0, omega=1.0):
    osc = np.zeros((3, 3))
    osc[0, 1] = osc[1, 0] = 1.0
    osc[1, 2] = osc[2, 1] = np.sqrt(2.0)
    qub = np.array([[0.0, 1.0], [1.0, 0.0]])
    return ProductCoupling(strength=strength, osc_elements=osc,
                           qubit_elements=qub, omega=omega,
                           qubit_energies=np.array([0.0, qubit_gap]),
                           qubit_phase=qub)


def test_product_coupling_shape_validation():
    with pytest.raises(ValueError):
        ProductCoupling(strength=1.0, osc_elements=np.zeros((2, 3)),
                        qubit_elements=np.eye(2), omega=1.0,
                        qubit_energies=np.zeros(2), qubit_phase=np.eye(2))
    with pytest.raises(ValueError):
        ProductCoupling(strength=1.0, osc_elements=np.eye(2),
                        qubit_elements=np.eye(2), omega=1.0,
                        qubit_energies=np.zeros(3), qubit_phase=np.eye(2))
    with pytest.raises(ValueError):
        ProductCoupling(strength=1.0, osc_elements=np.eye(2),
                        qubit_elements=np.eye(2), omega=1.0,
                        qubit_energies=np.zeros(2), qubit_phase=np.eye(3))
    # the oscillator energies follow the quadrature's Fock range
    c = synthetic_coupling(omega=2.0)
    assert np.array_equal(c.osc_energies, [1.0, 3.0, 5.0])


def test_first_order_vanishes_for_ladder_quadratures(parts20):
    p = parts20
    for gauge in ("flux", "charge"):
        coupling = circuit_coupling(gauge, p.raw)
        for m in range(3):
            for i in range(4):
                assert first_order_shift(coupling, m, i) == 0.0


def test_two_state_shift_closed_form():
    # one oscillator quantum against one qubit level: the m=0, i=0 state
    # shifts by c^2 [1/(gap... ) ] terms with known denominators
    c = synthetic_coupling(strength=0.1, qubit_gap=2.0, omega=1.0)
    table = second_order_table(c, 0, 0)
    expected = 0.1**2 * (1.0 / (0.0 + 0.0 - 1.0 - 2.0))
    assert table.total == pytest.approx(expected, rel=1e-12)
    assert table.excluded == ()
    assert table.contributions[1] == pytest.approx(expected, rel=1e-12)
    assert table.contributions[0] == 0.0


def test_quasi_degenerate_contributor_excluded_not_fatal():
    # qubit gap almost exactly one oscillator quantum: from |1, g> the
    # intermediate |0, e> sits within the degeneracy floor and must be
    # dropped instead of blowing up the sum
    c = synthetic_coupling(strength=0.1, qubit_gap=1.0 + 1e-7, omega=1.0)
    table = second_order_table(c, 1, 0)
    assert (0, 1) in table.excluded
    assert np.isfinite(table.total)


def test_symmetric_shift_for_two_level_restriction(parts20):
    # restricting the qubit to (g, e) makes the oscillator shift exactly
    # antisymmetric between the two qubit levels
    p = parts20
    full = circuit_coupling("flux", p.raw)
    restricted = full.truncated(len(full.osc_elements), 2)
    chi_g = dispersive_shift(restricted, 0)
    chi_e = dispersive_shift(restricted, 1)
    assert chi_g == pytest.approx(-chi_e, rel=1e-12)


def test_higher_levels_break_shift_symmetry(parts20):
    # with the full level set the (g, e) shifts are close to opposite but
    # not equal; the residual asymmetry comes from the f and h routes
    p = parts20
    coupling = circuit_coupling("flux", p.raw)
    chi_g = dispersive_shift(coupling, 0)
    chi_e = dispersive_shift(coupling, 1)
    asymmetry = abs(chi_g + chi_e) / abs(chi_g)
    assert 0.0 < asymmetry < 0.2


def test_ground_shift_matches_exact_at_weak_coupling():
    # g / omega < 0.05 at Lc = 5: second order accounts for the exact
    # ground-state repulsion to a few percent
    p = circuit_parts(5.0)
    coupling = circuit_coupling("flux", p.raw)
    pert = second_order_table(coupling, 0, 0).total
    coupled = build_coupled_eigenbasis("flux", p.raw, 6, 40)
    exact = float(coupled.energies[0]) - (0.5 * p.flux.omega
                                          + _qubit_ground(p))
    assert pert == pytest.approx(exact, rel=0.05)


def _qubit_ground(parts):
    from fluxrabi.planewave import PlaneWaveBasis, diagonalize_flux_qubit
    spec = diagonalize_flux_qubit(*parts.flux.qubit_node, parts.raw.phix,
                                  PlaneWaveBasis.for_qubit())
    return float(spec.energies[0])


def test_shift_error_decays_faster_than_coupling_squared():
    # the residual against exact diagonalization must fall off at least
    # one power of g faster than the shift itself
    errors, couplings = [], []
    for lc in (5.0, 10.0, 20.0):
        p = circuit_parts(lc)
        coupling = circuit_coupling("flux", p.raw)
        pert = dispersive_shift(coupling, 0)
        spec = build_coupled_eigenbasis("flux", p.raw, 6, 40)
        exact = float(spec.energies[2] - spec.energies[0] - p.flux.omega)
        errors.append(abs(pert - exact))
        couplings.append(abs(coupling.strength))
    slope = np.polyfit(np.log(couplings), np.log(errors), 1)[0]
    assert slope > 2.5


def test_intermediate_level_truncation_converged(parts20):
    p = parts20
    wide = circuit_coupling("flux", p.raw, n_levels=6)
    narrow = circuit_coupling("flux", p.raw, n_levels=4)
    chi_wide = dispersive_shift(wide, 0)
    chi_narrow = dispersive_shift(narrow, 0)
    assert chi_narrow == pytest.approx(chi_wide, rel=0.05)


def test_charge_gauge_routes_through_higher_levels(parts20):
    # the charge-gauge virtual transitions run mostly through the f and h
    # qubit levels rather than the low doublet
    p = parts20
    coupling = circuit_coupling("charge", p.raw)
    upper = second_order_table(coupling, 1, 0)
    lower = second_order_table(coupling, 0, 0)
    net = upper.contributions - lower.contributions
    assert abs(net[2]) + abs(net[3]) > abs(net[0]) + abs(net[1])
