"""Second-order dispersive shifts against exact diagonalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxrabi.coupled import (ProductCoupling, build_coupled_eigenbasis,
                              circuit_coupling)
from fluxrabi.perturbation import second_order_table

from conftest import circuit_parts, dispersive_shift
from oracles import second_order_terms


def synthetic_coupling(strength=0.1, qubit_gap=1.0, omega=1.0):
    qub = np.array([[0.0, 1.0], [1.0, 0.0]])
    return ProductCoupling(strength=strength, omega=omega,
                           qubit_energies=np.array([0.0, qubit_gap]),
                           qubit_elements=qub, qubit_phase=qub)


def test_product_coupling_shape_validation():
    with pytest.raises(ValueError):
        ProductCoupling(strength=1.0, omega=1.0, qubit_energies=np.zeros(3),
                        qubit_elements=np.eye(2), qubit_phase=np.eye(2))
    with pytest.raises(ValueError):
        ProductCoupling(strength=1.0, omega=1.0, qubit_energies=np.zeros(2),
                        qubit_elements=np.eye(2), qubit_phase=np.eye(3))


def test_out_of_range_state_rejected(parts20):
    # a negative photon or level would index from the end of the tables
    coupling = circuit_coupling("flux", parts20.raw)
    n_levels = len(coupling.qubit_energies)
    for photon, level in ((-1, 0), (0, -1), (0, n_levels)):
        with pytest.raises(ValueError):
            second_order_table(coupling, photon, level)
    assert np.isfinite(second_order_table(coupling, 0, n_levels - 1).total)


def _assert_matches_brute_force(coupling, gauge, photon, level):
    """second_order_table against the dense oracle sum over 40 Fock
    states: excluded equal, the total and each contribution within 1e-12
    of the summed magnitudes of its terms."""
    table = second_order_table(coupling, photon, level)
    terms, excluded = second_order_terms(coupling, gauge, photon, level)
    assert table.excluded == excluded
    assert (abs(table.total - terms.sum())
            <= 1e-12 * np.abs(terms).sum())
    assert np.all(np.abs(table.contributions - terms.sum(axis=0))
                  <= 1e-12 * np.abs(terms).sum(axis=0))


@pytest.mark.parametrize("lc", [20.0, 350.0])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_second_order_table_matches_brute_force_sum(lc, gauge):
    coupling = circuit_coupling(gauge, circuit_parts(lc).raw)
    for photon in range(3):
        for level in range(len(coupling.qubit_energies)):
            _assert_matches_brute_force(coupling, gauge, photon, level)


def test_quasi_degenerate_exclusions_match_brute_force_sum():
    c = synthetic_coupling(strength=0.1, qubit_gap=1.0 + 1e-7, omega=1.0)
    assert second_order_table(c, 1, 0).excluded
    for photon in range(3):
        for level in range(2):
            _assert_matches_brute_force(c, "flux", photon, level)


def _elements():
    """Zero, or a value of magnitude in [1e-3, 1]: clear of the noise
    tolerance, so both sums keep the same terms."""
    return st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_second_order_table_matches_brute_force_property(data):
    # energies and omega on a 2^-10 GHz grid, so both sums form the same
    # denominators exactly and the degeneracy guard (2^-10 < 1e-3) drops
    # the same contributors
    n_levels = data.draw(st.integers(1, 5), label="n_levels")
    gauge = data.draw(st.sampled_from(["flux", "charge"]), label="gauge")
    energies = np.array(data.draw(
        st.lists(st.integers(0, 8192), min_size=n_levels, max_size=n_levels),
        label="energies")) / 1024.0
    omega = data.draw(st.integers(1, 4096), label="omega") / 1024.0
    strength = data.draw(_elements(), label="strength")
    upper = np.array(data.draw(
        st.lists(_elements(), min_size=n_levels ** 2,
                 max_size=n_levels ** 2), label="elements"))
    upper = np.triu(upper.reshape(n_levels, n_levels))
    # K symmetric with a + a', antisymmetric (no diagonal) with a - a'
    if gauge == "flux":
        qub = upper + np.triu(upper, 1).T
    else:
        qub = np.triu(upper, 1) - np.triu(upper, 1).T
    coupling = ProductCoupling(strength=strength, omega=omega,
                               qubit_energies=energies, qubit_elements=qub,
                               qubit_phase=qub)
    photon = data.draw(st.integers(0, 10), label="photon")
    level = data.draw(st.integers(0, n_levels - 1), label="level")
    _assert_matches_brute_force(coupling, gauge, photon, level)


@pytest.mark.parametrize("lc", [20.0, 350.0])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_parity_forbidden_contributions_are_exactly_zero(lc, gauge):
    # at phix = 0.5 the qubit states alternate in parity and both phase and
    # charge are odd, so K[level, j] with level + j even is rounding noise
    # (4.3e-13 of max |K| for K[0, 0] at 20 pH, flux gauge); the levels the
    # perturbation task reads route nothing through them
    coupling = circuit_coupling(gauge, circuit_parts(lc).raw)
    for photon in (0, 1):
        for level in (0, 1):
            table = second_order_table(coupling, photon, level)
            assert np.all(table.contributions[level::2] == 0.0)
            assert np.all(table.contributions[1 - level::2] != 0.0)


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
    restricted = full.truncated(2)
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
    coupled = build_coupled_eigenbasis("flux", p.raw, 6, 40, 1)
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
        spec = build_coupled_eigenbasis("flux", p.raw, 6, 40, 3)
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
