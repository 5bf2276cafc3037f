"""Coupled-circuit eigensolves: builds, cross-checks, and observables."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxrabi.coupled as coupled
from fluxrabi.circuit import (RawCircuit, effective_inductances,
                              energy_scales, y_delta)
from fluxrabi.coupled import (
    DENSE_DIM_LIMIT,
    build_coupled_eigenbasis,
    build_coupled_planewave,
    charge_coupling_ghz,
    circuit_coupling,
    flux_coupling_ghz,
    ladder_sum,
    observables,
)
from fluxrabi.planewave import EigensolveError

from conftest import circuit_parts
from oracles import complex_eigenbasis_hamiltonian, ladder_difference


def _solver_inputs(monkeypatch):
    """Record every matrix handed to np.linalg.eigh and eigvalsh."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def record(a, *args, _solver=solver, **kwargs):
            seen.append(np.array(a, copy=True))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    return seen


def test_ladder_quadratures(parts20):
    sum_mat = ladder_sum(4)
    expected = np.zeros((4, 4))
    for n in range(3):
        expected[n, n + 1] = expected[n + 1, n] = np.sqrt(n + 1.0)
    assert np.abs(sum_mat - expected).max() == 0.0
    diff = ladder_difference(4)
    assert np.abs(diff - diff.conj().T).max() == 0.0
    assert diff[0, 1] == pytest.approx(-1j)
    assert diff[1, 0] == pytest.approx(1j)
    # the real quadratures of the product coupling: a + a' in the flux
    # gauge, and a - a' = 1j * (-1j (a - a')) in the charge gauge
    p = parts20
    flux = circuit_coupling("flux", p.raw, p.eff, p.scales, n_fock=4)
    charge = circuit_coupling("charge", p.raw, p.eff, p.scales, n_fock=4)
    assert np.array_equal(flux.osc_elements, sum_mat)
    assert np.array_equal(charge.osc_elements, (1j * diff).real)


def test_coupling_coefficients_vanish_when_decoupled():
    p = circuit_parts(0.0)
    assert flux_coupling_ghz(p.raw, p.eff, p.scales) == 0.0
    assert charge_coupling_ghz(p.raw, p.eff) == 0.0


def test_coupling_coefficients_negative_when_coupled(parts20):
    p = parts20
    assert flux_coupling_ghz(p.raw, p.eff, p.scales) < 0.0
    assert charge_coupling_ghz(p.raw, p.eff) < 0.0


def test_gauge_argument_validated(parts20):
    p = parts20
    with pytest.raises(ValueError):
        build_coupled_eigenbasis("mixed", p.raw, p.eff, p.scales)


def test_dense_dimension_guard(parts20):
    p = parts20
    with pytest.raises(EigensolveError):
        build_coupled_eigenbasis("flux", p.raw, p.eff, p.scales,
                                 n_qubit=60, n_fock=80)
    assert 60 * 80 > DENSE_DIM_LIMIT


def test_truncation_flag_honest_for_starved_charge_solve():
    # at Lc = 350 the charge-gauge build needs far more qubit levels than
    # the default truncation; the verify pass must say so
    p = circuit_parts(350.0)
    spec = build_coupled_eigenbasis("charge", p.raw, p.eff, p.scales,
                                    n_qubit=6, n_fock=40, verify=True)
    assert not spec.converged
    assert spec.truncation_shift > 0.1


def test_flux_eigenbasis_converged_at_default_truncation(parts20):
    p = parts20
    spec = build_coupled_eigenbasis("flux", p.raw, p.eff, p.scales,
                                    verify=True)
    assert spec.converged
    assert spec.truncation_shift < 1e-3


def test_charge_gauge_planewave_agrees_with_eigenbasis(parts20):
    p = parts20
    eigen = build_coupled_eigenbasis("charge", p.raw, p.eff, p.scales,
                                     verify=False)
    plane = build_coupled_planewave("charge", p.raw, p.eff, p.scales)
    gap = np.abs(eigen.energies[:8] - plane.energies[:8]).max()
    assert gap < 1e-3
    # the cross-check solves for levels only
    assert plane.vectors is None


def test_loop_one_carries_no_current(parts20):
    p = parts20
    for gauge in ("flux", "charge"):
        spec = build_coupled_eigenbasis(gauge, p.raw, p.eff, p.scales,
                                        verify=False)
        for state in range(4):
            obs = observables(spec, p.raw, p.eff, p.scales, state)
            assert abs(obs.current_1) < 1e-2


def test_ground_flux_expectation_is_odd_around_symmetry(parts20):
    p = parts20
    values = []
    for phix in (0.498, 0.502):
        raw = dataclasses.replace(p.raw, phix=phix)
        spec = build_coupled_eigenbasis("flux", raw, p.eff, p.scales,
                                        verify=False)
        values.append(observables(spec, raw, p.eff, p.scales, 0))
    assert values[0].flux_2 == pytest.approx(-values[1].flux_2, rel=1e-6)
    assert values[0].flux_1 == pytest.approx(-values[1].flux_1, rel=1e-6)
    assert abs(values[0].flux_2) > 0.1


def test_charge_gauge_frame_flux_vanishes(parts20):
    p = parts20
    raw = dataclasses.replace(p.raw, phix=0.498)
    spec = build_coupled_eigenbasis("charge", raw, p.eff, p.scales,
                                    verify=False)
    obs = observables(spec, raw, p.eff, p.scales, 0)
    # the momentum-shifted oscillator mode has no flux displacement; the
    # loop currents still come out through the gauge-restored flux
    assert abs(obs.flux_1) < 1e-6
    assert abs(obs.current_2) > 100.0


def test_observables_rejects_spectrum_without_eigenbasis_context(parts20):
    # the plane-wave build carries no product coupling; observables must
    # not misread it
    p = parts20
    spec = build_coupled_eigenbasis("flux", p.raw, p.eff, p.scales,
                                    verify=False)
    with pytest.raises(ValueError):
        observables(dataclasses.replace(spec, coupling=None), p.raw, p.eff,
                    p.scales, 0)


def test_photon_number_nonnegative_and_small_in_ground_state(parts20):
    p = parts20
    spec = build_coupled_eigenbasis("flux", p.raw, p.eff, p.scales,
                                    verify=False)
    obs = observables(spec, p.raw, p.eff, p.scales, 0)
    assert 0.0 <= obs.photon_number < 0.1


@pytest.mark.parametrize("lc", [20.0, 350.0])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_real_assembly_is_real_part_of_complex_reference(monkeypatch, gauge, lc):
    # the complex assembly has an imaginary part of exactly 0, and the real
    # matrices handed to LAPACK, first and doubled truncation, equal its
    # real part bit for bit
    seen = _solver_inputs(monkeypatch)
    for phix in (0.494, 0.5, 0.503):
        p = circuit_parts(lc, phix)
        seen.clear()
        spec = build_coupled_eigenbasis(gauge, p.raw, p.eff, p.scales,
                                        n_qubit=6, n_fock=40, verify=True)
        assert all(h.dtype == np.float64 for h in seen)
        product = [h for h in seen if h.shape[0] > 32]
        assert [h.shape[0] for h in product] == [240, 960]
        assert spec.vectors.dtype == np.float64
        for h, (nq, nf) in zip(product, ((6, 40), (12, 80))):
            ref = complex_eigenbasis_hamiltonian(gauge, p.raw, p.eff, p.scales,
                                                 nq, nf, n_table=12)
            assert np.all(ref.imag == 0.0)
            assert np.array_equal(h, ref.real)


@pytest.mark.parametrize("lc", [20.0, 350.0])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_truncated_coupling_equals_direct_tables(gauge, lc):
    # a slice of the coupling an eigenbasis build tabulates at doubled
    # truncation is bit for bit the coupling tabulated at the slice, so the
    # perturbation sums and observables can read it without a second solve
    for phix in (0.494, 0.5, 0.503):
        p = circuit_parts(lc, phix)
        direct = circuit_coupling(gauge, p.raw, p.eff, p.scales, 12, 6)
        sliced = circuit_coupling(gauge, p.raw, p.eff, p.scales, 80,
                                  12).truncated(12, 6)
        assert direct.qubit_elements.dtype == np.float64
        for field in dataclasses.fields(direct):
            assert np.array_equal(getattr(direct, field.name),
                                  getattr(sliced, field.name)), field.name
        assert np.array_equal(direct.osc_energies, sliced.osc_energies)


@settings(max_examples=30, deadline=None)
@given(lc=st.one_of(st.just(0.0), st.just(3.6e-256), st.floats(0.0, 400.0)),
       l1=st.floats(200.0, 1000.0),
       l2=st.floats(1000.0, 3000.0), c=st.floats(0.3, 2.0),
       cj=st.floats(2.0, 10.0), lj=st.floats(600.0, 2000.0),
       phix=st.floats(0.48, 0.52), gauge=st.sampled_from(["flux", "charge"]),
       dims=st.sampled_from([(4, 10), (6, 20)]))
def test_real_path_levels_match_complex_reference(lc, l1, l2, c, cj, lj, phix,
                                                  gauge, dims):
    raw = RawCircuit.from_lj(Lc=lc, L1=l1, L2=l2, C=c, CJ=cj, LJ=lj, phix=phix)
    eff = effective_inductances(y_delta(raw), raw)
    scales = energy_scales(raw, eff)
    nq, nf = dims
    spec = build_coupled_eigenbasis(gauge, raw, eff, scales, n_qubit=nq,
                                    n_fock=nf, verify=False)
    ref = np.linalg.eigvalsh(complex_eigenbasis_hamiltonian(
        gauge, raw, eff, scales, nq, nf, n_table=2 * nq))
    assert spec.vectors.dtype == np.float64
    assert np.abs(spec.energies[:8] - ref[:8]).max() < 1e-9


@pytest.mark.parametrize("gauge, table, tilt", [
    ("flux", "phase_matrix", lambda m: m * np.exp(0.3j)),
    ("charge", "number_matrix", lambda m: m + 1e-3 * np.abs(m).max()),
])
def test_non_real_qubit_elements_rejected(monkeypatch, parts20, gauge, table,
                                          tilt):
    # the real assembly drops the part of each table the phase convention
    # zeroes; a table that breaks the convention must not be truncated
    original = getattr(coupled, table)
    monkeypatch.setattr(coupled, table, lambda *a: tilt(original(*a)))
    p = parts20
    with pytest.raises(EigensolveError, match="qubit element table"):
        build_coupled_eigenbasis(gauge, p.raw, p.eff, p.scales, verify=False)
