"""Coupled-circuit eigensolves: builds, cross-checks, and observables."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fluxrabi.coupled as coupled
from fluxrabi.circuit import GAUGES, RawCircuit, gauge_circuit
from fluxrabi.coupled import (
    DENSE_DIM_LIMIT,
    build_coupled_eigenbasis,
    build_coupled_planewave,
    circuit_coupling,
    ladder_sum,
    observables,
    truncation_check,
)
from fluxrabi.planewave import EigensolveError
from fluxrabi.qubit import TwoLevelFit
from fluxrabi.rabi import map_circuit_to_rabi

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
    flux = circuit_coupling("flux", p.raw, n_fock=4)
    charge = circuit_coupling("charge", p.raw, n_fock=4)
    assert np.array_equal(flux.osc_elements, sum_mat)
    assert np.array_equal(charge.osc_elements, (1j * diff).real)


def test_coupling_coefficients_vanish_when_decoupled():
    p = circuit_parts(0.0)
    for circuit in (p.flux, p.charge):
        assert circuit.strength == 0.0
        assert circuit.node_coupling == 0.0
        assert not circuit.coupled


def test_coupling_coefficients_negative_when_coupled(parts20):
    p = parts20
    assert p.flux.strength < 0.0
    assert p.charge.strength < 0.0
    assert p.flux.node_coupling > 0.0
    assert p.charge.node_coupling > 0.0


def test_gauge_argument_validated(parts20):
    p = parts20
    with pytest.raises(ValueError):
        build_coupled_eigenbasis("mixed", p.raw, 6, 40)


def test_dense_dimension_guard(parts20):
    p = parts20
    with pytest.raises(EigensolveError):
        build_coupled_eigenbasis("flux", p.raw, n_qubit=60, n_fock=80)
    assert 60 * 80 > DENSE_DIM_LIMIT


def test_truncation_check_obeys_dense_dimension_guard(assembled_dims, parts20):
    # (16, 128) solves at dimension 2048, but the doubled solve would be
    # 8192; it is refused before a matrix that large is assembled
    with pytest.raises(EigensolveError, match="8192 exceeds DENSE_DIM_LIMIT"):
        truncation_check("flux", parts20.raw, 16, 128)
    assert assembled_dims == [2048]


@pytest.mark.parametrize("n_qubit, checked, needed", [
    (17, True, 34),   # the doubled solve would compare against 32 levels
    (32, True, 64),   # the doubled solve would double only the Fock states
    (40, False, 40),  # the build would solve 32 levels and report 40
])
def test_qubit_slice_beyond_basis_refused(n_qubit, checked, needed):
    p = circuit_parts(350.0)
    with pytest.raises(EigensolveError, match=(
            f"{needed} qubit levels requested; the qubit basis resolves 32")):
        if checked:
            truncation_check("charge", p.raw, n_qubit, 20)
        else:
            build_coupled_eigenbasis("charge", p.raw, n_qubit=n_qubit, n_fock=20)
    with pytest.raises(EigensolveError, match="resolves 32"):
        circuit_coupling("charge", p.raw, n_levels=33)


def test_qubit_slice_at_basis_edge_solves():
    p = circuit_parts(350.0)
    # the doubled solve of 16 levels uses every level the basis resolves
    shift, _ = truncation_check("charge", p.raw, 16, 20)
    assert np.isfinite(shift)
    for n_qubit in (16, 32):
        spec = build_coupled_eigenbasis("charge", p.raw, n_qubit=n_qubit,
                                        n_fock=20)
        assert spec.dims == (20, n_qubit)
        assert spec.vectors.shape == (20 * n_qubit, 20 * n_qubit)
        assert observables(spec, p.raw, 0).photon_number >= 0.0


def test_truncation_flag_honest_for_starved_charge_solve():
    # at Lc = 350 the charge-gauge build needs far more qubit levels than
    # the default truncation; the truncation check must say so
    p = circuit_parts(350.0)
    shift, converged = truncation_check("charge", p.raw, 6, 40)
    assert not converged
    assert shift > 0.1


def test_flux_eigenbasis_converged_at_default_truncation(parts20):
    shift, converged = truncation_check("flux", parts20.raw, 6, 40)
    assert converged
    assert shift < 1e-3


def test_levels_only_build_matches_eigh_levels(parts20):
    p = parts20
    full = build_coupled_eigenbasis("charge", p.raw, 6, 40)
    levels = build_coupled_eigenbasis("charge", p.raw, 6, 40, vectors=False)
    assert levels.vectors is None
    assert levels.dims == full.dims
    assert np.abs(levels.energies - full.energies).max() < 1e-9


def test_charge_gauge_planewave_agrees_with_eigenbasis(parts20):
    p = parts20
    eigen = build_coupled_eigenbasis("charge", p.raw, 6, 40)
    plane = build_coupled_planewave("charge", p.raw)
    gap = np.abs(eigen.energies[:8] - plane[:8]).max()
    assert gap < 1e-3
    # the cross-check returns its ascending levels only
    assert plane.shape == (2048,)
    assert np.all(np.diff(plane) >= 0.0)


def test_loop_one_carries_no_current(parts20):
    p = parts20
    for gauge in ("flux", "charge"):
        spec = build_coupled_eigenbasis(gauge, p.raw, 6, 40)
        for state in range(4):
            obs = observables(spec, p.raw, state)
            assert abs(obs.current_1) < 1e-2


def test_ground_flux_expectation_is_odd_around_symmetry(parts20):
    p = parts20
    values = []
    for phix in (0.498, 0.502):
        raw = dataclasses.replace(p.raw, phix=phix)
        spec = build_coupled_eigenbasis("flux", raw, 6, 40)
        values.append(observables(spec, raw, 0))
    assert values[0].flux_2 == pytest.approx(-values[1].flux_2, rel=1e-6)
    assert values[0].flux_1 == pytest.approx(-values[1].flux_1, rel=1e-6)
    assert abs(values[0].flux_2) > 0.1


def test_charge_gauge_frame_flux_vanishes(parts20):
    p = parts20
    raw = dataclasses.replace(p.raw, phix=0.498)
    spec = build_coupled_eigenbasis("charge", raw, 6, 40)
    obs = observables(spec, raw, 0)
    # the momentum-shifted oscillator mode has no flux displacement; the
    # loop currents still come out through the gauge-restored flux
    assert abs(obs.flux_1) < 1e-6
    assert abs(obs.current_2) > 100.0


def test_observables_rejects_spectrum_without_eigenbasis_context(parts20):
    # a levels-only build carries no eigenvectors; observables must not
    # misread it
    p = parts20
    spec = build_coupled_eigenbasis("flux", p.raw, 6, 40, vectors=False)
    with pytest.raises(ValueError, match="vectors"):
        observables(spec, p.raw, 0)


def test_photon_number_nonnegative_and_small_in_ground_state(parts20):
    p = parts20
    spec = build_coupled_eigenbasis("flux", p.raw, 6, 40)
    obs = observables(spec, p.raw, 0)
    assert 0.0 <= obs.photon_number < 0.1


@pytest.mark.parametrize("lc", [20.0, 350.0])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_real_assembly_is_real_part_of_complex_reference(monkeypatch, gauge, lc):
    # the complex assembly has an imaginary part of exactly 0, and the real
    # matrices the truncation check hands to LAPACK, first and doubled
    # truncation, equal its real part bit for bit
    seen = _solver_inputs(monkeypatch)
    for phix in (0.494, 0.5, 0.503):
        p = circuit_parts(lc, phix)
        seen.clear()
        truncation_check(gauge, p.raw, 6, 40)
        assert all(h.dtype == np.float64 for h in seen)
        product = [h for h in seen if h.shape[0] > 32]
        assert [h.shape[0] for h in product] == [240, 960]
        for h, (nq, nf) in zip(product, ((6, 40), (12, 80))):
            ref = complex_eigenbasis_hamiltonian(gauge, p.raw, nq, nf,
                                                 n_table=12)
            assert np.all(ref.imag == 0.0)
            assert np.array_equal(h, ref.real)


@pytest.mark.parametrize("lc", [20.0, 350.0])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_truncated_coupling_equals_direct_tables(gauge, lc):
    # a slice of a coupling tabulated at a larger truncation is bit for bit
    # the coupling tabulated at the slice, so the perturbation sums can read
    # the 12 x 6 slice of any eigenbasis build without a second solve
    for phix in (0.494, 0.5, 0.503):
        p = circuit_parts(lc, phix)
        direct = circuit_coupling(gauge, p.raw, 12, 6)
        sliced = circuit_coupling(gauge, p.raw, 80, 12).truncated(12, 6)
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
    nq, nf = dims
    spec = build_coupled_eigenbasis(gauge, raw, n_qubit=nq, n_fock=nf)
    ref = np.linalg.eigvalsh(complex_eigenbasis_hamiltonian(
        gauge, raw, nq, nf, n_table=2 * nq))
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
        build_coupled_eigenbasis(gauge, p.raw, 6, 40)


# a two-level reduction whose elements only the coupling strength reads
_TWOLEVEL = TwoLevelFit(Delta_q=1.24, Ip=281.0, omega_os=40.0,
                        fit_residual=0.0, Phi2max=0.28, q2max=0.068)


@settings(max_examples=8, deadline=None)
@given(lc=st.one_of(st.just(0.0), st.floats(0.0, 400.0)),
       l1=st.floats(200.0, 1000.0), l2=st.floats(1000.0, 3000.0),
       c=st.floats(0.3, 2.0), cj=st.floats(2.0, 10.0),
       lj=st.floats(600.0, 2000.0), phix=st.floats(0.48, 0.52))
@example(lc=0.0, l1=780.0, l2=2030.0, c=0.87, cj=4.84, lj=990.0, phix=0.5)
def test_every_consumer_reads_the_gauge_omega(lc, l1, l2, c, cj, lj, phix):
    # the coupling, the eigenbasis build's coupling and the Rabi mapping
    # report the omega of gauge_circuit bit for bit; at Lc = 0 the two
    # gauges are one
    raw = RawCircuit.from_lj(Lc=lc, L1=l1, L2=l2, C=c, CJ=cj, LJ=lj, phix=phix)
    circuits = {gauge: gauge_circuit(gauge, raw) for gauge in GAUGES}
    for gauge, circuit in circuits.items():
        reported = [
            circuit_coupling(gauge, raw).omega,
            build_coupled_eigenbasis(gauge, raw, n_qubit=2,
                                     n_fock=4).coupling.omega,
            map_circuit_to_rabi(gauge, raw, _TWOLEVEL).omega,
        ]
        assert all(omega == circuit.omega for omega in reported), reported
    if lc == 0.0:
        flux, charge = circuits["flux"], circuits["charge"]
        assert dataclasses.replace(charge, gauge="flux") == flux
        for circuit in (flux, charge):
            assert circuit.strength == 0.0
            assert circuit_coupling(circuit.gauge, raw).strength == 0.0
            assert map_circuit_to_rabi(circuit.gauge, raw, _TWOLEVEL).g == 0.0
