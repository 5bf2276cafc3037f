"""Coupled-circuit eigensolves: builds, cross-checks, and observables."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fluxrabi.coupled as coupled
from fluxrabi.circuit import GAUGES, RawCircuit, gauge_circuit
from fluxrabi.coupled import (
    DENSE_DIM_LIMIT,
    build_coupled_eigenbasis,
    build_coupled_planewave,
    circuit_coupling,
    coupled_levels,
    ladder_sum,
    observables,
    truncation_check,
)
from fluxrabi.planewave import EigensolveError
from fluxrabi.qubit import TwoLevelFit
from fluxrabi.rabi import map_circuit_to_rabi

from conftest import circuit_parts
from oracles import (complex_eigenbasis_hamiltonian,
                     dense_planewave_hamiltonian, kron_product_hamiltonian,
                     ladder_difference)


def _solver_inputs(monkeypatch):
    """Record a copy of every matrix handed to np.linalg.eigh, eigvalsh and
    scipy.linalg.eigh, and of every band handed to
    scipy.linalg.eigvals_banded, taken before the solve."""
    seen = []
    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                         (scipy.linalg, "eigh"),
                         (scipy.linalg, "eigvals_banded")):
        solver = getattr(module, name)

        def record(a, *args, _solver=solver, **kwargs):
            seen.append(np.array(a, copy=True))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(module, name, record)
    return seen


def _upper_band(h, kd):
    """h in LAPACK upper band storage: band[kd + i - j, j] = h[i, j]."""
    band = np.zeros((kd + 1, len(h)))
    for d in range(kd + 1):
        band[kd - d, d:] = np.diagonal(h, d)
    return band


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
        build_coupled_eigenbasis("mixed", p.raw, 6, 40, 4)


def test_dense_dimension_guard(parts20):
    p = parts20
    with pytest.raises(EigensolveError):
        build_coupled_eigenbasis("flux", p.raw, n_qubit=60, n_fock=80,
                                 n_states=4)
    assert 60 * 80 > DENSE_DIM_LIMIT


def test_truncation_check_runs_banded_past_dense_limit(assembled_dims,
                                                       monkeypatch, parts20):
    # both solves of the check are banded levels calls: with the dense
    # limit lowered below the doubled dimension 1920, the check still runs
    # and assembles no dense matrix, while the states call keeps the guard
    monkeypatch.setattr(coupled, "DENSE_DIM_LIMIT", 1024)
    shift, converged = truncation_check("flux", parts20.raw, 8, 60)
    assert converged and shift < 1e-3
    assert assembled_dims == []
    with pytest.raises(EigensolveError,
                       match="1920 exceeds DENSE_DIM_LIMIT = 1024"):
        build_coupled_eigenbasis("flux", parts20.raw, 16, 120, 4)
    assert assembled_dims == []


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
            build_coupled_eigenbasis("charge", p.raw, n_qubit=n_qubit,
                                     n_fock=20, n_states=4)
    with pytest.raises(EigensolveError, match="resolves 32"):
        circuit_coupling("charge", p.raw, n_levels=33)


def test_qubit_slice_at_basis_edge_solves():
    p = circuit_parts(350.0)
    # the doubled solve of 16 levels uses every level the basis resolves
    shift, _ = truncation_check("charge", p.raw, 16, 20)
    assert np.isfinite(shift)
    for n_qubit in (16, 32):
        spec = build_coupled_eigenbasis("charge", p.raw, n_qubit=n_qubit,
                                        n_fock=20, n_states=4)
        assert spec.dims == (20, n_qubit)
        assert spec.vectors.shape == (20 * n_qubit, 4)
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


def test_levels_call_matches_states_call(parts20):
    p = parts20
    full = build_coupled_eigenbasis("charge", p.raw, 6, 40, 8)
    levels = coupled_levels("charge", p.raw, 6, 40)
    assert levels.vectors is None
    assert levels.dims == full.dims
    assert levels.energies.shape == (8,)
    assert np.abs(levels.energies - full.energies[:8]).max() < 1e-9
    again = coupled_levels("charge", p.raw, 6, 40)
    assert np.array_equal(again.energies, levels.energies)


def test_charge_gauge_planewave_agrees_with_eigenbasis(parts20):
    p = parts20
    eigen = build_coupled_eigenbasis("charge", p.raw, 6, 40, 8)
    plane = build_coupled_planewave("charge", p.raw)
    gap = np.abs(eigen.energies[:8] - plane[:8]).max()
    assert gap < 1e-3
    # the cross-check returns its lowest eight levels, ascending
    assert plane.shape == (8,)
    assert np.all(np.diff(plane) >= 0.0)


def test_loop_one_carries_no_current(parts20):
    p = parts20
    for gauge in ("flux", "charge"):
        spec = build_coupled_eigenbasis(gauge, p.raw, 6, 40, 4)
        for state in range(4):
            obs = observables(spec, p.raw, state)
            assert abs(obs.current_1) < 1e-2


def test_ground_flux_expectation_is_odd_around_symmetry(parts20):
    p = parts20
    values = []
    for phix in (0.498, 0.502):
        raw = dataclasses.replace(p.raw, phix=phix)
        spec = build_coupled_eigenbasis("flux", raw, 6, 40, 1)
        values.append(observables(spec, raw, 0))
    assert values[0].flux_2 == pytest.approx(-values[1].flux_2, rel=1e-6)
    assert values[0].flux_1 == pytest.approx(-values[1].flux_1, rel=1e-6)
    assert abs(values[0].flux_2) > 0.1


def test_charge_gauge_frame_flux_vanishes(parts20):
    p = parts20
    raw = dataclasses.replace(p.raw, phix=0.498)
    spec = build_coupled_eigenbasis("charge", raw, 6, 40, 1)
    obs = observables(spec, raw, 0)
    # the momentum-shifted oscillator mode has no flux displacement; the
    # loop currents still come out through the gauge-restored flux
    assert abs(obs.flux_1) < 1e-6
    assert abs(obs.current_2) > 100.0


def test_observables_rejects_spectrum_without_eigenbasis_context(parts20):
    # a levels-only build carries no eigenvectors; observables must not
    # misread it
    p = parts20
    spec = coupled_levels("flux", p.raw, 6, 40)
    with pytest.raises(ValueError, match="vectors"):
        observables(spec, p.raw, 0)


def test_photon_number_nonnegative_and_small_in_ground_state(parts20):
    p = parts20
    spec = build_coupled_eigenbasis("flux", p.raw, 6, 40, 1)
    obs = observables(spec, p.raw, 0)
    assert 0.0 <= obs.photon_number < 0.1


@pytest.mark.parametrize("lc", [20.0, 350.0])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_real_assembly_is_real_part_of_complex_reference(monkeypatch, gauge, lc):
    # the complex assembly has an imaginary part of exactly 0; the dense
    # matrix the states call hands to LAPACK equals the upper triangle of
    # its real part bit for bit, and the bands of the truncation check's
    # two levels calls, first and doubled truncation, equal its upper band
    # bit for bit, with every entry outside the band exactly 0
    seen = _solver_inputs(monkeypatch)
    for phix in (0.494, 0.5, 0.503):
        p = circuit_parts(lc, phix)
        seen.clear()
        build_coupled_eigenbasis(gauge, p.raw, 6, 40, 4)
        truncation_check(gauge, p.raw, 6, 40)
        assert all(h.dtype == np.float64 for h in seen)
        dense, *bands = [h for h in seen if h.shape[1] > 32]
        assert [h.shape for h in bands] == [(12, 240), (24, 960)]
        ref = complex_eigenbasis_hamiltonian(gauge, p.raw, 6, 40, n_table=12)
        assert np.all(ref.imag == 0.0)
        assert np.array_equal(dense, np.triu(ref.real))
        for band, (nq, nf) in zip(bands, ((6, 40), (12, 80))):
            ref = complex_eigenbasis_hamiltonian(gauge, p.raw, nq, nf,
                                                 n_table=12)
            kd = 2 * nq - 1
            assert np.all(ref.imag == 0.0)
            assert np.array_equal(band, _upper_band(ref.real, kd))
            assert np.all(np.triu(ref.real, kd + 1) == 0.0)
            assert np.all(np.tril(ref.real, -kd - 1) == 0.0)


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
    spec = build_coupled_eigenbasis(gauge, raw, n_qubit=nq, n_fock=nf,
                                    n_states=8)
    ref = np.linalg.eigvalsh(complex_eigenbasis_hamiltonian(
        gauge, raw, nq, nf, n_table=2 * nq))
    assert spec.vectors.dtype == np.float64
    assert np.abs(spec.energies[:8] - ref[:8]).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(lc=st.one_of(st.just(0.0), st.floats(0.0, 400.0)),
       l1=st.floats(200.0, 1000.0),
       l2=st.floats(1000.0, 3000.0), c=st.floats(0.3, 2.0),
       cj=st.floats(2.0, 10.0), lj=st.floats(600.0, 2000.0),
       phix=st.floats(0.48, 0.52), gauge=st.sampled_from(["flux", "charge"]),
       dims=st.sampled_from([(1, 6), (2, 4), (4, 10), (6, 20), (8, 30)]))
def test_banded_levels_match_dense_assembly(lc, l1, l2, c, cj, lj, phix,
                                            gauge, dims):
    raw = RawCircuit.from_lj(Lc=lc, L1=l1, L2=l2, C=c, CJ=cj, LJ=lj, phix=phix)
    nq, nf = dims
    spec = coupled_levels(gauge, raw, n_qubit=nq, n_fock=nf)
    dense = np.linalg.eigvalsh(
        kron_product_hamiltonian(spec.coupling.truncated(nf, nq)))
    assert spec.energies.shape == (min(8, nq * nf),)
    assert np.abs(spec.energies - dense[:8]).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(lc=st.one_of(st.just(0.0), st.floats(0.0, 400.0)),
       l1=st.floats(200.0, 1000.0),
       l2=st.floats(1000.0, 3000.0), c=st.floats(0.3, 2.0),
       cj=st.floats(2.0, 10.0), lj=st.floats(600.0, 2000.0),
       phix=st.floats(0.48, 0.52), gauge=st.sampled_from(["flux", "charge"]),
       nq=st.integers(1, 12), nf=st.integers(1, 60))
@example(lc=20.0, l1=780.0, l2=2030.0, c=0.87, cj=4.84, lj=990.0, phix=0.5,
         gauge="charge", nq=1, nf=1)
def test_block_assembly_equals_kron_form(lc, l1, l2, c, cj, lj, phix, gauge,
                                         nq, nf):
    # the states call copies the band into a zero matrix; the upper
    # triangle it solves must be the Kronecker form's bit for bit, signed
    # zeros included, with zeros below
    raw = RawCircuit.from_lj(Lc=lc, L1=l1, L2=l2, C=c, CJ=cj, LJ=lj, phix=phix)
    with pytest.MonkeyPatch.context() as patch:
        seen = _solver_inputs(patch)
        spec = build_coupled_eigenbasis(gauge, raw, nq, nf, 1)
    dense = seen[-1]
    kron = kron_product_hamiltonian(spec.coupling.truncated(nf, nq))
    assert dense.shape == (nf * nq, nf * nq)
    assert dense.tobytes() == np.triu(kron).tobytes()


def _full_eigh_spectrum(spec):
    """spec with every level and eigenvector of a full np.linalg.eigh of the
    Kronecker form of the same product matrix."""
    n_fock, n_qubit = spec.dims
    energies, vectors = np.linalg.eigh(
        kron_product_hamiltonian(spec.coupling.truncated(n_fock, n_qubit)))
    return dataclasses.replace(spec, energies=energies, vectors=vectors)


@pytest.mark.parametrize("lc, phix", [(20.0, 0.5), (20.0, 0.494),
                                      (350.0, 0.497), (350.0, 0.503)])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_subset_states_call_matches_full_eigh(gauge, lc, phix):
    raw = circuit_parts(lc, phix).raw
    spec = build_coupled_eigenbasis(gauge, raw, 6, 40, 4)
    full = _full_eigh_spectrum(spec)
    assert spec.energies.shape == (4,)
    assert spec.vectors.shape == (240, 4)
    assert np.abs(spec.energies - full.energies[:4]).max() < 1e-10
    overlaps = np.abs(np.sum(spec.vectors * full.vectors[:, :4], axis=0))
    assert np.all(overlaps >= 1.0 - 1e-12)
    for state in range(4):
        got = observables(spec, raw, state)
        ref = observables(full, raw, state)
        for field in dataclasses.fields(got):
            v, r = getattr(got, field.name), getattr(ref, field.name)
            assert abs(v - r) <= 1e-9 * max(1.0, abs(r)), (field.name, v, r)


@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_subset_states_call_at_its_edges(parts350, gauge):
    # one state, and every state of the product dimension
    raw = parts350.raw
    for n_states in (1, 3 * 12):
        spec = build_coupled_eigenbasis(gauge, raw, 3, 12, n_states)
        full = _full_eigh_spectrum(spec)
        assert spec.vectors.shape == (36, n_states)
        assert np.abs(spec.energies - full.energies[:n_states]).max() < 1e-10
        overlaps = np.abs(np.sum(spec.vectors * full.vectors[:, :n_states],
                                 axis=0))
        assert np.all(overlaps >= 1.0 - 1e-12)
    for n_states in (0, 37):
        with pytest.raises(ValueError, match="indices are not valid"):
            build_coupled_eigenbasis(gauge, raw, 3, 12, n_states)


def test_observables_rejects_state_outside_spectrum(parts20):
    # the spectrum holds the lowest n_states states only; a negative index
    # would silently read the highest of them
    spec = build_coupled_eigenbasis("flux", parts20.raw, 6, 40, 4)
    for state in (-1, 4):
        with pytest.raises(ValueError, match="state_index"):
            observables(spec, parts20.raw, state)
    assert observables(spec, parts20.raw, 3).photon_number >= 0.0


@pytest.mark.parametrize("lc, phix", [(20.0, 0.5), (350.0, 0.5),
                                      (350.0, 0.497)])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_matrix_free_planewave_matches_dense_oracle(gauge, lc, phix):
    raw = circuit_parts(lc, phix).raw
    levels = build_coupled_planewave(gauge, raw)
    dense = np.linalg.eigvalsh(dense_planewave_hamiltonian(gauge, raw))
    assert np.abs(levels - dense[:8]).max() < 1e-9
    assert np.array_equal(build_coupled_planewave(gauge, raw), levels)


@pytest.mark.parametrize("gauge, table, tilt", [
    ("flux", "phase_matrix",
     lambda m: m + 1e-9 * np.abs(m).max() * np.triu(np.ones(m.shape), 1)),
    ("charge", "number_matrix",
     lambda m: m + 1e-9j * np.abs(m).max() * np.ones(m.shape)),
])
def test_banded_levels_reject_table_without_quadrature_symmetry(
        monkeypatch, parts20, gauge, table, tilt):
    # the band stores only the upper blocks c X[m, m+1] K, and the states
    # call solves only its upper triangle; either determines the symmetric
    # matrix only if K is symmetric with a + a' and antisymmetric with
    # a - a', so every eigenbasis solve refuses a tilted K
    original = getattr(coupled, table)
    monkeypatch.setattr(coupled, table, lambda *a: tilt(original(*a)))
    for solve in (coupled_levels,
                  lambda *a: build_coupled_eigenbasis(*a, n_states=4)):
        with pytest.raises(EigensolveError, match="symmetry"):
            solve(gauge, parts20.raw, 6, 40)


@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_both_matrix_forms_reject_quadrature_beyond_neighbours(parts20,
                                                              gauge):
    # the band, which the levels call solves and the states call copies,
    # holds only the blocks c X[m, m + 1] K, so an X with any other entry
    # is refused before it is written
    coupling = circuit_coupling(gauge, parts20.raw)
    osc = coupling.osc_elements + np.eye(len(coupling.osc_elements))
    bad = dataclasses.replace(coupling, osc_elements=osc)
    with pytest.raises(EigensolveError, match="first off-diagonals"):
        coupled._band(bad, 6, 4)


def test_banded_solver_failure_raises_eigensolve_error(monkeypatch, parts20):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(scipy.linalg, "eigvals_banded", fail)
    with pytest.raises(EigensolveError, match="banded"):
        coupled_levels("flux", parts20.raw, 6, 40)


def test_states_solver_failure_raises_eigensolve_error(monkeypatch, parts20):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    with pytest.raises(EigensolveError, match="coupled eigensolve failed"):
        build_coupled_eigenbasis("flux", parts20.raw, 6, 40, 4)


def _tilted(m):
    return m + 1e-6 * np.abs(m).max() * np.triu(np.ones(m.shape), 1)


@pytest.mark.parametrize("gauge, factor, tilt, what", [
    ("flux", "oscillator_hamiltonian", _tilted, "oscillator Hamiltonian"),
    ("charge", "qubit_hamiltonian", _tilted, "qubit Hamiltonian"),
    ("charge", "linear_kernel", lambda m: m + 1e-6j * np.ones(m.shape),
     "charge kernel"),
])
def test_planewave_factors_checked(monkeypatch, parts20, gauge, factor, tilt,
                                   what):
    original = getattr(coupled, factor)
    monkeypatch.setattr(coupled, factor, lambda *a: tilt(original(*a)))
    with pytest.raises(EigensolveError, match=f"{what} is not Hermitian"):
        build_coupled_planewave(gauge, parts20.raw)


@pytest.mark.parametrize("error", [
    scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0),
                                            np.zeros((0, 0))),
    scipy.sparse.linalg.ArpackError(-9999),
])
def test_planewave_solver_failure_raises_eigensolve_error(monkeypatch,
                                                          parts20, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    with pytest.raises(EigensolveError, match="plane-wave product"):
        build_coupled_planewave("flux", parts20.raw)


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
        build_coupled_eigenbasis(gauge, p.raw, 6, 40, 4)


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
            build_coupled_eigenbasis(gauge, raw, n_qubit=2, n_fock=4,
                                     n_states=1).coupling.omega,
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
