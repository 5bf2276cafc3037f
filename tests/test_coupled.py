"""Coupled-circuit eigensolves: builds, cross-checks, and observables."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fluxrabi.coupled as coupled
from fluxrabi.circuit import GAUGES, RawCircuit, gauge_circuit
from fluxrabi.constants import CONSTANTS, N_COUPLED_LEVELS, fock_ladder
from fluxrabi.coupled import (
    build_coupled_eigenbasis,
    build_coupled_planewave,
    circuit_coupling,
    observables,
    truncation_check,
)
from fluxrabi.planewave import EigensolveError
from fluxrabi.qubit import TwoLevelFit
from fluxrabi.rabi import map_circuit_to_rabi
from fluxrabi.tasks import TRUNCATION_LADDER

from conftest import circuit_parts, nothing_dense, patch_pbtrf, solver_calls
from oracles import (complex_eigenbasis_hamiltonian,
                     dense_planewave_hamiltonian, kron_product_hamiltonian,
                     ladder_difference, product_matvec)


def _solver_inputs(monkeypatch):
    """Record a copy of every matrix handed to np.linalg.eigh and eigvalsh,
    and of every band handed to scipy.linalg.eig_banded or LAPACK's
    dpbtrf, taken before the solve, and every LinearOperator handed to
    scipy.sparse.linalg.eigsh."""
    seen = []
    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                         (scipy.linalg, "eig_banded"),
                         (scipy.sparse.linalg, "eigsh")):
        solver = getattr(module, name)

        def record(a, *args, _solver=solver, **kwargs):
            operator = isinstance(a, scipy.sparse.linalg.LinearOperator)
            seen.append(a if operator else np.array(a, copy=True))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(module, name, record)

    def record_factor(pbtrf):
        def factor(ab, *args, **kwargs):
            seen.append(np.array(ab, copy=True))
            return pbtrf(ab, *args, **kwargs)
        return factor

    patch_pbtrf(monkeypatch, record_factor)
    return seen


def _shifts(h):
    """The shifts sigma the coupled shift-invert solve tries on the
    symmetric matrix h, in order: its smallest diagonal entry minus 1, 2,
    4, ... GHz, floored 1 GHz under its Gershgorin bound."""
    diag = np.diag(h)
    floor = float(np.min(diag - (np.abs(h).sum(axis=1) - np.abs(diag)))) - 1.0
    step = 1.0
    while True:
        yield max(diag.min() - step, floor)
        step *= 2.0


def _assert_factored_bands(bands, h):
    """Each band handed to dpbtrf is the upper band of h bit for bit, of
    shape (kd + 1, dim), save its diagonal row, which is h's diagonal with
    the next shift of _shifts(h) subtracted.  Every entry of h outside the
    band is exactly 0, and its lower triangle mirrors the upper one to the
    1e-12 the coupled build allows its qubit table, so the band determines
    h."""
    kd = bands[0].shape[0] - 1
    upper = _upper_band(h, kd)
    coupling = np.abs(h - np.diag(np.diag(h))).max()
    assert np.abs(h - h.T).max() <= 1e-12 * coupling
    assert np.all(np.triu(h, kd + 1) == 0.0)
    assert np.all(np.tril(h, -kd - 1) == 0.0)
    for band, sigma in zip(bands, _shifts(h)):
        assert band.shape == upper.shape
        assert np.array_equal(band[:kd], upper[:kd])
        assert np.array_equal(band[kd], np.diag(h) - sigma)


def _upper_band(h, kd):
    """h in LAPACK upper band storage: band[kd + i - j, j] = h[i, j]."""
    band = np.zeros((kd + 1, len(h)))
    for d in range(kd + 1):
        band[kd - d, d:] = np.diagonal(h, d)
    return band


def test_ladder_quadratures():
    up = np.diag(fock_ladder(4), 1)
    expected = np.zeros((4, 4))
    for n in range(3):
        expected[n, n + 1] = expected[n + 1, n] = np.sqrt(n + 1.0)
    assert np.abs(up + up.T - expected).max() == 0.0
    diff = ladder_difference(4)
    assert np.abs(diff - diff.conj().T).max() == 0.0
    assert diff[0, 1] == pytest.approx(-1j)
    assert diff[1, 0] == pytest.approx(1j)


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


def test_states_call_refuses_qubit_levels_not_dimension(parts20):
    # (60, 80) is refused for its 60 qubit levels, beyond the 32 the qubit
    # basis resolves; its product dimension 4800 sets no limit
    with pytest.raises(EigensolveError, match="60 qubit levels requested"):
        build_coupled_eigenbasis("flux", parts20.raw, n_qubit=60, n_fock=80,
                                 n_states=4)


def test_truncation_check_and_doubled_states_call_assemble_nothing(
        monkeypatch, parts20):
    # both solves of the check are levels calls, shift-invert Lanczos on
    # the band at (8, 60) and at the doubled dimension 1920; the states call
    # at the doubled truncation is one too and finds the same levels
    calls = solver_calls(monkeypatch)
    shift, converged = truncation_check("flux", parts20.raw, 8, 60)
    assert converged and shift < 1e-3
    spec = build_coupled_eigenbasis("flux", parts20.raw, 16, 120, 4)
    levels = build_coupled_eigenbasis("flux", parts20.raw, 16, 120)
    assert spec.vectors.shape == (1920, 4)
    assert np.abs(spec.energies - levels.energies[:4]).max() < 1e-9
    assert nothing_dense(calls), calls


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
        assert observables(spec, p.raw)[0].photon_number >= 0.0


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
    levels = build_coupled_eigenbasis("charge", p.raw, 6, 40)
    assert levels.vectors is None
    assert levels.dims == full.dims
    assert levels.energies.shape == (8,)
    assert np.abs(levels.energies - full.energies[:8]).max() < 1e-9
    again = build_coupled_eigenbasis("charge", p.raw, 6, 40)
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
        for obs in observables(spec, p.raw):
            assert abs(obs.current_1) < 1e-2


def test_ground_flux_expectation_is_odd_around_symmetry(parts20):
    p = parts20
    values = []
    for phix in (0.498, 0.502):
        raw = dataclasses.replace(p.raw, phix=phix)
        spec = build_coupled_eigenbasis("flux", raw, 6, 40, 1)
        values.append(observables(spec, raw)[0])
    assert values[0].flux_2 == pytest.approx(-values[1].flux_2, rel=1e-6)
    assert values[0].flux_1 == pytest.approx(-values[1].flux_1, rel=1e-6)
    assert abs(values[0].flux_2) > 0.1


def test_charge_gauge_frame_flux_vanishes(parts20):
    p = parts20
    raw = dataclasses.replace(p.raw, phix=0.498)
    spec = build_coupled_eigenbasis("charge", raw, 6, 40, 1)
    obs = observables(spec, raw)[0]
    # the momentum-shifted oscillator mode has no flux displacement; the
    # loop currents still come out through the gauge-restored flux
    assert abs(obs.flux_1) < 1e-6
    assert abs(obs.current_2) > 100.0


def test_observables_rejects_spectrum_without_eigenbasis_context(parts20):
    # a levels-only build carries no eigenvectors; observables must not
    # misread it
    p = parts20
    spec = build_coupled_eigenbasis("flux", p.raw, 6, 40)
    with pytest.raises(ValueError, match="vectors"):
        observables(spec, p.raw)


def test_photon_number_nonnegative_and_small_in_ground_state(parts20):
    p = parts20
    spec = build_coupled_eigenbasis("flux", p.raw, 6, 40, 1)
    obs = observables(spec, p.raw)[0]
    assert 0.0 <= obs.photon_number < 0.1


@pytest.mark.parametrize("lc", [20.0, 350.0])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_real_assembly_is_real_part_of_complex_reference(monkeypatch, gauge, lc):
    # the complex assembly has an imaginary part of exactly 0; the bands
    # that the states call at dimension 240 and the truncation check's two
    # levels calls, at dimensions 240 and 960, hand to dpbtrf equal the
    # upper band of its real part bit for bit, save the shift on the
    # diagonal, with every entry outside the band exactly 0; and the
    # operator each hands to eigsh applies -(H - sigma I)^-1
    seen = _solver_inputs(monkeypatch)
    for phix in (0.494, 0.5, 0.503):
        p = circuit_parts(lc, phix)
        seen.clear()
        build_coupled_eigenbasis(gauge, p.raw, 6, 40, 4)
        truncation_check(gauge, p.raw, 6, 40)
        assert all(h.dtype == np.float64 for h in seen)
        solved = [h for h in seen if h.shape[1] > 32]
        # each call factors one or more shifted bands, then hands one
        # operator to eigsh
        cut = [i for i, h in enumerate(solved)
               if isinstance(h, scipy.sparse.linalg.LinearOperator)]
        assert len(cut) == 3 and cut[2] == len(solved) - 1
        for n_qubit, n_fock, bands, operator in (
                (6, 40, solved[:cut[0]], solved[cut[0]]),
                (6, 40, solved[cut[0] + 1:cut[1]], solved[cut[1]]),
                (12, 80, solved[cut[1] + 1:cut[2]], solved[cut[2]])):
            dim = n_qubit * n_fock
            assert bands and bands[0].shape == (2 * n_qubit, dim)
            assert operator.shape == (dim, dim)
            ref = complex_eigenbasis_hamiltonian(gauge, p.raw, n_qubit,
                                                 n_fock, n_table=12)
            assert np.all(ref.imag == 0.0)
            _assert_factored_bands(bands, ref.real)
            sigma = list(itertools.islice(_shifts(ref.real), len(bands)))[-1]
            probe = np.eye(dim)[:, :3]
            shifted = ref.real - sigma * np.eye(dim)
            assert np.abs(shifted @ operator.matmat(probe) + probe).max() < 1e-9


@pytest.mark.parametrize("lc", [20.0, 350.0])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_truncated_coupling_equals_direct_tables(gauge, lc):
    # a slice of a coupling tabulated at more qubit levels is bit for bit
    # the coupling tabulated at the slice, so the perturbation sums can read
    # the 6-level slice of any eigenbasis build without a second solve
    for phix in (0.494, 0.5, 0.503):
        p = circuit_parts(lc, phix)
        direct = circuit_coupling(gauge, p.raw, 6)
        sliced = circuit_coupling(gauge, p.raw, 12).truncated(6)
        assert direct.qubit_elements.dtype == np.float64
        for field in dataclasses.fields(direct):
            assert np.array_equal(getattr(direct, field.name),
                                  getattr(sliced, field.name)), field.name


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
    spec = build_coupled_eigenbasis(gauge, raw, n_qubit=nq, n_fock=nf)
    dense = np.linalg.eigvalsh(kron_product_hamiltonian(spec))
    assert spec.energies.shape == (min(8, nq * nf),)
    assert np.abs(spec.energies - dense[:8]).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(lc=st.one_of(st.just(0.0), st.floats(1.0, 400.0)),
       l1=st.floats(200.0, 1000.0),
       l2=st.floats(1000.0, 3000.0), c=st.floats(0.3, 2.0),
       cj=st.floats(2.0, 10.0), lj=st.floats(600.0, 2000.0),
       phix=st.floats(0.48, 0.52), gauge=st.sampled_from(["flux", "charge"]),
       dims=st.sampled_from([(8, 80), (12, 60), (16, 40)]))
@example(lc=0.0, l1=780.0, l2=2030.0, c=0.87, cj=4.84, lj=990.0, phix=0.5,
         gauge="flux", dims=(8, 80))
def test_matrix_free_levels_match_banded_solve(lc, l1, l2, c, cj, lj, phix,
                                               gauge, dims):
    # above eight product states the levels call is a shift-invert Lanczos
    # solve; it must find the lowest eight levels of the same matrix as
    # LAPACK's banded solver,
    # also at Lc = 0, where the matrix is diagonal and a dropped level
    # would show
    raw = RawCircuit.from_lj(Lc=lc, L1=l1, L2=l2, C=c, CJ=cj, LJ=lj, phix=phix)
    nq, nf = dims
    assert N_COUPLED_LEVELS < nq * nf
    spec = build_coupled_eigenbasis(gauge, raw, n_qubit=nq, n_fock=nf)
    banded = scipy.linalg.eigvals_banded(coupled._band(spec.coupling, nf, nq),
                                         select="i", select_range=(0, 7))
    assert spec.energies.shape == (8,)
    assert np.abs(spec.energies - banded).max() < 1e-9


@pytest.mark.parametrize("lc", [20.0, 350.0])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_shift_invert_levels_match_dense_oracle(gauge, lc):
    # every rung of gauge-check's ladder and (16, 120): the levels call
    # against np.linalg.eigvalsh of the Kronecker form of the same matrix
    raw = circuit_parts(lc).raw
    for nq, nf in TRUNCATION_LADDER + ((16, 120),):
        spec = build_coupled_eigenbasis(gauge, raw, nq, nf)
        dense = np.linalg.eigvalsh(kron_product_hamiltonian(spec))
        assert spec.energies.shape == (8,)
        assert np.abs(spec.energies - dense[:8]).max() < 1e-10, (nq, nf)


@pytest.mark.parametrize("dims", [(8, 80), (16, 120)])
@pytest.mark.parametrize("lc", [20.0, 350.0])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_shift_invert_states_match_dense_eigh(gauge, lc, dims):
    # for fewer states than the dimension the states call is shift-invert
    # Lanczos with vectors; against a dense eigh of the Kronecker form its
    # energies
    # agree, each lone vector has |overlap| at least 1 - 1e-12 with the
    # dense one, and levels within 0.02 GHz of each other (the tunnel
    # pairs at 350 pH, phix = 0.5) span the same plane
    nq, nf = dims
    n_states = 8
    raw = circuit_parts(lc).raw
    spec = build_coupled_eigenbasis(gauge, raw, nq, nf, n_states)
    # one level past the last state, to tell whether it has a partner
    energies, vectors = scipy.linalg.eigh(kron_product_hamiltonian(spec),
                                          subset_by_index=[0, n_states])
    assert np.abs(spec.energies - energies[:n_states]).max() < 1e-10
    runs = np.split(np.arange(n_states + 1),
                    np.flatnonzero(np.diff(energies) >= 0.02) + 1)
    for run in runs:
        solved = run[run < n_states]
        span, got = vectors[:, run], spec.vectors[:, solved]
        if len(run) == 1:
            if len(solved):
                assert abs(float(span[:, 0] @ got[:, 0])) >= 1.0 - 1e-12
        elif len(solved) == len(run):
            assert np.abs(got @ got.T - span @ span.T).max() < 1e-10
        else:  # a pair cut by n_states: its solved vector lies in its plane
            assert np.abs(got - span @ (span.T @ got)).max() < 1e-10
    # states 6 and 7 at 350 pH are 0.0099 GHz apart, save in the charge
    # gauge at (8, 80), which has not converged and splits them by 0.29 GHz
    if lc == 350.0 and (gauge, dims) != ("charge", (8, 80)):
        assert [6, 7] in [list(run) for run in runs]


def test_shift_search_steps_past_failed_factorizations(monkeypatch,
                                                       parts350):
    # at 350 pH the flux-gauge ground level lies 8.4 GHz under the lowest
    # bare energy: the factorizations at 1, 2, 4 and 8 GHz under it fail,
    # as Cholesky must when sigma is not below the lowest level, and the
    # first that succeeds, at 16 GHz, is the one solved with
    infos = []
    bands = []

    def record(pbtrf):
        def factor(ab, *args, **kwargs):
            bands.append(np.array(ab, copy=True))
            out = pbtrf(ab, *args, **kwargs)
            infos.append(out[1])
            return out
        return factor

    patch_pbtrf(monkeypatch, record)
    spec = build_coupled_eigenbasis("flux", parts350.raw, 6, 40)
    h = kron_product_hamiltonian(spec)
    dense = np.linalg.eigvalsh(h)
    assert len(infos) == 5 and infos[-1] == 0
    assert all(info > 0 for info in infos[:-1])
    _assert_factored_bands(bands, h)
    sigmas = list(itertools.islice(_shifts(h), len(bands)))
    assert sigmas[-1] < dense[0] <= sigmas[-2]
    assert np.abs(spec.energies - dense[:8]).max() < 1e-10


def _eigenspaces(levels):
    """Runs of ascending levels each within 1e-6 GHz of the next, as
    (indices, gap), gap the distance in GHz from the run to the nearest
    other level (inf if there is none)."""
    runs = np.split(np.arange(len(levels)),
                    np.flatnonzero(np.diff(levels) >= 1e-6) + 1)
    padded = np.concatenate(([-np.inf], levels, [np.inf]))
    return [(run, min(padded[run[0] + 1] - padded[run[0]],
                      padded[run[-1] + 2] - padded[run[-1] + 1]))
            for run in runs]


def _current_unit(raw):
    """The current in nA that one unit of 2 pi Phi / Phi0 drives through
    the loop inductances, the natural scale of the observables' currents,
    as the photon number's and the fluxes' is 1."""
    l_matrix = np.array([[raw.Lc + raw.L1, raw.Lc], [raw.Lc, raw.Lc + raw.L2]])
    flux_quantum = CONSTANTS.Phi0 / (2.0 * np.pi)
    return float(np.abs(np.linalg.inv(l_matrix)).max()) * flux_quantum * 1e21


@settings(max_examples=30, deadline=None)
@given(lc=st.one_of(st.just(0.0), st.floats(1.0, 400.0)),
       l1=st.floats(200.0, 1000.0),
       l2=st.floats(1000.0, 3000.0), c=st.floats(0.3, 2.0),
       cj=st.floats(2.0, 10.0), lj=st.floats(600.0, 2000.0),
       phix=st.floats(0.48, 0.52), gauge=st.sampled_from(["flux", "charge"]),
       dims=st.sampled_from([(8, 80), (12, 60), (16, 40)]),
       n_states=st.sampled_from([1, 4, 12]))
@example(lc=0.0, l1=780.0, l2=2030.0, c=0.87, cj=4.84, lj=990.0, phix=0.5,
         gauge="flux", dims=(8, 80), n_states=12)
def test_matrix_free_states_match_dense_subset_solve(lc, l1, l2, c, cj, lj,
                                                     phix, gauge, dims,
                                                     n_states):
    # for fewer states than the dimension the states call is a shift-invert
    # Lanczos solve with vectors; against LAPACK's dense subset solve of the
    # upper triangle of the Kronecker form of the same matrix its levels
    # agree, its vectors span the same eigenspaces (levels
    # within 1e-6 GHz of each other count as one) and each lone level's
    # observables agree, whatever sign ARPACK gives a vector.  Both solves
    # leave residuals
    # near 1e-12, which turn a vector by up to about that over the gap to
    # the nearest other level, so below a 1 GHz gap the vector and
    # observable tolerances grow as 1 / gap: at phix = 0.5 a tunnel pair
    # 3e-5 GHz apart moves a flux by 2e-8 between the two solves.
    raw = RawCircuit.from_lj(Lc=lc, L1=l1, L2=l2, C=c, CJ=cj, LJ=lj, phix=phix)
    nq, nf = dims
    assert max(N_COUPLED_LEVELS, n_states) < nq * nf
    spec = build_coupled_eigenbasis(gauge, raw, nq, nf, n_states)
    # one level past the last state, for the gap above it
    energies, vectors = scipy.linalg.eigh(kron_product_hamiltonian(spec),
                                          lower=False,
                                          subset_by_index=[0, n_states])
    assert spec.vectors.shape == (nq * nf, n_states)
    assert np.abs(spec.energies - energies[:n_states]).max() < 1e-9
    dense = dataclasses.replace(spec, energies=energies[:n_states],
                                vectors=vectors[:, :n_states])
    units = {"current_1": _current_unit(raw), "current_2": _current_unit(raw)}
    obs_got, obs_ref = observables(spec, raw), observables(dense, raw)
    for run, gap in _eigenspaces(energies):
        solved = run[run < n_states]
        if len(solved) == 0:
            continue
        tol = 1e-9 / min(1.0, gap)
        span, got = vectors[:, run], spec.vectors[:, solved]
        if len(solved) == len(run):
            assert np.abs(got @ got.T - span @ span.T).max() <= tol
        else:  # a run cut by n_states: its solved vectors lie in its span
            assert np.abs(got - span @ (span.T @ got)).max() <= tol
        if len(run) > 1:
            continue
        got, ref = obs_got[run[0]], obs_ref[run[0]]
        for field in dataclasses.fields(got):
            v, r = getattr(got, field.name), getattr(ref, field.name)
            scale = max(units.get(field.name, 1.0), abs(r))
            assert abs(v - r) <= tol * scale, (field.name, v, r)


@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_states_call_at_5120_product_states(monkeypatch, parts350, gauge):
    # (32, 160), where the 350 pH gauges agree to 0.07 MHz: shift-invert
    # Lanczos, nothing dense assembled, orthonormal eigenpairs of the
    # product matrix as the oracle matvec applies it, and the levels of
    # the levels call
    calls = solver_calls(monkeypatch)
    spec = build_coupled_eigenbasis(gauge, parts350.raw, 32, 160, 4)
    assert nothing_dense(calls), calls
    assert spec.vectors.shape == (5120, 4)
    assert np.abs(spec.vectors.T @ spec.vectors - np.eye(4)).max() < 1e-12
    matvec = product_matvec(spec)
    for energy, vector in zip(spec.energies, spec.vectors.T):
        assert np.linalg.norm(matvec(vector) - energy * vector) < 1e-9
    levels = build_coupled_eigenbasis(gauge, parts350.raw, 32, 160)
    assert np.abs(spec.energies - levels.energies[:4]).max() < 1e-9


def _shift_invert_calls(calls):
    """Whether calls is one or more factorizations, then one eigsh."""
    return calls[-1:] == ["eigsh"] and set(calls[:-1]) == {"pbtrf"}


@pytest.mark.parametrize("dims, n_states, banded", [
    ((2, 4), None, True),    # 8 levels: every level of the band
    ((2, 4), 4, True),       # 4 states of a solve for 8 levels
    ((3, 3), None, False),   # 9
    ((3, 12), 36, True),     # every state of the band
    ((3, 12), 35, False),    # one state fewer
    ((6, 40), 4, False),     # 240: the configured observables truncation
    ((8, 60), None, False),  # 480: the configured levels truncation
    ((8, 64), 4, False),     # 512
    ((8, 80), None, False),  # 640
])
def test_solve_picks_path_by_levels_and_dimension(monkeypatch, parts350,
                                                  dims, n_states, banded):
    # one rule for both calls: a solve for max(N_COUPLED_LEVELS, n_states)
    # levels is shift-invert below the dimension, and LAPACK's banded
    # solver for every level of the band at it
    calls = solver_calls(monkeypatch)
    if n_states is None:
        build_coupled_eigenbasis("charge", parts350.raw, *dims)
    else:
        build_coupled_eigenbasis("charge", parts350.raw, *dims, n_states)
    if banded:
        assert calls == ["eig_banded"]
    else:
        assert _shift_invert_calls(calls), calls


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
    # the band both calls solve must be the upper band of the Kronecker
    # form bit for bit, signed zeros included
    raw = RawCircuit.from_lj(Lc=lc, L1=l1, L2=l2, C=c, CJ=cj, LJ=lj, phix=phix)
    spec = build_coupled_eigenbasis(gauge, raw, nq, nf, 1)
    band = coupled._band(spec.coupling, nf, nq)
    kron = kron_product_hamiltonian(spec)
    assert band.shape == (2 * nq, nf * nq)
    assert band.tobytes() == _upper_band(kron, 2 * nq - 1).tobytes()


def _full_eigh_spectrum(spec):
    """spec with every level and eigenvector of a full np.linalg.eigh of the
    Kronecker form of the same product matrix."""
    energies, vectors = np.linalg.eigh(kron_product_hamiltonian(spec))
    return dataclasses.replace(spec, energies=energies, vectors=vectors)


@pytest.mark.parametrize("lc, phix", [(20.0, 0.5), (20.0, 0.494),
                                      (350.0, 0.497), (350.0, 0.5),
                                      (350.0, 0.503)])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_states_call_matches_full_eigh(gauge, lc, phix):
    raw = circuit_parts(lc, phix).raw
    spec = build_coupled_eigenbasis(gauge, raw, 6, 40, 4)
    full = _full_eigh_spectrum(spec)
    assert spec.energies.shape == (4,)
    assert spec.vectors.shape == (240, 4)
    assert np.abs(spec.energies - full.energies[:4]).max() < 1e-10
    overlaps = np.abs(np.sum(spec.vectors * full.vectors[:, :4], axis=0))
    assert np.all(overlaps >= 1.0 - 1e-12)
    for got, ref in zip(observables(spec, raw), observables(full, raw)):
        for field in dataclasses.fields(got):
            v, r = getattr(got, field.name), getattr(ref, field.name)
            assert abs(v - r) <= 1e-9 * max(1.0, abs(r)), (field.name, v, r)


@pytest.mark.parametrize("lc, dims, few", [
    (350.0, (3, 12), 1),   # one state of 36
    (20.0, (8, 80), 12),   # twelve of 640, more than the levels call's 8
])
@pytest.mark.parametrize("gauge", ["flux", "charge"])
def test_states_call_at_its_edges(gauge, lc, dims, few):
    # few states from shift-invert Lanczos, and every state of the
    # dimension, which ARPACK cannot solve for, from the banded solver with
    # the same lowest few; both against a full np.linalg.eigh of the
    # Kronecker form.  No state at all, or one more than the dimension, is
    # a ValueError
    raw = circuit_parts(lc).raw
    nq, nf = dims
    dim = nq * nf
    spec = build_coupled_eigenbasis(gauge, raw, nq, nf, few)
    assert spec.energies.shape == (few,)
    assert np.all(np.diff(spec.energies) > 0.0)
    full = build_coupled_eigenbasis(gauge, raw, nq, nf, dim)
    assert np.abs(full.energies[:few] - spec.energies).max() < 1e-9
    for solved in (spec, full):
        n_states = len(solved.energies)
        ref = _full_eigh_spectrum(solved)
        assert solved.vectors.shape == (dim, n_states)
        assert np.abs(solved.energies - ref.energies[:n_states]).max() < 1e-10
        overlaps = np.abs(np.sum(solved.vectors * ref.vectors[:, :n_states],
                                 axis=0))
        assert np.all(overlaps >= 1.0 - 1e-12)
    for n_states in (0, dim + 1):
        with pytest.raises(ValueError,
                           match=rf"n_states must be in 1 \.\. {dim}"):
            build_coupled_eigenbasis(gauge, raw, nq, nf, n_states)


def test_observables_cover_exactly_the_spectrum_states(parts20):
    # one Observables per state the spectrum holds, ground state first, each
    # the same bits as from a spectrum holding that state alone
    spec = build_coupled_eigenbasis("flux", parts20.raw, 6, 40, 4)
    states = observables(spec, parts20.raw)
    assert len(states) == spec.vectors.shape[1] == 4
    for state, obs in enumerate(states):
        alone = dataclasses.replace(spec,
                                    vectors=spec.vectors[:, state:state + 1])
        assert observables(alone, parts20.raw) == (obs,)
        assert obs.photon_number >= 0.0


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
     lambda m: m + 1e-9 * np.abs(m).max() * np.ones(m.shape)),
])
def test_banded_levels_reject_table_without_quadrature_symmetry(
        monkeypatch, parts20, gauge, table, tilt):
    # the band stores only the upper blocks c X[m, m+1] K, which determine
    # the symmetric matrix only if K is symmetric with a + a' and
    # antisymmetric with a - a', so circuit_coupling, and with it every
    # eigenbasis solve, refuses a tilted K
    original = getattr(coupled, table)
    monkeypatch.setattr(coupled, table, lambda *a: tilt(original(*a)))
    for solve in (build_coupled_eigenbasis,
                  lambda *a: build_coupled_eigenbasis(*a, n_states=4)):
        with pytest.raises(EigensolveError, match="symmetry"):
            solve(gauge, parts20.raw, 6, 40)


def test_banded_solver_failure_raises_eigensolve_error(monkeypatch, parts20):
    # at eight product states both calls take every level of the band
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(scipy.linalg, "eig_banded", fail)
    for solve in (build_coupled_eigenbasis,
                  lambda *a: build_coupled_eigenbasis(*a, n_states=4)):
        with pytest.raises(EigensolveError,
                           match="banded coupled eigensolve failed"):
            solve("flux", parts20.raw, 2, 4)


@pytest.mark.parametrize("error", [
    scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0),
                                            np.zeros((0, 0))),
    scipy.sparse.linalg.ArpackError(-9999),
])
def test_matrix_free_levels_failure_raises_eigensolve_error(monkeypatch,
                                                            parts20, error):
    # an ARPACK failure of the shift-invert solve, in the levels call at
    # 240 and 640 product states and in the states call at 640
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    for solve, dims in ((build_coupled_eigenbasis, (6, 40)),
                        (build_coupled_eigenbasis, (8, 80)),
                        (lambda *a: build_coupled_eigenbasis(*a, n_states=4),
                         (8, 80))):
        with pytest.raises(EigensolveError,
                           match="shift-invert coupled eigensolve failed"):
            solve("flux", parts20.raw, *dims)


def test_shift_search_that_never_factors_raises_eigensolve_error(monkeypatch,
                                                                 parts20):
    # a dpbtrf that never succeeds: the shift steps down to 1 GHz under the
    # Gershgorin bound, is tried there once, and the solve gives up
    bands = []

    def never(pbtrf):
        def factor(ab, *args, **kwargs):
            bands.append(np.array(ab, copy=True))
            return ab, 1
        return factor

    h = kron_product_hamiltonian(
        build_coupled_eigenbasis("flux", parts20.raw, 8, 80))
    patch_pbtrf(monkeypatch, never)
    for solve in (build_coupled_eigenbasis,
                  lambda *a: build_coupled_eigenbasis(*a, n_states=4)):
        bands.clear()
        with pytest.raises(EigensolveError,
                           match="shift-invert coupled eigensolve failed"):
            solve("flux", parts20.raw, 8, 80)
        _assert_factored_bands(bands, h)
        sigmas = list(itertools.islice(_shifts(h), len(bands) + 1))
        assert sigmas[-1] == sigmas[-2] < sigmas[-3]


def _tilted(m):
    return m + 1e-6 * np.abs(m).max() * np.triu(np.ones(m.shape), 1)


@pytest.mark.parametrize("gauge, factor, tilt, what", [
    ("flux", "oscillator_hamiltonian", _tilted, "oscillator Hamiltonian"),
    ("charge", "qubit_hamiltonian", _tilted, "qubit Hamiltonian"),
    # a symmetric part in the real A breaks the Hermiticity of n = 1j A
    ("charge", "linear_kernel", lambda m: m + 1e-6 * np.ones(m.shape),
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
    ("charge", "number_matrix", lambda m: m + 1e-3 * np.abs(m).max()),
])
def test_non_real_qubit_elements_rejected(monkeypatch, parts20, gauge, table,
                                          tilt):
    # a real charge table with a symmetric part is not 1j times a Hermitian
    # operator's B; it must not be truncated into the product matrix
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
