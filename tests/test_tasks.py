"""Task orchestration: row schemas, determinism, file round trips."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
import dataclasses
from dataclasses import replace

import numpy as np
import pytest

import fluxrabi.fitting as fitting
import fluxrabi.planewave as planewave
import fluxrabi.rabi as rabi
import fluxrabi.tasks as tasks
from fluxrabi.circuit import GAUGES, gauge_circuit
from fluxrabi.config import TASK_NAMES, NumericsConfig, reference_config
from fluxrabi.coupled import build_coupled_eigenbasis, observables
from fluxrabi.fitting import RabiFitResult, fit_transition_pairs
from fluxrabi.planewave import (BasisRangeWarning, PlaneWaveBasis,
                                diagonalize_flux_qubit)
from fluxrabi.qubit import PHIX_FIT_GRID, node_spectrum
from fluxrabi.tasks import (
    REGRESSION_BOUNDS,
    REGRESSION_PINS,
    SWEEP_COLUMNS,
    _sort_key,
    _sweep,
    run,
    task_inductance_compare,
    task_qubit_spectrum,
    task_regression,
    write_outputs,
)


def small_config(**kwargs):
    defaults = dict(tasks=("qubit-spectrum",), phix_start=0.498,
                    phix_stop=0.502, phix_points=3)
    defaults.update(kwargs)
    return reference_config(**defaults)


def test_qubit_spectrum_rows_match_direct_solve():
    cfg = small_config(lc_list=(20.0, 350.0))
    result = task_qubit_spectrum(cfg)
    assert result.columns == SWEEP_COLUMNS
    assert result.rows == sorted(result.rows, key=_sort_key)
    basis = PlaneWaveBasis.for_qubit()
    raw = cfg.circuit_at(20.0)
    flux = gauge_circuit("flux", raw)
    spec = diagonalize_flux_qubit(flux.ECJ, raw.EJ, flux.ELFQ, 0.498, basis)
    lookup = {(r[0], r[1], r[4]): r[6] for r in result.rows
              if not (isinstance(r[1], float) and math.isnan(r[1]))}
    for i in range(6):
        assert lookup[(20.0, 0.498, f"energy_level_{i}")] == pytest.approx(
            float(spec.energies[i]), rel=1e-12)
    assert lookup[(20.0, 0.498, "transition_01")] == pytest.approx(
        float(spec.energies[1] - spec.energies[0]), rel=1e-12)


def test_qubit_spectrum_includes_two_level_scalars():
    result = task_qubit_spectrum(small_config())
    scalars = {r[4]: (r[6], r[7]) for r in result.rows
               if isinstance(r[1], float) and math.isnan(r[1])}
    assert set(scalars) == {"Delta_q", "Ip", "omega_os", "Phi2max", "q2max",
                            "two_level_residual"}
    assert scalars["Delta_q"][1] == "GHz"
    assert scalars["Ip"][0] == pytest.approx(281.3, rel=0.01)


def test_inductance_rows_match_closed_forms():
    cfg = small_config(tasks=("inductance-compare",))
    result = task_inductance_compare(cfg)
    flux = gauge_circuit("flux", cfg.circuit)
    values = {r[4]: r[6] for r in result.rows}
    assert values["L12"] == pytest.approx(flux.L12, rel=1e-12)
    assert values["L_LC"] == pytest.approx(flux.L_LC, rel=1e-12)
    assert values["L_FQ_charge"] == pytest.approx(cfg.circuit.Lc
                                                  + cfg.circuit.L2, rel=1e-12)
    assert values["omega"] == pytest.approx(flux.omega, rel=1e-12)
    # the charge-gauge rows are the oscillator node of the charge gauge
    charge = gauge_circuit("charge", cfg.circuit)
    assert values["omega_prime"] == charge.omega
    assert values["C_prime"] == charge.C
    assert values["EJ"] == pytest.approx(165.1, rel=1e-3)


def test_csv_cells_round_trip_float64(tmp_path):
    cfg = small_config()
    result = task_qubit_spectrum(cfg)
    csv_path, json_path = write_outputs(result, str(tmp_path))
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert tuple(header) == SWEEP_COLUMNS
        rows = list(reader)
    assert len(rows) == len(result.rows)
    for text_row, row in zip(rows, result.rows):
        assert float(text_row[6]) == row[6]
    meta = json.loads(open(json_path).read())
    assert meta["circuit"]["Lc_pH"] == 20.0
    assert meta["numerics"]["n_fock"] == cfg.numerics.n_fock


def test_pool_results_match_serial_path():
    # pool children run OpenBLAS with its default thread count, so the
    # sweep stays at two bias points
    cfg = reference_config(lc=350.0, phix_start=0.499, phix_stop=0.501,
                           phix_points=2)
    pooled_cfg = replace(cfg, workers=2)
    for point, gauges in ((tasks._qubit_level_rows, ("flux",)),
                          (tasks._level_rows, GAUGES),
                          (tasks._observable_rows, GAUGES),
                          (tasks._perturbation_rows, GAUGES)):
        serial = _sweep(cfg, point, gauges)
        pooled = _sweep(pooled_cfg, point, gauges)
        assert len(serial) > 0
        assert ([[tasks._format_cell(c) for c in row] for row in serial]
                == [[tasks._format_cell(c) for c in row] for row in pooled])


def modules_after(code):
    """Names of the modules a fresh interpreter holds after running code."""
    src = os.path.dirname(os.path.dirname(tasks.__file__))
    script = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_import_leaves_the_process_pool_unloaded():
    # a serial run never starts a pool, so it need not load one; and the
    # package loads scipy only inside the solves that use it, so that its
    # import is not paid on importing fluxrabi, its tasks or its CLI
    loaded = modules_after("import fluxrabi, fluxrabi.tasks, fluxrabi.cli")
    assert {"fluxrabi", "fluxrabi.tasks", "fluxrabi.cli"} <= loaded
    assert "concurrent.futures.process" not in loaded
    assert "multiprocessing" not in loaded
    assert not [name for name in loaded if name.startswith("scipy")]


def test_no_task_loads_scipy_optimize(tmp_path):
    # every fit is numpy alone, the Rabi fit included
    loaded = modules_after(
        "from fluxrabi.config import TASK_NAMES, NumericsConfig, "
        "reference_config\n"
        "from fluxrabi.tasks import run\n"
        "run(reference_config(tasks=TASK_NAMES, phix_start=0.498, "
        "phix_stop=0.502, phix_points=3, numerics=NumericsConfig("
        f"n_qubit=6, n_fock=20, verify=False), output_dir={str(tmp_path)!r}))")
    assert "scipy.optimize" not in loaded
    assert "fluxrabi.tasks" in loaded
    for task in TASK_NAMES:
        assert (tmp_path / f"{task}.csv").exists()


def test_perturbation_point_solves_the_qubit_once(monkeypatch):
    # the perturbation sums read a slice of the coupling the eigenbasis
    # build assembled from, so one bias point costs one qubit solve
    import fluxrabi.qubit as qubit

    biases = []

    def counted(ecj, ej, elfq, phix, basis):
        biases.append(phix)
        return diagonalize_flux_qubit(ecj, ej, elfq, phix, basis)

    monkeypatch.setattr(qubit, "diagonalize_flux_qubit", counted)
    raw = reference_config(lc=350.0).circuit
    for gauge in GAUGES:
        for phix in (0.499, 0.5):
            biases.clear()
            tasks._perturbation_rows(gauge, replace(raw, phix=phix),
                                     NumericsConfig())
            assert biases == [phix]


def test_run_solves_each_shared_point_once(monkeypatch, tmp_path):
    # within one run, observables and perturbation read one coupled call
    # per (Lc, gauge, bias), and every qubit-node solve, in the coupled
    # builds, the two-level reductions and the qubit tasks, runs once per
    # (node, bias): the charge node, the same at every Lc, once for both.
    # The memo that shares them is gone once run returns or raises
    import fluxrabi.qubit as qubit

    coupled_solves, qubit_solves = [], []

    def coupled_counted(gauge, raw, *args):
        coupled_solves.append((raw.Lc, gauge, raw.phix))
        return build_coupled_eigenbasis(gauge, raw, *args)

    def qubit_counted(ecj, ej, elfq, phix, basis):
        qubit_solves.append((ecj, ej, elfq, phix))
        return diagonalize_flux_qubit(ecj, ej, elfq, phix, basis)

    monkeypatch.setattr(tasks, "build_coupled_eigenbasis", coupled_counted)
    monkeypatch.setattr(qubit, "diagonalize_flux_qubit", qubit_counted)
    cfg = small_config(
        tasks=("observables", "perturbation", "qubit-spectrum", "rabi-map",
               "matrix-elements", "wavefunctions"),
        lc_list=(20.0, 350.0), output_dir=str(tmp_path),
        numerics=NumericsConfig(gauge="both", n_qubit=4, n_fock=10))
    assert run(cfg) == 0
    assert planewave._solves is None
    grid = [float(phix) for phix in cfg.phix_grid]
    assert sorted(coupled_solves) == sorted(
        (lc, gauge, phix) for lc in cfg.lc_list for gauge in GAUGES
        for phix in grid)
    nodes = {gauge: {gauge_circuit(gauge, raw).qubit_node
                     for _, raw in cfg.circuits()} for gauge in GAUGES}
    assert (len(nodes["flux"]), len(nodes["charge"])) == (2, 1)
    fit_grid = {float(phix) for phix in PHIX_FIT_GRID} | {0.5}
    flux_biases = {*grid, cfg.circuit.phix} | fit_grid
    charge_biases = {*grid} | fit_grid
    assert sorted(qubit_solves) == sorted(
        [(*node, phix) for node in nodes["flux"] for phix in flux_biases]
        + [(*node, phix) for node in nodes["charge"]
           for phix in charge_biases])

    def failing(run_cfg):
        assert planewave._solves  # the solves of the tasks before it
        raise RuntimeError("task failed")

    monkeypatch.setitem(tasks.TASKS, "wavefunctions", failing)
    with pytest.raises(RuntimeError, match="task failed"):
        run(cfg)
    assert planewave._solves is None


def count_coupled_calls(monkeypatch):
    """The (Lc, gauge, phix, *args) of every build_coupled_eigenbasis call,
    made from tasks or coupled, args as passed after raw."""
    import fluxrabi.coupled as coupled

    calls = []

    def counted(gauge, raw, *args):
        calls.append((raw.Lc, gauge, raw.phix, *args))
        return build_coupled_eigenbasis(gauge, raw, *args)

    for module in (coupled, tasks):
        monkeypatch.setattr(module, "build_coupled_eigenbasis", counted)
    return calls


def test_run_makes_each_coupled_call_once(monkeypatch, tmp_path):
    # circuit-spectrum's sweep and probe, rabi-fit's fit data and probe,
    # gauge-check's ladder rungs and cross-check, and observables and
    # perturbation read one call per argument tuple, all for eight
    # eigenpairs: each sweep point is one solve for every task, and at the
    # (4, 10) rung the mid-bias point, both probes, the flux rung and the
    # cross-check are that solve too
    calls = count_coupled_calls(monkeypatch)
    assert (4, 10) in tasks.TRUNCATION_LADDER
    cfg = small_config(
        tasks=("circuit-spectrum", "rabi-fit", "gauge-check", "observables",
               "perturbation"),
        lc_list=(20.0, 350.0), output_dir=str(tmp_path),
        numerics=NumericsConfig(gauge="flux", n_qubit=4, n_fock=10))
    grid = [float(phix) for phix in cfg.phix_grid]
    assert grid[1] == cfg.circuit.phix == 0.5
    run(cfg)
    assert len(calls) == len(set(calls))
    assert set(calls) == {
        *((lc, "flux", phix, 4, 10, 8) for lc in cfg.lc_list
          for phix in grid),
        *((lc, "flux", 0.5, 8, 20, 8) for lc in cfg.lc_list),
        *((lc, gauge, 0.5, nq, nf, 8) for lc in cfg.lc_list
          for gauge in GAUGES for nq, nf in tasks.TRUNCATION_LADDER)}


def load_workloads():
    """The WORKLOADS of perfbench/workloads.py, run by path; it imports only
    the standard library."""
    import runpy

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "workloads.py")
    return runpy.run_path(path)["WORKLOADS"]


@pytest.mark.parametrize("workload, distinct", [("levels", 17), ("fit", 12)])
def test_workload_makes_each_coupled_call_once(monkeypatch, tmp_path,
                                               workload, distinct):
    # levels: 7 sweep points, the doubled probe and the 10 ladder rungs,
    # whose flux (8, 60) rung is the probe's, the cross-check's and the
    # mid-bias sweep point's solve; fit: 11 fit-data points and the doubled
    # probe
    from fluxrabi.config import parse_config

    calls = count_coupled_calls(monkeypatch)
    doc = load_workloads()[workload].config
    run(parse_config(doc, output_override=str(tmp_path)))
    assert len(calls) == len(set(calls)) == distinct


def test_nothing_outlives_a_run(monkeypatch, tmp_path):
    # each run makes its own two-level reductions: one per qubit node, so
    # the charge node, the same at both Lc, is reduced once
    from fluxrabi.qubit import characterize_qubit

    reductions = []

    def counted(ecj, ej, elfq):
        reductions.append((ecj, ej, elfq))
        return characterize_qubit(ecj, ej, elfq)

    monkeypatch.setattr(tasks, "characterize_qubit", counted)
    cfg = small_config(tasks=("rabi-map",), lc_list=(20.0, 350.0),
                       output_dir=str(tmp_path))
    nodes = {gauge_circuit(gauge, raw).qubit_node
             for _, raw in cfg.circuits() for gauge in GAUGES}
    assert len(nodes) == 3
    for _ in range(2):
        reductions.clear()
        assert run(cfg) == 0
        assert sorted(reductions) == sorted(nodes)


def test_coupled_build_from_a_shared_qubit_solve_matches_a_fresh_one(
        monkeypatch, tmp_path):
    # inside run the coupled builds read qubit solves another task made (the
    # flux node from qubit-spectrum, the charge node at 350 pH from the
    # build at 20 pH); each equals a build outside run bit for bit
    memo = {}
    wavefunctions = tasks.TASKS["wavefunctions"]

    def keeping(run_cfg):
        memo.update(planewave._solves)
        return wavefunctions(run_cfg)

    monkeypatch.setitem(tasks.TASKS, "wavefunctions", keeping)
    cfg = small_config(
        tasks=("qubit-spectrum", "observables", "wavefunctions"),
        lc_list=(20.0, 350.0), output_dir=str(tmp_path),
        numerics=NumericsConfig(gauge="both", n_qubit=4, n_fock=10))
    assert run(cfg) == 0
    builds = {key[1:]: spec for key, spec in memo.items()
              if key[0] is build_coupled_eigenbasis}
    assert sorted((raw.Lc, gauge) for gauge, raw, *_ in builds) == sorted(
        (lc, gauge) for lc in cfg.lc_list for gauge in GAUGES
        for _ in cfg.phix_grid)
    for args, shared in builds.items():
        fresh = build_coupled_eigenbasis(*args)
        for name in ("energies", "vectors"):
            assert getattr(shared, name).tobytes() == getattr(fresh,
                                                              name).tobytes()
        for field in dataclasses.fields(fresh.coupling):
            assert (np.asarray(getattr(shared.coupling, field.name)).tobytes()
                    == np.asarray(getattr(fresh.coupling,
                                          field.name)).tobytes())


@pytest.mark.parametrize("lc", [20.0, 350.0])
def test_perturbation_exact_shift_matches_the_levels_call(lc):
    # net_shift_exact reads the energies of the point's one coupled solve,
    # the levels circuit-spectrum writes, bit for bit
    num = NumericsConfig()
    for gauge in GAUGES:
        for phix in (0.494, 0.5, 0.503):
            raw = replace(reference_config(lc=lc).circuit, phix=phix)
            levels = build_coupled_eigenbasis(gauge, raw, num.n_qubit,
                                              num.n_fock).energies
            omega = gauge_circuit(gauge, raw).omega
            exact = {r[2]: r[3] for r in tasks._perturbation_rows(gauge, raw, num)
                     if r[1] == "net_shift_exact"}
            for level in (0, 1):
                assert exact[level] == float(
                    levels[2 + level] - levels[level] - omega)


@pytest.mark.parametrize("num", [
    NumericsConfig(n_states=2),
    # the smallest truncation a coupled solve takes
    NumericsConfig(n_qubit=1, n_fock=9, n_states=2, fit_levels=1)])
@pytest.mark.parametrize("lc", [20.0, 350.0])
def test_observable_rows_match_a_direct_solve_of_their_states(lc, num):
    # observables read the point's one coupled solve, of eight eigenpairs;
    # at n_states 2 its rows are the first two states of a direct solve
    # asking for 2, bit for bit
    raw = replace(reference_config(lc=lc).circuit, phix=0.503)
    for gauge in GAUGES:
        spec = build_coupled_eigenbasis(gauge, raw, num.n_qubit, num.n_fock, 2)
        expected = [getattr(obs, name) for obs in observables(spec, raw)[:2]
                    for name, _ in tasks.OBSERVABLE_UNITS]
        rows = tasks._observable_rows(gauge, raw, num)
        assert (np.array([r[3] for r in rows]).tobytes()
                == np.array(expected).tobytes())


def test_sweep_past_the_resolved_qubit_levels_warns_once_per_run(tmp_path):
    # at n_qubit 20 every coupled solve tabulates qubit levels 18 and 19,
    # which the qubit basis does not resolve, in both gauges at both Lc;
    # the run warns once, not once per point, whatever the warning filter
    cfg = small_config(
        tasks=("circuit-spectrum",), phix_points=5, lc_list=(20.0, 350.0),
        output_dir=str(tmp_path),
        numerics=NumericsConfig(gauge="both", n_qubit=20, n_fock=10,
                                verify=False))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(cfg) == 0
    assert [(w.category, str(w.message)) for w in caught] == [(
        BasisRangeWarning, "qubit level 18 of the 20 read has over 1e-06 of "
        "its weight on the outermost waves")]


def test_shared_solves_are_read_only(monkeypatch):
    # a task writing into a shared solve would change another task's rows
    raw = reference_config().circuit
    num = NumericsConfig(n_qubit=4, n_fock=10)
    fresh = tasks._point("flux", raw, num)  # outside run: not shared
    assert tasks._point("flux", raw, num) is not fresh
    assert fresh.energies.flags.writeable
    node = (*gauge_circuit("flux", raw).qubit_node, raw.phix)
    monkeypatch.setattr(planewave, "_solves", {})
    spec = tasks._point("flux", raw, num)
    qubit = node_spectrum(*node, 6)
    assert tasks._point("flux", raw, num) is spec
    # another level count reads the same shared solve
    assert np.shares_memory(node_spectrum(*node, 2).energies, qubit.energies)
    coupling = spec.coupling
    for array in (spec.energies, spec.vectors, coupling.qubit_energies,
                  coupling.qubit_elements, coupling.qubit_phase,
                  qubit.energies, qubit.coefficients):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("lc", [20.0, 350.0])
def test_perturbative_rows_independent_of_eigenbasis_truncation(lc):
    # the sums keep their 12 x 6 truncation at any eigenbasis truncation,
    # including one smaller than that
    raw = reference_config(lc=lc).circuit
    for gauge in GAUGES:
        for phix in (0.494, 0.5, 0.503):
            tables = []
            for nq, nf in ((2, 5), (6, 40)):
                rows = tasks._perturbation_rows(
                    gauge, replace(raw, phix=phix),
                    NumericsConfig(n_qubit=nq, n_fock=nf))
                tables.append([[tasks._format_cell(c) for c in row]
                               for row in rows if row[0] == "perturbation"])
            assert len(tables[0]) == 2 * 7 + 1
            assert tables[0] == tables[1]


@pytest.mark.parametrize("gauge", GAUGES)
def test_level_rows_are_banded_levels(gauge):
    # _level_rows is the circuit-spectrum data, from the point solve the
    # rabi-fit and regression fit data read: bit for bit a direct call
    raw = replace(reference_config(lc=350.0).circuit, phix=0.497)
    num = NumericsConfig(n_qubit=8, n_fock=60)
    rows = tasks._level_rows(gauge, raw, num)
    levels = [r[3] for r in rows if r[1].startswith("energy_level_")]
    expected = build_coupled_eigenbasis(gauge, raw, 8, 60).energies
    assert levels == [float(e) for e in expected]


def test_rabi_fit_flags_unconverged_fit_data(monkeypatch, tmp_path):
    # at Lc = 350 pH the (6, 40) flux-gauge levels shift by megahertz when
    # the truncation doubles; rabi-fit must flag its fit data even when
    # every fit converges
    def converged_fit(grid, levels, max_level, initial):
        pairs = fit_transition_pairs(max_level)
        table = np.zeros((len(grid), len(pairs)))
        return RabiFitResult(params=initial, residual_mhz2=0.0,
                             objective_mhz2=0.0, n_eval=0, converged=True,
                             restart_spread=0.0, n_fock=10,
                             fock_shift_GHz=0.0, pairs=pairs, data=table,
                             fitted=table)

    monkeypatch.setattr(tasks, "fit_rabi", converged_fit)
    numerics = NumericsConfig(gauge="flux", n_qubit=6, n_fock=40)
    cfg = reference_config(tasks=("rabi-fit",), lc=350.0, phix_start=0.499,
                           phix_stop=0.501, phix_points=3, numerics=numerics,
                           output_dir=str(tmp_path))
    assert run(cfg) == 3
    meta = json.loads(open(tmp_path / "rabi-fit.json").read())
    assert meta["converged"] is False
    assert all(fit["converged"] for fit in meta["fits"].values())
    probe = meta["fit_data_convergence"]["Lc=350.0/flux"]
    assert probe["converged"] is False
    assert probe["truncation_shift_GHz"] > 1e-3


def test_rabi_fit_converges_from_decoupled_start(monkeypatch, tmp_path):
    # at Lc = 0 the mapped start has g = 0 exactly; both fits must leave it
    # and reach the minimum that Nelder-Mead found from the same start
    results = {}
    fit = tasks.fit_rabi

    def recorded(grid, levels, max_level, initial):
        results[initial.variant] = fit(grid, levels, max_level, initial)
        return results[initial.variant]

    monkeypatch.setattr(tasks, "fit_rabi", recorded)
    numerics = NumericsConfig(gauge="both", n_qubit=6, n_fock=40)
    cfg = reference_config(tasks=("rabi-fit",), lc=0.0, phix_start=0.494,
                           phix_stop=0.506, phix_points=11, numerics=numerics,
                           output_dir=str(tmp_path))
    assert run(cfg) == 0
    # Nelder-Mead's minima: g = 0.0385 (flux) and 0.0082 GHz (charge)
    bound = {"flux": 0.200378871656, "charge": 0.199825245816}
    for variant, result in results.items():
        assert result.converged
        assert result.params.g > 1e-3
        assert result.objective_mhz2 < bound[variant] * (1 + 1e-9)


def test_rabi_fit_solves_the_model_only_inside_the_fit(monkeypatch):
    # the fitted transitions rabi-fit writes are the ones each fit returns,
    # so no model Hamiltonian is built outside fit_rabi
    built = {"inside": 0, "outside": 0}
    depth = 0
    hamiltonian, fit = rabi.rabi_hamiltonian, tasks.fit_rabi

    def counted(*args):
        built["inside" if depth else "outside"] += 1
        return hamiltonian(*args)

    def fit_counted(*args):
        nonlocal depth
        depth += 1
        try:
            return fit(*args)
        finally:
            depth -= 1

    monkeypatch.setattr(rabi, "rabi_hamiltonian", counted)
    monkeypatch.setattr(fitting, "rabi_hamiltonian", counted)
    monkeypatch.setattr(tasks, "fit_rabi", fit_counted)
    numerics = NumericsConfig(gauge="flux", n_qubit=6, n_fock=40,
                              verify=False)
    tasks.task_rabi_fit(small_config(tasks=("rabi-fit",), numerics=numerics))
    assert built["inside"] > 0
    assert built["outside"] == 0


def test_run_raises_exit_code_on_convergence_flag(tmp_path):
    # the charge-gauge eigenbasis at the default truncation is known to be
    # starved at large coupling; verify=True must trip the metadata flag
    numerics = NumericsConfig(gauge="charge", verify=True)
    cfg = reference_config(tasks=("circuit-spectrum",), lc=350.0,
                           phix_start=0.5, phix_stop=0.5, phix_points=1,
                           numerics=numerics, output_dir=str(tmp_path))
    assert run(cfg) == 3
    meta = json.loads(open(tmp_path / "circuit-spectrum.json").read())
    assert meta["converged"] is False
    detail = meta["convergence_detail"]["Lc=350.0/charge"]
    assert detail["truncation_shift_GHz"] > 0.1
    assert os.path.exists(tmp_path / "circuit-spectrum.csv")


def test_unchecked_probe_writes_null_shift(monkeypatch, tmp_path):
    # with verify off no doubled solve runs, so no shift was measured: the
    # probe writes null, not a 0.0 that reads as a perfect check
    def refuse(*args):
        raise AssertionError("truncation_check ran with verify off")

    monkeypatch.setattr(tasks, "truncation_check", refuse)
    numerics = NumericsConfig(gauge="flux", n_qubit=4, n_fock=10, verify=False)
    cfg = reference_config(tasks=("circuit-spectrum",), phix_start=0.5,
                           phix_stop=0.5, phix_points=1, numerics=numerics,
                           output_dir=str(tmp_path))
    assert run(cfg) == 0
    text = open(tmp_path / "circuit-spectrum.json").read()
    detail = json.loads(text)["convergence_detail"]["Lc=20.0/flux"]
    assert detail == {"converged": True, "truncation_shift_GHz": None}
    assert '"truncation_shift_GHz": null' in text


def test_regression_statuses_from_stubbed_values(monkeypatch, tmp_path):
    exact = {name: expected for name, expected, _ in REGRESSION_PINS}
    exact.update({name: bound for name, bound in REGRESSION_BOUNDS})
    monkeypatch.setattr(tasks, "compute_regression_values",
                        lambda cfg: (dict(exact), {}))
    cfg = reference_config(output_dir=str(tmp_path / "pass"))
    result = task_regression(cfg)
    assert result.metadata["n_fail"] == 0
    assert all(row[5] == "pass" for row in result.rows)
    assert len(result.rows) == len(REGRESSION_PINS) + len(REGRESSION_BOUNDS)

    off = dict(exact)
    off["map20_g_GHz"] = exact["map20_g_GHz"] * 1.05  # outside the 1% pin
    monkeypatch.setattr(tasks, "compute_regression_values",
                        lambda cfg: (dict(off), {}))
    result = task_regression(cfg)
    assert result.metadata["n_fail"] == 1
    statuses = {row[0]: row[5] for row in result.rows}
    assert statuses["map20_g_GHz"] == "fail"
    assert statuses["map20_omega_GHz"] == "pass"

    # charge20_g_GHz is judged at its pin's quoted precision, +-0.0005 GHz;
    # other coarse pins keep their stated bands.
    stub = dict(exact)
    monkeypatch.setattr(tasks, "compute_regression_values",
                        lambda cfg: (dict(stub), {}))
    for value, expected_status in ((0.04344, "pass"), (0.0436, "fail")):
        stub["charge20_g_GHz"] = value
        rows = {row[0]: row for row in task_regression(cfg).rows}
        assert rows["charge20_g_GHz"][5] == expected_status
        assert rows["charge20_g_GHz"][3] == pytest.approx(0.0005 / 0.043 * 100)
    stub["charge20_g_GHz"] = exact["charge20_g_GHz"]
    stub["ECJ_GHz"] = exact["ECJ_GHz"] * 1.01
    result = task_regression(cfg)
    statuses = {row[0]: row[5] for row in result.rows}
    assert statuses["ECJ_GHz"] == "fail"
    assert result.metadata["n_fail"] == 1


def test_regression_residual_bound_is_one_sided(monkeypatch):
    values = {name: expected for name, expected, _ in REGRESSION_PINS}
    values["fit3_350_residual_MHz2"] = 24.9  # under the ceiling: fine
    monkeypatch.setattr(tasks, "compute_regression_values",
                        lambda cfg: (dict(values), {}))
    result = task_regression(reference_config())
    statuses = {row[0]: row[5] for row in result.rows}
    assert statuses["fit3_350_residual_MHz2"] == "pass"
    values["fit3_350_residual_MHz2"] = 25.1
    result = task_regression(reference_config())
    statuses = {row[0]: row[5] for row in result.rows}
    assert statuses["fit3_350_residual_MHz2"] == "fail"
    assert result.metadata["n_fail"] == 1


def test_metadata_echoes_configuration():
    cfg = small_config(lc_list=(0.0, 20.0))
    meta = tasks._base_metadata(cfg, "anything")
    assert meta["task"] == "anything"
    assert meta["circuit"]["CJ_fF"] == 4.84
    assert meta["sweep"]["Lc_list_pH"] == [0.0, 20.0]
    assert meta["sweep"]["phix_points"] == 3
    assert meta["numerics"]["gauge"] == "both"
    assert meta["converged"] is True


def test_sort_key_orders_scalars_after_sweep_rows():
    sweep_row = (20.0, 0.5, "flux", "planewave", "energy_level_0", "", 1.0,
                 "GHz")
    scalar_row = (20.0, math.nan, "flux", "planewave", "Delta_q", "", 1.2,
                  "GHz")
    other_lc = (0.0, math.nan, "flux", "planewave", "Delta_q", "", 1.2, "GHz")
    rows = [scalar_row, sweep_row, other_lc]
    rows.sort(key=_sort_key)
    assert rows == [other_lc, sweep_row, scalar_row]


def test_rows_of_one_quantity_keep_their_producer_order():
    # the coordinate column is not sorted on: gauge-check's rungs follow
    # the ladder (not 12x80 first), wave numbers ascend (not -0.39 first)
    # and observables' states count up past 9
    cfg = small_config(phix_points=1,
                       numerics=NumericsConfig(n_states=12, gauge="flux"))
    waves = [float(k) for k in PlaneWaveBasis.for_qubit().wave_numbers]
    assert waves == sorted(waves)
    checked = {"gauge-check": ("lowest8_gauge_gap",
                               [f"{nq}x{nf}" for nq, nf in
                                tasks.TRUNCATION_LADDER]),
               "wavefunctions": ("state_0_prob", waves),
               "observables": ("photon_number", list(range(12)))}
    for task, (quantity, expected) in checked.items():
        rows = tasks.TASKS[task](cfg).rows
        assert [r[5] for r in rows if r[4] == quantity] == expected, task


def test_every_eigenbasis_band_is_written_inside_the_traced_call(
        monkeypatch):
    # perfbench/spans.py times the coupled solves by wrapping
    # build_coupled_eigenbasis wherever it is named; every band a task
    # solves, the doubled truncation check's included, must be written
    # inside one such call
    import fluxrabi.coupled as coupled

    counts = {"calls": 0, "bands": 0}
    build, band = coupled.build_coupled_eigenbasis, coupled._band

    def traced(*args, **kwargs):
        counts["calls"] += 1
        return build(*args, **kwargs)

    def counted(*args):
        counts["bands"] += 1
        return band(*args)

    for module in (coupled, tasks):
        monkeypatch.setattr(module, "build_coupled_eigenbasis", traced)
    monkeypatch.setattr(coupled, "_band", counted)
    cfg = small_config(numerics=NumericsConfig(verify=True))
    for task in ("circuit-spectrum", "gauge-check", "perturbation",
                 "observables"):
        tasks.TASKS[task](cfg)
    assert counts["bands"] == counts["calls"] > 0


def test_cell_formatting_preserves_types():
    for value in (1.0 / 3.0, math.pi * 1e-7, 6.033, np.float64(2.0) / 7.0):
        assert float(tasks._format_cell(value)) == value
    assert tasks._format_cell(7) == "7"
    assert tasks._format_cell(np.int64(7)) == "7"
    assert tasks._format_cell("flux") == "flux"


def test_regression_records_fit_convergence(monkeypatch, tmp_path):
    # a 350 pH fit that does not settle clears regression's converged flag
    # (exit 3), even when its fit data are converged; each fit's health
    # record sits under fits
    fit = tasks.fit_rabi

    def unsettled(grid, levels, max_level, initial):
        result = fit(grid, levels, max_level, initial)
        return dataclasses.replace(result, converged=max_level != 7)

    monkeypatch.setattr(tasks, "fit_rabi", unsettled)
    numerics = NumericsConfig(gauge="flux", n_qubit=6, n_fock=40,
                              verify=False)
    cfg = reference_config(tasks=("regression",), phix_start=0.499,
                           phix_stop=0.501, phix_points=3, numerics=numerics,
                           output_dir=str(tmp_path))
    assert run(cfg) == 3
    meta = json.loads(open(tmp_path / "regression.json").read())
    assert meta["converged"] is False
    assert meta["fit_data_convergence"]["Lc=350.0/flux"]["converged"]
    assert {name: fit["converged"] for name, fit in meta["fits"].items()} \
        == {"fit3_350": True, "fit7_350": False}
    for detail in meta["fits"].values():
        assert {"n_eval", "n_fock", "fock_shift_GHz",
                "restart_spread"} <= detail.keys()
        assert detail["n_fock"] == 30
