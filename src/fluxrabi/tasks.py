"""Sweep orchestration: each task maps a RunConfig to one CSV + one JSON.

Sweep tasks share one engine, _sweep: it walks circuits x gauges x bias
points, hands each point to a pure top-level point function (through one
process pool when workers > 1) and returns long-format rows (Lc_pH,
phix_Phi0, gauge, provenance, quantity, coordinate, value, unit); _result
sorts a task's rows into (Lc, phix, gauge, quantity) order, each
quantity's rows in the order their producer writes them.  A point function
depends only on its arguments, so the rows are bit-identical for any
worker count.  Solves run once per run, through a memo (planewave._shared)
that lives only while run runs, keyed on the solver and its positional
arguments, and hands out read-only arrays: each coupled solve, one per
(gauge, bias, truncation) whatever task reads it (_point), each two-level
reduction, keyed on the qubit node, and each qubit-node solve
(qubit.node_spectrum), keyed on (node, bias) whatever the level count.  So
the charge-gauge node, the same at every Lc, is solved and reduced once.
A pool child solves for itself, and a point function called outside run
solves fresh.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .circuit import GAUGES, RawCircuit, gauge_circuit
from .config import RunConfig
from .constants import N_COUPLED_LEVELS, PACKAGE_VERSION
from .coupled import (
    build_coupled_eigenbasis,
    build_coupled_planewave,
    observables,
    truncation_check,
)
from .fitting import RabiFitResult, fit_rabi
from .perturbation import second_order_table
from . import planewave
from .planewave import _shared
from .qubit import (QUBIT_LEVEL_TAGS, TwoLevelFit, characterize_qubit,
                    node_spectrum, number_matrix, phase_matrix)
from .rabi import RabiParams, map_circuit_to_rabi

SWEEP_COLUMNS = ("Lc_pH", "phix_Phi0", "gauge", "provenance", "quantity",
                 "coordinate", "value", "unit")

# Eigenbasis truncation ladder walked by the gauge-check task; the third
# rung is the canonical working truncation.
TRUNCATION_LADDER = ((4, 10), (6, 20), (6, 40), (8, 60), (12, 80))

OBSERVABLE_UNITS = (("photon_number", "1"), ("flux_1", "rad"),
                    ("flux_2", "rad"), ("current_1", "nA"),
                    ("current_2", "nA"))


@dataclass(frozen=True)
class TaskResult:
    task: str
    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict


def _reduction(raw: RawCircuit, gauge: str) -> tuple[TwoLevelFit, RabiParams]:
    """One gauge's two-level reduction, shared within a run, and its mapping.

    characterize_qubit is looked up as a module global at call time, so a
    wrapper installed on that name sees every real reduction.
    """
    fit = _shared(characterize_qubit, *gauge_circuit(gauge, raw).qubit_node)
    return fit, map_circuit_to_rabi(gauge, raw, fit)


def _sort_key(row: tuple):
    lc, phix = row[0], row[1]
    return (lc, math.isnan(phix), phix if not math.isnan(phix) else 0.0,
            row[2], row[4])


def _sweep(cfg: RunConfig, point, gauges=("flux",), grid=None) -> list[tuple]:
    """Rows of point over circuits x gauges x bias grid, in the order of
    the points; _result sorts them.

    point(gauge, raw, numerics), with raw biased at the point, returns row
    tails (provenance, quantity, coordinate, value, unit).  grid defaults
    to the configured bias grid.
    """
    grid = cfg.phix_grid if grid is None else grid
    points = [(lc, gauge, replace(raw, phix=phix)) for lc, raw in cfg.circuits()
              for gauge in gauges for phix in grid]
    args = ([p[1] for p in points], [p[2] for p in points],
            [cfg.numerics] * len(points))
    if cfg.workers <= 1 or len(points) <= 1:
        tails = list(map(point, *args))
    else:
        # imported on first use: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            tails = list(pool.map(point, *args, chunksize=1))
    rows = [(lc, raw.phix, gauge) + tail
            for (lc, gauge, raw), point_tails in zip(points, tails)
            for tail in point_tails]
    return rows


def _scalar_rows(lc: float, gauge: str, provenance: str, items) -> list[tuple]:
    """Bias-independent rows (phix NaN) of (quantity, value, unit) items."""
    return [(lc, math.nan, gauge, provenance, name, "", value, unit)
            for name, value, unit in items]


def _result(cfg: RunConfig, task: str, rows: list[tuple], **meta) -> TaskResult:
    """Sorted sweep rows and the base metadata updated with meta."""
    metadata = _base_metadata(cfg, task)
    metadata.update(meta)
    return TaskResult(task, SWEEP_COLUMNS, sorted(rows, key=_sort_key), metadata)


def _base_metadata(cfg: RunConfig, task: str) -> dict:
    return {
        "task": task,
        "schema_version": 1,
        "code_version": PACKAGE_VERSION,
        "circuit": {
            "Lc_pH": cfg.circuit.Lc, "L1_pH": cfg.circuit.L1,
            "L2_pH": cfg.circuit.L2, "C_pF": cfg.circuit.C,
            "CJ_fF": cfg.circuit.CJ, "EJ_GHz": cfg.circuit.EJ,
            "phix_Phi0": cfg.circuit.phix,
        },
        "sweep": {
            "phix_start_Phi0": cfg.phix_start, "phix_stop_Phi0": cfg.phix_stop,
            "phix_points": cfg.phix_points,
            "Lc_list_pH": list(cfg.lc_list) if cfg.lc_list else None,
        },
        "numerics": asdict(cfg.numerics),
        "converged": True,
    }


def _probe(cfg: RunConfig, raw: RawCircuit, gauge: str) -> dict:
    """Truncation check of the configured build at mid-bias; with
    numerics.verify off nothing is solved and the shift is None (null)."""
    num = cfg.numerics
    if not num.verify:
        return {"converged": True, "truncation_shift_GHz": None}
    mid = replace(raw, phix=cfg.phix_grid[len(cfg.phix_grid) // 2])
    shift, converged = truncation_check(gauge, mid, num.n_qubit, num.n_fock)
    return {"converged": converged, "truncation_shift_GHz": shift}


def _fit_levels(cfg: RunConfig, raw: RawCircuit) -> np.ndarray:
    """The levels fit_rabi reads: levels[p] = the flux-gauge levels at
    grid[p]."""
    return np.array([_levels("flux", replace(raw, phix=phix), cfg.numerics)
                     for phix in cfg.phix_grid])


def _pair_rows(lc: float, gauge: str, provenance: str, prefix: str, grid,
               pairs, table: np.ndarray) -> list[tuple]:
    return [(lc, phix, gauge, provenance, f"{prefix}_{i}{j}", "", table[p, c], "GHz")
            for p, phix in enumerate(grid) for c, (i, j) in enumerate(pairs)]


# ------------------------------------------------------------ point functions

def _level_tails(provenance: str, energies: list[float]) -> list[tuple]:
    out = [(provenance, f"energy_level_{i}", "", e, "GHz")
           for i, e in enumerate(energies)]
    return out + [(provenance, f"transition_0{i}", "", energies[i] - energies[0],
                   "GHz") for i in range(1, len(energies))]


def _point(gauge, raw, num):
    """The one coupled solve of a point that every task reads, shared
    within a run.  With n_states at most N_COUPLED_LEVELS its arguments
    are those of truncation_check and the gauge-check rungs, so they share
    it too."""
    return _shared(build_coupled_eigenbasis, gauge, raw, num.n_qubit,
                   num.n_fock, max(N_COUPLED_LEVELS, num.n_states))


def _levels(gauge, raw, num):
    """The lowest N_COUPLED_LEVELS levels of the point's solve."""
    return _point(gauge, raw, num).energies[:N_COUPLED_LEVELS]


def _flux_node(raw, n_levels=len(QUBIT_LEVEL_TAGS)):
    """node_spectrum of the flux-gauge qubit node at the point's bias."""
    return node_spectrum(*gauge_circuit("flux", raw).qubit_node, raw.phix,
                         n_levels)


def _qubit_level_rows(gauge, raw, num):
    return _level_tails("planewave", _flux_node(raw).energies.tolist())


def _level_rows(gauge, raw, num):
    return _level_tails("eigenbasis-product",
                        [float(e) for e in _levels(gauge, raw, num)])


def _observable_rows(gauge, raw, num):
    states = observables(_point(gauge, raw, num), raw)[:num.n_states]
    return [("eigenbasis-product", name, state, getattr(obs, name), unit)
            for state, obs in enumerate(states)
            for name, unit in OBSERVABLE_UNITS]


def _matrix_element_rows(gauge, raw, num):
    spec = _flux_node(raw, 3)
    phase, number = phase_matrix(spec), number_matrix(spec)
    out = []
    for j in range(len(spec.energies)):
        for i in range(2):
            tag = f"{QUBIT_LEVEL_TAGS[j]}{QUBIT_LEVEL_TAGS[i]}"
            out += [("planewave", f"flux_elem_{tag}", "",
                     phase[j, i] / (2.0 * math.pi), "Phi0"),
                    ("planewave", f"charge_elem_im_{tag}", "", number[j, i], "2e")]
    return out


def _perturbation_rows(gauge, raw, num):
    """Dispersive shifts; first_order_max_abs is NaN at guarded points and
    0.0 elsewhere, since X has no diagonal in either gauge.

    The exact shifts and the sums both read the point's solve (_point),
    the sums through its coupling cut to the named qubit levels: one qubit
    solve per point, and within a run one coupled solve per point for
    every task and one qubit solve per (node, bias).
    """
    spec = _point(gauge, raw, num)
    coupling = spec.coupling.truncated(len(QUBIT_LEVEL_TAGS))
    # states (|1,g>, |1,e>) sit at indices 2, 3 while Delta_q < omega and the
    # bias stays inside the oscillator avoided crossing
    ok = True
    out = []
    for level in (0, 1):
        upper = second_order_table(coupling, 1, level)
        lower = second_order_table(coupling, 0, level)
        # a state pushed onto a quasi-degenerate contributor invalidates
        # the series at this bias point
        ok = ok and not upper.excluded and not lower.excluded
        exact = float(spec.energies[2 + level] - spec.energies[level]
                      - coupling.omega)
        out.append(("perturbation", "net_shift_perturbative", level,
                    upper.total - lower.total, "GHz"))
        out.append(("eigenbasis-product", "net_shift_exact", level, exact, "GHz"))
        out += [("perturbation", f"net_contribution_from_{QUBIT_LEVEL_TAGS[j]}",
                 level, value, "GHz")
                for j, value in enumerate(upper.contributions - lower.contributions)]
    return out + [("perturbation", "first_order_max_abs", "",
                   0.0 if ok else math.nan, "GHz")]


def _wavefunction_rows(gauge, raw, num):
    spec = _flux_node(raw)
    waves = spec.basis.wave_numbers.tolist()
    out = []
    for i, coefficients in enumerate(spec.coefficients.tolist()):
        for kk, a in zip(waves, coefficients):
            out += [("planewave", f"state_{i}_amplitude_real", kk, a, "1"),
                    ("planewave", f"state_{i}_prob", kk, a * a, "1")]
    return out


# ------------------------------------------------------------------- tasks

def task_qubit_spectrum(cfg: RunConfig) -> TaskResult:
    """Bare qubit levels over the bias grid plus the two-level reduction."""
    rows = _sweep(cfg, _qubit_level_rows)
    detail = {}
    for lc, raw in cfg.circuits():
        fit, _ = _reduction(raw, "flux")
        rows += _scalar_rows(lc, "flux", "planewave", (
            ("Delta_q", fit.Delta_q, "GHz"), ("Ip", fit.Ip, "nA"),
            ("omega_os", fit.omega_os, "GHz"), ("Phi2max", fit.Phi2max, "Phi0"),
            ("q2max", fit.q2max, "2e"),
            ("two_level_residual", fit.fit_residual, "GHz^2")))
        detail[f"Lc={lc}"] = {"two_level_residual_GHz2": fit.fit_residual}
    return _result(cfg, "qubit-spectrum", rows, two_level_fits=detail)


def task_inductance_compare(cfg: RunConfig) -> TaskResult:
    """Star-network and effective inductances plus derived energy scales."""
    rows = []
    for lc, raw in cfg.circuits():
        flux = gauge_circuit("flux", raw)
        charge = gauge_circuit("charge", raw)
        quantities = [
            ("Lg1", flux.Lg1, "pH", "-"), ("Lg2", flux.Lg2, "pH", "-"),
            ("L12", flux.L12, "pH", "-"),
            ("L_LC", flux.L_LC, "pH", "flux"), ("L_FQ", flux.L_FQ, "pH", "flux"),
            # not charge.L_FQ: at Lc = 0 that is the flux-gauge value
            ("L_FQ_charge", raw.Lc + raw.L2, "pH", "charge"),
            ("EC", flux.EC, "GHz", "-"), ("ECJ", flux.ECJ, "GHz", "-"),
            ("EL", flux.EL, "GHz", "flux"), ("ELFQ", flux.ELFQ, "GHz", "flux"),
            ("EJ", raw.EJ, "GHz", "-"),
            ("omega", flux.omega, "GHz", "flux"),
            ("omega_prime", charge.omega, "GHz", "charge"),
            ("C_prime", charge.C, "pF", "charge"),
            ("Izpf", flux.Izpf, "nA", "flux"), ("Vzpf", flux.Vzpf, "uV", "flux"),
        ]
        for name, value, unit, gauge in quantities:
            rows.append((lc, math.nan, gauge, "closed-form", name, "", value, unit))
    return _result(cfg, "inductance-compare", rows)


def task_circuit_spectrum(cfg: RunConfig) -> TaskResult:
    """Coupled-circuit levels and transitions from the eigenbasis build."""
    gauges = cfg.numerics.gauges
    detail = {f"Lc={lc}/{gauge}": _probe(cfg, raw, gauge)
              for lc, raw in cfg.circuits() for gauge in gauges}
    return _result(cfg, "circuit-spectrum", _sweep(cfg, _level_rows, gauges),
                   converged=all(d["converged"] for d in detail.values()),
                   convergence_detail=detail)


def task_rabi_map(cfg: RunConfig) -> TaskResult:
    """First-principles two-level model parameters in both gauges."""
    rows = []
    detail = {}
    for lc, raw in cfg.circuits():
        for gauge in GAUGES:
            fit, params = _reduction(raw, gauge)
            rows += _scalar_rows(lc, gauge, "mapped", (
                ("omega", params.omega, "GHz"), ("Delta_q", params.Delta_q, "GHz"),
                ("g", params.g, "GHz"), ("Ip", params.Ip, "nA"),
                ("Phi2max", fit.Phi2max, "Phi0"), ("q2max", fit.q2max, "2e")))
            detail.setdefault(f"Lc={lc}", {})[
                f"{gauge}_two_level_residual_GHz2"] = fit.fit_residual
    return _result(cfg, "rabi-map", rows, two_level_fits=detail)


def task_rabi_fit(cfg: RunConfig) -> TaskResult:
    """Least-squares two-level-model fit to the coupled-circuit spectrum.

    The flux-gauge fit data are checked for truncation convergence at
    mid-bias; an unconverged check clears the converged flag.
    """
    rows = []
    grid = cfg.phix_grid
    probes = {f"Lc={lc}/flux": _probe(cfg, raw, "flux")
              for lc, raw in cfg.circuits()}
    detail = {}
    for lc, raw in cfg.circuits():
        levels = _fit_levels(cfg, raw)
        for variant in GAUGES:
            result = fit_rabi(grid, levels, cfg.numerics.fit_levels,
                              _reduction(raw, variant)[1])
            if variant == "flux":
                rows += _pair_rows(lc, "flux", "eigenbasis-product",
                                   "data_transition", grid, result.pairs,
                                   result.data)
            params = result.params
            rows += _scalar_rows(lc, variant, "fit", (
                ("fitted_omega", params.omega, "GHz"),
                ("fitted_Delta_q", params.Delta_q, "GHz"),
                ("fitted_g", params.g, "GHz"), ("fitted_Ip", params.Ip, "nA"),
                ("fit_residual", result.residual_mhz2, "MHz^2")))
            rows += _pair_rows(lc, variant, "fit", "fitted_transition", grid,
                               result.pairs, result.fitted)
            detail[f"Lc={lc}/{variant}"] = _fit_detail(result)
    return _result(cfg, "rabi-fit", rows, fits=detail,
                   fit_data_convergence=probes,
                   converged=all(d["converged"] for d in
                                 (*detail.values(), *probes.values())))


def _fit_detail(result: RabiFitResult) -> dict:
    """The health record of one fit that rabi-fit and regression write."""
    return {
        "residual_MHz2": result.residual_mhz2,
        "converged": result.converged,
        "n_eval": result.n_eval,
        "n_fock": result.n_fock,
        "fock_shift_GHz": result.fock_shift_GHz,
        "restart_spread": result.restart_spread,
    }


def task_matrix_elements(cfg: RunConfig) -> TaskResult:
    """Qubit flux and charge matrix elements against the lowest doublet."""
    return _result(cfg, "matrix-elements", _sweep(cfg, _matrix_element_rows))


def task_observables(cfg: RunConfig) -> TaskResult:
    """Photon numbers, flux expectations, and loop currents per eigenstate."""
    return _result(cfg, "observables",
                   _sweep(cfg, _observable_rows, cfg.numerics.gauges))


def task_perturbation(cfg: RunConfig) -> TaskResult:
    """Second-order dispersive shifts, contributions, and exact comparison."""
    gauges = cfg.numerics.gauges
    rows = _sweep(cfg, _perturbation_rows, gauges)
    nan_first = {r[:3] for r in rows
                 if r[4] == "first_order_max_abs" and math.isnan(r[6])}
    guarded = [{"Lc_pH": lc, "gauge": gauge, "phix": phix}
               for lc, _ in cfg.circuits() for gauge in gauges
               for phix in cfg.phix_grid if (lc, phix, gauge) in nan_first]
    return _result(cfg, "perturbation", rows, degeneracy_guarded_points=guarded,
                   notes=("exact shifts assume the oscillator doublet sits at "
                          "state indices 2 and 3, valid while Delta_q < omega "
                          "inside the avoided crossings"))


def task_wavefunctions(cfg: RunConfig) -> TaskResult:
    """Qubit eigenstate amplitudes on the plane-wave flux grid."""
    return _result(cfg, "wavefunctions",
                   _sweep(cfg, _wavefunction_rows, grid=(cfg.circuit.phix,)))


def task_gauge_check(cfg: RunConfig) -> TaskResult:
    """Flux- vs charge-gauge eigenvalue agreement along a truncation ladder."""
    rows = []
    detail = {}
    for lc, raw in cfg.circuits():
        gaps = []
        for nq, nf in TRUNCATION_LADDER:
            levels = {gauge: _shared(build_coupled_eigenbasis, gauge, raw, nq,
                                     nf, N_COUPLED_LEVELS).energies
                      for gauge in GAUGES}
            gap = float(np.abs(levels["flux"] - levels["charge"]).max())
            trans_gap = float(np.abs(
                (levels["flux"] - levels["flux"][0])
                - (levels["charge"] - levels["charge"][0])).max())
            gaps.append(gap)
            coord = f"{nq}x{nf}"
            rows.append((lc, raw.phix, "-", "eigenbasis-product",
                         "lowest8_gauge_gap", coord, gap, "GHz"))
            rows.append((lc, raw.phix, "-", "eigenbasis-product",
                         "transition_gauge_gap", coord, trans_gap, "GHz"))
        cross = float(np.abs(_levels("flux", raw, cfg.numerics)
                             - build_coupled_planewave("flux", raw)).max())
        rows.append((lc, raw.phix, "flux", "planewave-product",
                     "planewave_vs_eigenbasis_gap",
                     f"{cfg.numerics.n_qubit}x{cfg.numerics.n_fock}",
                     cross, "GHz"))
        detail[f"Lc={lc}"] = {"ladder_gaps_GHz": gaps,
                              "planewave_cross_check_GHz": cross}
    return _result(cfg, "gauge-check", rows, gaps=detail,
                   ladder=[list(r) for r in TRUNCATION_LADDER])


# Pinned benchmark values: (quantity, expected, tolerance %).
REGRESSION_PINS = (
    ("EJ_GHz", 165.1, 0.1),
    ("ECJ_GHz", 4.0, 0.5),
    ("map20_omega_GHz", 6.033, 1.0),
    ("map20_Delta_q_GHz", 1.240, 1.0),
    ("map20_g_GHz", 0.424, 1.0),
    ("map20_Ip_nA", 281.3, 1.0),
    ("map350_omega_GHz", 6.272, 1.0),
    ("map350_Delta_q_GHz", 2.139, 1.0),
    ("map350_g_GHz", 7.338, 1.0),
    ("map350_Ip_nA", 282.5, 1.0),
    ("charge20_omega_GHz", 6.085, 1.0),
    # Two significant figures: judged at the pin's own precision, +-0.0005 GHz.
    ("charge20_g_GHz", 0.043, 0.0005 / 0.043 * 100.0),
    ("charge350_omega_GHz", 15.66, 1.0),
    ("charge350_g_GHz", 0.492, 1.0),
    ("fit3_350_omega_GHz", 6.064, 2.0),
    ("fit3_350_Delta_q_GHz", 2.388, 2.0),
    ("fit3_350_g_GHz", 7.822, 2.0),
    ("fit3_350_Ip_nA", 282.9, 2.0),
    ("fit7_350_omega_GHz", 6.054, 2.0),
    ("fit7_350_Delta_q_GHz", 2.133, 2.0),
    ("fit7_350_g_GHz", 7.562, 2.0),
    ("fit7_350_Ip_nA", 282.2, 2.0),
    ("fit7_350_residual_MHz2", 152.0, 30.0),
)
# Residual bounds checked as upper limits rather than relative windows.
REGRESSION_BOUNDS = (
    ("fit3_350_residual_MHz2", 25.0),
)


def compute_regression_values(cfg: RunConfig) -> tuple[dict, dict]:
    """(values, fits): all pinned benchmark quantities for the configured
    branch sums, and the _fit_detail of each 350 pH fit they read."""
    values, fits = {}, {}
    for lc in (20.0, 350.0):
        raw = cfg.circuit_at(lc)
        tag = f"{int(lc)}"
        _, flux_params = _reduction(raw, "flux")
        _, charge_params = _reduction(raw, "charge")
        values[f"map{tag}_omega_GHz"] = flux_params.omega
        values[f"map{tag}_Delta_q_GHz"] = flux_params.Delta_q
        values[f"map{tag}_g_GHz"] = flux_params.g
        values[f"map{tag}_Ip_nA"] = flux_params.Ip
        values[f"charge{tag}_omega_GHz"] = charge_params.omega
        values[f"charge{tag}_g_GHz"] = charge_params.g
    raw = cfg.circuit_at(20.0)
    values["EJ_GHz"] = raw.EJ
    values["ECJ_GHz"] = gauge_circuit("flux", raw).ECJ
    raw, grid = cfg.circuit_at(350.0), cfg.phix_grid
    levels = _fit_levels(cfg, raw)
    for max_level in (3, 7):
        result = fit_rabi(grid, levels, max_level, _reduction(raw, "flux")[1])
        values[f"fit{max_level}_350_omega_GHz"] = result.params.omega
        values[f"fit{max_level}_350_Delta_q_GHz"] = result.params.Delta_q
        values[f"fit{max_level}_350_g_GHz"] = result.params.g
        values[f"fit{max_level}_350_Ip_nA"] = result.params.Ip
        values[f"fit{max_level}_350_residual_MHz2"] = result.residual_mhz2
        fits[f"fit{max_level}_350"] = _fit_detail(result)
    return values, fits


def task_regression(cfg: RunConfig) -> TaskResult:
    """Computed benchmark quantities against their pinned expectations.

    The 350 pH flux-gauge fit data are checked for truncation convergence
    at mid-bias; an unconverged check or fit clears the converged flag.
    """
    meta = _base_metadata(cfg, "regression")
    probe = _probe(cfg, cfg.circuit_at(350.0), "flux")
    values, fits = compute_regression_values(cfg)
    meta["fit_data_convergence"] = {"Lc=350.0/flux": probe}
    meta["fits"] = fits
    meta["converged"] = all(d["converged"]
                            for d in (probe, *fits.values()))
    rows = []
    n_fail = 0
    for name, expected, tol_pct in REGRESSION_PINS:
        computed = values[name]
        deviation = abs(computed - expected) / abs(expected) * 100.0
        status = "pass" if deviation <= tol_pct else "fail"
        n_fail += status == "fail"
        rows.append((name, computed, expected, tol_pct, deviation, status))
    for name, bound in REGRESSION_BOUNDS:
        computed = values[name]
        status = "pass" if computed <= bound else "fail"
        n_fail += status == "fail"
        rows.append((name, computed, bound, math.nan,
                     computed / bound * 100.0, status))
    meta["n_fail"] = n_fail
    columns = ("quantity", "computed", "expected", "tolerance_pct",
               "deviation_pct", "status")
    return TaskResult("regression", columns, rows, meta)


TASKS = {
    "qubit-spectrum": task_qubit_spectrum,
    "inductance-compare": task_inductance_compare,
    "circuit-spectrum": task_circuit_spectrum,
    "rabi-map": task_rabi_map,
    "rabi-fit": task_rabi_fit,
    "matrix-elements": task_matrix_elements,
    "observables": task_observables,
    "perturbation": task_perturbation,
    "wavefunctions": task_wavefunctions,
    "gauge-check": task_gauge_check,
    "regression": task_regression,
}


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_outputs(result: TaskResult, out_dir: str) -> tuple[str, str]:
    """One CSV and one JSON metadata file per task; deterministic bytes."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{result.task}.csv")
    json_path = os.path.join(out_dir, f"{result.task}.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([_format_cell(cell) for cell in row])
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result.metadata, sort_keys=True, indent=2))
        fh.write("\n")
    return csv_path, json_path


def run(cfg: RunConfig, log=None) -> int:
    """Execute every configured task; 0 on success, 3 if any flag tripped.

    The point solves the tasks share (planewave._shared) are kept until
    run returns or raises.
    """
    planewave._solves = {}
    try:
        exit_code = 0
        for name in cfg.tasks:
            result = TASKS[name](cfg)
            csv_path, json_path = write_outputs(result, cfg.output_dir)
            converged = result.metadata.get("converged", True)
            if not converged:
                exit_code = 3
            if log is not None:
                flag = "" if converged else "  [convergence flag raised]"
                log(f"{name}: wrote {csv_path} and {json_path}{flag}")
        return exit_code
    finally:
        planewave._solves = None
