"""Output checks for every task the workloads run.

Each check compares an output with a reference made apart from fluxrabi
(the paper's pinned values, a finite-difference qubit solve, a Rabi model
built here) or with a property the method must have.  None compares with a
stored copy of earlier output.  check_task() says whether a task failed to
finish and lists the problems with its output; no reason and an empty list
mean the task's output is correct.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from collections import defaultdict

import numpy as np
from scipy.constants import e as E_CHARGE, h as PLANCK
from scipy.linalg import eigh_tridiagonal

PHI0 = PLANCK / (2.0 * E_CHARGE)

# Values quoted by the source paper for the reference circuit, with the
# bands the acceptance suite judges them at: (expected, tolerance %).
# g' at 20 pH has two significant figures and is judged at that precision.
PAPER_PINS = {
    "EJ": (165.1, 0.1),
    "ECJ": (4.0, 0.5),
    (20.0, "flux", "omega"): (6.033, 1.0),
    (20.0, "flux", "Delta_q"): (1.240, 1.0),
    (20.0, "flux", "g"): (0.424, 1.0),
    (20.0, "flux", "Ip"): (281.3, 1.0),
    (350.0, "flux", "omega"): (6.272, 1.0),
    (350.0, "flux", "Delta_q"): (2.139, 1.0),
    (350.0, "flux", "g"): (7.338, 1.0),
    (350.0, "flux", "Ip"): (282.5, 1.0),
    (20.0, "charge", "omega"): (6.085, 1.0),
    (20.0, "charge", "g"): (0.043, 0.0005 / 0.043 * 100.0),
    (350.0, "charge", "omega"): (15.66, 1.0),
    (350.0, "charge", "g"): (0.492, 1.0),
}
# A spectrum "fitted well": ground-transition residual bound of the
# levels-3 fit in the regression pins, met by any weaker coupling too.
FIT_RESIDUAL_BOUND_MHZ2 = 25.0

SYMMETRY_TOL_GHZ = 1e-6        # E(phix) = E(1 - phix)
CROSS_CHECK_TOL_GHZ = 1e-3     # eigenbasis vs plane-wave product
FD_TOL_GHZ = 1e-3              # plane-wave qubit levels vs finite differences
FD_FLUX_TOL_PHI0 = 1e-4        # <phi>/2pi vs finite differences
CURRENT_TOL_NA = 0.01          # oscillator loop current of a stationary state
MODEL_TOL_GHZ = 1e-6           # fitted transitions vs the Rabi model here
FIT_STEP = 1e-3                # relative step of the fit-minimum probe


# ------------------------------------------------------------------ reading

def read_task(out_dir: str, task: str) -> tuple[list[dict], dict]:
    """Rows of <task>.csv (numeric fields as floats) and <task>.json."""
    with open(os.path.join(out_dir, f"{task}.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(os.path.join(out_dir, f"{task}.csv"), encoding="utf-8",
              newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in ("Lc_pH", "phix_Phi0", "value"):
            if key in row:
                row[key] = float(row[key])
    return rows, meta


def _series(rows: list[dict], quantity_prefix: str) -> dict:
    """{(Lc, gauge, quantity, coordinate): {phix: value}} for matching rows."""
    out = defaultdict(dict)
    for row in rows:
        if row["quantity"].startswith(quantity_prefix):
            key = (row["Lc_pH"], row["gauge"], row["quantity"], row["coordinate"])
            out[key][row["phix_Phi0"]] = row["value"]
    return out


def _scalars(rows: list[dict], provenance: str) -> dict:
    return {(row["Lc_pH"], row["gauge"], row["quantity"]): row["value"]
            for row in rows if row["provenance"] == provenance}


def _pin_problem(label: str, value: float, pin: tuple[float, float]) -> list[str]:
    expected, tol_pct = pin
    deviation = abs(value - expected) / abs(expected) * 100.0
    if not deviation <= tol_pct:
        return [f"{label} = {value:.6g}, {deviation:.3g}% from the paper's "
                f"{expected} (band {tol_pct:.4g}%)"]
    return []


def _symmetry_problems(series: dict, tol: float) -> list[str]:
    problems = []
    for key, by_phix in series.items():
        grid = sorted(by_phix)
        for lo, hi in zip(grid, reversed(grid)):
            if abs(lo + hi - 1.0) > 1e-12:
                problems.append(f"{key}: bias grid is not symmetric about 0.5")
                break
            gap = abs(by_phix[lo] - by_phix[hi])
            if not gap <= tol:
                problems.append(f"{key}: E({lo:.6f}) and E({hi:.6f}) differ "
                                f"by {gap:.3g} GHz")
                break
    return problems


# ------------------------------------------------------- circuit reference

def qubit_node_energies(circuit: dict, lc: float) -> tuple[float, float, float]:
    """(ECJ, EJ, EL of the qubit node) in GHz at coupler lc, flux gauge.

    The qubit node's inductive term is the (2, 2) element of the inverse
    loop-inductance matrix; the branch sums Lc + L1 and Lc + L2 stay fixed
    along an Lc sweep.
    """
    sum_osc = circuit["Lc_pH"] + circuit["L1_pH"]
    sum_qubit = circuit["Lc_pH"] + circuit["L2_pH"]
    loops = np.array([[sum_osc, lc], [lc, sum_qubit]]) * 1e-12
    inverse_l = np.linalg.inv(loops)[1, 1]
    flux_unit = PHI0 / (2.0 * math.pi)
    ecj = E_CHARGE**2 / (2.0 * circuit["CJ_fF"] * 1e-15) / PLANCK / 1e9
    ej = flux_unit**2 / (circuit["LJ_pH"] * 1e-12) / PLANCK / 1e9
    el = flux_unit**2 * inverse_l / PLANCK / 1e9
    return ecj, ej, el


@functools.lru_cache(maxsize=None)
def fd_qubit(ecj: float, ej: float, el: float, phix: float, k: int = 6,
             span: float = 8.0, n_grid: int = 8001):
    """Lowest k levels (GHz) and phase-grid states of the qubit node
    4 ECJ n^2 - EJ cos(phi - 2 pi phix) + EL phi^2 / 2.

    Second-order finite differences with Dirichlet walls at +-span; the
    levels are Richardson-extrapolated from this grid and one of twice the
    spacing, which removes the leading h^2 error.  Cached: every round
    of a run asks for the same points.
    """
    def solve(points: int):
        phi = np.linspace(-span, span, points)
        kinetic = 4.0 * ecj / (phi[1] - phi[0]) ** 2
        potential = -ej * np.cos(phi - 2.0 * math.pi * phix) + 0.5 * el * phi**2
        levels, states = eigh_tridiagonal(
            2.0 * kinetic + potential, np.full(points - 1, -kinetic),
            select="i", select_range=(0, k - 1))
        return levels, phi, states

    coarse = solve((n_grid + 1) // 2)[0]
    fine, phi, states = solve(n_grid)
    return (4.0 * fine - coarse) / 3.0, phi, states


# ------------------------------------------------------------ Rabi reference

def rabi_levels(omega: float, delta_q: float, g: float, ip_na: float,
                phix: float, variant: str, n_fock: int = 30) -> np.ndarray:
    """Levels of the two Rabi models of rabi.py's docstring, built here.

    flux:   omega (a'a + 1/2) - (eps sx + Delta_q sz) / 2 + g sx (a + a')
    charge: the coupling is 1j g sy (a - a').
    eps = 2 Ip (phix - 1/2) Phi0 / h.
    """
    eps = 2.0 * ip_na * 1e-9 * (phix - 0.5) * PHI0 / PLANCK / 1e9
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    a = np.diag(np.sqrt(np.arange(1, n_fock)), 1).astype(complex)
    eye_f = np.eye(n_fock)
    h = np.kron(np.eye(2), omega * (a.conj().T @ a + 0.5 * eye_f))
    h -= 0.5 * np.kron(eps * sx + delta_q * sz, eye_f)
    if variant == "flux":
        h += g * np.kron(sx, a + a.conj().T)
    else:
        h += 1j * g * np.kron(sy, a - a.conj().T)
    return np.linalg.eigvalsh(h)


def _model_table(theta, variant: str, grid, pairs) -> np.ndarray:
    """table[p, c] = Rabi-model transition pairs[c] at grid[p], in GHz."""
    levels = [rabi_levels(*theta, phix, variant) for phix in grid]
    return np.array([[lv[j] - lv[i] for i, j in pairs] for lv in levels])


def _fit_objective(theta, variant: str, grid, pairs, data) -> float:
    """Mean squared residual (MHz^2) over every (phix, pair) data point."""
    return float(np.mean((1e3 * (_model_table(theta, variant, grid, pairs)
                                 - data)) ** 2))


# ------------------------------------------------------------------- checks

def check_inductance_compare(rows, workload_config) -> list[str]:
    values = {(row["Lc_pH"], row["quantity"]): row["value"] for row in rows}
    lc = min(lc for lc, _ in values)
    return (_pin_problem("EJ", values[(lc, "EJ")], PAPER_PINS["EJ"])
            + _pin_problem("ECJ", values[(lc, "ECJ")], PAPER_PINS["ECJ"]))


def check_rabi_map(rows, workload_config) -> list[str]:
    problems = []
    mapped = _scalars(rows, "mapped")
    lcs = {lc for lc, _, _ in mapped}
    for key, pin in PAPER_PINS.items():
        if not isinstance(key, tuple) or key[0] not in lcs:
            continue
        lc, gauge, name = key
        if key not in mapped:
            problems.append(f"rabi-map lacks {gauge} {name} at {lc:g} pH")
        else:
            problems += _pin_problem(f"mapped {gauge} {name}({lc:g} pH)",
                                     mapped[key], pin)
    return problems


def check_rabi_fit(rows, workload_config) -> list[str]:
    problems = []
    data_series = _series(rows, "data_transition_")
    problems += _symmetry_problems(data_series, SYMMETRY_TOL_GHZ)
    fitted = _scalars(rows, "fit")
    model_series = _series(rows, "fitted_transition_")
    for (lc, variant, quantity), residual in sorted(fitted.items()):
        if quantity != "fit_residual":
            continue
        theta = tuple(fitted[(lc, variant, f"fitted_{name}")]
                      for name in ("omega", "Delta_q", "g", "Ip"))
        pairs = sorted({(int(q[-2]), int(q[-1]))
                        for (l, _, q, _) in data_series if l == lc})
        grid = sorted(next(iter(data_series.values())))
        data = np.array([[data_series[(lc, "flux", f"data_transition_{i}{j}", "")][x]
                          for i, j in pairs] for x in grid])
        model = np.array([[model_series[(lc, variant, f"fitted_transition_{i}{j}", "")][x]
                           for i, j in pairs] for x in grid])
        gap = float(np.abs(_model_table(theta, variant, grid, pairs)
                           - model).max())
        if not gap <= MODEL_TOL_GHZ:
            problems.append(f"{variant} fitted transitions differ from the "
                            f"Rabi model by {gap:.3g} GHz")
        ground = [c for c, (i, _) in enumerate(pairs) if i == 0]
        recomputed = float(np.mean((1e3 * (model[:, ground] - data[:, ground])) ** 2))
        if not abs(recomputed - residual) <= 1e-6 * max(residual, 1e-12):
            problems.append(f"{variant} fit_residual {residual:.6g} MHz^2 does "
                            f"not match its transitions ({recomputed:.6g})")
        if not residual <= FIT_RESIDUAL_BOUND_MHZ2:
            problems.append(f"{variant} fit residual {residual:.4g} MHz^2 "
                            f"exceeds {FIT_RESIDUAL_BOUND_MHZ2}")
        best = _fit_objective(theta, variant, grid, pairs, data)
        for index in range(4):
            for sign in (-1.0, 1.0):
                probe = list(theta)
                probe[index] *= 1.0 + sign * FIT_STEP
                if _fit_objective(probe, variant, grid, pairs, data) < best:
                    problems.append(f"{variant} fit is not a minimum: moving "
                                    f"parameter {index} by {sign * FIT_STEP:+g} "
                                    "lowers the objective")
    return problems


def check_circuit_spectrum(rows, workload_config) -> list[str]:
    return _symmetry_problems(_series(rows, "energy_level_"), SYMMETRY_TOL_GHZ)


def check_gauge_check(rows, workload_config) -> list[str]:
    problems = []
    gaps = defaultdict(dict)
    for row in rows:
        if row["quantity"] == "planewave_vs_eigenbasis_gap":
            if not row["value"] <= CROSS_CHECK_TOL_GHZ:
                problems.append(f"Lc={row['Lc_pH']}: eigenbasis and plane-wave "
                                f"products differ by {row['value']:.3g} GHz")
        elif row["quantity"] == "lowest8_gauge_gap":
            gaps[row["Lc_pH"]][row["coordinate"]] = row["value"]
    for lc, by_rung in gaps.items():
        ladder = [by_rung[rung] for rung in ("6x40", "8x60", "12x80")]
        if not ladder[0] > ladder[1] > ladder[2]:
            problems.append(f"Lc={lc}: flux-charge gap does not shrink along "
                            f"6x40, 8x60, 12x80: {ladder}")
    if not gaps:
        problems.append("gauge-check reports no ladder")
    return problems


def check_observables(rows, workload_config) -> list[str]:
    problems = []
    for row in rows:
        if row["quantity"] == "current_1" and not abs(row["value"]) < CURRENT_TOL_NA:
            problems.append(f"<I1> = {row['value']:.3g} nA in state "
                            f"{row['coordinate']} at {row['phix_Phi0']}")
        if row["quantity"] == "photon_number" and not row["value"] >= 0.0:
            problems.append(f"negative photon number {row['value']:.3g}")
    return problems[:5]


def check_perturbation(rows, workload_config) -> list[str]:
    bad = [row for row in rows if row["quantity"] == "first_order_max_abs"
           and not row["value"] == 0.0]
    return [f"first-order shift {row['value']!r} at Lc={row['Lc_pH']} "
            f"{row['gauge']} {row['phix_Phi0']}" for row in bad[:5]]


def check_qubit_spectrum(rows, workload_config) -> list[str]:
    problems = []
    circuit = workload_config["circuit"]
    levels = _series(rows, "energy_level_")
    by_point = defaultdict(dict)
    for (lc, _, quantity, _), by_phix in levels.items():
        for phix, value in by_phix.items():
            by_point[(lc, phix)][int(quantity.rsplit("_", 1)[1])] = value
    for (lc, phix), values in sorted(by_point.items()):
        ours = fd_qubit(*qubit_node_energies(circuit, lc), phix)[0]
        gap = max(abs(values[i] - ours[i]) for i in values)
        if not gap <= FD_TOL_GHZ:
            problems.append(f"Lc={lc} phix={phix}: qubit levels differ from the "
                            f"finite-difference solve by {gap:.3g} GHz")
    return problems[:5]


def check_matrix_elements(rows, workload_config) -> list[str]:
    problems = []
    circuit = workload_config["circuit"]
    for row in rows:
        if row["quantity"] in ("charge_elem_im_gg", "charge_elem_im_ee") \
                and not abs(row["value"]) < 1e-9:
            problems.append(f"stationary-state charge {row['quantity']} = "
                            f"{row['value']:.3g}")
    flux = _series(rows, "flux_elem_")
    for (lc, _, quantity, _), by_phix in flux.items():
        if quantity not in ("flux_elem_gg", "flux_elem_ee"):
            continue
        level = 0 if quantity.endswith("gg") else 1
        node = qubit_node_energies(circuit, lc)
        for phix, value in by_phix.items():
            _, phi, states = fd_qubit(*node, phix)
            expected = float(phi @ states[:, level] ** 2) / (2.0 * math.pi)
            if not abs(value - expected) <= FD_FLUX_TOL_PHI0:
                problems.append(f"Lc={lc} phix={phix}: {quantity} = {value:.6g}, "
                                f"finite differences give {expected:.6g}")
    return problems[:5]


def check_wavefunctions(rows, workload_config) -> list[str]:
    problems = []
    norms = defaultdict(float)
    for row in rows:
        if row["quantity"].endswith("_prob"):
            norms[(row["Lc_pH"], row["quantity"])] += row["value"]
    for key, norm in sorted(norms.items()):
        if not abs(norm - 1.0) < 1e-9:
            problems.append(f"{key}: probabilities sum to {norm:.12g}")
    if not norms:
        problems.append("wavefunctions reports no states")
    return problems


CHECKS = {
    "inductance-compare": check_inductance_compare,
    "rabi-map": check_rabi_map,
    "rabi-fit": check_rabi_fit,
    "circuit-spectrum": check_circuit_spectrum,
    "gauge-check": check_gauge_check,
    "observables": check_observables,
    "perturbation": check_perturbation,
    "qubit-spectrum": check_qubit_spectrum,
    "matrix-elements": check_matrix_elements,
    "wavefunctions": check_wavefunctions,
}


def check_task(out_dir: str, task: str,
               workload_config: dict) -> tuple[str | None, list[str]]:
    """(why the task failed to finish, problems with its output).

    A task fails when it wrote no output (it raised) or flags
    non-convergence; otherwise its output is checked.
    """
    try:
        rows, meta = read_task(out_dir, task)
    except FileNotFoundError:
        return f"{task} wrote no output", []
    if meta.get("converged") is not True:
        return f"{task} flags non-convergence", []
    return None, CHECKS[task](rows, workload_config)
