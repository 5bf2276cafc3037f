"""Each output check passes on the program's output and rejects a wrong one."""

import csv
import json

import pytest

import checks
from workloads import WORKLOADS

TASKS = [(name, task) for name, w in WORKLOADS.items() for task in w.tasks]


def mutate(out_dir, task, match, change) -> None:
    """Rewrite <task>.csv with change(value) applied where match(row) holds."""
    path = out_dir / f"{task}.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    hits = 0
    for row in rows:
        if match(row):
            row["value"] = repr(change(float(row["value"])))
            hits += 1
    assert hits, f"no row of {task} matched"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def problems(out_dir, workload, task):
    reason, wrong = checks.check_task(str(out_dir), task, WORKLOADS[workload].config)
    assert reason is None
    return wrong


def first(quantity, phix=None, lc=None, gauge=None, coordinate=None):
    """Matcher for the first row with these fields (once per call)."""
    done = []

    def match(row):
        ok = (row["quantity"] == quantity
              and (phix is None or float(row["phix_Phi0"]) == phix)
              and (lc is None or float(row["Lc_pH"]) == lc)
              and (gauge is None or row["gauge"] == gauge)
              and (coordinate is None or row["coordinate"] == coordinate))
        if ok and not done:
            done.append(row)
            return True
        return False
    return match


@pytest.mark.parametrize("workload,task", TASKS)
def test_checks_pass_on_program_output(workload_outputs, workload, task):
    assert problems(workload_outputs(workload), workload, task) == []


WRONG = [
    # (workload, task, matcher, change, words expected in a problem)
    ("fit", "inductance-compare", first("EJ"), lambda v: v * 1.002, "EJ"),
    ("fit", "inductance-compare", first("ECJ"), lambda v: v * 1.006, "ECJ"),
    ("fit", "rabi-fit", first("fitted_transition_01", gauge="flux"),
     lambda v: v + 1e-5, "Rabi model"),
    ("fit", "rabi-fit", first("fit_residual", gauge="charge"),
     lambda v: v * 1.01, "does not match"),
    ("fit", "rabi-fit", first("data_transition_02", phix=0.494),
     lambda v: v + 1e-4, "differ by"),
    ("fit", "rabi-fit", first("fitted_g", gauge="flux"),
     lambda v: v * 1.01, "Rabi model"),
    ("levels", "circuit-spectrum", first("energy_level_3", phix=0.494),
     lambda v: v + 1e-5, "differ by"),
    ("levels", "gauge-check", first("planewave_vs_eigenbasis_gap"),
     lambda v: 2e-3, "products differ"),
    ("levels", "gauge-check", first("lowest8_gauge_gap", coordinate="12x80"),
     lambda v: 10.0, "does not shrink"),
    ("states", "observables", first("current_1", lc=350.0, gauge="charge"),
     lambda v: 0.02, "<I1>"),
    ("states", "observables", first("photon_number"), lambda v: -1e-6,
     "negative photon"),
    ("states", "perturbation", first("first_order_max_abs"), lambda v: 1e-9,
     "first-order"),
    ("states", "qubit-spectrum", first("energy_level_1", lc=350.0, phix=0.5),
     lambda v: v + 2e-3, "finite-difference"),
    ("states", "rabi-map", first("g", lc=350.0, gauge="flux"),
     lambda v: v * 0.985, "paper"),
    ("states", "rabi-map", first("g", lc=20.0, gauge="charge"),
     lambda v: 0.0436, "paper"),
    ("states", "matrix-elements", first("charge_elem_im_gg"), lambda v: 1e-6,
     "stationary-state"),
    ("states", "matrix-elements", first("flux_elem_ee", lc=20.0),
     lambda v: v + 1e-3, "finite differences"),
    ("states", "wavefunctions", first("state_2_prob"), lambda v: v + 1e-6,
     "sum to"),
]


@pytest.mark.parametrize("workload,task,match,change,words", WRONG,
                         ids=[f"{w[1]}-{w[4]}" for w in WRONG])
def test_check_rejects_wrong_output(copy_of, workload, task, match, change,
                                    words):
    out = copy_of(workload)
    mutate(out, task, match, change)
    found = problems(out, workload, task)
    assert any(words in p for p in found), found


def test_missing_output_and_flags_are_failures(copy_of):
    out = copy_of("levels")
    meta_path = out / "circuit-spectrum.json"
    meta = json.loads(meta_path.read_text())
    meta["converged"] = False
    meta_path.write_text(json.dumps(meta))
    reason, _ = checks.check_task(str(out), "circuit-spectrum",
                                  WORKLOADS["levels"].config)
    assert "non-convergence" in reason
    (out / "gauge-check.json").unlink()
    reason, _ = checks.check_task(str(out), "gauge-check",
                                  WORKLOADS["levels"].config)
    assert "no output" in reason


def test_references_are_accurate():
    """The finite-difference and Rabi references against closed forms."""
    import numpy as np
    # EJ = 0 leaves a harmonic oscillator with levels sqrt(8 EC EL)(n + 1/2)
    levels = checks.fd_qubit(4.0, 0.0, 50.0, 0.5)[0]
    expected = np.sqrt(8 * 4.0 * 50.0) * (np.arange(6) + 0.5)
    assert np.abs(levels - expected).max() < 1e-6
    # g = 0 leaves omega (n + 1/2) -+ sqrt(eps^2 + Delta^2) / 2
    rabi = checks.rabi_levels(6.0, 1.5, 0.0, 280.0, 0.5, "charge")[:2]
    assert np.allclose(rabi, [3.0 - 0.75, 3.0 + 0.75], atol=1e-12)
