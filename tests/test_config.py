"""Configuration parsing, validation, and the reference circuit."""

import json
import math

import numpy as np
import pytest

from fluxrabi.config import (
    ConfigError,
    NumericsConfig,
    RunConfig,
    TASK_NAMES,
    load_config,
    parse_config,
    reference_config,
)
from fluxrabi.constants import CONSTANTS


def minimal_doc():
    return {
        "schema_version": 1,
        "circuit": {
            "Lc_pH": 20.0,
            "L1_pH": 780.0,
            "L2_pH": 2030.0,
            "C_pF": 0.87,
            "CJ_fF": 4.84,
            "LJ_pH": 990.0,
        },
        "tasks": ["qubit-spectrum"],
    }


def test_minimal_document_round_trip():
    cfg = parse_config(minimal_doc())
    assert cfg.circuit.Lc == 20.0
    assert cfg.circuit.L1 == 780.0
    assert cfg.circuit.L2 == 2030.0
    assert cfg.circuit.C == 0.87
    assert cfg.circuit.CJ == 4.84
    assert cfg.circuit.phix == 0.5
    assert cfg.tasks == ("qubit-spectrum",)
    assert cfg.output_dir == "out"
    assert cfg.lc_list is None
    assert cfg.workers == 1
    assert cfg.numerics == NumericsConfig()


def test_full_document_round_trip():
    doc = minimal_doc()
    doc["sweep"] = {"phix_start_Phi0": 0.49, "phix_stop_Phi0": 0.51,
                    "phix_points": 5, "Lc_list_pH": [20, 350]}
    doc["numerics"] = {"n_fock": 60, "gauge": "flux", "fit_levels": 7}
    doc["output"] = {"directory": "results"}
    cfg = parse_config(doc)
    assert cfg.phix_points == 5
    assert cfg.lc_list == (20.0, 350.0)
    assert cfg.numerics.n_fock == 60
    assert cfg.numerics.gauge == "flux"
    assert cfg.numerics.fit_levels == 7
    assert cfg.numerics.n_qubit == 6  # untouched default
    assert cfg.output_dir == "results"
    grid = cfg.phix_grid
    assert grid[0] == 0.49 and grid[-1] == 0.51 and len(grid) == 5


def test_schema_version_is_mandatory():
    doc = minimal_doc()
    del doc["schema_version"]
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(doc)
    doc = minimal_doc()
    doc["schema_version"] = 2
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(doc)


def test_unknown_keys_rejected_everywhere():
    for mutate in (
        lambda d: d.update(extra=1),
        lambda d: d["circuit"].update(R_ohm=50.0),
        lambda d: d.update(sweep={"step": 0.1}),
        lambda d: d.update(numerics={"fock": 40}),
        # the plane-wave basis knobs are gone: every solve uses
        # PlaneWaveBasis.for_qubit()
        lambda d: d.update(numerics={"qubit_waves": 64}),
        lambda d: d.update(output={"dir": "x"}),
    ):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(doc)


def test_junction_given_exactly_once():
    doc = minimal_doc()
    doc["circuit"]["EJ_GHz"] = 165.1
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(doc)
    doc = minimal_doc()
    del doc["circuit"]["LJ_pH"]
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(doc)
    doc = minimal_doc()
    del doc["circuit"]["LJ_pH"]
    doc["circuit"]["EJ_GHz"] = 165.1
    cfg = parse_config(doc)
    assert cfg.circuit.EJ == 165.1


def test_missing_circuit_keys_reported():
    doc = minimal_doc()
    del doc["circuit"]["C_pF"]
    with pytest.raises(ConfigError, match="C_pF"):
        parse_config(doc)
    doc = minimal_doc()
    del doc["circuit"]
    with pytest.raises(ConfigError, match="circuit"):
        parse_config(doc)


def test_tasks_must_be_known_and_nonempty():
    doc = minimal_doc()
    doc["tasks"] = []
    with pytest.raises(ConfigError, match="tasks"):
        parse_config(doc)
    doc = minimal_doc()
    doc["tasks"] = ["qubit-spectrum", "bogus"]
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(doc)
    for name in TASK_NAMES:
        doc = minimal_doc()
        doc["tasks"] = [name]
        assert parse_config(doc).tasks == (name,)


def test_lc_list_validation():
    doc = minimal_doc()
    doc["sweep"] = {"Lc_list_pH": []}
    with pytest.raises(ConfigError, match="Lc_list_pH"):
        parse_config(doc)
    doc = minimal_doc()
    doc["sweep"] = {"Lc_list_pH": [20.0, 900.0]}
    # 900 pH exceeds the 800 pH oscillator branch sum
    with pytest.raises(ConfigError, match="branch sums"):
        parse_config(doc)


def test_lc_sweep_preserves_branch_sums():
    doc = minimal_doc()
    doc["sweep"] = {"Lc_list_pH": [0.0, 20.0, 350.0]}
    cfg = parse_config(doc)
    for lc, raw in cfg.circuits():
        assert raw.Lc == lc
        assert raw.Lc + raw.L1 == pytest.approx(800.0)
        assert raw.Lc + raw.L2 == pytest.approx(2050.0)
        assert raw.EJ == cfg.circuit.EJ


def test_sweep_grid_validation():
    doc = minimal_doc()
    doc["sweep"] = {"phix_points": 0}
    with pytest.raises(ConfigError, match="phix_points"):
        parse_config(doc)
    doc = minimal_doc()
    doc["sweep"] = {"phix_start_Phi0": 0.51, "phix_stop_Phi0": 0.49}
    with pytest.raises(ConfigError, match="phix_stop"):
        parse_config(doc)
    doc = minimal_doc()
    doc["sweep"] = {"phix_start_Phi0": 0.498, "phix_points": 1}
    cfg = parse_config(doc)
    assert np.array_equal(cfg.phix_grid, [0.498])


def test_numerics_validation():
    with pytest.raises(ConfigError, match="gauge"):
        NumericsConfig(gauge="mixed")
    with pytest.raises(ConfigError, match="positive"):
        NumericsConfig(n_fock=0)
    doc = minimal_doc()
    doc["numerics"] = {"gauge": "charge"}
    assert parse_config(doc).numerics.gauge == "charge"


@pytest.mark.parametrize("section, key, value, match", [
    ("circuit", "C_pF", None, "circuit.C_pF"),
    ("circuit", "Lc_pH", True, "circuit.Lc_pH"),
    ("circuit", "L1_pH", "780", "circuit.L1_pH"),
    ("sweep", "Lc_list_pH", ["abc"], "Lc_list_pH"),
    ("sweep", "phix_start_Phi0", "x", "phix_start_Phi0"),
    ("sweep", "phix_points", 2.5, "phix_points"),
    ("sweep", "phix_points", "3", "phix_points"),
    ("sweep", None, [1], "sweep must be a JSON object"),
    ("numerics", None, [1], "numerics must be a JSON object"),
    ("output", None, "out", "output must be a JSON object"),
    ("numerics", "n_qubit", "6", "n_qubit"),
    ("numerics", "n_qubit", 6.5, "n_qubit"),
    ("numerics", "n_fock", True, "n_fock"),
    ("numerics", "verify", "no", "verify"),
    # each sweep point keeps 8 levels, so fit pairs reach level 7 at most
    ("numerics", "fit_levels", 8, "fit_levels"),
    # a (1, 2) truncation has two levels: fit level 2 and state 3 are absent
    ("numerics", None, {"n_qubit": 1, "n_fock": 2, "fit_levels": 2,
                        "n_states": 1}, "fit_levels"),
    ("numerics", None, {"n_qubit": 1, "n_fock": 2, "fit_levels": 1,
                        "n_states": 4}, "n_states"),
    ("output", "directory", None, "output directory"),
    ("output", "directory", 5, "output directory"),
    ("output", "directory", ["x"], "output directory"),
    ("output", "directory", "", "output directory"),
])
def test_malformed_values_rejected(section, key, value, match):
    doc = minimal_doc()
    if key is None:
        doc[section] = value
    else:
        doc.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=match):
        parse_config(doc)


@pytest.mark.parametrize("task, n_qubit, n_fock, match", [
    # the regression fit 7 reads coupled levels 0 .. 7
    ("regression", 1, 6, "regression"),
    ("regression", 7, 1, "regression"),
    # perturbation reads |1,g> and |1,e> at indices 2 and 3; with one
    # qubit level they are |2,g> and |3,g>, with one Fock state absent
    ("perturbation", 1, 3, "perturbation"),
    ("perturbation", 1, 8, "perturbation"),
    ("perturbation", 8, 1, "perturbation"),
])
def test_truncation_too_small_for_task_rejected(task, n_qubit, n_fock, match):
    doc = minimal_doc()
    doc["tasks"] = [task]
    doc["numerics"] = {"n_qubit": n_qubit, "n_fock": n_fock,
                       "fit_levels": 1, "n_states": 1}
    with pytest.raises(ConfigError, match=match):
        parse_config(doc)
    # the same truncation is fine for a task that reads no such state
    doc["tasks"] = ["qubit-spectrum"]
    assert parse_config(doc).numerics.n_qubit == n_qubit


@pytest.mark.parametrize("task, n_qubit, n_fock", [
    ("regression", 1, 8),
    ("regression", 2, 4),
    ("perturbation", 2, 2),
])
def test_smallest_truncation_for_task_accepted(task, n_qubit, n_fock):
    doc = minimal_doc()
    doc["tasks"] = [task]
    doc["numerics"] = {"n_qubit": n_qubit, "n_fock": n_fock,
                       "fit_levels": 1, "n_states": 1}
    assert parse_config(doc).tasks == (task,)


@pytest.mark.parametrize("n_qubit, n_fock, n_states", [
    # every state of the product dimension, which the banded solver takes
    # at any size, or one fewer, which the Lanczos solve takes
    (8, 64, 512),
    (8, 80, 639),
    (8, 80, 640),
])
def test_largest_n_states_accepted(n_qubit, n_fock, n_states):
    doc = minimal_doc()
    doc["numerics"] = {"n_qubit": n_qubit, "n_fock": n_fock,
                       "fit_levels": 1, "n_states": n_states}
    assert parse_config(doc).numerics.n_states == n_states


def test_overrides_and_workers():
    cfg = parse_config(minimal_doc(), output_override="elsewhere",
                       tasks_override=["rabi-map"], workers=3)
    assert cfg.output_dir == "elsewhere"
    assert cfg.tasks == ("rabi-map",)
    assert cfg.workers == 3
    with pytest.raises(ConfigError, match="workers"):
        parse_config(minimal_doc(), workers=0)


def test_load_config_paths(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_doc()))
    cfg = load_config(str(path))
    assert cfg.circuit.Lc == 20.0
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


def test_reference_config_matches_benchmark_circuit():
    cfg = reference_config()
    assert cfg.tasks == ("regression",)
    assert cfg.circuit.Lc == 20.0
    assert cfg.circuit.Lc + cfg.circuit.L1 == pytest.approx(800.0)
    assert cfg.circuit.Lc + cfg.circuit.L2 == pytest.approx(2050.0)
    # EJ = [Phi0 / (2 pi)]^2 / LJ for LJ = 990 pH, in GHz
    phi_j = CONSTANTS.Phi0 / (2.0 * math.pi)
    assert cfg.circuit.EJ == pytest.approx(
        phi_j**2 / (990e-12 * CONSTANTS.h) / 1e9, rel=1e-12)
    assert cfg.circuit.EJ == pytest.approx(165.1, rel=1e-3)
    other = reference_config(lc=350.0, tasks=("rabi-map",))
    assert other.circuit.L1 == pytest.approx(450.0)
    assert other.circuit.EJ == cfg.circuit.EJ


def test_run_config_rejects_unknown_task_directly():
    with pytest.raises(ConfigError, match="unknown task"):
        reference_config(tasks=("not-a-task",))
