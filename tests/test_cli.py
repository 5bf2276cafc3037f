"""End-to-end command-line runs, in process, against a tiny sweep."""

import json
import os

import numpy as np
import pytest
import scipy.sparse.linalg

from fluxrabi.cli import main

from conftest import nothing_dense, solver_calls


def small_doc(**numerics):
    base = {"n_qubit": 6, "n_fock": 20, "verify": False}
    base.update(numerics)
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
        "sweep": {"phix_start_Phi0": 0.498, "phix_stop_Phi0": 0.502,
                  "phix_points": 3},
        "numerics": base,
        "tasks": ["qubit-spectrum", "inductance-compare"],
        "output": {"directory": "out"},
    }


def write_doc(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_files(out_dir, tasks):
    names = []
    for task in tasks:
        names += [f"{task}.csv", f"{task}.json"]
    return [os.path.join(out_dir, n) for n in sorted(names)]


def test_run_writes_csv_and_metadata(tmp_path):
    cfg = write_doc(tmp_path, small_doc())
    out = str(tmp_path / "results")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    for path in run_files(out, ["qubit-spectrum", "inductance-compare"]):
        assert os.path.exists(path)
    meta = json.loads((tmp_path / "results" / "qubit-spectrum.json").read_text())
    assert meta["task"] == "qubit-spectrum"
    assert meta["code_version"]
    assert meta["converged"] is True
    header = (tmp_path / "results" / "qubit-spectrum.csv").read_text().splitlines()[0]
    assert header.split(",")[:2] == ["Lc_pH", "phix_Phi0"]


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = write_doc(tmp_path, small_doc())
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out", out_a]) == 0
    assert main(["run", "--config", cfg, "--out", out_b]) == 0
    for task in ("qubit-spectrum", "inductance-compare"):
        for ext in ("csv", "json"):
            a = open(os.path.join(out_a, f"{task}.{ext}"), "rb").read()
            b = open(os.path.join(out_b, f"{task}.{ext}"), "rb").read()
            assert a == b


def test_tasks_flag_selects_subset(tmp_path):
    cfg = write_doc(tmp_path, small_doc())
    out = str(tmp_path / "subset")
    assert main(["run", "--config", cfg, "--out", out,
                 "--tasks", "inductance-compare"]) == 0
    assert os.path.exists(os.path.join(out, "inductance-compare.csv"))
    assert not os.path.exists(os.path.join(out, "qubit-spectrum.csv"))


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    doc = small_doc()
    del doc["circuit"]["LJ_pH"]
    cfg = write_doc(tmp_path, doc)
    assert main(["run", "--config", cfg]) == 2
    cfg = write_doc(tmp_path, small_doc(), name="ok.json")
    assert main(["run", "--config", cfg, "--tasks", "bogus"]) == 2
    assert "config error" in capsys.readouterr().err


def test_empty_out_flag_exits_2(tmp_path, capsys):
    cfg = write_doc(tmp_path, small_doc())
    assert main(["run", "--config", cfg, "--out", ""]) == 2
    assert "output directory" in capsys.readouterr().err


def test_numeric_failure_exits_3(tmp_path, capsys):
    doc = small_doc(n_qubit=60, n_fock=80)
    doc["tasks"] = ["gauge-check"]
    doc["sweep"]["phix_points"] = 1
    cfg = write_doc(tmp_path, doc)
    out = str(tmp_path / "never")
    assert main(["run", "--config", cfg, "--out", out]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_qubit_basis_overflow_exits_3(tmp_path, capsys):
    # 40 qubit levels do not fit the 32-wave qubit basis: the run stops
    # with the limit named instead of solving a smaller basis
    doc = small_doc(n_qubit=40, n_fock=20)
    doc["tasks"] = ["observables"]
    doc["sweep"]["phix_points"] = 1
    cfg = write_doc(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "32" in err


def test_doubled_truncation_check_assembles_nothing(monkeypatch, tmp_path):
    # the configured build (8, 60), dimension 480, and its doubled check,
    # dimension 1920, are levels calls, shift-invert Lanczos solves on the
    # band, and assemble nothing
    doc = small_doc(n_qubit=8, n_fock=60, verify=True, gauge="flux")
    doc["tasks"] = ["circuit-spectrum"]
    doc["sweep"]["phix_points"] = 1
    cfg = write_doc(tmp_path, doc)
    out = tmp_path / "o"
    calls = solver_calls(monkeypatch)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert nothing_dense(calls), calls
    meta = json.loads((out / "circuit-spectrum.json").read_text())
    probe = meta["convergence_detail"]["Lc=20.0/flux"]
    assert probe["converged"] and 0.0 < probe["truncation_shift_GHz"] < 1e-3


def test_observables_at_640_product_states_assemble_nothing(monkeypatch,
                                                            tmp_path):
    # at (8, 80), 640 product states, both the levels and the states call
    # are shift-invert Lanczos solves: circuit-spectrum and observables
    # succeed without a dense matrix
    doc = small_doc(n_qubit=8, n_fock=80, verify=False)
    doc["sweep"]["phix_points"] = 1
    calls = solver_calls(monkeypatch)
    for task in ("circuit-spectrum", "observables"):
        doc["tasks"] = [task]
        cfg = write_doc(tmp_path, doc)
        out = str(tmp_path / task)
        assert main(["run", "--config", cfg, "--out", out]) == 0
    assert nothing_dense(calls), calls
    rows = (tmp_path / "observables" / "observables.csv").read_text()
    assert len(rows.splitlines()) > 1


def test_planewave_solver_failure_exits_3(monkeypatch, tmp_path, capsys):
    # an ARPACK failure in the gauge-check cross-check is a numeric
    # failure; only the dimension-2048 plane-wave solve fails, while the
    # ladder's shift-invert levels calls reach the real solver
    solver = scipy.sparse.linalg.eigsh

    def fail(a, *args, **kwargs):
        if a.shape != (2048, 2048):
            return solver(a, *args, **kwargs)
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    doc = small_doc()
    doc["tasks"] = ["gauge-check"]
    cfg = write_doc(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "plane-wave product eigensolve failed" in capsys.readouterr().err


def test_io_failure_exits_4(tmp_path):
    cfg = write_doc(tmp_path, small_doc())
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the output directory should go")
    assert main(["run", "--config", cfg, "--out", str(blocker)]) == 4


def test_workers_flag_matches_serial_output(tmp_path):
    cfg = write_doc(tmp_path, small_doc())
    out_serial, out_par = str(tmp_path / "s"), str(tmp_path / "p")
    assert main(["run", "--config", cfg, "--out", out_serial]) == 0
    assert main(["run", "--config", cfg, "--out", out_par,
                 "--workers", "2"]) == 0
    a = open(os.path.join(out_serial, "qubit-spectrum.csv"), "rb").read()
    b = open(os.path.join(out_par, "qubit-spectrum.csv"), "rb").read()
    assert a == b


def test_missing_subcommand_is_an_error():
    with pytest.raises(SystemExit):
        main([])
