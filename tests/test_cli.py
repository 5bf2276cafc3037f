"""End-to-end command-line runs, in process, against a tiny sweep."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

import fluxrabi
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
    # (2, 4) has 8 product states, as many as every coupled solve finds
    cfg = write_doc(tmp_path, small_doc(n_qubit=2, n_fock=4), name="small.json")
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert ("max(8, n_states) must be below n_qubit * n_fock"
            in capsys.readouterr().err)
    assert not out.exists()


def test_empty_out_flag_exits_2(tmp_path, capsys):
    cfg = write_doc(tmp_path, small_doc())
    assert main(["run", "--config", cfg, "--out", ""]) == 2
    assert "output directory" in capsys.readouterr().err


def test_numeric_failure_exits_3(monkeypatch, tmp_path, capsys):
    # an ARPACK failure in a coupled solve, the first gauge-check makes, is
    # a numeric failure
    def fail(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    doc = small_doc()
    doc["tasks"] = ["gauge-check"]
    doc["sweep"]["phix_points"] = 1
    cfg = write_doc(tmp_path, doc)
    out = str(tmp_path / "never")
    assert main(["run", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err
    assert "shift-invert coupled eigensolve failed" in err


@pytest.mark.parametrize("n_qubit, verify, needed", [
    (20, True, 40),   # the verify probe solves at 40 qubit levels
    (40, False, 40),
])
def test_qubit_basis_overflow_exits_2(tmp_path, capsys, n_qubit, verify,
                                      needed):
    # more qubit levels than the 32-wave qubit basis holds are a config
    # error, refused before any task runs
    doc = small_doc(n_qubit=n_qubit, n_fock=20, verify=verify)
    doc["tasks"] = ["qubit-spectrum", "circuit-spectrum"]
    doc["sweep"]["phix_points"] = 1
    cfg = write_doc(tmp_path, doc)
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{needed} qubit levels needed" in err
    assert "the qubit basis holds 32" in err
    assert not out.exists()


def test_doubled_truncation_check_assembles_nothing(monkeypatch, tmp_path):
    # the configured build (8, 60), dimension 480, and its doubled check,
    # dimension 1920, are shift-invert Lanczos solves on the band, and
    # assemble nothing
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


def test_doubled_probe_warns_of_the_unresolved_qubit_levels(tmp_path):
    # at n_qubit 12 the verify probe solves at 24 qubit levels, past level
    # 18, the first the qubit basis does not resolve: the run keeps its
    # exit code and says so on stderr, once
    doc = small_doc(n_qubit=12, n_fock=20, verify=True, gauge="flux")
    doc["tasks"] = ["circuit-spectrum"]
    cfg = write_doc(tmp_path, doc)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fluxrabi.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "fluxrabi.cli", "run", "--config", cfg,
         "--out", str(tmp_path / "o")], env=env, capture_output=True,
        text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("BasisRangeWarning") == 1, proc.stderr
    assert "qubit level 18 of the 24 read has over 1e-06" in proc.stderr


def test_observables_at_640_product_states_assemble_nothing(monkeypatch,
                                                            tmp_path):
    # at (8, 80), 640 product states, the coupled solve is shift-invert
    # Lanczos: circuit-spectrum and observables succeed without a dense
    # matrix
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
    # ladder's shift-invert solves reach the real solver
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
