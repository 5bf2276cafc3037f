"""tools/compare_outputs.py on synthetic output directories."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CSV = ("Lc_pH,phix_Phi0,gauge,quantity,value\n"
       "20,0.5,flux,energy_level_0,1.2345678901234567\n"
       "20,nan,flux,omega,6033.0\n")
META = {"task": "t", "converged": True, "shift": 0.25, "skipped": None,
        "ladder": [[4, 10], [6, 20]]}


def _write(root: Path, csv_text: str = CSV, meta: dict = META) -> str:
    root.mkdir()
    (root / "t.csv").write_text(csv_text)
    (root / "t.json").write_text(json.dumps(meta))
    return str(root)


def _run(tmp_path, capsys, csv_text=CSV, meta=META):
    parent = _write(tmp_path / "parent")
    change = _write(tmp_path / "change", csv_text, meta)
    code = compare_outputs.main([parent, change])
    return code, capsys.readouterr().out


def test_identical_directories_pass_with_hashes(tmp_path, capsys):
    code, out = _run(tmp_path, capsys)
    assert code == 0
    assert out.count("(identical)") == 2
    assert "VIOLATION" not in out


def test_numeric_cells_within_contract_pass(tmp_path, capsys):
    # 6033 moves by 4.97e-10 relative, 1.23... by 3.8e-10 (scale 1)
    csv_text = CSV.replace("6033.0", "6033.000003").replace(
        "1.2345678901234567", "1.2345678905")
    meta = dict(META, shift=0.25 + 4e-10)
    code, out = _run(tmp_path, capsys, csv_text, meta)
    assert code == 0
    assert out.count("(differ)") == 2
    assert "largest deviation 4.97e-10" in out
    assert "largest deviation 4e-10" in out


@pytest.mark.parametrize("csv_text, meta", [
    (CSV.replace("6033.0", "6033.0001"), META),            # beyond 1e-9
    (CSV.replace("flux,omega", "charge,omega"), META),     # text cell
    (CSV + "20,0.5,flux,extra,1.0\n", META),               # extra row
    (CSV.replace(",6033.0", ",6033.0,GHz"), META),         # extra column
    (CSV, dict(META, extra=1)),                            # extra key
    (CSV, dict(META, converged=False)),                    # boolean
    (CSV, dict(META, skipped=0.0)),                        # null -> number
    (CSV, dict(META, ladder=[[4, 10]])),                   # list length
])
def test_contract_violations_exit_1(tmp_path, capsys, csv_text, meta):
    code, out = _run(tmp_path, capsys, csv_text, meta)
    assert code == 1
    assert "VIOLATION" in out


def test_missing_file_and_bad_arguments(tmp_path, capsys):
    parent = _write(tmp_path / "parent")
    change = _write(tmp_path / "change")
    (tmp_path / "change" / "t.json").unlink()
    assert compare_outputs.main([parent, change]) == 1
    assert "only in the parent directory" in capsys.readouterr().out
    assert compare_outputs.main([parent]) == 2
