"""Compare two fluxrabi output directories against the numerical contract.

    python tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Prints the sha256 of every file on both sides.  CSV files must have the
same rows and columns and JSON files the same keys and list lengths; text
cells and JSON strings, booleans and nulls must be equal, and a numeric
cell may move by at most 1e-9 * max(1, |parent value|).  Any other file
must be byte-identical.  The largest scaled numeric deviation of each file
is printed.  Exits 0 when every file meets the contract, 1 on any
violation, 2 on bad arguments.  Uses only the standard library.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys

REL_TOL = 1e-9


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(dirpath, name), root)
            for dirpath, _, names in os.walk(root) for name in names}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class _Comparison:
    """Violations and the largest scaled deviation of one file."""

    def __init__(self) -> None:
        self.violations: list[str] = []
        self.max_dev = 0.0

    def numbers(self, a: float, b: float, where: str) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        dev = abs(a - b) / max(1.0, abs(a))
        if math.isnan(dev):
            dev = math.inf
        self.max_dev = max(self.max_dev, dev)
        if not dev <= REL_TOL:
            self.violations.append(f"{where}: {a!r} -> {b!r}")

    def csv_cells(self, a: str, b: str, where: str) -> None:
        try:
            x, y = float(a), float(b)
        except ValueError:
            if a != b:
                self.violations.append(f"{where}: text {a!r} -> {b!r}")
            return
        self.numbers(x, y, where)

    def json_values(self, a, b, where: str) -> None:
        numeric = (int, float)
        if (isinstance(a, numeric) and isinstance(b, numeric)
                and not isinstance(a, bool) and not isinstance(b, bool)):
            self.numbers(float(a), float(b), where)
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.violations.append(
                    f"{where}: keys {sorted(a)} -> {sorted(b)}")
                return
            for key in a:
                self.json_values(a[key], b[key], f"{where}.{key}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.violations.append(
                    f"{where}: length {len(a)} -> {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.json_values(x, y, f"{where}[{i}]")
        elif type(a) is not type(b) or a != b:
            self.violations.append(f"{where}: {a!r} -> {b!r}")


def compare_file(parent: str, change: str) -> _Comparison:
    result = _Comparison()
    if parent.endswith(".csv"):
        with open(parent, newline="", encoding="utf-8") as fa, \
                open(change, newline="", encoding="utf-8") as fb:
            rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
        if len(rows_a) != len(rows_b):
            result.violations.append(f"rows {len(rows_a)} -> {len(rows_b)}")
            return result
        for n, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
            if len(row_a) != len(row_b):
                result.violations.append(
                    f"line {n}: columns {len(row_a)} -> {len(row_b)}")
                continue
            for col, (a, b) in enumerate(zip(row_a, row_b)):
                result.csv_cells(a, b, f"line {n} column {col + 1}")
    elif parent.endswith(".json"):
        with open(parent, encoding="utf-8") as fa, \
                open(change, encoding="utf-8") as fb:
            result.json_values(json.load(fa), json.load(fb), "$")
    elif _sha256(parent) != _sha256(change):
        result.violations.append("bytes differ")
    return result


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(d) for d in args):
        print("usage: compare_outputs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent_dir, change_dir = args
    parent_files, change_files = _files(parent_dir), _files(change_dir)
    failed = False
    for name in sorted(parent_files ^ change_files):
        side = "parent" if name in parent_files else "change"
        print(f"VIOLATION {name}: only in the {side} directory")
        failed = True
    for name in sorted(parent_files & change_files):
        a, b = os.path.join(parent_dir, name), os.path.join(change_dir, name)
        hash_a, hash_b = _sha256(a), _sha256(b)
        result = compare_file(a, b)
        same = "identical" if hash_a == hash_b else "differ"
        print(f"{name}: parent {hash_a} change {hash_b} ({same}); "
              f"largest deviation {result.max_dev:.3g}")
        for violation in result.violations:
            print(f"VIOLATION {name}: {violation}")
        failed = failed or bool(result.violations)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
