"""The sweep's CSV bytes against a committed copy.

``data/golden-k64.ini`` runs all three studies at 64 subcarriers for 2 trials,
and ``data/golden-k64.csv`` holds the CSV that it writes. A change that moves
results on purpose regenerates the CSV with

    fdiab run --config tests/data/golden-k64.ini --out tests/data/golden-k64.csv

and names the rows that moved, and why, in CHANGES.md.
"""

from pathlib import Path

from fdiab.config import load_config
from fdiab.harness import run_experiment, write_csv

DATA = Path(__file__).parent / "data"
VALUE_COLUMNS = ("se_bps_hz", "rfil_db")


def _relative(old: str, new: str) -> float:
    old_value, new_value = float(old), float(new)
    return abs(new_value - old_value) / max(abs(old_value), abs(new_value), 1e-300)


def _moved_rows(want: str, got: str) -> str:
    """The rows of ``got`` that differ from ``want``, each with its relative differences."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    header = want_lines[0].split(",")
    report = []
    if len(got_lines) != len(want_lines):
        report.append(f"{len(got_lines) - 1} rows written, {len(want_lines) - 1} expected")
    for old_line, new_line in zip(want_lines[1:], got_lines[1:]):
        if old_line == new_line:
            continue
        old, new = dict(zip(header, old_line.split(","))), dict(zip(header, new_line.split(",")))
        key = ",".join(new[c] for c in header if c not in VALUE_COLUMNS)
        if key != ",".join(old[c] for c in header if c not in VALUE_COLUMNS):
            report.append(f"{old_line} -> {new_line} (another row)")
            continue
        moved = ", ".join(f"{c} {old[c]} -> {new[c]} (relative {_relative(old[c], new[c]):.2e})"
                          for c in VALUE_COLUMNS if old[c] != new[c])
        report.append(f"{key}: {moved}")
    return "\n".join(report)


def test_golden_k64_csv_bytes(tmp_path):
    out = tmp_path / "golden-k64.csv"
    write_csv(run_experiment(load_config(DATA / "golden-k64.ini")), out)
    want, got = (DATA / "golden-k64.csv").read_bytes(), out.read_bytes()
    assert got == want, "rows that moved:\n" + _moved_rows(want.decode(), got.decode())
