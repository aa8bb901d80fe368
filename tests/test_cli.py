"""Command-line interface: outputs, exit codes, table overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from welschinger.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi_text(capsys):
    code, out, _ = run(capsys, "chi", "--geometry", "cp2", "--degree", "6", "--real-points", "1")
    assert code == 0 and out.strip() == "1024"


def test_chi_threefold(capsys):
    code, out, _ = run(capsys, "chi", "--geometry", "quadric3", "--degree", "6", "--real-points", "1")
    assert code == 0 and out.strip() == "0"


def test_chi_json_stable(capsys):
    args = ("chi", "--geometry", "cp2", "--degree", "7", "--real-points", "0", "--format", "json", "--ledger")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["chi"] == -14336
    assert len(payload["ledger"]) == 2


def test_chi_csv(capsys):
    code, out, _ = run(capsys, "chi", "--geometry", "quadric2", "--degree", "4", "--real-points", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "quadric2,4,3,320"


def test_chi_ledger_text(capsys):
    code, out, _ = run(capsys, "chi", "--geometry", "cp2", "--degree", "6", "--real-points", "1", "--ledger")
    assert code == 0
    assert out.splitlines()[0] == "1024"
    assert len(out.splitlines()) == 3


def test_poly(capsys):
    code, out, _ = run(capsys, "poly", "--geometry", "quadric2", "--degree", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == {"1": 0, "3": 2, "5": 4, "7": 6}


def test_trees_dump(capsys):
    code, out, _ = run(capsys, "trees", "--geometry", "cp2", "--degree", "6", "--real-points", "1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert {item["multiplicity"] for item in payload} == {64, 256}


def test_derive(capsys):
    code, out, _ = run(capsys, "derive", "--kind", "rp2", "--beta", "e1+e2")
    assert code == 0
    assert "= 24" in out.splitlines()[0]


def test_exit_3_on_missing_invariant(capsys):
    code, _, err = run(capsys, "chi", "--geometry", "cp2", "--degree", "9", "--real-points", "0")
    assert code == 3
    assert "missing invariant" in err


def test_exit_2_on_inadmissible(capsys):
    code, _, err = run(capsys, "chi", "--geometry", "cp2", "--degree", "5", "--real-points", "1")
    assert code == 2 and "error" in err


def test_exit_2_on_bad_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--geometry", "torus", "--degree", "2", "--real-points", "1"])
    assert exc.value.code == 2


def test_frontier(capsys):
    code, out, _ = run(capsys, "frontier", "--max-degree", "5")
    assert code == 0
    assert "cp2:" in out and "quadric3:" in out


def test_table_override_via_flag(tmp_path, capsys):
    # shrink the relative table to the fibre rule only: degree 5 must now fail
    table = {"version": 1, "entries": []}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(table))
    code, _, err = run(
        capsys,
        "chi", "--geometry", "cp2", "--degree", "5", "--real-points", "0",
        "--invariant-table", str(path),
    )
    assert code == 3 and "outside the curated table" in err


RELATIVE_TABLE = Path(__file__).resolve().parent.parent / "src" / "welschinger" / "tables" / "relative_invariants.json"


def _table_with_extra_row(path, change):
    """The built-in relative table plus a changed copy of its first row,
    N4^{e+f}(0, e1) = 1; returns the index of the added row."""
    payload = json.loads(RELATIVE_TABLE.read_text())
    row = dict(payload["entries"][0])
    change(row)
    payload["entries"].append(row)
    path.write_text(json.dumps(payload))
    return len(payload["entries"]) - 1


@pytest.mark.parametrize(
    "case,message",
    [
        ("duplicate key", "lists a key again with value 7, not 1"),
        ("row without alpha", "missing field 'alpha'"),
        ("missing file", "cannot read table"),
        ("invalid JSON", "cannot read table"),
    ],
)
def test_bad_table_override_exits_2(tmp_path, capsys, case, message):
    path = tmp_path / "table.json"
    row = None
    if case == "duplicate key":
        row = _table_with_extra_row(path, lambda row: row.update(value=7))
    elif case == "row without alpha":
        row = _table_with_extra_row(path, lambda row: row.pop("alpha"))
    elif case == "invalid JSON":
        path.write_text('{"entries": [')
    args = ("chi", "--geometry", "cp2", "--degree", "5", "--real-points", "0", "--invariant-table", str(path))
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and message in err
    if row is not None:
        assert f"row {row}" in err


@pytest.mark.parametrize("argv", [("--beta", "foo"), ("--beta", "e0"), ("--pairs", "-1")])
def test_derive_rejects_bad_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--kind", "rp2", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[0]}" in err and "Traceback" not in err


def test_table_override_via_env(tmp_path, capsys, monkeypatch):
    table = {"version": 1, "entries": []}
    (tmp_path / "relative_invariants.json").write_text(json.dumps(table))
    monkeypatch.setenv("WELSCHINGER_TABLE_DIR", str(tmp_path))
    code, _, err = run(capsys, "chi", "--geometry", "cp2", "--degree", "5", "--real-points", "0")
    assert code == 3


def test_verify_exits_zero(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.count("[PASS]") == 8


def test_verify_passes_with_asserts_stripped():
    # python -O removes assert statements; every invariant check must be a raise
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    argv = [sys.executable, "-O", "-m", "welschinger.cli", "verify"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
