"""Command-line interface: outputs, exit codes, table overrides."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from welschinger import builtin_f_engine, cotangent, tables
from welschinger.cli import _load_engine, build_parser, main


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


def test_chi_json_leaves_out_the_ledger_unless_asked(capsys):
    code, out, _ = run(capsys, "chi", "--geometry", "cp2", "--degree", "7", "--real-points", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"geometry": "cp2", "d": 7, "r": 0, "chi": -14336}


def test_chi_csv(capsys):
    code, out, _ = run(capsys, "chi", "--geometry", "quadric2", "--degree", "4", "--real-points", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "quadric2,4,3,320"


def test_chi_csv_with_the_ledger_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--geometry", "cp2", "--degree", "6", "--real-points", "1", "--format", "csv", "--ledger"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --ledger: not allowed with --format csv" in captured.err


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


def test_poly_csv(capsys):
    code, out, _ = run(capsys, "poly", "--geometry", "quadric2", "--degree", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "geometry,d,r,chi,unavailable",
        "quadric2,2,1,0,",
        "quadric2,2,3,2,",
        "quadric2,2,5,4,",
        "quadric2,2,7,6,",
    ]


def test_poly_csv_lists_each_unavailable_value_with_its_reason(capsys):
    # every admissible r in order; a miss has no chi and the text format's reason, commas quoted
    code, out, err = run(capsys, "poly", "--geometry", "cp2", "--degree", "5", "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["geometry", "d", "r", "chi", "unavailable"]
    assert rows[1:3] == [["cp2", "5", "0", "64", ""], ["cp2", "5", "2", "64", ""]]
    text = (Path(__file__).resolve().parent / "data" / "poly_cp2_degree5.txt").read_text().splitlines()[2:]
    reasons = [re.fullmatch(r"r=(\d+): unavailable \((.*)\)", line).groups() for line in text]
    assert [int(r) for r, _ in reasons] == list(range(4, 15, 2))
    assert rows[3:] == [["cp2", "5", r, "", reason] for r, reason in reasons]
    assert all("," in reason for _, reason in reasons)


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


def test_derive_names_the_asked_key(capsys):
    # the asked key has no real point left; the error names it, not a child
    code, out, err = run(capsys, "derive", "--kind", "sphere3", "--beta", "e1", "--pairs", "3")
    assert (code, out) == (2, "")
    assert err == "error: no non-negative real-point count for sphere3, alpha=0, beta=e1, r_L=3\n"


def test_exit_3_on_missing_invariant(capsys):
    code, _, err = run(capsys, "chi", "--geometry", "cp2", "--degree", "9", "--real-points", "0")
    assert code == 3
    assert "missing invariant" in err


def test_exit_3_on_a_threefold_vertex_with_too_few_pairs(capsys):
    code, out, err = run(capsys, "chi", "--geometry", "quadric3", "--degree", "14", "--real-points", "1")
    assert (code, out) == (3, "")
    assert "count is not defined" in err


def test_exit_3_beyond_the_enumeration_bound(capsys, monkeypatch):
    from welschinger import trees

    monkeypatch.setattr(trees, "CANDIDATE_BOUND", 60)
    trees._candidates.cache_clear()
    code, out, err = run(capsys, "chi", "--geometry", "cp2", "--degree", "12", "--real-points", "1")
    assert (code, out) == (3, "")
    assert err == "beyond the computable range: (projective, d=12) has more than 60 candidate subtrees and forests, the enumeration bound\n"
    # frontier prints the plane degrees below the bound, then stops with the same error
    code, out, err = run(capsys, "frontier", "--max-degree", "40")
    assert code == 3 and out.startswith(FRONTIER_8.split("quadric2:")[0])
    assert out.splitlines()[-1].startswith("  d=10: computable r: -;")
    assert err == "beyond the computable range: (projective, d=11) has more than 60 candidate subtrees and forests, the enumeration bound\n"


def test_poly_at_a_huge_degree_stops_at_the_enumeration_bound(capsys):
    # the admissible r are not listed before the first chi: a list of the
    # 1.5 * 10^9 plane counts would take more than 10 GB
    code, out, err = run(capsys, "poly", "--geometry", "cp2", "--degree", "1000000000")
    assert (code, out) == (3, "")
    assert err == (
        "beyond the computable range: (projective, d=1000000000) has more than 50,000 candidate subtrees and forests, "
        "the enumeration bound\n"
    )


def test_exit_2_on_inadmissible(capsys):
    code, _, err = run(capsys, "chi", "--geometry", "cp2", "--degree", "5", "--real-points", "1")
    assert code == 2 and "error" in err
    # trees rejects the pairs chi rejects, with the same message
    argv = ("--geometry", "quadric3", "--degree", "4", "--real-points", "0")
    for command in ("chi", "trees"):
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, "")
        assert err == "error: (quadric3, d=4, r=0) is not an admissible pair\n"
    # poly rejects a degree with no admissible r at all
    code, out, err = run(capsys, "poly", "--geometry", "quadric3", "--degree", "3")
    assert (code, out) == (2, "")
    assert err == "error: quadric3 has no admissible real-point count in degree 3\n"
    # and a degree below one, which admits none in any geometry
    code, out, err = run(capsys, "poly", "--geometry", "cp2", "--degree", "0")
    assert (code, out) == (2, "")
    assert err == "error: cp2 has no admissible real-point count in degree 0\n"
    # and a bound below the degree's least admissible r, in every format
    for fmt in ("text", "json", "csv"):
        code, out, err = run(capsys, "poly", "--geometry", "quadric3", "--degree", "2", "--real-points-max", "0", "--format", fmt)
        assert (code, out) == (2, ""), fmt
        assert err == "error: quadric3 has no admissible real-point count <= 0 in degree 2\n"
    # the bound does not change the message of a degree with no admissible r
    code, out, err = run(capsys, "poly", "--geometry", "quadric3", "--degree", "3", "--real-points-max", "0")
    assert (code, out) == (2, "")
    assert err == "error: quadric3 has no admissible real-point count in degree 3\n"


def test_exit_2_on_bad_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--geometry", "torus", "--degree", "2", "--real-points", "1"])
    assert exc.value.code == 2


FRONTIER_8 = """\
cp2:
  d=1: computable r: 0,2; missing tables for r: -
  d=2: computable r: 1,3,5; missing tables for r: -
  d=3: computable r: 0,2,4,6,8; missing tables for r: -
  d=4: computable r: 1; missing tables for r: 3,5,7,9,11
  d=5: computable r: 0,2; missing tables for r: 4,6,8,10,12,14
  d=6: computable r: 1,3; missing tables for r: 5,7,9,11,13,15,17
  d=7: computable r: 0,2,4; missing tables for r: 6,8,10,12,14,16,18,20
  d=8: computable r: 1; missing tables for r: 3,5,7,9,11,13,15,17,19,21,23
quadric2:
  d=1: computable r: 1,3; missing tables for r: -
  d=2: computable r: 1,3,5,7; missing tables for r: -
  d=3: computable r: 1,3; missing tables for r: 5,7,9,11
  d=4: computable r: 1,3,5; missing tables for r: 7,9,11,13,15
  d=5: computable r: 1; missing tables for r: 3,5,7,9,11,13,15,17,19
  d=6: computable r: -; missing tables for r: 1,3,5,7,9,11,13,15,17,19,21,23
  d=7: computable r: -; missing tables for r: 1,3,5,7,9,11,13,15,17,19,21,23,25,27
  d=8: computable r: -; missing tables for r: 1,3,5,7,9,11,13,15,17,19,21,23,25,27,29,31
quadric3:
  d=2: computable r: 1; missing tables for r: 3
  d=4: computable r: -; missing tables for r: 2,4,6
  d=6: computable r: 1; missing tables for r: 3,5,7,9
  d=8: computable r: -; missing tables for r: 2,4,6,8,10,12
"""


def test_frontier(capsys):
    assert run(capsys, "frontier", "--max-degree", "8") == (0, FRONTIER_8, "")


def test_frontier_to_degree_16_matches_its_pinned_output(capsys):
    # past the tables every (family, d, r) is a miss, decided by the first
    # failing class of its window in the order of its shapes' codes
    expected = (Path(__file__).resolve().parent / "data" / "frontier_max_degree_16.txt").read_text()
    assert run(capsys, "frontier", "--max-degree", "16") == (0, expected, "")


def test_frontier_to_degree_24_stops_at_the_enumeration_bound(capsys):
    # two-spherical d = 23 is the first (family, d) past CANDIDATE_BOUND; the
    # output before it is pinned by its sha256
    code, out, err = run(capsys, "frontier", "--max-degree", "24")
    assert code == 3
    assert err == (
        "beyond the computable range: (two-spherical, d=23) has more than 50,000 candidate subtrees and forests, "
        "the enumeration bound\n"
    )
    assert hashlib.sha256(out.encode()).hexdigest() == "97e3b310b59d20c6579b88a49b8c3fb2e78bf0fb1b7fb6a5be0e1094d8cb1cfc"


def test_poly_text_lists_each_unavailable_value(capsys):
    expected = (Path(__file__).resolve().parent / "data" / "poly_cp2_degree5.txt").read_text()
    assert run(capsys, "poly", "--geometry", "cp2", "--degree", "5") == (0, expected, "")


@pytest.mark.parametrize("geometry,d", [("cp2", 9), ("quadric2", 7), ("quadric3", 10)])
def test_poly_text_names_the_first_failing_tree_past_the_tables(capsys, geometry, d):
    # every value but the 3-quadric's r = 1 is a miss, and each message names
    # the first tree, in (shape, canonical form) order, whose key is outside
    # the tables
    expected = (Path(__file__).resolve().parent / "data" / f"poly_{geometry}_degree{d}.txt").read_text()
    assert "unavailable" in expected
    assert run(capsys, "poly", "--geometry", geometry, "--degree", str(d)) == (0, expected, "")


def test_table_override_via_flag(capsys):
    # the relative counts take no override: the flag is gone, and argparse
    # refuses it rather than reading the file
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--geometry", "quadric2", "--degree", "5", "--real-points", "1", "--invariant-table", "t.json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --invariant-table t.json" in captured.err


@pytest.mark.parametrize(
    "case,message",
    [
        ("duplicate key", "lists a key again with value 7, not 93"),
        ("row without alpha", "missing field 'alpha'"),
        ("missing file", "cannot read table"),
        ("invalid JSON", "cannot read table"),
    ],
)
def test_bad_table_override_exits_2(tmp_path, capsys, case, message):
    path = tmp_path / "table.json"
    row = None
    if case == "duplicate key":
        # a key listed twice with different values is refused before any
        # value is checked against the basis
        entry = {"kind": "rp2", "alpha": [], "beta": [1]}
        path.write_text(json.dumps({"entries": [dict(entry, value=93), dict(entry, value=7)]}))
        row = 1
    elif case == "row without alpha":
        # the packaged F table plus a copy of its first row without alpha
        payload = tables._packaged_payload()
        payload["entries"].append({k: v for k, v in payload["entries"][0].items() if k != "alpha"})
        path.write_text(json.dumps(payload))
        row = len(payload["entries"]) - 1
    elif case == "invalid JSON":
        path.write_text('{"entries": [')
    args = ("chi", "--geometry", "cp2", "--degree", "5", "--real-points", "0", "--f-table", str(path))
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {str(path)!r}: ") and message in err
    if row is not None:
        assert f"row {row}" in err


@pytest.mark.parametrize("flag", ["--f-table"])
def test_deeply_nested_table_exits_2(tmp_path, capsys, flag):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "chi", "--geometry", "cp2", "--degree", "5", "--real-points", "0", flag, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {str(path)!r}: cannot read table") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("poly", "--geometry", "cp2", "--degree", "5", "--f-table", ""),
        ("chi", "--geometry", "cp2", "--degree", "5", "--real-points", "0", "--f-table", ""),
        ("derive", "--kind", "rp2", "--beta", "e1+e2", "--f-table", ""),
    ],
)
def test_an_empty_table_path_exits_2(capsys, argv):
    # an empty path is unreadable like any other, never the packaged table
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: '': cannot read table") and err.count("\n") == 1 and "Traceback" not in err


def test_an_empty_table_dir_counts_as_unset(capsys, monkeypatch):
    monkeypatch.setenv("WELSCHINGER_TABLE_DIR", "")
    code, out, _ = run(capsys, "chi", "--geometry", "cp2", "--degree", "5", "--real-points", "0")
    assert (code, out) == (0, "64\n")


@pytest.mark.parametrize("argv", [("--beta", "foo"), ("--beta", "e0"), ("--pairs", "-1"), ("--kind", "torus2")])
def test_derive_rejects_bad_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--kind", "rp2", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[0]}" in err and "Traceback" not in err


@pytest.mark.parametrize("beta,pairs,r", [("600e1", "500", 799), ("1200e1", "1100", 1399)])
def test_derive_rejects_a_key_too_deep_to_resolve(capsys, beta, pairs, r):
    # each conjugate pair costs one reduction: the error names the asked key
    code, out, err = run(capsys, "derive", "--kind", "rp2", "--beta", beta, "--pairs", pairs)
    assert (code, out) == (3, "")
    assert err == f"missing invariant: F[rp2]_({r},{pairs})(0, {beta}) needs a chain of more than 500 reductions\n"


def test_derive_follows_a_long_chain_within_the_bound(capsys):
    # 250 pair reductions and 199 collisions reach a leaf outside the table
    code, out, err = run(capsys, "derive", "--kind", "rp2", "--beta", "300e1", "--pairs", "250")
    assert (code, out) == (3, "")
    assert err == f"missing invariant: F[rp2]_(1+{'x' * 199},0)(250e1, 50e1) is outside the derivable closure\n"


def test_derive_keeps_a_large_contact_order_as_a_miss(capsys):
    code, out, err = run(capsys, "derive", "--kind", "sphere2", "--alpha", "e10000", "--beta", "0")
    assert (code, out) == (3, "")
    assert err == "missing invariant: F[sphere2]_(19999,0)(e10000, 0) needs a chain of more than 500 reductions\n"


@pytest.mark.parametrize(
    "pairs, message",
    [
        ("1", "F[sphere2]_(19999,1)(0, e10000) needs a chain of more than 500 reductions"),
        ("3", "F[sphere2]_(19995,2)(e10000, 0) is outside the derivable closure"),
    ],
)
def test_derive_reduces_a_large_free_order_to_a_miss(capsys, pairs, message):
    code, out, err = run(capsys, "derive", "--kind", "sphere2", "--beta", "e10000", "--pairs", pairs)
    assert (code, out, err) == (3, "", f"missing invariant: {message}\n")


def test_derive_rejects_a_contact_order_beyond_the_bound():
    # a dense profile of order 10^9 would take 8 GB: the address space is
    # capped so that a parse without the bound fails fast
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    argv = [sys.executable, "-m", "welschinger.cli", "derive", "--kind", "sphere2", "--alpha", "e1000000000"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(
        "welschinger derive: error: argument --alpha: contact order 1000000000 is above the bound 10,000\n"
    )
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("poly", "--geometry", "cp2", "--degree", "5", "--real-points-max", "-2"),
        ("frontier", "--max-degree", "-1"),
    ],
)
def test_negative_bounds_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: must be >= 0" in captured.err and "Traceback" not in captured.err


def test_table_override_via_env(tmp_path, capsys, monkeypatch):
    # a relative table left in the directory would silently lose to the
    # built-in count, so it is refused, also beside an F table
    path = tmp_path / "relative_invariants.json"
    path.write_text(json.dumps({"version": 1, "entries": []}))
    monkeypatch.setenv("WELSCHINGER_TABLE_DIR", str(tmp_path))
    for f_table in (False, True):
        if f_table:
            (tmp_path / "f_invariants.json").write_text(json.dumps(tables._packaged_payload()))
        code, out, err = run(capsys, "chi", "--geometry", "quadric2", "--degree", "5", "--real-points", "1")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: the relative counts are built in and take no override\n"


@pytest.mark.parametrize("kind", ["file", "missing", "empty directory"])
def test_a_table_dir_without_tables_exits_2(tmp_path, capsys, monkeypatch, kind):
    # a typo in WELSCHINGER_TABLE_DIR must not fall back to the packaged tables
    table_dir = tmp_path / "tables"
    if kind == "file":
        table_dir.write_text("")
    elif kind == "empty directory":
        table_dir.mkdir()
    monkeypatch.setenv("WELSCHINGER_TABLE_DIR", str(table_dir))
    code, out, err = run(capsys, "chi", "--geometry", "cp2", "--degree", "5", "--real-points", "0")
    assert (code, out) == (2, "")
    assert err == (
        f"error: WELSCHINGER_TABLE_DIR={table_dir} is not a directory holding f_invariants.json\n"
    )


def test_f_table_override_via_env(tmp_path, capsys, monkeypatch):
    # an empty F table in the directory replaces the packaged one, for chi
    # and derive alike; a flag still takes precedence over the directory
    (tmp_path / "f_invariants.json").write_text(json.dumps({"entries": []}))
    monkeypatch.setenv("WELSCHINGER_TABLE_DIR", str(tmp_path))
    code, out, err = run(capsys, "derive", "--kind", "rp2", "--beta", "e1+e2")
    assert (code, out) == (3, "")
    assert err == "missing invariant: F[rp2]_(0+xxx,0)(0, e1+e2) is outside the derivable closure\n"
    code, _, err = run(capsys, "chi", "--geometry", "cp2", "--degree", "1", "--real-points", "0")
    assert code == 3 and "outside the derivable closure" in err
    path = tmp_path / "packaged.json"
    path.write_text(json.dumps(tables._packaged_payload()))
    code, out, _ = run(capsys, "derive", "--kind", "rp2", "--beta", "e1+e2", "--f-table", str(path))
    assert code == 0 and "= 24" in out.splitlines()[0]


@pytest.mark.parametrize("via", ["--f-table", "WELSCHINGER_TABLE_DIR"])
def test_an_f_table_row_its_basis_contradicts_exits_2(tmp_path, capsys, monkeypatch, via):
    # the packaged F table with its derived row F[rp2](0, e2) = 4 changed to
    # 5: the table's own basis rows derive 4, so the file is refused whole;
    # without the row, the table loads and its basis derives the value
    payload = tables._packaged_payload()
    row = next(row for row in payload["entries"] if row["kind"] == "rp2" and row["beta"] == [0, 1] and not row["alpha"])
    assert (row["value"], row["basis"]) == (4, False)
    row["value"] = 5
    path = tmp_path / "f_invariants.json"
    path.write_text(json.dumps(payload))
    argv = ("derive", "--kind", "rp2", "--beta", "e1+e2")
    if via == "--f-table":
        argv += ("--f-table", str(path))
    else:
        monkeypatch.setenv("WELSCHINGER_TABLE_DIR", str(tmp_path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {str(path)!r}: F[rp2]_(3,0)(0, e2) is 5, but the table's basis rows derive 4\n"
    payload["entries"].remove(row)
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "= 24" in out.splitlines()[0]


def test_packaged_tables_load_as_override_files(tmp_path, monkeypatch):
    # the packaged F payload, dumped to JSON, is an override file that gives
    # the built-in entries; its 17 derived rows each pass the override check
    # against its 30 basis rows
    derived = []
    value = cotangent.FInvariantEngine.value

    def counted(engine, key, order_seed=None):
        derived.append(key)
        return value(engine, key, order_seed)

    monkeypatch.setattr(cotangent.FInvariantEngine, "value", counted)
    f_path = tmp_path / "f.json"
    assert tables._packaged_payload() is not tables._packaged_payload()  # a copy per call
    f_path.write_text(json.dumps(tables._packaged_payload()))
    engine = _load_engine(build_parser().parse_args(["frontier", "--f-table", str(f_path)]))
    assert engine is not builtin_f_engine()
    assert engine._entries == builtin_f_engine()._entries and len(engine._entries) == 47
    assert len(derived) == len(set(derived)) == 17


def test_verify_exits_zero(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.count("[PASS]") == 8


def test_verify_verbose_prints_the_pinned_lines(capsys):
    # every check's name and detail line: an edit to a suite or a law shows here
    code, out, _ = run(capsys, "verify", "--verbose")
    assert code == 0
    assert out == (Path(__file__).resolve().parent / "data" / "verify_verbose.txt").read_text()


def test_verify_passes_with_asserts_stripped():
    # python -O removes assert statements; every invariant check must be a raise
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    argv = [sys.executable, "-O", "-m", "welschinger.cli", "verify"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# Fuzzing.  Every value is bounded (degrees -3..10, --max-degree <= 5) and
# junk tokens hold no digits, so that no example asks for an unbounded run.
_VALUES = {
    "--geometry": st.sampled_from(["cp2", "quadric2", "quadric3", "torus"]),
    "--degree": st.integers(-3, 10).map(str),
    "--real-points": st.integers(-3, 12).map(str),
    "--real-points-max": st.integers(-3, 12).map(str),
    "--format": st.sampled_from(["text", "json", "csv", "yaml"]),
    "--kind": st.sampled_from(["rp2", "sphere2", "sphere3", "torus"]),
    "--alpha": st.sampled_from(["0", "e1", "e2", "2e1", "e1+e2", "e0", "-e1", "e1+", "x"]),
    "--beta": st.sampled_from(["0", "e1", "e2", "3e1", "e1+e2", "2e1+e3", "e0", "x"]),
    "--pairs": st.integers(-3, 6).map(str),
    "--max-degree": st.integers(-3, 5).map(str),
    "--f-table": st.just("no-such-table.json"),
    "--ledger": st.none(),
}
_TABLES = ["--f-table"]
# (required flags, optional flags) of every subcommand but verify
_FLAGS = {
    "chi": (["--geometry", "--degree", "--real-points"], ["--format", "--ledger", *_TABLES]),
    "poly": (["--geometry", "--degree"], ["--real-points-max", "--format", *_TABLES]),
    "trees": (["--geometry", "--degree", "--real-points"], []),
    "derive": (["--kind"], ["--alpha", "--beta", "--pairs", *_TABLES]),
    "frontier": ([], ["--max-degree", *_TABLES]),
}
_JUNK = st.sampled_from(["--bogus", "-x", "", "--", "--degree", "--ledger", "verify"]) | st.text("ab+-=e ", max_size=5)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    required, optional = _FLAGS[command]
    argv = [command]
    for flag in required + (draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []):
        value = draw(_VALUES[flag])
        argv += [flag] if value is None else [flag, value]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


def _exit_code(argv) -> int:
    """main's exit code, argparse's SystemExit included; any other exception
    escapes."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_fuzzed_arguments_exit_cleanly(argv):
    assert _exit_code(argv) in {0, 2, 3}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
_FIELD = st.sampled_from(["n", "a", "b", "alpha", "beta", "kind", "r_l", "crosses", "basis", "value", "source"])
_CELL = st.integers(-3, 5) | st.lists(st.integers(-2, 3), max_size=3) | st.sampled_from(["rp2", "sphere2", "sphere3", "x"]) | st.booleans() | _JSON
_TABLE_LIKE = st.fixed_dictionaries({"entries": st.lists(st.dictionaries(_FIELD, _CELL, max_size=8), max_size=4)})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_TABLES), _JSON | _TABLE_LIKE)
def test_fuzzed_table_payloads_exit_cleanly(flag, payload):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.json"
        path.write_text(json.dumps(payload))
        argv = ["chi", "--geometry", "cp2", "--degree", "5", "--real-points", "0", flag, str(path)]
        assert _exit_code(argv) in {0, 2, 3}
