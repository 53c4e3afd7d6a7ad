"""tools/compare_reports.py: how far two sets of reports are apart."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
_SPEC = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)


def write_report(root, stem, verdict, constant, table, params=None):
    root.mkdir(parents=True, exist_ok=True)
    report = {"params": params or {}, "verdict": verdict, "constant": constant, "table": table}
    (root / f"{stem}.json").write_text(json.dumps(report))
    (root / f"{stem}.csv").write_text("\n".join(",".join(map(repr, row)) for row in table))


@pytest.mark.parametrize("b_constant,b_verdict,status", [
    (1.0 + 2e-16, "pass", 0),  # an ulp is inside the 1e-12 rule
    (1.0 + 1e-11, "pass", 1),
    (1.0, "fail", 1),
    (math.nan, "pass", 1),
])
def test_compare_reports_gates_verdicts_and_constants(tmp_path, capsys, b_constant, b_verdict,
                                                      status):
    table = [[0, 0.5, 2.0, 0.25], [1, 0.25, 1.0, 0.25]]
    write_report(tmp_path / "a" / "w" / "0", "00-c", "pass", 1.0, table)
    write_report(tmp_path / "b" / "w" / "0", "00-c", b_verdict, b_constant,
                 [[0, 0.5, 2.0, 0.25], [1, 0.25, 1.0, 0.25 * (1 + 4e-16)]])
    assert compare_reports.main([str(tmp_path / "a"), str(tmp_path / "b")]) == status
    line = capsys.readouterr().out.strip()
    assert line.startswith("w/0/00-c  verdict ")
    assert ("verdict same" in line) == (b_verdict == "pass")
    assert "rows 4.44e-16" in line and line.endswith("csv changed  params same")


def test_compare_reports_names_a_report_on_one_side(tmp_path, capsys):
    write_report(tmp_path / "a", "00-c", "pass", 1.0, [[0, 1.0]])
    write_report(tmp_path / "a", "01-d", "pass", 1.0, [[0, 1.0]])
    write_report(tmp_path / "b", "00-c", "pass", 1.0, [[0, 1.0]])
    assert compare_reports.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["00-c  verdict same  constant 0  rows 0  csv same  params same",
                   "01-d  only in A"]


def test_compare_reports_names_the_params_that_differ(tmp_path, capsys):
    # a changed record is reported by its top-level name and leaves the exit status alone
    norm = {"norm": "lp", "p": 2.0, "s": 2.0}
    write_report(tmp_path / "a", "00-c", "pass", 1.0, [[0, 1.0]],
                 {"N": 64, "norm": {**norm, "q": 2.0}, "phi": {"kind": "zygmund", "c1": 1.0}})
    write_report(tmp_path / "b", "00-c", "pass", 1.0, [[0, 1.0]],
                 {"N": 64, "norm": norm, "phi": {"kind": "zygmund"}, "r": 1})
    assert compare_reports.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "00-c  verdict same  constant 0  rows 0  csv same  params changed: norm, phi, r"]


def test_relative_move():
    assert compare_reports.relative_move(2.0, 2.0) == 0.0
    assert compare_reports.relative_move(math.nan, math.nan) == 0.0
    assert compare_reports.relative_move(1.0, math.inf) == math.inf
    assert compare_reports.relative_move(-1.0, 1.0) == 2.0
    assert compare_reports.row_move([[1.0]], [[1.0], [2.0]]) == math.inf
