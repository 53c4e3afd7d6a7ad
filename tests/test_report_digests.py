"""tools/report_digests.py: one digest per report, blind to its run time only."""

import importlib.util
import json
import shutil
from pathlib import Path

from jacksonlab.cli import main

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
_SPEC = importlib.util.spec_from_file_location("report_digests", _PATH)
report_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_digests)


def _reports(tmp_path):
    """Reports of a small two-check run, and a copy of them to edit."""
    a, b = tmp_path / "a", tmp_path / "b"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"checks": [{"id": "basic-2.1"}, {"id": "orlicz-sandwich"}],
                                  "N": 16, "out": str(a)}))
    assert main(["run", str(config)]) == 0
    shutil.copytree(a, b)
    return a, b


def _edit_json(path, **fields):
    data = json.loads(path.read_text())
    data.update(fields)
    path.write_text(json.dumps(data, indent=2) + "\n")


def test_digests_ignore_run_times_and_the_summary(tmp_path):
    a, b = _reports(tmp_path)
    for report in b.glob("*.json"):
        _edit_json(report, runtime_ms=json.loads(report.read_text())["runtime_ms"] + 1234.5)
    (b / "summary.csv").write_text("id,verdict,constant,runtime_ms\nanything\n")
    digests = report_digests.report_digests(a)
    assert sorted(digests) == ["00-basic-2.1", "01-orlicz-sandwich"]
    assert report_digests.report_digests(b) == digests


def test_digests_see_one_csv_byte_and_one_json_field(tmp_path):
    a, b = _reports(tmp_path)
    digests = report_digests.report_digests(a)
    csv = b / "00-basic-2.1.csv"
    text = csv.read_bytes()
    csv.write_bytes(text[:-2] + bytes([text[-2] ^ 1]) + text[-1:])
    changed = report_digests.report_digests(b)
    assert changed["00-basic-2.1"] != digests["00-basic-2.1"]
    assert changed["01-orlicz-sandwich"] == digests["01-orlicz-sandwich"]
    _edit_json(b / "01-orlicz-sandwich.json", seed=7)
    changed = report_digests.report_digests(b)
    assert changed["01-orlicz-sandwich"] != digests["01-orlicz-sandwich"]
