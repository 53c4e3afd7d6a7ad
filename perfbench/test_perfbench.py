"""Tests of the benchmark itself, on its smoke mode (tiny grids).

They check that every declared metric prints, that a second seed runs
cleanly, that a corrupted reference is caught as a mismatch, and that the
benchmark refuses to run without the jacksonlab sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    run = cwd / "perfbench" / "run.py"
    return subprocess.run([sys.executable, str(run), "--workload", "sharp-2d", "--smoke",
                           "--seconds", "1", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_end_to_end_metric_prints():
    out, result = last_json(bench("--trace", "0", "--seed", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    for name in ("error_frac", "mismatch_frac", "env: numpy"):
        assert name in out


def test_every_per_layer_metric_prints_on_a_second_seed():
    out, result = last_json(bench("--trace", "1", "--seed", "1"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert result["metrics"]["fft.calls"]["value"] > 0
    assert "lab.kfunc-8.9.ms" in out


def test_corrupted_reference_is_a_mismatch(tmp_path):
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    rows = reference["smoke"]["sharp-2d"]["2024"]
    rows[0][2] = repr(float(rows[0][2]) * (1.0 + 1e-9))
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    out, result = last_json(bench("--trace", "0", "--seed", "0", "--reference", str(corrupted)))
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert "mismatch_frac" in out and "00-kfunc-8.9: got" in out


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
