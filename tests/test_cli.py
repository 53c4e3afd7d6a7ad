"""Command-line interface: listing, describing, batch runs, and exit codes."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from jacksonlab import NormSpec, lab, registry_ids
from jacksonlab.cli import main

ROOT = Path(__file__).resolve().parent.parent

BASE_CONFIG = {
    "checks": [
        {"id": "basic-2.1", "params": {"m": 1.0}},
        {"id": "orlicz-sandwich"},
        {"id": "jackson-5.10"},
    ],
    "N": 64,
    "seed": 7,
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("argv", [["--list"], ["describe", "basic-2.1"]])
def test_listing_into_a_closed_pipe_ends_quietly(argv, monkeypatch, capsys):
    # a pipe whose reader has gone away: every write raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_list_prints_every_check(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == len(registry_ids())
    assert out[0].startswith("basic-2.1:")


def test_describe_ok_and_unknown(capsys):
    assert main(["describe", "cesaro-5.1"]) == 0
    assert "contraction" in capsys.readouterr().out
    assert main(["describe", "jackson-99"]) == 2
    assert "jackson-99" in capsys.readouterr().err


def test_run_writes_reports_and_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE_CONFIG, out=str(tmp_path / "rep")))
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "3/3 checks passed" in out
    rep = tmp_path / "rep"
    names = sorted(p.name for p in rep.iterdir())
    assert names == ["00-basic-2.1.csv", "00-basic-2.1.json",
                     "01-orlicz-sandwich.csv", "01-orlicz-sandwich.json",
                     "02-jackson-5.10.csv", "02-jackson-5.10.json",
                     "summary.csv"]
    summary = (rep / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == "id,verdict,constant,runtime_ms"
    assert len(summary) == 4
    report = json.loads((rep / "00-basic-2.1.json").read_text())
    assert report["verdict"] == "pass"
    csv_text = (rep / "00-basic-2.1.csv").read_text()
    assert csv_text.startswith("index,lhs,rhs,ratio\n")


def test_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("00-basic-2.1.csv", "01-orlicz-sandwich.csv",
                 "02-jackson-5.10.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    # summary matches once the wall-clock column is dropped
    trim = lambda p: ["," .join(line.split(",")[:3])
                      for line in p.read_text().strip().split("\n")]
    assert trim(tmp_path / "a" / "summary.csv") == trim(tmp_path / "b" / "summary.csv")


def test_threaded_run_matches_serial(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["run", cfg, "--out", str(tmp_path / "serial")]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "par"), "--jobs", "3"]) == 0
    for name in ("00-basic-2.1.csv", "01-orlicz-sandwich.csv",
                 "02-jackson-5.10.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "par" / name).read_bytes()


def test_full_batch_is_byte_identical_across_jobs(tmp_path):
    # the c9 acceptance batch; its checks share the frequency caches across threads
    ids = ("basic-2.1", "jackson-1.4", "jackson-4.8", "jackson-4.9", "jackson-5.9",
           "jackson-5.10", "entire-4.12", "cesaro-5.1", "averaged-7.3", "semigroup-7.4",
           "shift-7.5", "kfunc-8.9", "jackson-8.10", "lower-8.12", "orlicz-sandwich")
    config = {"checks": [{"id": cid} for cid in ids], "N": 128, "seed": 2024}
    cfg = write_config(tmp_path, config)
    assert main(["run", cfg, "--out", str(tmp_path / "one"), "--jobs", "1"]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "two"), "--jobs", "2"]) == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir()
                   if p.suffix == ".csv" and p.name != "summary.csv")
    assert len(names) == 15
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes(), name


def test_young_norm_batch_is_byte_identical_across_jobs_and_runs(tmp_path):
    # the Luxemburg moduli take the pruned sup; rows left out must never change a byte
    norm = {"norm": "luxemburg", "phi": {"kind": "zygmund", "params": [2.0, 0.5]}}
    ids = ("jackson-1.4", "semigroup-7.4", "shift-7.5")
    config = {"checks": [{"id": cid, "params": {"norm": norm}} for cid in ids],
              "N": 256, "seed": 2024}
    cfg = write_config(tmp_path, config)
    runs = (("one", "1"), ("two", "2"), ("again", "2"))
    for out, jobs in runs:
        assert main(["run", cfg, "--out", str(tmp_path / out), "--jobs", jobs]) == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir()
                   if p.suffix == ".csv" and p.name != "summary.csv")
    assert len(names) == 3
    for name in names:
        first = (tmp_path / "one" / name).read_bytes()
        for out, _ in runs[1:]:
            assert (tmp_path / out / name).read_bytes() == first, (out, name)


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["run", cfg, "--out", str(tmp_path / "s7")]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "s8"), "--seed", "8"]) == 0
    # the random family member depends on the spawned seeds
    a = (tmp_path / "s7" / "02-jackson-5.10.csv").read_bytes()
    b = (tmp_path / "s8" / "02-jackson-5.10.csv").read_bytes()
    assert a != b


def test_failing_check_exits_one(tmp_path, capsys):
    config = {"checks": [{"id": "basic-2.1", "params": {"m": 4.0}}], "N": 64,
              "out": str(tmp_path / "rep")}
    cfg = write_config(tmp_path, config)
    assert main(["run", cfg]) == 1
    assert "fail" in capsys.readouterr().out


def test_config_validation_exit_codes(tmp_path, capsys, monkeypatch):
    cases = [
        ({"checks": [{"id": "jackson-99"}]}, "jackson-99"),
        ({"checks": []}, "checks"),
        ({"checks": [{"params": {}}]}, "checks[0]"),
        ({"checks": [{"id": "basic-2.1"}], "N": 4}, "'N'"),
        ({"checks": [{"id": "basic-2.1"}], "seed": "x"}, "'seed'"),
        ({"checks": [{"id": "basic-2.1"}], "formats": ["xml"]}, "'formats'"),
        ([1, 2], "top level"),
        # sample counts are checked before any check runs
        ({"checks": [{"id": "basic-2.1"}, {"id": "lower-8.12", "params": {"radii": 0}}]},
         "'checks[1].params.radii': must be an integer >= 1, got 0"),
        ({"checks": [{"id": "jackson-1.4", "params": {"directions": 2.5}}]},
         "'checks[0].params.directions'"),
        ({"checks": [{"id": "averaged-7.3", "params": {"points": "8"}}]},
         "'checks[0].params.points'"),
        ({"checks": [{"id": "averaged-7.3", "params": {"quad_points": True}}]},
         "'checks[0].params.quad_points'"),
        # a param the check does not read is rejected by name before any check runs
        ({"checks": [{"id": "jackson-1.4", "params": {"n_ragne": [1, 4]}}]},
         "'checks[0].params.n_ragne': jackson-1.4 reads no such param"),
        ({"checks": [{"id": "lower-8.12"}, {"id": "basic-2.1", "params": {"n_range": [1, 4]}}]},
         "'checks[1].params.n_range'"),
        ({"checks": [{"id": "basic-2.1", "params": {"t": 0.3}}]}, "'checks[0].params.t'"),
        ({"checks": [{"id": "cesaro-5.1", "params": {"size": 64}}]}, "'checks[0].params.size'"),
        # integer params are never truncated, and the last index L of basic-2.1 is >= 0
        ({"checks": [{"id": "basic-2.1", "params": {"r": 1.5}}]},
         "'checks[0].params.r': must be an integer >= 1, got 1.5"),
        ({"checks": [{"id": "basic-2.1", "params": {"N": 32.9}}]}, "'checks[0].params.N'"),
        ({"checks": [{"id": "basic-2.1", "params": {"L": 2.5}}]}, "'checks[0].params.L'"),
        ({"checks": [{"id": "basic-2.1", "params": {"L": True}}]}, "'checks[0].params.L'"),
        ({"checks": [{"id": "orlicz-sandwich"}, {"id": "basic-2.1", "params": {"L": -1}}]},
         "'checks[1].params.L': must be an integer >= 0, got -1"),
        ({"checks": [{"id": "jackson-1.4", "params": {"n_range": [1, "4"]}}]},
         "'checks[0].params.n_range'"),
        ({"checks": [{"id": "basic-2.1"}], "seed": True}, "'seed'"),
        ({"checks": [{"id": "basic-2.1"}], "seed": 1.0}, "'seed'"),
        # out-of-range integers are rejected before any work, under the same rule at both levels
        ({"checks": [{"id": "basic-2.1"}], "seed": -1}, "'seed': must be an integer >= 0, got -1"),
        ({"checks": [{"id": "basic-2.1"}], "N": 34.0}, "'N': must be an even integer >= 8"),
        ({"checks": [{"id": "basic-2.1"}], "N": 33}, "'N': must be an even integer >= 8, got 33"),
        ({"checks": [{"id": "basic-2.1", "params": {"seed": -5}}]},
         "'checks[0].params.seed': must be an integer >= 0, got -5"),
        ({"checks": [{"id": "basic-2.1", "params": {"r": 0}}]},
         "'checks[0].params.r': must be an integer >= 1, got 0"),
        ({"checks": [{"id": "basic-2.1", "params": {"N": 4}}]},
         "'checks[0].params.N': must be an even integer >= 8, got 4"),
        ({"checks": [{"id": "basic-2.1", "params": {"N": 31}}]}, "'checks[0].params.N'"),
        ({"checks": [{"id": "basic-2.1", "params": {"d": 3}}]},
         "'checks[0].params.d': must be an integer from 1 to 2, got 3"),
        ({"checks": [{"id": "kfunc-8.9", "params": {"ell": 0}}]},
         "'checks[0].params.ell': must be an integer >= 1, got 0"),
        ({"checks": [{"id": "cesaro-5.1", "params": {"n": -1}}]},
         "'checks[0].params.n': must be an integer >= 0, got -1"),
        ({"checks": [{"id": "entire-4.12", "params": {"lambda_power_max": -1}}]},
         "'checks[0].params.lambda_power_max': must be an integer from 0 to 511, got -1"),
    ]
    # a broken `require` rule or choice param of the second check stops the batch
    # before the first check writes its report
    second_checks = (
        ({"id": "kfunc-8.9", "params": {"r": 3}},
         "'checks[1].params.r': need 2*ell > r, got ell=1, r=3"),
        ({"id": "jackson-5.9", "params": {"d": 2}}, "'checks[1].params.d': the abel"),
        ({"id": "jackson-5.10", "params": {"d": 2}}, "'checks[1].params.d': the abel"),
        ({"id": "cesaro-5.1", "params": {"d": 2}},
         "'checks[1].params.d': cesaro means run on 1-d grids, got d=2"),
        ({"id": "kfunc-8.9", "params": {"route": "spehre"}},
         "'checks[1].params.route': must be one of realization, heat, sphere, got 'spehre'"),
        ({"id": "semigroup-7.4", "params": {"semigroup": "poisson"}},
         "'checks[1].params.semigroup': must be one of shift, heat, abel, got 'poisson'"),
        ({"id": "kfunc-8.9", "params": {"route": "sphere", "d": 1}},
         "'checks[1].params.route': the sphere route runs on 2-d grids, got d=1"),
        # a record or range the converter cannot look into is refused by name
        ({"id": "jackson-1.4", "params": {"n_range": [1]}},
         "'checks[1].params.n_range': must be two integers [lo, hi] with lo <= hi, got [1]"),
        ({"id": "jackson-1.4", "params": {"n_range": {"a": 1}}}, "'checks[1].params.n_range'"),
        ({"id": "jackson-1.4", "params": {"norm": {"norm": "luxemburg", "phi": {}}}},
         "'checks[1].params.norm': missing field 'kind'"),
        ({"id": "cesaro-5.1", "params": {"phi": {"params": [2, 0.5]}}},
         "'checks[1].params.phi': missing field 'kind'"),
        ({"id": "jackson-1.4", "params": {"f": {"N": 8}}},
         "'checks[1].params.f': missing field 'samples'"),
        # values a run cannot use
        ({"id": "jackson-1.4", "params": {"s": 0}},
         "'checks[1].params.s': convexity exponent s must be finite and >= 2, got 0"),
        ({"id": "jackson-1.4", "params": {"s": "3"}},
         "'checks[1].params.s': convexity exponent s must be finite and >= 2, got '3'"),
        ({"id": "jackson-1.4", "params": {"n_range": [5, 1]}},
         "'checks[1].params.n_range': must be two integers [lo, hi] with lo <= hi, got [5, 1]"),
        ({"id": "jackson-1.4", "params": {"family": "random"}},
         "'checks[1].params.family': must be a nonempty list of member names, got 'random'"),
        ({"id": "jackson-1.4", "params": {"family": ["cos", "sine"]}},
         "'checks[1].params.family': must be one of cos, abs-sin, sawtooth8, random, got 'sine'"),
        ({"id": "jackson-1.4", "params": {"norm": {"norm": "lp", "p": math.nan, "s": 2}}},
         "'checks[1].params.norm': exponent must be >= 1, got nan"),
        ({"id": "jackson-1.4", "params": {"norm": {"norm": "lp", "p": True}}},
         "'checks[1].params.norm': exponent must be >= 1, got True"),
        # float params are finite real numbers, never bools or strings
        ({"id": "basic-2.1", "params": {"m": -1}},
         "'checks[1].params.m': must be a finite number >= 0, got -1"),
        ({"id": "basic-2.1", "params": {"h": math.nan}},
         "'checks[1].params.h': must be a finite number, got nan"),
        ({"id": "basic-2.1", "params": {"tol": "0.02"}}, "'checks[1].params.tol'"),
        ({"id": "basic-2.1", "params": {"spread_bound": True}},
         "'checks[1].params.spread_bound': must be a finite number, got True"),
        ({"id": "jackson-1.4", "params": {"spread_bound": math.nan}},
         "'checks[1].params.spread_bound'"),
        ({"id": "orlicz-sandwich", "params": {"slack": "0.3"}}, "'checks[1].params.slack'"),
        ({"id": "averaged-7.3", "params": {"t_grid": "12"}},
         "'checks[1].params.t_grid': must be a nonempty list of finite numbers, got '12'"),
        ({"id": "averaged-7.3", "params": {"t_grid": []}}, "'checks[1].params.t_grid'"),
        ({"id": "averaged-7.3", "params": {"t_grid": [0.5, math.inf]}},
         "'checks[1].params.t_grid': must be a finite number, got inf"),
        # scales and base steps whose rows can only be 0/0
        ({"id": "averaged-7.3", "params": {"t_grid": [-1.0, 0.5, 1.0]}},
         "'checks[1].params.t_grid': every scale t must be > 0, got [-1.0, 0.5, 1.0]"),
        ({"id": "averaged-7.3", "params": {"t_grid": [-1.0, 0.0]}},
         "'checks[1].params.t_grid': every scale t must be > 0, got [-1.0, 0.0]"),
        ({"id": "basic-2.1", "params": {"h": 0.0}},
         "'checks[1].params.h': the base step must be nonzero, got h=0.0"),
        ({"id": "basic-2.1", "params": {"h": -0.3, "semigroup": "heat"}},
         "'checks[1].params.h': the heat semigroup takes a time h > 0, got h=-0.3"),
        # scales 2^(+-n), 2^j h and weights 2^(-jrs) that overflow or underflow
        ({"id": "jackson-1.4", "params": {"n_range": [1, 1100], "family": ["cos"]}},
         "'checks[1].params.n_range': the scale 2^-1100 is not a normal float"),
        ({"id": "jackson-1.4", "params": {"n_range": [1000, 1000]}},
         "'checks[1].params.n_range': the weight 2^(-999*1*2) is not a normal float"),
        ({"id": "jackson-4.8", "params": {"n_range": [-1100, -1099]}},
         "'checks[1].params.n_range': the scale 2^1100 is not a normal float"),
        ({"id": "basic-2.1", "params": {"L": 1100}},
         "'checks[1].params.L': the factor 2^1100 is not a normal float"),
        ({"id": "basic-2.1", "params": {"h": 1e308}},
         "'checks[1].params.h': the step 2^10 * h is not a normal float"),
        # shift phases N/2 * 2^j t that overflow where the steps 2^j t do not
        ({"id": "basic-2.1", "params": {"N": 16, "family": ["cos"], "h": 2.0 ** 1013}},
         "'checks[1].params.h': the phase N/2 * 2^10 * h is not a normal float"),
        ({"id": "lower-8.12", "params": {"N": 1024, "n_range": [-1015, -1015],
                                         "family": ["cos"]}},
         "'checks[1].params.n_range': the phase N/2 * 2^1015 is not a normal float"),
        # averaged-7.3's midpoints t(i + 1/2)/quad_points and shift phases N/2 * t
        ({"id": "averaged-7.3", "params": {"N": 16, "family": ["cos"], "t_grid": [2.0 ** 1020]}},
         "'checks[1].params.t_grid': every midpoint t(i + 1/2)/quad_points must be a finite "
         "float, got [1.1235582092889474e+307]"),
        ({"id": "averaged-7.3", "params": {"N": 32, "family": ["cos"], "t_grid": [2.0 ** 1020],
                                           "quad_points": 1}},
         "'checks[1].params.t_grid': every shift phase N/2 * t must be a finite float"),
        # the sums over j = 0..n-1 of jackson-1.4 and j = 1..n of jackson-5.10 are empty at n <= 0
        ({"id": "jackson-1.4", "params": {"N": 32, "n_range": [-2, 3], "family": ["cos"]}},
         "'checks[1].params.n_range': the sum over j is empty at n=-2"),
        ({"id": "jackson-5.10", "params": {"N": 32, "n_range": [-2, 3], "family": ["random"]}},
         "'checks[1].params.n_range': the sum over j is empty at n=-2"),
        ({"id": "entire-4.12", "params": {"lambda_power_max": 1100}},
         "'checks[1].params.lambda_power_max': must be an integer from 0 to 511, got 1100"),
        # a Young record holding NaN or Infinity (json.loads reads both) is refused where
        # the Young function is built
        ({"id": "orlicz-sandwich", "params": {"phi": {"kind": "zygmund",
                                                      "params": [2.0, math.nan]}}},
         "'checks[1].params.phi': zygmund parameter must be a finite number, got nan"),
        ({"id": "cesaro-5.1", "params": {"phi": {"kind": "power", "params": [math.inf]}}},
         "'checks[1].params.phi': power parameter must be a finite number, got inf"),
        ({"id": "orlicz-sandwich", "params": {"phi": {
            "kind": "patched:zygmund", "params": [2.0, 0.5, math.nan],
            "breakpoints": [0.2, 5.0], "c1": 1.0, "c2": 0.0}}},
         "'checks[1].params.phi': convexity exponent s must be finite and >= 2, got nan"),
        ({"id": "orlicz-sandwich", "params": {"phi": {"kind": "conjugate:power",
                                                      "params": [3.0, 1000.0, math.inf]}}},
         "'checks[1].params.phi': resolution must be an integer >= 2, got inf"),
        ({"id": "jackson-1.4", "params": {"norm": {"norm": "luxemburg", "phi": {
            "kind": "zygmund", "params": [2.0, math.inf]}}}},
         "'checks[1].params.norm': zygmund parameter must be a finite number, got inf"),
        ({"id": "jackson-4.8", "params": {"norm": {"norm": "orlicz", "phi": {
            "kind": "two_power", "params": [math.nan, 3.0]}}}},
         "'checks[1].params.norm': two_power parameter must be a finite number, got nan"),
    )
    out = str(tmp_path / "rep")
    cases += [({"checks": [{"id": "basic-2.1"}, second], "out": out}, needle)
              for second, needle in second_checks]
    for config, needle in cases:
        cfg = write_config(tmp_path, config)
        assert main(["run", cfg]) == 2
        assert needle in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()
    # the --seed override takes the rule of the config's seed
    cfg = write_config(tmp_path, {"checks": [{"id": "basic-2.1"}], "N": 32})
    assert main(["run", cfg, "--seed", "-1"]) == 2
    assert "config field 'seed': must be an integer >= 0, got -1" in capsys.readouterr().err
    # an output path that cannot be a directory is refused before any check runs
    afile = tmp_path / "afile"
    afile.write_text("")
    monkeypatch.setattr(lab, "run_check", lambda *a: pytest.fail("a check ran"))
    for out, error in ((afile, "FileExistsError"), (afile / "sub", "NotADirectoryError")):
        cfg = write_config(tmp_path, {"checks": [{"id": "basic-2.1"}], "N": 32, "out": str(out)})
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith("config field 'out': ")
        cfg = write_config(tmp_path, {"checks": [{"id": "basic-2.1"}], "N": 32})
        assert main(["run", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config field 'out': ") and error not in err
    assert afile.read_text() == ""


def test_norm_records_with_unread_fields_exit_two_before_any_report(tmp_path, capsys):
    zygmund = {"kind": "zygmund", "params": [2.0, 0.5]}
    records = [({"norm": "lp", "p": 4.0, key: 1.5}, key) for key in ("q", "m", "M", "label")]
    records += [({"variant": "lp", "p": 4.0}, "variant"),
                ({"norm": "luxemburg", "phi": zygmund, "p": 2.0}, "p"),
                ({"norm": "orlicz", "phi": zygmund, "sd": 3.0}, "sd"),
                ({"norm": "lp", "p": 4.0, "phi": zygmund}, "phi")]
    out = tmp_path / "rep"
    for norm, key in records:
        config = {"checks": [{"id": "basic-2.1"}, {"id": "jackson-1.4", "params": {"norm": norm}}],
                  "N": 32, "out": str(out)}
        assert main(["run", write_config(tmp_path, config)]) == 2
        err = capsys.readouterr().err
        assert f"'checks[1].params.norm': unknown field '{key}'" in err, err
    assert not out.exists()


def test_every_workload_report_records_a_norm_that_parses_back(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    seen = 0
    for name in bench.WORKLOADS:
        run = bench.workload_spec(name, 0, True)
        out = tmp_path / name
        cfg = write_config(tmp_path, run["config"])
        assert main(["run", cfg, "--out", str(out), "--jobs", str(run["jobs"])]) in (0, 1)
        for k, entry in enumerate(run["config"]["checks"]):
            report = json.loads((out / f"{k:02d}-{entry['id']}.json").read_text())
            if "norm" not in report["params"]:
                continue
            record = report["params"]["norm"]
            norm = NormSpec.from_json(record)
            assert norm == NormSpec.from_json(entry.get("params", {}).get("norm", {}))
            assert norm.to_json() == record
            seen += 1
    capsys.readouterr()
    assert seen >= 20


def test_jobs_below_one_is_refused_before_any_report(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE_CONFIG, out=str(tmp_path / "rep")))
    for jobs in ("0", "-2"):
        assert main(["run", cfg, "--jobs", jobs]) == 2
        assert f"'--jobs': must be an integer >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_missing_and_malformed_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_bad_param_value_is_a_config_error(tmp_path, capsys):
    config = {"checks": [{"id": "kfunc-8.9", "params": {"r": 5, "ell": 1, "d": 1}}],
              "N": 32, "out": str(tmp_path / "rep")}
    cfg = write_config(tmp_path, config)
    assert main(["run", cfg]) == 2
    assert "ell" in capsys.readouterr().err


def test_bad_param_names_the_check_and_keeps_other_reports(tmp_path, capsys):
    # only the run sees that cesaro-5.1's default degree n=16 is too large for N=32
    config = {"checks": [{"id": "basic-2.1", "params": {"m": 1.0}},
                         {"id": "cesaro-5.1"},
                         {"id": "orlicz-sandwich"}],
              "N": 32, "out": str(tmp_path / "rep")}
    cfg = write_config(tmp_path, config)
    for jobs in ("1", "2"):
        assert main(["run", cfg, "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config field 'checks': checks[1] (cesaro-5.1): ")
        assert "degree 16 too large for grid size 32" in err
        names = sorted(p.name for p in (tmp_path / "rep").iterdir())
        assert names == ["00-basic-2.1.csv", "00-basic-2.1.json",
                         "02-orlicz-sandwich.csv", "02-orlicz-sandwich.json", "summary.csv"]
        summary = (tmp_path / "rep" / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == ["basic-2.1", "orlicz-sandwich"]


def test_unexpected_error_propagates_under_every_jobs_count(tmp_path, monkeypatch):
    # not a ValueError: the earliest failing check's error leaves main, and no report is written
    run_check = lab.run_check

    def run_or_raise(cid, params):
        if cid in ("orlicz-sandwich", "jackson-5.10"):
            raise RuntimeError(cid)
        return run_check(cid, params)

    monkeypatch.setattr(lab, "run_check", run_or_raise)
    cfg = write_config(tmp_path, BASE_CONFIG)
    for jobs in ("1", "2"):
        out = tmp_path / f"rep{jobs}"
        with pytest.raises(RuntimeError, match="^orlicz-sandwich$"):
            main(["run", cfg, "--out", str(out), "--jobs", jobs])
        assert list(out.iterdir()) == []


def test_threads_take_no_check_after_an_unexpected_error(tmp_path, monkeypatch):
    # checks[0] raises once checks[1] may have started; checks[1] returns only after the
    # thread of checks[0] has recorded the error and gone, so neither thread may take k >= 2
    config = dict(BASE_CONFIG, checks=BASE_CONFIG["checks"] + [{"id": "cesaro-5.1"}])
    ids = [entry["id"] for entry in config["checks"]]
    cfg = write_config(tmp_path, config)
    run_check = lab.run_check
    for jobs in ("1", "2"):
        started, first = [], []
        raised = threading.Event()

        def ordered(cid, params):
            started.append(ids.index(cid))
            if cid == ids[0]:
                first.append(threading.current_thread())
                raised.set()
                raise RuntimeError(cid)
            if cid == ids[1]:
                assert raised.wait(timeout=60)
                first[0].join(timeout=60)
                assert not first[0].is_alive()
            return run_check(cid, params)

        monkeypatch.setattr(lab, "run_check", ordered)
        out = tmp_path / f"rep{jobs}"
        with pytest.raises(RuntimeError, match=f"^{ids[0]}$"):
            main(["run", cfg, "--out", str(out), "--jobs", jobs])
        assert started[0] == 0 and max(started) <= 1
        assert list(out.iterdir()) == []


def test_threads_are_bounded_by_the_checks_and_all_joined(tmp_path, monkeypatch):
    started, ran_on = [], set()

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    run_check = lab.run_check

    def recording(cid, params):
        ran_on.add(threading.get_ident())
        return run_check(cid, params)

    monkeypatch.setattr(threading, "Thread", Counted)
    monkeypatch.setattr(lab, "run_check", recording)
    config = dict(BASE_CONFIG, checks=BASE_CONFIG["checks"][:2])
    cfg = write_config(tmp_path, config)
    before = threading.active_count()
    assert main(["run", cfg, "--out", str(tmp_path / "rep"), "--jobs", "8"]) == 0
    assert 1 <= len(started) <= 2
    assert threading.get_ident() not in ran_on and len(ran_on) <= 2
    assert not any(thread.is_alive() for thread in started)
    assert threading.active_count() == before


def test_a_cold_batch_imports_neither_numpy_ma_nor_a_thread_pool(tmp_path):
    # a fresh interpreter, since pytest itself imports logging; the Luxemburg
    # jackson-1.4 takes the Young-norm moduli table.  The records are plain
    # classes, and numpy, json, argparse and pathlib load no dataclasses
    luxemburg = {"norm": "luxemburg", "phi": {"kind": "zygmund", "params": [2.0, 0.5]}}
    config = dict(BASE_CONFIG, checks=BASE_CONFIG["checks"] + [
        {"id": "jackson-1.4", "params": {"norm": luxemburg, "n_range": [1, 4]}}])
    cfg = write_config(tmp_path, config)
    src = os.path.dirname(os.path.dirname(lab.__file__))
    script = (
        "import sys\n"
        "from jacksonlab.cli import main\n"
        "for jobs in ('1', '2'):\n"
        f"    assert main(['run', {cfg!r}, '--out', {str(tmp_path / 'rep')!r} + jobs,\n"
        "                 '--jobs', jobs]) == 0\n"
        "print(sorted(m for m in ('numpy.ma', 'concurrent.futures', 'logging', 'statistics',\n"
        "                         'dataclasses') if m in sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert "4/4 checks passed" in done.stdout


def test_no_arguments_prints_help(capsys):
    assert main([]) == 0
    assert "jacksonlab" in capsys.readouterr().out


@pytest.mark.parametrize("config, message", [
    ({"checks": [{"id": "basic-2.1", "params": [1.0]}], "N": 32},
     "config field 'checks[0].params': must be an object"),
    ({"checks": [{"id": "basic-2.1"}], "N": 32, "out": ""},
     "config field 'out': must be a non-empty path, got ''"),
    # a bare id is an entry without params, and runs
    ({"checks": ["basic-2.1"], "N": 32}, None),
])
def test_config_entries_and_out_are_checked(tmp_path, capsys, config, message):
    out = tmp_path / "rep"
    status = main(["run", write_config(tmp_path, config)] + (["--out", str(out)] * (not message)))
    err = capsys.readouterr().err
    if message is None:
        assert status == 0 and err == ""
        assert json.loads((out / "00-basic-2.1.json").read_text())["id"] == "basic-2.1"
    else:
        assert status == 2 and message in err
        assert not out.exists()
