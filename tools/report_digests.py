"""One sha256 per report of the perfbench workloads, for byte-identity gates.

    python3 tools/report_digests.py [--seeds 0 1 2 3] [--jobs N] [--keep DIR]

Run from anywhere; the checkout is the one this file sits in.  For every
workload and seed it builds the run configuration with perfbench/run.py's
`workload_spec` (imported, never changed), runs it through
``python -m jacksonlab run`` with the spec's --jobs count (or --jobs) in a
fresh process that imports jacksonlab from this checkout's src/, and prints
one line per report:

    <workload> <seed> <report stem> <sha256>

The digest covers the JSON report without `runtime_ms` followed by the CSV
report.  summary.csv holds run times and is left out.  A workload with a
dual bound (orlicz-1d) adds the line `<workload> <seed> dual-bound <sha256>`:
perfbench/worker.py's `_dual_bound` (imported, never changed) runs in a
fresh process and the digest covers the CSV with its value.  Two checkouts give
the same reports exactly when their outputs are equal, so a byte-identity
gate is

    python3 old/tools/report_digests.py > old.txt
    python3 new/tools/report_digests.py > new.txt
    diff old.txt new.txt

With --keep DIR the reports of each run stay in DIR/<workload>/<seed>/, so
that `tools/compare_reports.py` can say how far two checkouts' reports are
apart, not only that they differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _perfbench():
    """perfbench/run.py as a module, loaded by path so that nothing is added to it."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_digests(out):
    """{report stem: sha256 of its JSON without runtime_ms, then its CSV} for the reports in `out`."""
    digests = {}
    for report in sorted(out.glob("*.json")):
        data = json.loads(report.read_text())
        del data["runtime_ms"]
        digest = hashlib.sha256(json.dumps(data, indent=2).encode())
        digest.update(report.with_suffix(".csv").read_bytes())
        digests[report.stem] = digest.hexdigest()
    return digests


def run_workload(spec, jobs, scratch):
    """Run one configuration through `jacksonlab run`; returns the directory of its reports."""
    config, out = scratch / "config.json", scratch / "reports"
    config.write_text(json.dumps(spec["config"], indent=1) + "\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "jacksonlab", "run", str(config),
                           "--jobs", str(jobs), "--out", str(out)],
                          env=env, capture_output=True, text=True)
    # exit 1 means a check failed, which its report says; anything else is an error
    if proc.returncode not in (0, 1):
        raise SystemExit(f"jacksonlab run exited {proc.returncode}: {proc.stderr.strip()}")
    return out


def run_dual_bound(params, out):
    """perfbench worker's `_dual_bound` call with `params`, in a fresh process; its CSV's sha256."""
    code = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "import jacksonlab, worker; "
            "worker._dual_bound(jacksonlab, json.loads(sys.argv[2]), Path(sys.argv[3]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                           json.dumps(params), str(out)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the dual bound exited {proc.returncode}: {proc.stderr.strip()}")
    return hashlib.sha256((out / "dual-bound.csv").read_bytes()).hexdigest()


def main(argv=None):
    bench = _perfbench()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker threads of every run (default: the workload's own)")
    parser.add_argument("--keep", type=Path, default=None,
                        help="keep the reports in KEEP/<workload>/<seed>/")
    args = parser.parse_args(argv)
    for name in bench.WORKLOADS:
        for seed in args.seeds:
            spec = bench.workload_spec(name, seed, False)
            with tempfile.TemporaryDirectory() as scratch:
                out = run_workload(spec, args.jobs or spec["jobs"], Path(scratch))
                for stem, digest in report_digests(out).items():
                    print(name, seed, stem, digest, flush=True)
                if spec["dual_bound"]:
                    print(name, seed, "dual-bound", run_dual_bound(spec["dual_bound"], out),
                          flush=True)
                if args.keep:
                    shutil.copytree(out, args.keep / name / str(seed), dirs_exist_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
