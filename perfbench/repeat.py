"""Repeat perfbench runs over seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workloads sharp-1d,batch-c9 --seeds 10 \
        [--trace 0|1] [--seconds S] [--out summary.json] [--compare earlier.json]

Runs ``perfbench/run.py`` once per workload and seed (seeds 1..N), one run
at a time, from the root of a jacksonlab checkout.  For every metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  --compare reads an earlier --out file and reports, per
metric, how far this median moved from that one, in the metric's bad
direction, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    summary = {}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, seconds, args.trace) for seed in range(1, args.seeds + 1)]
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        print(f"{workload}: {len(runs)} runs, {len(bad)} not correct, "
              f"{sum(r['attempted'] for r in runs)} checks attempted", flush=True)
        summary[workload] = {"correct_runs": len(runs) - len(bad), "metrics": {}}
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            summary[workload]["metrics"][name] = stats
            meta = declared.get(name, {})
            bound = meta.get("bound")
            line = (f"  {name:34s} median {stats['median']:.6g} {stats['unit']}  "
                    f"spread {stats['spread']:.3f}")
            if bound is not None:
                line += f" (bound {bound}, a third {bound / 3:.3f})"
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before and before["median"]:
                sign = -1.0 if meta.get("better") == "higher" else 1.0
                worse = sign * (stats["median"] - before["median"]) / abs(before["median"])
                line += f"  worse than earlier by {worse:+.3f}"
            print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
