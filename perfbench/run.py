"""perfbench: end-to-end and per-layer benchmark of jacksonlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a jacksonlab checkout.  Every repetition is a fresh
worker process (perfbench/worker.py) that imports jacksonlab from ./src and
runs one ``jacksonlab run`` batch, because each CLI batch a user starts is a
cold process.  Repetitions continue until S seconds are used; medians are
reported.  Every repetition's outputs are checked against the stored
reference (perfbench/reference.json) and against the first repetition.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics from perfbench/tracer.py.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--smoke runs tiny grids; --record-reference rewrites the stored reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"

# --seed selects one of SEED_SLOTS input sets, each with a stored reference;
# slot 0 is the c9 acceptance seed.
BASE_SEED = 2024
SEED_SLOTS = 16

# The process may use at most nproc = 2 threads; BLAS pools are pinned to 1.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

SETUP_PROBES = 5
# a run must end within 180 s; no repetition starts or runs past this
HARD_LIMIT_S = 160.0
CONSTANT_RTOL = 1e-12

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# Times are corrected for the host's speed: every worker times a fixed
# numpy kernel (worker._calibrate) after its set-up and after its batch, and
# a time is scaled by CAL_REF_S / (that kernel time).  On a shared host the
# speed drifts by 20-30% within minutes; the corrected times spread about a
# third as much.  CAL_REF_S is the kernel's time on a quiet 2-core Xeon host,
# so there corrected and raw times agree.
CAL_REF_S = 0.085
CORRECTED = ("wall_s", "setup_s", "cpu_s")

# Per-layer metrics in the JSON line of --trace 1.  Times are listed only for
# spans that run on every workload; every other traced time is printed in
# the table above the JSON line and kept in the spans file.
PER_LAYER = (
    ("fft.calls", "count"), ("fft.self_ms", "ms"), ("fft.bytes_computed", "bytes"),
    ("ops.difference.calls", "count"), ("ops.difference.self_ms", "ms"),
    ("ops.semigroup_difference.calls", "count"),
    ("ops.modulus.calls", "count"), ("ops.modulus.self_ms", "ms"),
    ("ops.modulus.distinct_frac", "ratio"),
    ("ops.semigroup_modulus.calls", "count"), ("ops.semigroup_modulus.distinct_frac", "ratio"),
    ("ops.averaged_modulus.calls", "count"), ("ops.cesaro.calls", "count"),
    ("ops.self_ms", "ms"),
    ("grid.lp_norm.calls", "count"), ("grid.luxemburg_norm.calls", "count"),
    ("grid.orlicz_norm.calls", "count"), ("grid.orlicz_norm_dual_bound.calls", "count"),
    ("grid.self_ms", "ms"),
    ("search.golden_max.calls", "count"), ("search.golden_max.evals", "count"),
    ("search.bisect_level.calls", "count"), ("search.bisect_level.evals", "count"),
    ("young.eval.calls", "count"), ("young.eval.points", "count"),
    ("young.conjugate.calls", "count"),
    ("approx.best_approx.calls", "count"), ("approx.k_functional.calls", "count"),
    ("approx.k_delta.calls", "count"), ("approx.projection.calls", "count"),
    ("approx.self_ms", "ms"),
    ("lab.self_ms", "ms"),
    ("cli.report_ms", "ms"), ("cli.report_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

C9_CHECKS = ("basic-2.1", "jackson-1.4", "jackson-4.8", "jackson-4.9", "jackson-5.9",
             "jackson-5.10", "entire-4.12", "cesaro-5.1", "averaged-7.3", "semigroup-7.4",
             "shift-7.5", "kfunc-8.9", "jackson-8.10", "lower-8.12", "orlicz-sandwich")

ZYGMUND = {"kind": "zygmund", "params": [2.0, 0.5]}


def _check(cid, **params):
    return {"id": cid, "params": params}


def sharp_1d(smoke):
    # two family members keep a repetition near 4 s: abs-sin (rough) and
    # the seeded random function
    fam = ["abs-sin", "random"]
    checks = [_check("jackson-1.4", norm={"norm": "lp", "p": p}, r=r, n_range=[1, 8],
                     family=fam) for p in (2.0, 4.0) for r in (1, 2)]
    checks += [_check("jackson-8.10", d=1, family=fam), _check("jackson-5.9", d=1, family=fam),
               _check("jackson-5.10", d=1, family=fam), _check("jackson-4.8", family=fam),
               _check("jackson-4.9", family=fam), _check("shift-7.5", family=fam),
               _check("semigroup-7.4", family=fam), _check("lower-8.12", family=fam)]
    return {"checks": checks, "N": 64 if smoke else 1024}, 1, None


def sharp_2d(smoke):
    fam = ["random"]
    checks = [_check("kfunc-8.9", d=2, family=fam, n_range=[1, 3]),
              _check("jackson-8.10", d=2, family=fam, n_range=[1, 3])]
    return {"checks": checks, "N": 16 if smoke else 256}, 1, None


def orlicz_1d(smoke):
    fam = ["random"]
    checks = [_check("jackson-1.4", norm={"norm": "luxemburg", "phi": ZYGMUND}, family=fam),
              _check("jackson-4.8", norm={"norm": "orlicz", "phi": ZYGMUND}, family=fam),
              _check("cesaro-5.1", phi=ZYGMUND), _check("orlicz-sandwich", phi=ZYGMUND)]
    dual = {"N": 16 if smoke else 128, "p": 3.0, "trials": 1 if smoke else 8}
    return {"checks": checks, "N": 64 if smoke else 1024}, 1, dual


def batch_c9(smoke):
    return {"checks": [{"id": c} for c in C9_CHECKS], "N": 64 if smoke else 128}, 2, None


WORKLOADS = {"sharp-1d": sharp_1d, "sharp-2d": sharp_2d, "orlicz-1d": orlicz_1d,
             "batch-c9": batch_c9}


def base_seed(seed):
    return BASE_SEED + seed % SEED_SLOTS


def workload_spec(name, seed, smoke):
    """Run configuration, --jobs count and extra calls for one workload and seed."""
    config, jobs, dual = WORKLOADS[name](smoke)
    config.update(seed=base_seed(seed), formats=["json", "csv"])
    if dual is not None:
        dual["seed"] = base_seed(seed)
    return {"config": config, "jobs": jobs, "dual_bound": dual}


def expected_ids(spec):
    ids = [f"{k:02d}-{c['id']}" for k, c in enumerate(spec["config"]["checks"])]
    return ids + (["dual-bound"] if spec["dual_bound"] else [])


# -- processes -----------------------------------------------------------


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env():
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env.pop("PYTHONPATH", None)
    return env


def write_spec(spec, out_root):
    """Write the run configuration and the worker's spec file; returns the spec path."""
    out_root.mkdir(parents=True, exist_ok=True)
    config_path = out_root / "config.json"
    config_path.write_text(json.dumps(spec["config"], indent=1) + "\n")
    spec_path = out_root / "spec.json"
    spec_path.write_text(json.dumps(dict(spec, config_path=str(config_path))))
    return spec_path


def run_worker(spec_path, out, trace=False, setup_only=False, timeout=HARD_LIMIT_S):
    """Run one worker in a fresh process; returns (result dict, wall seconds seen by the parent)."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(WORKER), str(spec_path), str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    start = _clock()
    cmd += ["--spawned-at", repr(start)]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}, _clock() - start
    elapsed = _clock() - start
    result_file = out / "result.json"
    if proc.returncode != 0 or not result_file.is_file():
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}, elapsed
    return json.loads(result_file.read_text()), elapsed


def collect_outputs(spec, reports):
    """Per expected check: (verdict, constant text, CSV sha256), or None when it produced nothing."""
    summary = {}
    summary_file = reports / "summary.csv"
    if summary_file.is_file():
        rows = summary_file.read_text().strip().split("\n")[1:]
        for k, line in enumerate(rows):
            cid, verdict, constant = line.split(",")[:3]
            summary[f"{k:02d}-{cid}"] = (verdict, constant)
    outputs = {}
    for stem in expected_ids(spec):
        csv = reports / f"{stem}.csv"
        if not csv.is_file():
            outputs[stem] = None
            continue
        data = csv.read_bytes()
        if stem == "dual-bound":
            verdict, constant = "value", data.decode().split("\n")[1]
        elif stem in summary:
            verdict, constant = summary[stem]
        else:
            outputs[stem] = None
            continue
        outputs[stem] = (verdict, constant, hashlib.sha256(data).hexdigest())
    return outputs


def same_constant(a, b):
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= CONSTANT_RTOL * max(abs(x), abs(y))


# -- verification ----------------------------------------------------------


class Verifier:
    """Counts, over all repetitions, checks that raised and checks that mismatched.

    A check mismatches when its verdict or constant (1e-12 relative) differs
    from the stored reference, or its CSV bytes differ from the first
    repetition of this run.  CSV bytes that differ from the reference's
    sha256 while the constant holds are counted apart, in `csv_changed`,
    because the ROADMAP allows that (for example after an FFT rewrite).
    """

    def __init__(self, reference_rows):
        self.reference = {r[0]: r[1:] for r in reference_rows} if reference_rows else {}
        self.first = {}
        self.attempted = self.errors = self.mismatches = self.csv_changed = 0
        self.problems = []

    def add(self, outputs):
        for stem, got in outputs.items():
            self.attempted += 1
            if got is None:
                self.errors += 1
                self.problems.append(f"{stem}: raised or wrote no report")
                continue
            verdict, constant, sha = got
            ref = self.reference.get(stem)
            first = self.first.setdefault(stem, sha)
            if ref is None:
                self.mismatches += 1
                self.problems.append(f"{stem}: no stored reference")
            elif verdict != ref[0] or not same_constant(constant, ref[1]):
                self.mismatches += 1
                self.problems.append(f"{stem}: got {verdict} {constant}, "
                                     f"reference {ref[0]} {ref[1]}")
            elif sha != first:
                self.mismatches += 1
                self.problems.append(f"{stem}: CSV bytes differ between repetitions")
            elif sha != ref[2]:
                self.csv_changed += 1

    @property
    def failed(self):
        return self.errors + self.mismatches


# -- measurement -----------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(spec, seconds, trace, reference_rows, out_root):
    """Setup probes, then repetitions until `seconds` are used."""
    spec_path = write_spec(spec, out_root)
    start = _clock()
    deadline = start + seconds

    # untimed: compiles bytecode and warms the file cache, which every
    # later process finds done, as after an install
    warm, _ = run_worker(spec_path, out_root / "probe", setup_only=True)
    if "error" in warm:
        raise RuntimeError(warm["error"])
    probes = []
    for _ in range(SETUP_PROBES):
        probe, _ = run_worker(spec_path, out_root / "probe", setup_only=True)
        if "error" in probe:
            raise RuntimeError(probe["error"])
        probes.append(probe)

    verifier = Verifier(reference_rows)
    reps = {False: [], True: []}
    durations = []
    min_reps = 2 if trace else 1
    while True:
        n, used = len(durations), _clock() - start
        if n >= min_reps and (used + statistics.median(durations) > seconds
                              or used > HARD_LIMIT_S):
            break
        traced = trace and n % 2 == 1
        result, took = run_worker(spec_path, out_root / "rep", trace=traced,
                                  timeout=max(10.0, HARD_LIMIT_S - used))
        durations.append(took)
        verifier.add(collect_outputs(spec, out_root / "rep" / "reports"))
        if "error" in result:
            verifier.problems.append(result["error"].strip().splitlines()[-1])
            if "wall_s" not in result:
                break
        reps[traced].append(result)
        if traced and (out_root / "rep" / "spans.jsonl").is_file():
            shutil.copyfile(out_root / "rep" / "spans.jsonl", out_root / "spans.jsonl")
    return {"env": warm["env"], "probes": probes, "reps": reps, "verifier": verifier,
            "measured_s": _clock() - start}


def environment_lines(env):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    pins = " ".join(f"{k}={v}" for k, v in THREAD_PINS.items())
    return [f"env: numpy {env['numpy']} (fft backend {env['fft_backend']}), python {env['python']},"
            f" jacksonlab {env['jacksonlab']}",
            f"env: nproc {os.cpu_count()} (affinity {len(os.sched_getaffinity(0))}), cpu {cpu}",
            f"env: thread pins {pins}",
            "env: in-process spans only; no system-wide tracing (perf, eBPF) is available here"]


def corrected(result, metric):
    """A worker's time scaled to the reference host speed (see CAL_REF_S)."""
    calib = result["calib_s"][:1] if metric == "setup_s" else result["calib_s"]
    return result[metric] * CAL_REF_S / statistics.mean(calib)


def report(name, seed, spec, run, trace):
    reps, verifier = run["reps"], run["verifier"]
    untraced = reps[False]
    setup_sources = run["probes"] + untraced + reps[True]
    lines = [f"perfbench workload={name} seed={seed} (input seed {spec['config']['seed']}) "
             f"trace={int(trace)} reps={len(untraced)}+{len(reps[True])} traced "
             f"setup_samples={len(setup_sources)} measured={run['measured_s']:.1f}s"]
    lines += environment_lines(run["env"])
    metrics = {}

    def line(metric, values, unit, note=""):
        lo, hi = quartiles(values)
        lines.append(f"{metric:34s} {statistics.median(values):14.6g} {unit:6s} "
                     f"(median of {len(values)}{note}; quartiles {lo:.6g} .. {hi:.6g})")
        return statistics.median(values)

    if not trace:
        calib = [c for r in setup_sources for c in r["calib_s"]]
        lines.append(f"{'host calibration kernel':34s} {statistics.median(calib):14.6g} {'s':6s} "
                     f"(median of {len(calib)}; reference {CAL_REF_S} s)")
        for metric, unit in END_TO_END:
            sources = setup_sources if metric == "setup_s" else untraced
            if metric in CORRECTED:
                raw = statistics.median(r[metric] for r in sources)
                values = [corrected(r, metric) for r in sources]
                note = f", corrected for host speed; raw median {raw:.6g}"
            else:
                values, note = [r[metric] for r in sources], ""
            metrics[metric] = {"value": line(metric, values, unit, note), "unit": unit}
            lines.append(f"{'':34s} samples: " + " ".join(f"{v:.4g}" for v in values))
    attempted = max(verifier.attempted, 1)
    lines.append(f"{'error_frac':34s} {verifier.errors / attempted:14.6g} {'1':6s} "
                 f"({verifier.errors} of {verifier.attempted} check runs raised)")
    lines.append(f"{'mismatch_frac':34s} {verifier.mismatches / attempted:14.6g} {'1':6s} "
                 f"({verifier.mismatches} of {verifier.attempted} differ from the reference "
                 f"or between repetitions)")
    lines.append(f"{'csv_changed_frac':34s} {verifier.csv_changed / attempted:14.6g} {'1':6s} "
                 f"(CSV bytes differ from the reference sha256 within the constant rule)")
    if trace and reps[True]:
        layers = {}
        for r in reps[True]:
            for key, value in r.get("layers", {}).items():
                layers.setdefault(key, []).append(value)
        traced_wall = statistics.median(r["wall_s"] for r in reps[True])
        layers["trace.wall_s"] = [traced_wall]
        layers["trace.overhead_s"] = [traced_wall - statistics.median(r["wall_s"] for r in untraced)]
        units = dict(PER_LAYER)
        for key in sorted(layers):
            unit = units.get(key, "ms" if key.endswith("ms") else
                             "s" if key.endswith("_s") else "count")
            value = line(key, layers[key], unit)
            if key in units:
                metrics[key] = {"value": value, "unit": unit}
    for problem in verifier.problems[:20]:
        lines.append(f"problem: {problem}")
    print("\n".join(lines))
    ran = len(untraced) + len(reps[True])
    return {"correct": verifier.failed == 0 and ran > 0 and not any(
                "error" in r for r in untraced + reps[True]),
            "attempted": verifier.attempted, "failed": verifier.failed, "metrics": metrics}


# -- reference ---------------------------------------------------------------


def record_reference(names):
    """Rewrite reference.json: one repetition per workload, seed slot and size."""
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    out_root = HERE / "out" / "reference"
    for name in names:
        for smoke in (False, True):
            for slot in range(SEED_SLOTS):
                spec = workload_spec(name, slot, smoke)
                result, elapsed = run_worker(write_spec(spec, out_root), out_root / "rep")
                outputs = collect_outputs(spec, out_root / "rep" / "reports")
                missing = [k for k, v in outputs.items() if v is None]
                if "error" in result or missing:
                    raise RuntimeError(f"{name} slot {slot}: {result.get('error', missing)}")
                section = data.setdefault("smoke" if smoke else "workloads", {})
                section.setdefault(name, {})[str(spec["config"]["seed"])] = [
                    [k, *v] for k, v in outputs.items()]
                failing = [k for k, v in outputs.items() if v[0] == "fail"]
                print(f"recorded {name}{' smoke' if smoke else ''} input seed "
                      f"{spec['config']['seed']} in {elapsed:.1f} s; failing verdicts: "
                      f"{failing or 'none'}", flush=True)
    data["note"] = ("per workload and input seed: [check, verdict, constant %.17g, "
                    "CSV sha256]; written by perfbench/run.py --record-reference")
    write_reference(data)


def write_reference(data):
    """reference.json with one check per line, so a diff shows which outputs changed."""
    lines = ["{", f' "note": {json.dumps(data["note"])},']
    for size in ("smoke", "workloads"):
        lines.append(f' "{size}": {{')
        for name in sorted(data[size]):
            lines.append(f'  "{name}": {{')
            seeds = sorted(data[size][name])
            for seed in seeds:
                rows = ",\n".join("    " + json.dumps(row) for row in data[size][name][seed])
                end = "," if seed != seeds[-1] else ""
                lines.append(f'   "{seed}": [\n{rows}\n   ]{end}')
            lines.append("  }" + ("," if name != sorted(data[size])[-1] else ""))
        lines.append(" }" + ("," if size == "smoke" else ""))
    lines.append("}")
    REFERENCE.write_text("\n".join(lines) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="jacksonlab benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for tests")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the stored reference for --workload (or all)")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not Path("src/jacksonlab/__init__.py").is_file():
        print("perfbench: run from the root of a jacksonlab checkout "
              "(src/jacksonlab/ not found)", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference([args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        reference = json.loads(args.reference.read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read reference {args.reference}: {exc}", file=sys.stderr)
        return 2
    spec = workload_spec(args.workload, args.seed, args.smoke)
    section = reference.get("smoke" if args.smoke else "workloads", {}).get(args.workload, {})
    rows = section.get(str(spec["config"]["seed"]))
    out_root = HERE / "out" / (args.workload + ("-smoke" if args.smoke else ""))
    try:
        run = measure(spec, args.seconds, bool(args.trace), rows, out_root)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args.workload, args.seed, spec, run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
