"""One repetition of a perfbench workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json OUT_DIR --spawned-at T [--trace | --setup-only]

SPEC.json holds the jacksonlab run configuration, the path of the same
configuration as a file for the CLI, the --jobs count and the optional
extra library calls.  The worker imports jacksonlab from ./src,
parses the configuration, then runs ``jacksonlab run`` on it and the extra
calls.  A fixed calibration kernel is timed after set-up and after the
batch.  It writes OUT_DIR/result.json with its timings; reports go to
OUT_DIR/reports.  T is the parent's CLOCK_MONOTONIC reading taken just
before it started this process, so set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _import_jacksonlab():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import jacksonlab
    import jacksonlab.cli

    if not os.path.abspath(jacksonlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"jacksonlab was imported from {jacksonlab.__file__}, not {src}")
    return jacksonlab


def _dual_bound(jl, params, reports):
    """`orlicz_norm_dual_bound` of a seeded function against a numerical conjugate."""
    import numpy as np

    rng = np.random.default_rng(params["seed"])
    f = jl.random_smooth(params["N"], 1, rng)
    phi = jl.power(params["p"])
    value = jl.orlicz_norm_dual_bound(f, phi, jl.complementary(phi),
                                      trials=params["trials"], rng=rng)
    (reports / "dual-bound.csv").write_text(f"value\n{value:.17g}\n")


def _calibrate():
    """Wall seconds of a fixed kernel: 2000 FFT round trips and norms of a
    1000-point vector, like the inner loop of most checks, in plain numpy.
    The parent divides by it to correct for the host's speed at the time.
    No workload uses length 1000, so no FFT plan is shared with the checks."""
    import numpy as np

    x = np.cos(0.37 * np.arange(1000))
    mult = np.exp(0.01j * np.arange(1000))
    start = _clock()
    for _ in range(2000):
        y = np.fft.ifft(np.fft.fft(x) * mult).real
        float(np.sqrt(np.mean(y * y)))
    return _clock() - start


def _environment(jl):
    import numpy as np

    backend = "pocketfft" if hasattr(np.fft, "_pocketfft") else np.fft.fftn.__module__
    return {"numpy": np.__version__, "fft_backend": backend,
            "python": sys.version.split()[0], "jacksonlab": jl.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("out")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)

    jl = _import_jacksonlab()
    spec = json.loads(Path(args.spec).read_text())
    ready = _clock()
    result = {"setup_s": ready - args.spawned_at, "calib_s": [_calibrate()]}
    if args.setup_only:
        result["env"] = _environment(jl)
        (out / "result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    reports = out / "reports"
    cpu0, t0 = _cpu_seconds(), _clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            jl.cli.main(["run", spec["config_path"], "--jobs", str(spec["jobs"]),
                         "--out", str(reports)])
        if spec.get("dual_bound"):
            _dual_bound(jl, spec["dual_bound"], reports)
    except Exception:  # reported to the parent, which counts the checks as errors
        result["error"] = traceback.format_exc()
    t1, cpu1 = _clock(), _cpu_seconds()
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracing.layer_metrics(tracer.aggregate())
        tracer.write_spans(out / "spans.jsonl")
    result["calib_s"].append(_calibrate())
    result.update(wall_s=t1 - t0, cpu_s=cpu1 - cpu0,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
