"""Command-line front end for the inequality registry.

`jacksonlab --list` prints the registered checks, `jacksonlab describe <id>`
prints one check's formula and parameters, and `jacksonlab run config.json`
runs a batch and writes per-check JSON/CSV reports plus a summary table.
Exit status: 0 when every check passes, 1 when any check fails, 2 for
configuration errors.  Before any check runs, each check's params go
through `lab.parse_params`, the parse `lab.run_check` uses, with the
top-level `N` and a spawned seed filled in.  A param the check does not
read, a value its converter refuses (an integer param given 1.5, true or
"8", a sample count or order below 1, a negative seed, an odd `N` or one
below 8, a `d` other than 1 or 2, an unknown `route` or `semigroup`), a
record field that nothing reads (a norm record's `q`, `m`, `M`, `label`
or `variant`, `p` on a Luxemburg or Orlicz norm, `c1` on a builtin Young
function, any misspelled key), a Young record in `phi` or a norm that the
`YoungFunction` constructor refuses (a `NaN` or `Infinity` param, a
patched s below 2, a conjugate resolution that is not an integer >= 2),
a `family` beside a function `f` (whose
grid sets `N` and `d`, so a rule they break names `f`), a broken
`require` rule (kfunc-8.9 needs 2*ell > r, and d=2 for the sphere route;
the abel and Cesaro checks run on 1-d grids), an `n_range` at whose ends
an explicit sum over j is empty (jackson-1.4 and jackson-5.10 at n <= 0)
or an `n_range`, `L` or `h` whose scales 2^(+-n), 2^j h or weights
2^(-jrs) leave the normal floats exits 2 with a message naming
`checks[k].params.<field>`, and no report is written; so does a
top-level `N`, `seed` or `--seed` that the param of the same name refuses.
The output directory is made before any check runs; a path that cannot be
a directory (an existing file, or a path through one) exits 2 naming
'out'.  A check that fails only while it runs (cesaro-5.1 with a degree
n >= N/2) is named by its index and id, and the other checks still write
their reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import lab
from .grid import _COUNT


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending field."""


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config: top level must be a JSON object")
    return config


def _convert(field, name, value):
    """`value` read as param `name`; a rejected value is a ConfigError naming `field`."""
    try:
        return lab.convert_param(name, value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field '{field}': {exc}") from exc


def _validate(config, seed_override=None, out_override=None):
    """The (id, params) jobs of a config, each parsed as its check will parse it, and the outputs.

    A check's params are the config's with the top-level `N` and a seed
    spawned from the base seed filled in; a param that `lab.parse_params`
    refuses is a ConfigError naming `checks[k].params.<field>`.
    """
    checks = config.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ConfigError("config field 'checks': must be a non-empty list")
    size = _convert("N", "N", config.get("N", 256))
    seed = _convert("seed", "seed", config.get("seed", 0))
    if seed_override is not None:
        seed = _convert("seed", "seed", seed_override)
    known = set(lab.registry_ids())
    jobs, children = [], np.random.SeedSequence(seed).spawn(len(checks))
    for k, (entry, child) in enumerate(zip(checks, children)):
        if isinstance(entry, str):
            entry = {"id": entry}
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError(f"config field 'checks[{k}]': must be an object with an 'id'")
        cid = entry["id"]
        if cid not in known:
            raise ConfigError(f"config field 'checks[{k}].id': unknown check id {cid!r}")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"config field 'checks[{k}].params': must be an object")
        merged = {"N": size, "seed": int(child.generate_state(1)[0]), **params}
        try:
            lab.parse_params(cid, merged)
        except lab.ParamError as exc:
            field = f"checks[{k}].params.{exc.name}"
            raise ConfigError(f"config field '{field}': {exc.reason}") from exc
        jobs.append((cid, merged))

    out = out_override or config.get("out", "reports")
    if not isinstance(out, str) or not out:
        raise ConfigError(f"config field 'out': must be a non-empty path, got {out!r}")
    formats = config.get("formats", ["json", "csv"])
    if (not isinstance(formats, list) or not formats
            or any(f not in ("json", "csv") for f in formats)):
        raise ConfigError(f"config field 'formats': must be a subset of "
                          f"['json', 'csv'], got {formats!r}")
    return jobs, Path(out), tuple(formats)


def _map_threads(work, items, jobs):
    """[work(item) for item in items] on at most `jobs` threads, in the items' order.

    Plain threads, not `concurrent.futures`, whose import pulls in `logging`
    (about 7.5 ms a cold batch would pay).  A thread that frees up takes the
    next item, so a long item does not hold up the rest.  Once an item has
    raised, no thread takes another (the items already running finish), so
    the batch stops at the error as a loop does; after every thread has
    joined, the exception of the earliest item that raised is raised here.
    """
    import threading  # numpy.random, which `_validate` used, has loaded it already

    results, failures = [None] * len(items), {}
    indices, lock = iter(range(len(items))), threading.Lock()

    def drain():
        while True:
            with lock:
                k = None if failures else next(indices, None)
            if k is None:
                return
            try:
                results[k] = work(items[k])
            except Exception as exc:  # re-raised in the calling thread below
                with lock:
                    failures[k] = exc

    threads = [threading.Thread(target=drain) for _ in range(min(jobs, len(items)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def _run_batch(args):
    try:
        _COUNT(args.jobs)
    except ValueError as exc:
        raise ConfigError(f"option '--jobs': {exc}") from None
    config = _load_config(args.config)
    jobs, out, formats = _validate(config, seed_override=args.seed, out_override=args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"config field 'out': {exc}") from exc

    def work(item):
        cid, params = item
        try:
            return lab.run_check(cid, params)
        except ValueError as exc:
            return exc

    if args.jobs > 1:
        results = _map_threads(work, jobs, args.jobs)
    else:
        results = [work(item) for item in jobs]

    # a check that fails while it runs is named, and the others still report
    reports, errors = [], []
    summary = ["id,verdict,constant,runtime_ms"]
    for k, ((cid, _), report) in enumerate(zip(jobs, results)):
        if isinstance(report, ValueError):
            errors.append(f"config field 'checks': checks[{k}] ({cid}): {report}")
            continue
        reports.append(report)
        stem = f"{k:02d}-{cid}"
        if "json" in formats:
            (out / f"{stem}.json").write_text(
                json.dumps(report.to_json(), indent=2) + "\n")
        if "csv" in formats:
            (out / f"{stem}.csv").write_text(report.csv_text())
        summary.append(f"{cid},{report.verdict},{report.constant:.17g},"
                       f"{report.runtime_ms:.3f}")
        print(f"{cid}: {report.verdict} (constant={report.constant:.6g}, "
              f"spread={report.spread:.3g}, {report.runtime_ms:.0f} ms)")
    (out / "summary.csv").write_text("\n".join(summary) + "\n")
    failed = sum(1 for rep in reports if not rep.passed)
    print(f"{len(reports) - failed}/{len(reports)} checks passed; reports in {out}")
    if errors:
        raise ConfigError("\n".join(errors))
    return 1 if failed else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jacksonlab",
        description="run and inspect the registered norm-inequality checks")
    parser.add_argument("--list", action="store_true",
                        help="list registered check ids with their formulas")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run the checks named in a JSON config")
    run_p.add_argument("config", help="path to the JSON run configuration")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker threads for independent checks (default 1)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config's base seed")
    run_p.add_argument("--out", default=None,
                       help="override the config's output directory")
    desc_p = sub.add_parser("describe", help="print one check's formula and parameters")
    desc_p.add_argument("check_id")
    return parser


def _print_listing(text):
    """Print `text`; a reader that stops early (`jacksonlab --list | head`) ends it quietly."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send what is left to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list:
        _print_listing("\n".join(
            f"{cid}: {lab.describe_check(cid).splitlines()[0].split(': ', 1)[1]}"
            for cid in lab.registry_ids()))
        return 0
    if args.command == "describe":
        try:
            text = lab.describe_check(args.check_id)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        _print_listing(text)
        return 0
    if args.command == "run":
        try:
            return _run_batch(args)
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    parser.print_help()
    return 0


if __name__ == "__main__":
    sys.exit(main())
