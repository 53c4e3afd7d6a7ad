"""In-process span tracer for the perfbench traced run.

Nothing in the program is edited: `install` rebinds the public functions of
each jacksonlab module, at run time, to wrappers that record one span per
call.  A function is rebound in every jacksonlab namespace that holds it
(``ops.modulus`` and ``lab.modulus`` alike), so calls between modules are
seen; methods are rebound on their class.  Spans stay in memory until
`Tracer.aggregate` and `Tracer.write_spans` run after the timed region.

A span is (id, parent id, name, start, end, info).  Parents come from a
per-thread stack, so the pool threads of ``--jobs 2`` each get their own
tree; every span of one check descends from that check's ``lab.<id>`` span.
A layer's self time is its span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import numbers
import pathlib
import sys
import threading
import time
from json import dumps as _json_dumps  # bound before `install` wraps json.dumps

# numpy.fft entry points; the ones jacksonlab does not call today are
# wrapped too, so a later switch to the real transforms is still counted.
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# (module, public functions) traced as spans named "<module>.<function>".
FUNCTIONS = (
    ("ops", ("difference", "semigroup_difference", "modulus", "semigroup_modulus",
             "averaged_modulus", "cesaro")),
    ("grid", ("lp_norm", "luxemburg_norm", "orlicz_norm", "orlicz_norm_dual_bound")),
    ("search", ("golden_max", "bisect_level")),
    ("approx", ("best_approx", "k_functional", "k_delta", "projection")),
)

# Moduli whose calls are keyed to measure how many repeat an earlier call.
KEYED = ("modulus", "semigroup_modulus")

REPORT_SPANS = ("cli.to_json", "cli.csv_text", "cli.json_dumps", "cli.write_text")


class Tracer:
    """Records spans from wrapped callables; `restore` undoes every rebinding."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._next_id = itertools.count(1).__next__
        self._patched = []
        self._memo = {}

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper recording a span per call of `fn`.

        `name` is a string or a callable of the call's (args, kwargs).
        `before(args, kwargs)` returns (args, kwargs, state) and may replace
        the arguments; `after(state, result)` gives the span's info.  Both
        run outside the span.
        """
        local = self._local
        spans = self.spans
        next_id = self._next_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            sid = next_id()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            info = after(state, result) if after is not None else None
            spans.append((sid, parent, span_name, t0, t1, info))
            return result

        return functools.wraps(fn)(traced)

    def rebind(self, owner, attr, name, before=None, after=None, namespaces=()):
        """Replace `owner.attr`, and every alias of it in `namespaces`, by a wrapper."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, before, after)
        targets = [(owner, attr)]
        for ns in namespaces:
            targets += [(ns, key) for key, value in list(vars(ns).items())
                        if value is original and not (ns is owner and key == attr)]
        for ns, key in targets:
            self._patched.append((ns, key, original))
            setattr(ns, key, wrapper)

    def restore(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def _memoized(self, obj, make):
        """`make(obj)`, computed once per object; the object is kept alive so ids stay unique."""
        hit = self._memo.get(id(obj))
        if hit is None:
            hit = self._memo[id(obj)] = (obj, make(obj))
        return hit[1]

    def value_key(self, value):
        """Hashable identity of one argument: grid functions by content, norms by record."""
        if isinstance(value, numbers.Real):
            return float(value)
        if hasattr(value, "samples"):
            return self._memoized(value, lambda f: hashlib.blake2b(
                memoryview(f.samples).cast("B"), digest_size=16).hexdigest())
        spec = getattr(value, "__self__", value)  # NormSpec.norm is passed bound
        if hasattr(spec, "to_json"):
            return self._memoized(spec, lambda s: _json_dumps(s.to_json(), sort_keys=True)
                                  + "|weight=" + repr(getattr(s, "weight", None)))
        if value is None or isinstance(value, (str, tuple)):
            return repr(value)
        return self._memoized(value, lambda v: f"object-{id(v)}")

    def call_key(self, fn):
        """`before` hook whose state is the key of all the call's arguments."""
        signature = inspect.signature(fn)

        def before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple((k, self.value_key(v)) for k, v in bound.arguments.items())
            return args, kwargs, key

        return before

    def aggregate(self):
        """Per span name: calls, self and inclusive seconds, summed counts, distinct keys."""
        child = {}
        for _, parent, _, t0, t1, _ in self.spans:
            if parent:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        totals = {}
        for sid, _, name, t0, t1, info in self.spans:
            entry = totals.get(name)
            if entry is None:
                entry = totals[name] = _empty()
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0) - child.get(sid, 0.0)
            entry["incl_s"] += t1 - t0
            if isinstance(info, tuple):
                entry["keys"].add(info)
            elif info is not None:
                entry["count"] += info
        return totals

    def write_spans(self, path):
        """One JSON array per line: id, parent id, name, start and end in seconds."""
        with open(path, "w") as out:
            for sid, parent, name, t0, t1, _ in self.spans:
                out.write(f'[{sid},{parent},"{name}",{t0:.9f},{t1:.9f}]\n')


def _empty():
    return {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "count": 0, "keys": set()}


def install(tracer):
    """Rebind jacksonlab's public entry points, numpy.fft and report output."""
    import numpy as np

    import jacksonlab
    from jacksonlab import cli, lab, young

    namespaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "jacksonlab" or n.startswith("jacksonlab."))]

    def input_bytes(args, kwargs):
        return args, kwargs, int(getattr(args[0], "nbytes", 0))

    def plus_output_bytes(nbytes, result):
        return nbytes + int(result.nbytes)

    for name in FFT_NAMES:
        if hasattr(np.fft, name):
            tracer.rebind(np.fft, name, "fft." + name, input_bytes, plus_output_bytes,
                          namespaces)

    def counting_objective(args, kwargs):
        counter = [0]
        objective = args[0]

        def counted(*a, **k):
            counter[0] += 1
            return objective(*a, **k)

        return (counted,) + tuple(args[1:]), kwargs, counter

    def state(value, _):
        return value

    for module_name, functions in FUNCTIONS:
        module = getattr(jacksonlab, module_name)
        for fn in functions:
            before = after = None
            if fn in KEYED:
                before, after = tracer.call_key(getattr(module, fn)), state
            elif module_name == "search":
                before, after = counting_objective, lambda counter, _: counter[0]
            tracer.rebind(module, fn, f"{module_name}.{fn}", before, after, namespaces)

    def points(args, kwargs):
        return args, kwargs, int(np.size(args[1]))

    tracer.rebind(young.YoungFunction, "__call__", "young.eval", points, state)
    tracer.rebind(young.YoungFunction, "_conj_values", "young.conjugate")
    tracer.rebind(lab, "run_check", lambda args, kwargs: "lab." + str(args[0]),
                  namespaces=namespaces)
    tracer.rebind(lab.CheckReport, "to_json", "cli.to_json")
    tracer.rebind(lab.CheckReport, "csv_text", "cli.csv_text")
    tracer.rebind(cli.json, "dumps", "cli.json_dumps")
    tracer.rebind(pathlib.Path, "write_text", "cli.write_text",
                  after=lambda _, written: written)


def layer_metrics(totals):
    """Per-layer metrics from `Tracer.aggregate`; times in ms, counts as numbers."""
    def get(name):
        return totals.get(name) or _empty()

    fft = [get("fft." + n) for n in FFT_NAMES]
    out = {"fft.calls": sum(e["calls"] for e in fft),
           "fft.self_ms": 1e3 * sum(e["self_s"] for e in fft),
           "fft.bytes_computed": sum(e["count"] for e in fft)}
    for module_name, functions in FUNCTIONS:
        for fn in functions:
            name = f"{module_name}.{fn}"
            e = get(name)
            out[name + ".calls"] = e["calls"]
            out[name + ".self_ms"] = 1e3 * e["self_s"]
            if module_name == "search":
                out[name + ".evals"] = e["count"]
            if fn in KEYED:
                out[name + ".distinct_frac"] = len(e["keys"]) / e["calls"] if e["calls"] else 0.0
    ev, conj = get("young.eval"), get("young.conjugate")
    out.update({"young.eval.calls": ev["calls"], "young.eval.points": ev["count"],
                "young.eval.self_ms": 1e3 * ev["self_s"],
                "young.conjugate.calls": conj["calls"],
                "young.conjugate.self_ms": 1e3 * conj["self_s"]})
    checks = {n: e for n, e in totals.items() if n.startswith("lab.")}
    for name, e in sorted(checks.items()):
        out[name + ".ms"] = 1e3 * e["incl_s"]
    out["cli.report_ms"] = 1e3 * sum(get(n)["self_s"] for n in REPORT_SPANS)
    out["cli.report_bytes"] = get("cli.write_text")["count"]
    for layer in ("ops", "grid", "search", "young", "approx", "lab"):
        out[layer + ".self_ms"] = 1e3 * sum(
            e["self_s"] for n, e in totals.items() if n.startswith(layer + "."))
    return out
