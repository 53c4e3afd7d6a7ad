"""Check registry, reports, and the empirical space-geometry estimators."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonlab import (GridFunction, NormSpec, bisect_level, describe_check, discretize,
                        dyadic_tail_sum, estimate_convexity_constant, modulus, random_smooth,
                        registry_ids, run_check, space_moduli, standard_family,
                        verify_duality, zygmund)
from jacksonlab import lab
from jacksonlab import ops as ops_module
from jacksonlab.lab import ParamError, _finish, check_params

ALL_IDS = (
    "basic-2.1", "jackson-1.4", "jackson-4.8", "jackson-4.9", "jackson-5.9",
    "jackson-5.10", "entire-4.12", "cesaro-5.1", "averaged-7.3",
    "semigroup-7.4", "shift-7.5", "kfunc-8.9", "jackson-8.10", "lower-8.12",
    "orlicz-sandwich",
)


def test_registry_lists_all_checks():
    assert registry_ids() == ALL_IDS


def test_unknown_check_id_is_named_in_the_error():
    with pytest.raises(ValueError, match="jackson-99"):
        run_check("jackson-99", {})
    with pytest.raises(ValueError, match="jackson-99"):
        describe_check("jackson-99")


def test_describe_check_mentions_key_facts():
    assert "m^{1/s}/2" in describe_check("basic-2.1")
    assert "contraction" in describe_check("cesaro-5.1")
    for cid in ALL_IDS:
        text = describe_check(cid)
        assert text.startswith(cid)


@pytest.mark.parametrize("cid", ALL_IDS)
def test_every_check_passes_at_small_size(cid):
    rep = run_check(cid, {"N": 64})
    assert rep.verdict == "pass", (cid, rep.constant, rep.spread, rep.notes)
    assert rep.spread <= 10.0
    assert rep.runtime_ms > 0.0
    assert rep.check_id == cid
    assert len(rep.table) == len(rep.ratios) > 0
    # report serializes to plain JSON
    blob = json.dumps(rep.to_json())
    parsed = json.loads(blob)
    assert parsed["id"] == cid and parsed["verdict"] == "pass"
    # the report lists every param the check reads, and they reproduce it
    assert tuple(parsed["params"]) == check_params(cid)
    again = run_check(cid, parsed["params"])
    assert again.csv_text() == rep.csv_text() and again.params == parsed["params"]


def described_params(cid):
    lines = describe_check(cid).split("\nparams:\n", 1)[1].splitlines()
    return tuple(line.split(":")[0].split(" = ")[0].strip() for line in lines)


@pytest.mark.parametrize("cid", ALL_IDS)
def test_params_are_exactly_the_described_ones(cid):
    assert described_params(cid) == check_params(cid)
    unread = () if "n_range" in check_params(cid) else ("n_range",)
    for name in ("n_ragne", "size", "t") + unread:
        with pytest.raises(ValueError, match=f"unknown param '{name}' for {cid}"):
            run_check(cid, {"N": 16, name: 1})


def test_report_csv_shape():
    rep = run_check("orlicz-sandwich", {"N": 64})
    text = rep.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "index,lhs,rhs,ratio"
    assert len(lines) == len(rep.table) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[3]) == pytest.approx(rep.ratios[0], rel=1e-6, abs=0.0)


def test_reports_are_deterministic():
    a = run_check("jackson-5.10", {"N": 64, "seed": 5})
    b = run_check("jackson-5.10", {"N": 64, "seed": 5})
    assert a.table == b.table
    assert a.seed == 5
    c = run_check("jackson-5.10", {"N": 64, "seed": 6})
    assert c.table != a.table  # the random family member moved


def test_check_accepts_explicit_function_and_norm():
    f = discretize(lambda x: np.abs(np.sin(x)), 64, 1)
    rep = run_check("jackson-1.4", {"f": f.to_json(), "r": 1,
                                    "norm": {"norm": "lp", "p": 4.0},
                                    "n_range": [1, 4]})
    assert rep.verdict == "pass"
    assert rep.params["norm"]["p"] == 4.0
    assert any("custom" in n for n in rep.notes)


def test_a_function_record_sets_the_grid():
    # N and d are the record's, so the defaults and rules after them read its grid
    f = discretize(np.cos, 32, 1)
    rep = run_check("jackson-1.4", {"f": f.to_json(), "N": 256, "d": 2, "n_range": [1, 2]})
    assert (rep.params["N"], rep.params["d"]) == (32, 1)
    assert rep.resolutions == {"N": 32, "radii": 64}
    g = discretize(lambda x, y: np.cos(x) * np.cos(y), 16, 2)
    assert lab.parse_params("jackson-1.4", {"f": g.to_json()})["radii"] == 16
    # a rule broken by the record's N or d names the record
    refused = (("jackson-5.9", {"f": g.to_json()}, "f"),
               ("cesaro-5.1", {"f": g.to_json()}, "f"),
               ("kfunc-8.9", {"f": f.to_json(), "route": "sphere"}, "route"),
               ("jackson-1.4", {"f": f.to_json(), "family": ["cos"]}, "family"))
    for cid, params, name in refused:
        with pytest.raises(ParamError) as info:
            lab.parse_params(cid, params)
        assert info.value.name == name


def test_powers_of_two_stay_normal_floats_by_r_and_s():
    # jackson-1.4 weighs j = 0..n-1 by 2^(-jrs): n - 1 <= 1022 / (r*s) is accepted
    for r, s, n in ((1, 2.0, 512), (2, 2.0, 256), (1, 3.0, 341)):
        lab.parse_params("jackson-1.4", {"r": r, "s": s, "n_range": [n, n]})
        with pytest.raises(ParamError) as info:
            lab.parse_params("jackson-1.4", {"r": r, "s": s, "n_range": [n + 1, n + 1]})
        assert info.value.reason == f"the weight 2^(-{n}*{r}*{s:g}) is not a normal float"
        assert info.value.name == "n_range"
    # the largest accepted values run to finite rows
    for cid, params in (("jackson-1.4", {"n_range": [512, 512]}),
                        ("entire-4.12", {"lambda_power_max": 511}),
                        ("basic-2.1", {"L": 511}),
                        ("jackson-4.8", {"n_range": [-959, -958]})):
        rep = run_check(cid, {"N": 16, "family": ["cos"], **params})
        assert all(math.isfinite(x) for row in rep.table for x in row[1:]), cid
    for cid, params, name in (("jackson-4.8", {"n_range": [-960, -958]}, "n_range"),
                              ("entire-4.12", {"lambda_power_max": 512}, "lambda_power_max"),
                              ("basic-2.1", {"L": 512}, "L"),
                              ("basic-2.1", {"h": 2.0 ** -1023, "L": 0}, "h")):
        with pytest.raises(ParamError) as info:
            lab.parse_params(cid, params)
        assert info.value.name == name


def test_an_empty_sum_over_j_is_refused_by_every_explicit_sum():
    # a check with an explicit sum over j refuses an n_range whose low end leaves it empty
    empty_at = {}
    for cid in ALL_IDS:
        check = lab._CHECKS[cid]
        if check.js is None or "n_range" not in check_params(cid):
            continue
        p = lab.parse_params(cid, {"n_range": [1, 3]})
        assert p["n_range"] == [1, 3]
        empty_at[cid] = [n for n in range(-4, 4) if not check.js(p, n)]
        for n in empty_at[cid]:
            with pytest.raises(ParamError) as info:
                lab.parse_params(cid, {"n_range": [n, 3]})
            assert (info.value.name, info.value.reason) == (
                "n_range", f"the sum over j is empty at n={n}")
        if not empty_at[cid]:
            lab.parse_params(cid, {"n_range": [-4, 3]})
    assert empty_at == {"jackson-1.4": [-4, -3, -2, -1, 0], "jackson-5.10": [-4, -3, -2, -1, 0],
                        "lower-8.12": []}


def test_basic_21_threshold_modes():
    good = run_check("basic-2.1", {"N": 64, "m": 1.0})
    assert good.verdict == "pass" and good.constant >= 0.48
    # demanding a constant far above the proof value must fail
    bad = run_check("basic-2.1", {"N": 64, "m": 4.0})
    assert bad.verdict == "fail"


def test_basic_21_heat_variant():
    rep = run_check("basic-2.1", {"N": 64, "semigroup": "heat", "m": 1.0})
    assert rep.verdict == "pass" and rep.constant >= 0.48


def test_jackson_510_excludes_polynomial_rows():
    rep = run_check("jackson-5.10", {"N": 64})
    # cos is itself a trigonometric polynomial, so its rows drop out
    assert any("excluded" in n for n in rep.notes)
    assert any(not np.isfinite(q) for q in rep.ratios)
    assert rep.verdict == "pass"


def test_family_filter_and_errors():
    fam = standard_family(64, 1, np.random.default_rng(0))
    assert [n for n, _ in fam] == ["cos", "abs-sin", "sawtooth8", "random"]
    only = standard_family(64, 1, np.random.default_rng(0), names=["cos"])
    assert len(only) == 1
    with pytest.raises(ValueError):
        standard_family(64, 1, names=["nope"])
    with pytest.raises(ValueError):
        standard_family(64, 3)


def test_family_builds_only_the_named_members(monkeypatch):
    full = {dim: standard_family(64, dim, np.random.default_rng(3)) for dim in (1, 2)}

    def refuse(x):
        raise AssertionError("sawtooth8 was built")

    monkeypatch.setattr(lab, "_sawtooth8", refuse)
    for dim in (1, 2):
        want = full[dim][3][1]
        (name, g), = standard_family(64, dim, np.random.default_rng(3), names=["random"])
        assert name == "random" and np.array_equal(g.samples, want.samples)
    with pytest.raises(AssertionError, match="sawtooth8"):
        standard_family(64, 1, names=["sawtooth8"])


@pytest.mark.parametrize("size", [16, 256])
def test_family_matches_the_sampled_formulas(size):
    x = 2.0 * np.pi * np.arange(size) / size
    X, Y = np.meshgrid(x, x, indexing="ij")
    saw = lambda v: sum(np.sin(k * v) / k for k in range(1, 9))
    want = {1: [np.cos(x), np.abs(np.sin(x)), saw(x)],
            2: [np.cos(X) * np.cos(Y), np.abs(np.sin(X) * np.sin(Y)), saw(X) + saw(Y)]}
    for dim in (1, 2):
        fam = standard_family(size, dim, np.random.default_rng(0))
        assert [n for n, _ in fam] == ["cos", "abs-sin", "sawtooth8", "random"]
        for (_, g), w in zip(fam, want[dim]):
            assert np.array_equal(g.samples, w)


def jackson_14_paper_rows(g, p):
    """2^(-nr) {sum_{j<=n} 2^(jrs) omega^{r+1}(f,2^-j)^s}^(1/s) against omega^r(f,2^-n)."""
    r, s, norm = p["r"], p["s"], NormSpec.from_json(p["norm"])
    mod = lambda order, t: modulus(g, order, t, norm, p["directions"], p["radii"])
    rows = []
    for n in range(p["n_range"][0], p["n_range"][1] + 1):
        acc = 0.0
        for j in range(1, n + 1):
            acc += 2.0 ** (j * r * s) * mod(r + 1, 2.0 ** -j) ** s
        rows.append((2.0 ** (-n * r) * acc ** (1.0 / s), mod(r, 2.0 ** -n)))
    return rows


@pytest.mark.parametrize("params,rel", [
    ({"N": 64}, None),
    ({"N": 64, "r": 2}, None),
    ({"N": 16, "d": 2, "n_range": [1, 3], "radii": 4}, None),
    ({"N": 64, "norm": {"norm": "lp", "p": 3.0}}, 1e-15),
    ({"N": 64, "r": 2, "norm": {"norm": "lp", "p": 4.0}}, 1e-15),
    ({"N": 64, "n_range": [1, 5], "s": 3.0,
      "norm": NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5)).to_json()}, 1e-15),
])
def test_jackson_14_rows_are_the_papers_sum(params, rel):
    rep = run_check("jackson-1.4", dict(params, family=["abs-sin", "random"]))
    fam = standard_family(params["N"], rep.params["d"], np.random.default_rng(0),
                          names=["abs-sin", "random"])
    want = [row for _, g in fam for row in jackson_14_paper_rows(g, rep.params)]
    got = [(lhs, rhs) for _, lhs, rhs in rep.table]
    if rel is None:  # s = 2: every term is rescaled by an exact power of 2
        assert got == want
    else:
        assert [rhs for _, rhs in got] == [rhs for _, rhs in want]
        assert [lhs for lhs, _ in got] == pytest.approx([lhs for lhs, _ in want], rel=rel, abs=0.0)


def test_directions_is_a_resolution_of_2d_moduli_only():
    one = run_check("jackson-1.4", {"N": 32, "n_range": [1, 2], "family": ["cos"]})
    assert "directions" not in one.resolutions and one.params["directions"] == 8
    assert one.resolutions == {"N": 32, "radii": 64}
    two = run_check("kfunc-8.9", {"N": 16, "n_range": [1, 1], "family": ["cos"]})
    assert two.resolutions["directions"] == 8


def _recording(monkeypatch, name, at=1):
    """(members, cells) of every call lab makes to `name`, one pair per call.

    The members are the names of the N = 32 standard functions the call gets
    as its family, its first argument; a cell is (order, scale), the orders
    and scales being the arguments `at` and `at + 1` of the call.
    """
    seen, real = [], getattr(lab, name)
    names = {g.samples.tobytes(): n for n, g in standard_family(32)}

    def record(*args, **kwargs):
        members = [names[g.samples.tobytes()] for g in args[0]]
        seen.append((members, [(r, t) for r in args[at] for t in args[at + 1]]))
        return real(*args, **kwargs)

    monkeypatch.setattr(lab, name, record)
    return seen


def test_dyadic_sums_evaluate_each_term_once(monkeypatch):
    seen = _recording(monkeypatch, "_moduli_tables")
    rep = run_check("jackson-1.4", {"N": 32, "family": ["cos", "abs-sin"], "n_range": [1, 8]})
    # one table for the family: for each function, 8 left sides of order 1 and 8 distinct
    # terms of order 2 at 2^-1 .. 2^-8, which the sums over n = 1..8 read 36 times
    assert len(seen) == 1
    members, cells = seen[0]
    assert members == ["cos", "abs-sin"]
    assert len(set(cells)) == 16
    assert set(cells) == {(r, 2.0 ** -n) for r in (1, 2) for n in range(1, 9)}
    assert len(rep.table) == 16
    # one table of orders 1 and 2 for the family where both sides are one quantity
    seen = _recording(monkeypatch, "_moduli_tables")
    run_check("lower-8.12", {"N": 32, "family": ["cos", "sawtooth8"]})
    assert [(m, set(cells)) for m, cells in seen] == [
        (["cos", "sawtooth8"], {(r, 2.0 ** -n) for r in (1, 2) for n in range(6)})]
    seen = _recording(monkeypatch, "_difference_norms", at=2)
    run_check("basic-2.1", {"N": 32, "family": ["cos", "abs-sin"], "h": 0.25, "L": 3})
    assert seen == [(["cos", "abs-sin"], [(r, 0.25 * 2.0 ** j) for r in (1, 2) for j in range(4)])]
    # a dyadic tail asks for the family's left sides in one call, its sure terms j = 1..J in
    # a second, and for each further term of each function alone, once: two calls plus one
    # per function and term past J
    seen = _recording(monkeypatch, "_sup_table", at=2)
    rep = run_check("semigroup-7.4", {"N": 32, "family": ["cos", "abs-sin"]})
    J = _sure_terms(1, 2.0)
    assert seen[0] == (["cos", "abs-sin"], [(1, 2.0 ** -n) for n in range(1, 6)])
    assert seen[1][0] == ["cos", "abs-sin"]
    assert set(seen[1][1]) == {(2, 2.0 ** (j - n)) for n in range(1, 6) for j in range(1, J + 1)}
    past = [(m, cell) for members, cells in seen[2:] for m in members for cell in cells]
    assert all(len(members) == 1 and len(cells) == 1 for members, cells in seen[2:])
    assert len(past) == len(set(past)) and not {cell for _, cell in past} & set(seen[1][1])
    assert {m for m, _ in past} <= {"cos", "abs-sin"}
    assert rep.resolutions["max_j"] > J and len(seen) == 2 + len(past) >= 3


def test_dyadic_tail_sum_geometric_oracle():
    # constant values give c * (2^(rs) - 1)^(-1/s) in closed form
    r, s, c = 1, 2.0, 0.7
    val, stop = dyadic_tail_sum(lambda j: c, r, s)
    want = c * (2.0 ** (r * s) - 1.0) ** (-1.0 / s)
    assert val == pytest.approx(want, rel=1e-6, abs=0.0)
    assert stop <= 64
    # decaying values truncate early
    _, stop_fast = dyadic_tail_sum(lambda j: 2.0 ** (-3 * j), r, s)
    assert stop_fast < 20


def _sure_terms(r, s):
    """J: while its terms do not decrease, a dyadic tail cannot stop at j <= J."""
    return 1 + math.floor(math.log2((1.0 - 2.0 ** (-r * s)) / 1e-14) / (r * s))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("s", [2.0, 2.5, 3.0, 4.0])
def test_dyadic_tail_of_nondecreasing_terms_runs_past_the_sure_range(r, s):
    # term j is above 2^(-(j-1)rs)(1 - 2^(-rs)) of the running sum, at least 1e-14 up to J
    J = _sure_terms(r, s)
    for values in (lambda j: 0.7, lambda j: 0.1 * j, lambda j: 1.3 ** j, lambda j: 2.0 ** (r * j)):
        _, stop = dyadic_tail_sum(values, r, s)
        assert stop > J
    assert _sure_terms(1, 2.0) == 24


_LUX = NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5))
_TAIL_CASES = [
    ("jackson-4.8", {}), ("jackson-4.9", {}), ("jackson-5.9", {}),
    ("semigroup-7.4", {}), ("semigroup-7.4", {"norm": _LUX}),
    ("shift-7.5", {}), ("shift-7.5", {"norm": _LUX}),
    ("kfunc-8.9", {"route": "realization", "d": 1}), ("kfunc-8.9", {"route": "heat", "d": 1}),
    ("kfunc-8.9", {"route": "realization"}), ("kfunc-8.9", {"norm": _LUX, "d": 1}),
    ("jackson-8.10", {}), ("jackson-8.10", {"norm": _LUX}),
]


def _lazy_tail(check, p):
    """Rows and last j of a dyadic tail whose every side and term is asked for alone."""
    r, s = p["r"], p["s"]
    rows, stops = [], []
    rng = np.random.default_rng(p["seed"])
    for _, f in standard_family(p["N"], p["d"], rng, names=p["family"]):
        for _, t in check.scales(p):
            def term(j):
                u = (2.0 ** j) * t
                return check.term([f], p, [r + 1], [u])[0][(r + 1, u)]
            total, stop = dyadic_tail_sum(term, r, s)
            rows.append((check.lhs([f], p, [r], [t])[0][(r, t)], total))
            stops.append(stop)
    return rows, max(stops)


@pytest.mark.parametrize("cid,extra", _TAIL_CASES)
def test_tail_table_equals_the_lazy_terms(cid, extra):
    params = {"N": 32, "n_range": [1, 3], "family": ["abs-sin", "random"], **extra}
    rep = run_check(cid, params)
    rows, max_j = _lazy_tail(lab._CHECKS[cid], lab.parse_params(cid, params))
    assert [(l, r) for _, l, r in rep.table] == rows
    assert rep.resolutions["max_j"] == max_j


def test_tail_that_stops_before_the_sure_range_is_unchanged(monkeypatch):
    # a term that falls like u^-4 stops the tail early; the table's extra terms go unread
    def falling(fs, p, orders, us):
        return [{(r, u): v * u ** -4.0 for (r, u), v in table.items()}
                for table in lab._semigroup_modulus(fs, p, orders, us)]

    check = lab._CHECKS["shift-7.5"].replace(term=falling)
    monkeypatch.setitem(lab._CHECKS, "shift-7.5", check)
    params = {"N": 32, "n_range": [1, 3], "family": ["abs-sin", "random"]}
    rep = run_check("shift-7.5", params)
    rows, max_j = _lazy_tail(check, lab.parse_params("shift-7.5", params))
    assert max_j < _sure_terms(1, 2.0)
    assert rep.resolutions["max_j"] == max_j
    assert [(l, r) for _, l, r in rep.table] == rows


_MEMBERS = ["cos", "abs-sin", "sawtooth8", "random"]
_FAMILY_NORMS = {"l2": None, "l4": NormSpec(variant="lp", p=4.0), "luxemburg": _LUX}
# every check at d = 1 and 2 (the abel checks and the Cesaro means run on 1-d grids only),
# under each norm if it reads one (else under its Young function phi); 2-d L2 moduli take the
# lattice projection
_ONE_D = ("jackson-5.9", "jackson-5.10", "cesaro-5.1")
_FAMILY_CASES = [(cid, d, norm) for cid in ALL_IDS for d in (1, 2) if d == 1 or cid not in _ONE_D
                 for norm in (_FAMILY_NORMS if "norm" in check_params(cid) else ["phi"])]


def _family_params(cid, d, norm, family):
    params = {"N": 32 if d == 1 else 16, "d": d, "family": family}
    if _FAMILY_NORMS.get(norm) is not None:
        params["norm"] = _FAMILY_NORMS[norm].to_json()
    if "n_range" in check_params(cid):
        params["n_range"] = [1, 3]
    if cid == "cesaro-5.1":
        params["n"] = 8  # the default degree 16 needs N >= 34
    return params


@pytest.mark.parametrize("cid,d,norm", _FAMILY_CASES)
def test_a_member_has_the_same_rows_alone_and_in_the_family(cid, d, norm):
    whole = run_check(cid, _family_params(cid, d, norm, _MEMBERS))
    rows = [(lhs, rhs) for _, lhs, rhs in whole.table]
    k = len(rows) // len(_MEMBERS)
    for i, name in enumerate(_MEMBERS):
        alone = run_check(cid, _family_params(cid, d, norm, [name]))
        assert [(lhs, rhs) for _, lhs, rhs in alone.table] == rows[i * k:(i + 1) * k]


@pytest.mark.parametrize("cid,d,norm", [
    ("jackson-1.4", 1, "l2"), ("jackson-1.4", 1, "l4"), ("jackson-1.4", 1, "luxemburg"),
    ("jackson-1.4", 2, "l2"), ("jackson-1.4", 2, "l4"), ("lower-8.12", 1, "l4"),
    ("basic-2.1", 1, "l2"), ("basic-2.1", 2, "luxemburg"), ("jackson-5.10", 1, "l4"),
    ("averaged-7.3", 1, "l2"), ("averaged-7.3", 2, "l4"), ("entire-4.12", 1, "l2"),
    ("entire-4.12", 2, "luxemburg")])
def test_a_family_builds_each_stack_once(monkeypatch, cid, d, norm):
    # checks whose sums run over a fixed range of j, and rows checks: a k-member family builds
    # what one member builds (a dyadic tail past its sure range asks per member)
    counts = dict.fromkeys(("_step_multipliers", "_shift_symbol", "_axis_phases"), 0)
    for name in counts:
        def counted(*args, _real=getattr(ops_module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(ops_module, name, counted)

    def builds(family):
        counts.update(dict.fromkeys(counts, 0))
        run_check(cid, _family_params(cid, d, norm, family))
        return dict(counts)

    one = builds(["random"])
    assert sum(one.values()) > 0
    assert builds(_MEMBERS) == one


def test_convexity_constant_l2_and_l1():
    l2 = estimate_convexity_constant(NormSpec(variant="lp", p=2.0), s=2.0,
                                     rng=0, trials=100, size=64)
    assert l2.m_hat >= 0.98
    l1 = estimate_convexity_constant(NormSpec(variant="lp", p=1.0, s=2.0),
                                     s=2.0, rng=0, trials=100, size=64)
    assert abs(l1.m_hat) <= 1e-12
    assert l1.witness is not None and l1.witness_label == "flat-vs-cos"


@pytest.mark.parametrize("spec,s", [
    (NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5)), 2.0),
    (NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5)), 3.0),
    (NormSpec(variant="lp", p=2.0), 2.0),
    (NormSpec(variant="lp", p=3.0), 3.0),
    (NormSpec(variant="lp", p=4.0), 4.0),
])
def test_convexity_constant_never_exceeds_one(spec, s):
    # F = 0 gives the ratio 1 exactly, so m <= 1 for every norm and s
    est = estimate_convexity_constant(spec, s=s, rng=0, trials=100, size=64)
    assert est.m_hat <= 1.0 + 1e-12


def test_convexity_constant_gates():
    spec = NormSpec(variant="lp", p=2.0)
    with pytest.raises(ValueError):
        estimate_convexity_constant(spec, s=1.5, rng=0, trials=100)
    with pytest.raises(ValueError):
        estimate_convexity_constant(spec, s=2.0, rng=0, trials=10)
    # NaN would give m_hat = inf with no witness, and inf a ZeroDivisionError
    for s in (float("nan"), float("inf"), "2", True):
        with pytest.raises(ValueError, match="convexity exponent s must be finite and >= 2"):
            estimate_convexity_constant(spec, s=s, rng=0, trials=100)


def test_convexity_constant_antitone_in_trials():
    spec = NormSpec(variant="lp", p=2.0)
    small = estimate_convexity_constant(spec, s=2.0, rng=0, trials=100, size=64)
    large = estimate_convexity_constant(spec, s=2.0, rng=0, trials=150, size=64)
    assert large.m_hat <= small.m_hat + 1e-15


def test_space_moduli_l2_exponents():
    geo = space_moduli(NormSpec(variant="lp", p=2.0), size=64, rng=0, trials=12)
    assert geo.eta_exponent == pytest.approx(2.0, abs=0.1)
    assert geo.delta_exponent == pytest.approx(2.0, abs=0.1)
    assert geo.eta[0] == 0.0 and geo.delta[0] == 0.0
    assert all(b >= a - 1e-15 for a, b in zip(geo.eta, geo.eta[1:]))
    assert all(b >= a - 1e-15 for a, b in zip(geo.delta, geo.delta[1:]))


def test_verify_duality_pass_and_reject():
    for q, dim in ((2.0, 4), (1.5, 8)):
        rep = verify_duality(q, dim, rng=0, trials=200)
        assert rep.verdict == "pass"
        assert rep.constant >= 1.0 - 1e-9
    with pytest.raises(ValueError) as err:
        verify_duality(2.5, 4)
    assert "2.5" in str(err.value)
    with pytest.raises(ValueError):
        verify_duality(2.0, 1)


@pytest.mark.parametrize("call, message", [
    # sizes, dimensions and exponents go through the one integer rule and the one real rule
    (lambda: verify_duality(2.0, 3.0), "dim must be an integer >= 2, got 3.0"),
    (lambda: verify_duality(2.0, True), "dim must be an integer >= 2, got True"),
    (lambda: verify_duality("1.5", 4), "smoothness exponent q must be a finite number, got '1.5'"),
    (lambda: estimate_convexity_constant(size=64.0), "size must be an even integer >= 8, got 64.0"),
    (lambda: estimate_convexity_constant(size=True), "size must be an even integer >= 8, got True"),
    (lambda: estimate_convexity_constant(dim=2.0), "dim must be an integer from 1 to 2, got 2.0"),
    (lambda: space_moduli(size=16.0), "size must be an even integer >= 8, got 16.0"),
    (lambda: space_moduli(size=16, dim=True), "dim must be an integer from 1 to 2, got True"),
    (lambda: standard_family(16, True), "dim must be an integer from 1 to 2, got True"),
    (lambda: standard_family(16, 3), "dim must be an integer from 1 to 2, got 3"),
])
def test_lab_refusals_name_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("trials", [-5, -1, 2.5, 30.0, "8", True])
def test_trials_must_be_a_count(trials):
    with pytest.raises(ValueError, match="^trials must be an integer >= 0"):
        space_moduli(size=16, rng=0, trials=trials)
    with pytest.raises(ValueError, match="^trials must be an integer >= 0"):
        verify_duality(2.0, 4, rng=0, trials=trials)
    with pytest.raises(ValueError, match="^trials must be an integer >= 100"):
        estimate_convexity_constant(trials=trials)


# -- oracle: the estimators' scalar per-pair loops ------------------------
#
# Each norm is a one-row `NormSpec.norm` call and each (eps, pair) of delta a
# scalar bisection; the stacked estimators must give the same bits.


def convexity_loop(norm=None, s=2.0, rng=None, trials=200, size=64, dim=1):
    if s < 2.0:
        raise ValueError(f"convexity exponent s must be >= 2, got {s}")
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    rng, _ = lab._generator(rng)
    nfun = ops_module._norm_spec(norm).norm
    x = 2.0 * np.pi * np.arange(size) / size
    shape = (size,) * dim
    ones = GridFunction(np.ones(shape))
    cosf = discretize(np.cos, size, 1) if dim == 1 else \
        discretize(lambda a, b: np.cos(a), size, 2)
    left = np.zeros(shape)
    right = np.zeros(shape)
    half = (x < np.pi)
    if dim == 1:
        left[half] = 1.0
        right[~half] = 1.0
    else:
        left[half, :] = 1.0
        right[~half, :] = 1.0

    best = float("inf")
    best_pair = None
    best_label = None

    def consider(label, F, G):
        nonlocal best, best_pair, best_label
        ng = nfun(G)
        if ng < 1e-12:
            return
        nf = nfun(F)
        top = max(nfun(F + G), nfun(F - G))
        val = max((top ** s - nf ** s) / ng ** s, 0.0)
        if val < best:
            best, best_pair, best_label = val, (F, G), label

    consider("flat-vs-cos", ones, cosf)
    consider("near-parallel", cosf, 0.01 * cosf)
    consider("disjoint-halves", GridFunction(left), GridFunction(right))
    consider("zero-vs-cos", GridFunction(np.zeros(shape)), cosf)
    for k in range(trials):
        mode = k % 3
        F = random_smooth(size, dim, rng)
        if mode == 0:
            G = random_smooth(size, dim, rng)
        elif mode == 1:
            eps = rng.uniform(0.005, 0.1)
            G = eps * F + rng.uniform(0.0, 0.2) * eps * random_smooth(size, dim, rng)
        else:
            mask = left if rng.uniform() < 0.5 else right
            F = GridFunction(F.samples * mask)
            G = GridFunction(random_smooth(size, dim, rng).samples * (1.0 - mask))
        consider(f"random-{k}", F, G)
    return lab.ConvexityEstimate(float(best), best_pair, best_label, trials)


def space_moduli_loop(norm=None, size=64, dim=1, rng=None, trials=24):
    rng, _ = lab._generator(rng)
    nfun = ops_module._norm_spec(norm).norm
    sigma = np.concatenate([[0.0], np.geomspace(0.02, 0.5, 15)])
    eps = np.concatenate([[0.0], np.geomspace(0.05, 1.0, 15)])

    def unit(g):
        n = nfun(g)
        if n < 1e-14:
            return None
        return (1.0 / n) * g

    base = []
    if dim == 1:
        base.append((discretize(np.cos, size, 1), discretize(np.sin, size, 1)))
        base.append((discretize(lambda x: np.cos(2 * x), size, 1),
                     discretize(np.cos, size, 1)))
    else:
        base.append((discretize(lambda x, y: np.cos(x), size, 2),
                     discretize(lambda x, y: np.sin(x), size, 2)))
        base.append((discretize(lambda x, y: np.cos(x) * np.cos(y), size, 2),
                     discretize(lambda x, y: np.sin(x) * np.sin(y), size, 2)))
    pairs = list(base)
    for _ in range(trials):
        pairs.append((random_smooth(size, dim, rng), random_smooth(size, dim, rng)))
    pairs = [(unit(a), unit(b)) for a, b in pairs]
    pairs = [(a, b) for a, b in pairs if a is not None and b is not None]

    eta = np.zeros_like(sigma)
    for i, sg in enumerate(sigma):
        if sg == 0.0:
            continue
        best = 0.0
        for F, B in pairs:
            G = sg * B
            best = max(best, 0.5 * nfun(F + G) + 0.5 * nfun(F - G) - 1.0)
        eta[i] = max(best, 0.0)
    eta = np.maximum.accumulate(eta)

    delta = np.zeros_like(eps)
    for i, ev in enumerate(eps):
        if ev == 0.0:
            continue
        best = None
        for phi, b in pairs:
            gap = nfun(phi - b)
            if gap < ev - 1e-12:
                continue

            def mix(theta):
                return unit(math.cos(theta) * phi + math.sin(theta) * b)

            lo, hi = 0.0, math.pi / 2.0
            if nfun(phi - mix(hi)) < ev:
                hi = math.pi
                if nfun(phi - mix(hi)) < ev - 1e-9:
                    continue
            psi = mix(bisect_level(lambda th: nfun(phi - mix(th)), lo, hi, level=ev, iters=60))
            val = max(1.0 - 0.5 * nfun(phi + psi), 0.0)
            if best is None or val < best:
                best = val
        delta[i] = 0.0 if best is None else best
    delta = np.maximum.accumulate(delta)

    def fit(xs, ys):
        good = (xs > 0.0) & (ys > 0.0)
        if np.count_nonzero(good) < 2:
            return float("nan")
        return float(np.polyfit(np.log(xs[good]), np.log(ys[good]), 1)[0])

    return lab.SpaceGeometry(tuple(float(v) for v in sigma), tuple(float(v) for v in eta),
                             tuple(float(v) for v in eps), tuple(float(v) for v in delta),
                             fit(sigma, eta), fit(eps, delta))


def duality_loop(q, dim, rng=None, trials=400):
    # explicit l_q and l_s sums over the dim points
    rng, seed = lab._generator(rng)
    s, tol = q / (q - 1.0), 0.01

    def norm_of(v, expo):
        return float(np.sum(np.abs(v) ** expo) ** (1.0 / expo))

    det_pairs = []
    e0 = np.zeros(dim)
    e1 = np.zeros(dim)
    e0[0] = 1.0
    e1[1] = 1.0
    for scale in (0.1, 0.5, 1.0, 2.0):
        det_pairs.append((e0, scale * e1))

    m_need = 0.0
    for k in range(trials + len(det_pairs)):
        if k < len(det_pairs):
            x, y = det_pairs[k]
        else:
            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
        ny = norm_of(y, q)
        if ny < 1e-12:
            continue
        lhs = 0.5 * (norm_of(x + y, q) + norm_of(x - y, q))
        need = (lhs ** q - norm_of(x, q) ** q) / ny ** q
        m_need = max(m_need, need)
    M_hat = max(m_need, 1e-12)
    m_pred = M_hat ** (-1.0 / (q - 1.0))

    rows = []
    for k in range(trials + len(det_pairs)):
        if k < len(det_pairs):
            u, v = det_pairs[k]
        else:
            u = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
        nv = norm_of(v, s)
        if nv < 1e-12:
            continue
        top = max(norm_of(u + v, s), norm_of(u - v, s))
        rows.append((top ** s - norm_of(u, s) ** s, nv ** s))

    return _finish(
        "duality", {"q": q, "dim": dim, "trials": trials, "tol": tol}, rows, "lower",
        float("inf"), seed, {"trials": trials},
        notes=(f"M_hat={M_hat:.12g}", f"s={s:.12g}", f"m_pred={m_pred:.12g}",
               "constant = min (max(|u+v|,|u-v|)^s - |u|^s)/|v|^s on l_s"),
        lower_threshold=m_pred - 3.0 * tol)


def _estimator_norm(name, size, dim):
    # the norms the estimators are compared under; the weight is positive and not flat
    x = (np.arange(size) + 0.5) / size
    weight = 1.0 + 0.5 * np.cos(2.0 * np.pi * np.add.outer(x, x) if dim == 2 else 2.0 * np.pi * x)
    return {"l2": NormSpec(), "l1.5": NormSpec(p=1.5), "l4": NormSpec(p=4.0),
            "weighted-l4": NormSpec(p=4.0, weight=weight),
            "luxemburg": NormSpec("luxemburg", phi=zygmund(2.0, 0.5)),
            "orlicz": NormSpec("orlicz", phi=zygmund(2.0, 0.5))}[name]


@pytest.mark.parametrize("dim,size,young_size", [(1, 64, 16), (2, 32, 8)])
@pytest.mark.parametrize("name", ["l2", "l1.5", "l4", "weighted-l4", "luxemburg", "orlicz"])
def test_stacked_estimators_equal_the_per_pair_loops(name, dim, size, young_size):
    # at d = 2, N = 32 the 104 convexity pairs take four slices of `_STACK_SAMPLES`
    young = name in ("luxemburg", "orlicz")
    size = young_size if young else size
    norm = _estimator_norm(name, size, dim)
    got, want = (est(norm, s=2.5, rng=3, trials=100, size=size, dim=dim)
                 for est in (estimate_convexity_constant, convexity_loop))
    assert (got.m_hat, got.witness_label, got.trials) == (want.m_hat, want.witness_label, 100)
    assert all(a.samples.tobytes() == b.samples.tobytes()
               for a, b in zip(got.witness, want.witness))
    trials = 0 if young else 3
    got, want = (est(norm, size=size, dim=dim, rng=5, trials=trials)
                 for est in (space_moduli, space_moduli_loop))
    assert got == want
    assert any(v > 0.0 for v in got.delta) and math.isfinite(got.delta_exponent)


def test_convexity_estimate_holds_one_stack_of_pairs():
    # every pair at once held 155 MB at d = 2, N = 128; a stack there is two pairs
    tracemalloc.start()
    try:
        estimate_convexity_constant(NormSpec(p=4.0), rng=0, trials=200, size=128, dim=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


@pytest.mark.parametrize("q,dim,trials", [(2.0, 4, 400), (1.5, 8, 400), (1.2, 6, 200),
                                          (1.8, 3, 200), (2.0, 2, 50), (1.5, 4, 0)])
def test_verify_duality_equals_explicit_sums(q, dim, trials):
    got, want = verify_duality(q, dim, rng=1, trials=trials), duality_loop(q, dim, 1, trials)
    assert (got.verdict, got.notes, got.params, got.seed) == \
        (want.verdict, want.notes, want.params, want.seed)
    assert got.constant == pytest.approx(want.constant, rel=1e-12, abs=0.0)
    assert len(got.table) == len(want.table)
    for a, b in zip(got.table, want.table):
        assert a[1:] == pytest.approx(b[1:], rel=1e-12, abs=1e-15)


def test_scales_and_base_steps_must_be_positive():
    base = {"N": 32, "family": ["cos"]}
    refused = [("averaged-7.3", {"t_grid": [-1.0, 0.5, 1.0]}, "t_grid", "must be > 0"),
               ("averaged-7.3", {"t_grid": [-1.0, 0.0]}, "t_grid", "must be > 0"),
               ("basic-2.1", {"h": 0.0}, "h", "must be nonzero"),
               ("basic-2.1", {"h": -0.3, "semigroup": "heat"}, "h", "takes a time h > 0"),
               ("basic-2.1", {"h": -0.3, "semigroup": "abel"}, "h", "takes a time h > 0")]
    for cid, params, name, reason in refused:
        with pytest.raises(ParamError, match=reason) as err:
            run_check(cid, {**base, **params})
        assert err.value.name == name
    # a negative shift step is a step backwards
    assert run_check("basic-2.1", {**base, "h": -0.3}).verdict == "pass"


def test_kfunc_89_requires_enough_smoothing():
    with pytest.raises(ValueError):
        run_check("kfunc-8.9", {"N": 32, "r": 2, "ell": 1})


def test_spread_bound_is_enforced():
    rep = run_check("jackson-1.4", {"N": 64, "spread_bound": 1.0001})
    # the family mixes smooth and rough functions, the ratios cannot all tie
    assert rep.verdict == "fail"
    assert rep.spread > 1.0001


def test_finish_lower_zero_lhs_is_a_zero_constant():
    rep = _finish("x", {}, [(1.0, 1.0), (0.0, 2.0), (1.5, 1.0)], "lower", 10.0, 0, {})
    assert rep.constant == 0.0 and rep.ratios[1] == 0.0
    assert rep.verdict == "fail" and rep.notes == ()


def test_finish_non_finite_side_fails_and_floor_ignores_it():
    for direction in ("lower", "upper"):
        rows = [(1.0, 1.0), (float("inf"), 1.0), (1.2, float("nan")), (1e-3, 1e-3)]
        rep = _finish("x", {}, rows, direction, 10.0, 0, {})
        assert rep.verdict == "fail"
        # the floor comes from the finite sides, so the small row is kept
        assert rep.ratios[3] == 1.0 and rep.constant == 1.0
        assert rep.notes == ("2 rows excluded (non-finite value)",)
    clean = _finish("x", {}, [(1.0, 1.0), (1e-3, 1e-3)], "upper", 10.0, 0, {})
    assert clean.verdict == "pass"


def test_finish_upper_unbounded_ratio_fails():
    rows = [(1.0, 1.0), (1.0, 0.0), (1e-20, 0.0)]
    rep = _finish("x", {}, rows, "upper", 10.0, 0, {})
    assert rep.verdict == "fail" and rep.constant == float("inf")
    assert rep.ratios[1] == float("inf") and math.isnan(rep.ratios[2])
    assert rep.notes == ("1 rows excluded (rhs below noise floor)",
                         "1 rows unbounded (rhs at or below the noise floor, lhs above it)")
    # the same rows bound a lower check from below: only noise is excluded
    low = _finish("x", {}, rows, "lower", 10.0, 0, {})
    assert low.verdict == "pass" and low.constant == 1.0
    assert low.notes == ("2 rows excluded (rhs below noise floor)",)


def _numpy_median(values):
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.median(values))


# ties, zeros, subnormals, values whose middle pair sums past the largest float, and +inf
_EDGES = (0.0, -0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 1.0, 3.0,
          1e308, 1.7e308, 1.7976931348623157e308, float("inf"))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(_EDGES) | st.floats(allow_nan=False), min_size=1, max_size=9))
@example([7.0])
@example([2.0, 1.0])
@example([3.0, 1.0, 2.0])
@example([1.0, 2.0, 2.0, 1.0])
@example([0.5] * 8)
@example([float(k) for k in range(9)])
@example([0.0, 0.0])
@example([-0.0])
@example([-0.0, -0.0])
@example([5e-324, 1e-323])
@example([5e-324, 5e-324, 1.0])
@example([1.7e308, 1e308])
@example([1.7976931348623157e308] * 4)
@example([1.0, float("inf")])
@example([float("inf"), 2.0, float("inf")])
@example([1.0, 2.0, float("inf"), float("inf")])
def test_median_equals_numpys_bit_for_bit(values):
    assert lab._median(values).hex() == _numpy_median(values).hex()
