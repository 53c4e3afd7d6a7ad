"""Conjugation, growth conditions, concavity regions, and the patch."""

import json
import math
import re
from functools import partial

import numpy as np
import pytest

from jacksonlab import (YoungFunction, bisect_level_log, check_delta2, check_nabla2,
                        complementary, log_power, log_power_tail_threshold, patch, power,
                        power_concavity_regions, two_power, zygmund)
from jacksonlab.young import _conj_refine

# exp(u) - 1 - u: grows too fast for the doubling condition
EXP = YoungFunction("exp", ())


def power_conjugate(p, y):
    # sup_x (x*y - x**p), attained at x = (y/p)**(1/(p-1))
    if y <= 0.0:
        return 0.0
    return (p - 1.0) * (y / p) ** (p / (p - 1.0))


def test_builtin_values():
    assert power(2.0)(3.0) == pytest.approx(9.0, rel=1e-6, abs=0.0)
    phi = two_power(1.5, 3.0)
    assert phi(0.25) == pytest.approx(0.25 ** 1.5, rel=1e-6, abs=0.0)
    assert phi(2.0) == pytest.approx(8.0, rel=1e-6, abs=0.0)
    assert zygmund(2.0, 0.5)(1.0) == pytest.approx(math.log(3.0), rel=1e-6, abs=0.0)
    assert log_power(3.0)(math.e) == pytest.approx(math.e ** 3 * 2.0, rel=1e-6, abs=0.0)
    assert EXP(1.0) == pytest.approx(math.e - 2.0, rel=1e-6, abs=0.0)
    assert power(2.0)(0.0) == 0.0


def test_builtin_convexity_and_derivatives():
    for phi in (power(1.5), two_power(1.5, 3.0), zygmund(2.0, 0.5),
                log_power(3.0), EXP):
        # exp growth overflows past ~700, keep its grid modest
        hi = 30.0 if phi.kind == "exp" else 1e3
        grid = np.geomspace(1e-3, hi, 400)
        vals = np.asarray(phi(grid))
        assert np.all(np.diff(vals) > 0.0)
        # chords sit above the graph at interior points
        mid = phi(0.5 * (grid[:-1] + grid[1:]))
        assert np.all(mid <= 0.5 * (vals[:-1] + vals[1:]) + 1e-12 * vals[1:])
        dp = np.asarray(phi.deriv_plus(grid))
        dm = np.asarray(phi.deriv_minus(grid))
        assert np.all(dp >= dm - 1e-12 * np.abs(dp))


# -- oracle: phi and phi'_-+ of each builtin kind, one branch per kind ----


def builtin_value(kind, params, x):
    if kind == "power":
        return x ** params[0]
    if kind == "two_power":
        a, b = params
        return np.where(x <= 1.0, x ** a, x ** b)
    if kind == "log_power":
        r = params[0]
        safe = np.where(x > 0.0, x, 1.0)
        return np.where(x > 0.0, safe ** r * (1.0 + np.abs(np.log(safe))), 0.0)
    if kind == "zygmund":
        p, alpha = params
        return x ** p * np.log(2.0 + x) ** (alpha * p)
    if kind == "exp":
        return np.expm1(x) - x
    raise AssertionError(kind)


def builtin_deriv(kind, params, x, side):
    if kind == "power":
        p = params[0]
        return p * x ** (p - 1.0)
    if kind == "two_power":
        a, b = params
        low = a * x ** (a - 1.0)
        high = b * x ** (b - 1.0)
        cut = (x <= 1.0) if side == "minus" else (x < 1.0)
        return np.where(cut, low, high)
    if kind == "log_power":
        r = params[0]
        safe = np.where(x > 0.0, x, 1.0)
        low = safe ** (r - 1.0) * (r - 1.0 - r * np.log(safe))
        high = safe ** (r - 1.0) * (r + 1.0 + r * np.log(safe))
        cut = (x <= 1.0) if side == "minus" else (x < 1.0)
        out = np.where(cut, low, high)
        return np.where(x > 0.0, out, 0.0)
    if kind == "zygmund":
        p, alpha = params
        ell = np.log(2.0 + x)
        return x ** (p - 1.0) * ell ** (alpha * p - 1.0) * (p * ell + alpha * p * x / (2.0 + x))
    if kind == "exp":
        return np.expm1(x)
    raise AssertionError(kind)


_ORACLE_X = np.array([0.0, 1e-300, 1e-6, 0.5, np.nextafter(1.0, 0.0), 1.0,
                      np.nextafter(1.0, 2.0), 1.0 + 1e-9, 2.0, 37.5, 1e6])


@pytest.mark.parametrize("kind, params", [
    ("power", (1.0,)), ("power", (2.5,)), ("two_power", (1.5, 3.0)), ("two_power", (1.1, 7.0)),
    ("log_power", (3.0,)), ("log_power", (4.5,)), ("zygmund", (2.0, 0.5)), ("zygmund", (1.0, 1.0)),
    ("exp", ()),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)
def test_builtin_values_and_derivatives_equal_the_per_kind_branches(kind, params):
    # every builtin kind's row gives the branch's bits, at the kink x = 1 and either side
    # of it too; exp takes no params, so it has one case, and overflows at 1e6 as its branch does
    phi = YoungFunction(kind, params)
    for x in (_ORACLE_X, _ORACLE_X[:, None] * np.ones(2), _ORACLE_X[::-1]):
        with np.errstate(over="ignore"):
            got = (phi(x), phi.deriv_minus(x), phi.deriv_plus(x))
            want = (builtin_value(kind, params, x), builtin_deriv(kind, params, x, "minus"),
                    builtin_deriv(kind, params, x, "plus"))
        for g, w in zip(got, want):
            assert g.shape == x.shape
            assert g.tobytes() == np.asarray(w, dtype=float).tobytes()
    for v in _ORACLE_X.tolist():
        with np.errstate(over="ignore"):
            got = (phi(v), phi.deriv_minus(v), phi.deriv_plus(v))
            want = (builtin_value(kind, params, np.asarray(v)),
                    builtin_deriv(kind, params, np.asarray(v), "minus"),
                    builtin_deriv(kind, params, np.asarray(v), "plus"))
        for g, w in zip(got, want):
            assert type(g) is float
            assert np.float64(g).tobytes() == np.float64(w).tobytes()


def conjugate_by_argmax_matrix(psi, y):
    # the N x M grid argmax of x*y - phi(x), then the library's refinement
    xg, base_grid = psi._xgrid, psi._base_grid
    mass = y[:, None] * xg[None, :] - base_grid[None, :]
    idx = np.argmax(mass, axis=1)
    return _conj_refine(psi.base, xg, base_grid, y, idx)


@pytest.mark.parametrize("make, least", [
    (lambda: power(1.0), 1.0), (lambda: power(2.5), 2.5), (lambda: power(3.0), 3.0),
    (lambda: zygmund(1.0, 1.0), 1.0), (lambda: zygmund(2.0, 0.5), 2.0),
    (lambda: two_power(1.5, 3.0), 1.5), (lambda: log_power(3.0), 1.0),
    (lambda: EXP, 1.0), (lambda: patch(zygmund(2.0, 0.5), 3.0, 0.2, 5.0).phi, 1.0),
    (lambda: complementary(power(3.0)), 1.0), (lambda: complementary(zygmund(2.0, 0.5)), 1.0),
], ids=["power-1", "power-2.5", "power-3", "zygmund-1-1", "zygmund-2-0.5", "two_power",
        "log_power", "exp", "patched", "conjugate-power", "conjugate-zygmund"])
def test_power_index_bounds_the_growth_of_each_kind(make, least):
    # the moduli's pruning reads q with phi(u)/u**q nondecreasing from the record
    # (YoungFunction.power_index): u phi'(u)/phi(u) >= q, and the ratio does not fall,
    # on a dense grid
    phi = make()
    q = phi.power_index
    assert q >= least
    u = np.geomspace(1e-6, 1e6, 24001)
    with np.errstate(over="ignore"):  # exp passes the float range near u = 700
        vals, grows = np.asarray(phi(u)), u * np.asarray(phi.deriv_minus(u))
    on = (vals > 0.0) & np.isfinite(grows)
    assert on.sum() >= len(u) // 2
    assert np.all(grows[on] >= q * vals[on] * (1.0 - 1e-12))
    ratio = vals[on] / u[on] ** q
    assert np.all(np.diff(ratio) >= -1e-12 * ratio[1:])


def test_conjugate_chord_index_matches_argmax_oracle():
    rng = np.random.default_rng(6)
    y = np.concatenate([np.geomspace(1e-6, 1e6, 300), rng.uniform(0.0, 50.0, 300)])
    for phi in (power(1.5), power(3.0), two_power(1.5, 3.0), log_power(3.0),
                zygmund(2.0, 0.5), patch(zygmund(2.0, 0.5), 3.0, 0.2, 5.0).phi):
        psi = complementary(phi)
        vals, args = conjugate_by_argmax_matrix(psi, y)
        got = np.asarray(psi(y))
        assert np.all(np.abs(got - vals) <= 1e-14 * np.abs(vals))
        got_args = np.asarray(psi.deriv_plus(y))
        assert np.all(np.abs(got_args - args) <= 1e-14 * np.abs(args))


def test_conjugate_of_powers_to_rounding():
    y = np.geomspace(1e-2, 1e2, 97)
    for p in (1.5, 2.0, 3.0, 4.0):
        psi = complementary(power(p))
        value = (p - 1.0) * (y / p) ** (p / (p - 1.0))
        argmax = (y / p) ** (1.0 / (p - 1.0))
        assert np.max(np.abs(np.asarray(psi(y)) - value) / value) <= 1e-13, p
        got = np.asarray(psi.deriv_plus(y))
        assert np.max(np.abs(got - argmax) / argmax) <= 1e-13, p


def test_conjugate_argmax_is_where_the_derivative_crosses():
    # Young's equality: phi'_-(x*) <= y <= phi'_+(x*) at the maximizer x*
    bases = (two_power(1.5, 3.0), log_power(3.0), zygmund(2.0, 0.5),
             patch(zygmund(2.0, 0.5), 3.0, 0.2, 5.0).phi)
    for phi in bases:
        psi = complementary(phi)
        # the ends of each kink's subgradient at x = 1, and points inside it
        kink = np.linspace(float(phi.deriv_minus(1.0)), float(phi.deriv_plus(1.0)), 5)
        y = np.concatenate([np.geomspace(1e-2, 1e2, 61), kink])
        x = np.asarray(psi.deriv_plus(y))
        assert np.all(np.asarray(phi.deriv_minus(x * (1.0 - 1e-12))) <= y), phi.kind
        assert np.all(y <= np.asarray(phi.deriv_plus(x * (1.0 + 1e-12)))), phi.kind
        if phi.kind == "two_power":
            inside = (kink > phi.deriv_minus(1.0)) & (kink < phi.deriv_plus(1.0))
            assert np.all(x[61:][inside] == 1.0)


class CountedBase:
    """A Young function that counts its evaluations and right derivatives."""

    def __init__(self, phi):
        self.phi, self.kind, self.params = phi, phi.kind, phi.params
        self.calls = self.derivs = self.points = 0

    def __call__(self, x):
        self.calls += 1
        return self.phi(x)

    def deriv_plus(self, x):
        self.derivs += 1
        self.points += np.size(x)
        return self.phi.deriv_plus(x)


def test_conjugate_evaluation_budget():
    base = CountedBase(power(3.0))
    psi = complementary(base)
    base.calls = base.derivs = 0
    y = np.geomspace(1e-3, 1e3, 128)
    vals = np.asarray(psi(y))
    # golden section took 161 base calls and bisection from the grid bracket 48
    # derivatives; secant steps and a verified bracket take 16
    assert base.calls == 1
    assert 0 < base.derivs <= 16
    assert np.array_equal(vals, np.asarray(complementary(power(3.0))(y)))


def test_conjugate_bisection_evaluates_only_the_open_rows():
    # rows past the grid or at two_power's kink keep their chord bracket and take
    # 48 bisection steps, the others about 8; every row in every call was 23,200 points
    base = CountedBase(two_power(1.5, 3.0))
    psi = complementary(base)
    base.calls = base.derivs = base.points = 0
    y = np.concatenate([np.geomspace(1e-3, 1e3, 200),
                        np.random.default_rng(0).uniform(0.0, 50.0, 200)])
    vals, args = np.asarray(psi(y)), np.asarray(psi.deriv_plus(y))
    assert base.derivs == 2 * 56 and base.points <= 2 * 10_000
    # a row's value and maximizer do not depend on the rows that share its call
    assert vals.tolist() == [psi(one) for one in y]
    assert args.tolist() == [psi.deriv_plus(one) for one in y]


def bisection_refine(base, xg, base_grid, y, idx):
    # the refinement before the secant estimate: bisection from the grid bracket
    lo = xg[np.maximum(idx - 1, 0)]
    hi = xg[np.minimum(idx + 1, len(xg) - 1)]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        up = np.asarray(base.deriv_plus(mid), dtype=float) >= y
        lo = np.where(up, lo, mid)
        hi = np.where(up, mid, hi)
    refined = y * hi - np.asarray(base(hi), dtype=float)
    grid_best = y * xg[idx] - base_grid[idx]
    better = refined >= grid_best
    return (np.maximum(np.where(better, refined, grid_best), 0.0),
            np.where(better, hi, xg[idx]))


def bisection_conjugate(psi, y):
    """psi(y) and psi'_+(y) as `_conj_values` gives them, refined by bisection alone."""
    vals = np.where(np.isnan(y), np.nan, 0.0)
    args = vals.copy()
    pos = y > 0.0
    idx = np.searchsorted(psi._chord, y[pos], side="left")
    vals[pos], args[pos] = bisection_refine(psi.base, psi._xgrid, psi._base_grid, y[pos], idx)
    return vals, args


def conjugate_cases(psi):
    # the chord ends and their neighbours (the grid edges), y past y_max and past
    # the grid, 0, negatives, NaN, two_power(1.5, 3)'s kink interval and a smooth range
    ends = [psi._chord[0], psi._chord[-1]]
    edges = [np.nextafter(e, d) for e in ends for d in (0.0, math.inf)]
    return np.concatenate([ends, edges, [1e-300, 2e3, 1e5, 1e15, math.inf, 0.0, -0.0, -2.0,
                                         math.nan], np.linspace(1.5, 3.0, 7),
                           np.geomspace(1e-4, 1e3, 200)])


@pytest.mark.parametrize("make", [
    lambda: power(1.5), lambda: power(2.0), lambda: power(3.0), lambda: power(4.0),
    lambda: zygmund(2.0, 0.5), lambda: two_power(1.5, 3.0),
    lambda: patch(zygmund(2.0, 0.5), 3.0, 0.2, 5.0).phi],
    ids=["power-1.5", "power-2", "power-3", "power-4", "zygmund", "two_power", "patched"])
def test_conjugate_equals_bisection_exactly(make):
    # where phi'_+ never decreases in floating point the first crossing float is
    # unique, so the verified bracket ends where the grid bracket's bisection ends
    psi = complementary(make())
    y = conjugate_cases(psi)
    vals, args = bisection_conjugate(psi, y)
    assert np.array_equal(np.asarray(psi(y)), vals, equal_nan=True)
    assert np.array_equal(np.asarray(psi.deriv_plus(y)), args, equal_nan=True)
    # alone each y has its own rows, with no row of the others in its loop
    for one in y:
        val, arg = bisection_conjugate(psi, np.array([one]))
        assert np.array_equal([psi(one)], val, equal_nan=True), one
        assert np.array_equal([psi.deriv_plus(one)], arg, equal_nan=True), one


def test_conjugate_of_log_power_is_bisection_to_rounding():
    # log_power's phi'_+ is not monotone in its last bits, so a maximizer may
    # move by ulps; psi does not move beyond rounding
    psi = complementary(log_power(3.0))
    y = np.concatenate([conjugate_cases(psi), np.geomspace(1e-3, 1e3, 6000)])
    vals, args = bisection_conjugate(psi, y)
    got = np.asarray(psi(y))
    ok = np.isfinite(vals)
    assert np.array_equal(got[~ok], vals[~ok], equal_nan=True)
    assert np.all(np.abs(got[ok] - vals[ok]) <= 1e-15 * np.abs(vals[ok]))
    moved = np.asarray(psi.deriv_plus(y))[ok] != args[ok]
    assert np.sum(moved) <= 0.01 * len(y)


def test_conjugate_propagates_nan():
    psi = complementary(power(3.0))
    assert math.isnan(psi(math.nan))
    assert math.isnan(psi.deriv_plus(math.nan))
    got = np.asarray(psi(np.array([math.nan, -1.0, 0.0, 2.0])))
    assert math.isnan(got[0]) and got[1] == 0.0 and got[2] == 0.0
    assert got[3] == pytest.approx(power_conjugate(3.0, 2.0), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("kwargs, name", [
    ({"resolution": 1}, "resolution"), ({"resolution": 0}, "resolution"),
    ({"resolution": 2.5}, "resolution"), ({"resolution": True}, "resolution"),
    ({"y_max": -1.0}, "y_max"), ({"y_max": 0.0}, "y_max"),
    ({"y_max": math.nan}, "y_max"), ({"y_max": math.inf}, "y_max")])
def test_complementary_refuses_bad_parameters(kwargs, name):
    with pytest.raises(ValueError, match=name):
        complementary(power(3.0), **kwargs)
    data = complementary(power(3.0)).to_json()
    data["params"][-2 if name == "y_max" else -1] = kwargs[name]
    # from_json goes through the same constructor
    with pytest.raises(ValueError, match=name):
        YoungFunction.from_json(data)


def test_complementary_at_the_smallest_resolution():
    # two grid points still bracket the maximizer for y inside the chord range
    psi = complementary(power(3.0), resolution=2)
    assert psi(2.0) == pytest.approx(power_conjugate(3.0, 2.0), rel=1e-13, abs=0.0)


def test_conjugate_of_square():
    psi = complementary(power(2.0))
    assert psi(2.0) == pytest.approx(1.0, abs=1e-6)
    ys = np.geomspace(0.05, 20.0, 40)
    expect = np.array([power_conjugate(2.0, y) for y in ys])
    got = np.asarray(psi(ys))
    assert np.max(np.abs(got - expect) / np.maximum(expect, 1e-12)) < 1e-6


def test_conjugate_of_general_powers():
    for p in (1.5, 3.0, 4.0):
        psi = complementary(power(p))
        for y in (0.1, 0.7, 1.0, 3.0, 10.0):
            assert psi(y) == pytest.approx(power_conjugate(p, y), rel=1e-6, abs=0.0)


def test_double_conjugation_recovers_builtins():
    grid = np.geomspace(0.01, 10.0, 60)
    for phi in (power(2.0), power(3.0), two_power(1.5, 3.0),
                zygmund(2.0, 0.5), log_power(3.0)):
        # the outer conjugate only needs accuracy on [0.01, 10]
        back = complementary(complementary(phi), y_max=20.0)
        vals = np.asarray(phi(grid))
        got = np.asarray(back(grid))
        rel = np.abs(got - vals) / np.maximum(vals, 1e-300)
        assert np.max(rel) < 1e-6, phi.kind


def test_conjugate_rejects_linear_growth():
    with pytest.raises(ValueError, match="complement undefined"):
        complementary(power(1.0))


def test_conjugate_names_an_overflowing_phi():
    # exp(1e6) overflows: the cause is the working grid's range, not slow growth
    with pytest.raises(ValueError, match=re.escape(
            "complement undefined at working precision: "
            "phi overflows on the working grid [1e-06, 1e+06]")):
        complementary(EXP)


def test_delta2_and_nabla2():
    res = check_delta2(power(2.0))
    assert res.holds and res.K == pytest.approx(4.0, rel=1e-3, abs=0.0)
    # the doubling ratio of a pure power is flat, so its drift is ~0
    assert abs(res.slope) < 1e-2
    assert not check_delta2(EXP).holds
    assert check_nabla2(power(3.0)).holds
    assert not check_nabla2(power(1.0)).holds


def test_log_power_gate():
    thresh = (3.0 + math.sqrt(5.0)) / 2.0
    with pytest.raises(ValueError):
        log_power(2.0)
    with pytest.raises(ValueError):
        log_power(thresh - 1e-6)
    log_power(thresh + 1e-6)


def test_log_power_tail_threshold():
    u0 = log_power_tail_threshold(3.0, 4.0)
    assert u0 == pytest.approx(math.exp(16.0 / 3.0), rel=0.01, abs=0.0)
    # the defining relation holds at the returned point
    r, s = 3.0, 4.0
    assert (r / s) * (r / s - 1.0) * math.log(u0) == pytest.approx(-1.0, rel=1e-6, abs=0.0)
    # the bisection in log u agrees where its bracket [1, 1e12] holds the root
    oracle = bisect_level_log(lambda u: (r / s) * (r / s - 1.0) * np.log(u) + 1.0,
                              1.0 + 1e-12, 1e12, level=0.0, increasing=False)
    assert u0 == pytest.approx(oracle, rel=1e-12, abs=0.0)
    # s close to r puts the root far past 1e12 (8.2e13 and 1.3e118)
    for r, s in ((3.0, 3.1), (2.7, 2.71)):
        u0 = log_power_tail_threshold(r, s)
        assert (r / s) * (r / s - 1.0) * math.log(u0) == pytest.approx(-1.0, rel=1e-12, abs=0.0)
    # past the float range the threshold is infinite
    assert log_power_tail_threshold(3.0, 3.001) == math.inf


def test_concavity_regions_gate_and_coverage():
    with pytest.raises(ValueError, match="must be finite and >= 2"):
        power_concavity_regions(power(2.0), 1.5)
    # u**3 composed with u**(1/3) is linear, concave everywhere
    regions = power_concavity_regions(power(3.0), 3.0)
    assert regions.covers(1e-3, 1e3)


def test_zygmund_composition_concave_everywhere():
    phi = zygmund(2.0, 0.5)
    regions = power_concavity_regions(phi, 3.0)
    assert regions.covers(1e-4, 1e4)


def test_conjugate_zygmund_power_composition_convex():
    # psi(t**(1/q)) convex for the complement of the zygmund function, q = s/(s-1)
    psi = complementary(zygmund(2.0, 0.5))
    q = 1.5
    t = np.geomspace(1e-3, 1e3, 500)
    g = np.asarray(psi(t ** (1.0 / q)))
    second = g[2:] - 2.0 * g[1:-1] + g[:-2]
    assert np.min(second) > -1e-9 * np.max(np.abs(g))


def test_patch_constant_and_concavity():
    phi = two_power(1.5, 3.0)
    result = patch(phi, 3.0, 0.5, 2.0)
    assert abs(result.phi.c1 - 4.4895) < 1e-3
    assert np.isfinite(result.A) and result.A >= 1.0
    patched = result.phi
    # patched function composed with u**(1/s) is concave: on the log grid
    # every interior point must sit on or above the chord of its neighbours
    t = np.geomspace(1e-5, 1e5, 4096)
    g = np.asarray(patched(t ** (1.0 / 3.0)))
    lam = (t[2:] - t[1:-1]) / (t[2:] - t[:-2])
    chord = lam * g[:-2] + (1.0 - lam) * g[2:]
    scale = np.maximum(np.abs(g[1:-1]), np.abs(chord))
    assert np.min((g[1:-1] - chord) / np.maximum(scale, 1e-300)) >= -1e-10
    # equivalent to the original up to the constant A
    u = np.geomspace(1e-3, 1e3, 200)
    ratio = np.asarray(patched(u)) / np.asarray(phi(u))
    assert np.max(ratio) <= result.A * (1.0 + 1e-9)
    assert np.min(ratio) >= 1.0 / result.A * (1.0 - 1e-9)


def test_patch_gate():
    with pytest.raises(ValueError, match="must be finite and >= 2"):
        patch(two_power(1.5, 3.0), 1.5, 0.5, 2.0)


# (base, s, a, b) of a patch whose concavity preconditions hold, one per base kind
_PATCHES = {"two_power": (two_power(1.5, 3.0), 3.0, 0.5, 2.0),
            "zygmund": (zygmund(2.0, 0.5), 3.0, 0.2, 5.0),
            "log_power": (log_power(3.0), 4.0, 0.2, 5.0)}


@pytest.mark.parametrize("base, s, a, b", list(_PATCHES.values()), ids=list(_PATCHES))
def test_a_patched_function_is_rebuilt_continuous_and_nonnegative(base, s, a, b):
    # c1 and c2 follow from (base, s, a, b): the record leaves them out and its
    # constructor computes them again bit for bit
    phi = patch(base, s, a, b).phi
    record = json.loads(json.dumps(phi.to_json()))
    assert set(record) == {"kind", "params", "breakpoints"}
    back = YoungFunction.from_json(record)
    assert (back.to_json(), back.c1, back.c2) == (phi.to_json(), phi.c1, phi.c2)
    u = np.geomspace(1e-6, 1e6, 4096)
    for name in ("__call__", "deriv_minus", "deriv_plus"):
        assert np.array_equal(getattr(back, name)(u), getattr(phi, name)(u))
    # the segment meets c1*base at a and c2 + base at b
    for x, inward in ((a, b), (b, a)):
        assert phi(np.nextafter(x, inward)) == pytest.approx(phi(x), rel=1e-12, abs=0.0)
    assert np.all(phi(u) >= 0.0)


def test_young_json_round_trip():
    for phi in (power(2.5), two_power(1.5, 3.0), zygmund(2.0, 0.5),
                log_power(3.0), EXP,
                complementary(zygmund(2.0, 0.5), y_max=200.0, resolution=64)):
        back = YoungFunction.from_json(phi.to_json())
        u = np.geomspace(0.01, 100.0, 50)
        assert np.allclose(np.asarray(back(u)), np.asarray(phi(u)), rtol=1e-12)


@pytest.mark.parametrize("make", [
    lambda: complementary(complementary(power(3.0)), y_max=20.0),
    lambda: complementary(patch(zygmund(2.0, 0.5), 3.0, 0.2, 5.0).phi),
    lambda: patch(zygmund(2.0, 0.5), 3.0, 0.2, 5.0).phi,
])
def test_derived_young_json_round_trip(make):
    # a nested or patched base travels in the record and is rebuilt recursively
    phi = make()
    data = json.loads(json.dumps(phi.to_json()))
    back = YoungFunction.from_json(data)
    assert back.to_json() == phi.to_json()
    u = np.array([0.05, 0.3, 1.0, 2.5, 7.0])
    assert np.array_equal(np.asarray(back(u)), np.asarray(phi(u)))
    assert np.array_equal(np.asarray(back.deriv_plus(u)), np.asarray(phi.deriv_plus(u)))


def test_builtin_based_records_hold_no_base():
    # the records of builtin-based functions are the ones written before bases were recorded
    conj = complementary(power(3.0)).to_json()
    assert conj == {"kind": "conjugate:power", "params": [3.0, 1000.0, 2048.0]}
    assert "base" not in patch(zygmund(2.0, 0.5), 3.0, 0.2, 5.0).phi.to_json()
    data = complementary(complementary(power(3.0)), y_max=20.0).to_json()
    data["base"]["params"][0] = 4.0
    with pytest.raises(ValueError, match="does not match"):
        YoungFunction.from_json(data)


def test_builtin_factory_dispatch():
    assert YoungFunction("power", (2.0,))(3.0) == pytest.approx(9.0, rel=1e-6, abs=0.0)
    with pytest.raises(ValueError):
        YoungFunction("unknown-kind")


_PATCHED_RECORD = patch(zygmund(2.0, 0.5), 3.0, 0.2, 5.0).phi.to_json()


@pytest.mark.parametrize("call, message", [
    (lambda: power(0.5), "power exponent must be >= 1, got 0.5"),
    (lambda: two_power(2.0, 1.5), "two_power needs 1 < alpha < beta, got (2.0, 1.5)"),
    (lambda: zygmund(0.5, 1.0), "zygmund needs p >= 1 and alpha*p >= 1, got (0.5, 1.0)"),
    (lambda: YoungFunction("power", (1.0, 2.0)), "power takes 1 parameters, got 2"),
    (lambda: YoungFunction("exp", (1.0,)), "exp takes 0 parameters, got 1"),
    (lambda: YoungFunction("cubic"), "unknown Young function kind 'cubic'"),
    (lambda: YoungFunction.from_json({"kind": "cubic", "params": []}),
     "unknown Young function kind 'cubic'"),
    (lambda: YoungFunction("patched:power", (2.0, 3.0), breakpoints=(0.5, 2.0)),
     "patched Young function needs a base and two breakpoints"),
    (lambda: YoungFunction("conjugate:power", (2.0, 1e3, 2048.0)),
     "conjugate Young function needs a base"),
    (lambda: log_power_tail_threshold(3.0, 2.5), "tail threshold needs s > r, got r=3.0, s=2.5"),
    (lambda: log_power_tail_threshold(2.0, 5.0), "log_power exponent must be >= 2.618034, got 2.0"),
    (lambda: patch(zygmund(2.0, 0.5), 3.0, 2.0, 1.0), "need 0 < a < b, got a=2.0, b=1.0"),
    # u -> (u**(1/3))**4 is convex everywhere
    (lambda: patch(power(4.0), 3.0, 0.5, 2.0), "concavity precondition fails on [1e-06, 0.5]"),
    # phi'(a) = 3*a**2 underflows to 0 at a = 1e-300
    (lambda: patch(power(3.0), 3.0, 1e-300, 2.0),
     "patch requires positive one-sided derivatives at a and b"),
    # every builtin kind refuses a NaN or infinite param, which its range rule lets through
    *[(partial(make, bad), f"{kind} parameter must be a finite number, got {bad}")
      for kind, make in (("power", power), ("two_power", lambda v: two_power(v, 3.0)),
                         ("two_power", lambda v: two_power(1.5, v)), ("log_power", log_power),
                         ("zygmund", lambda v: zygmund(v, 0.5)),
                         ("zygmund", lambda v: zygmund(2.0, v)))
      for bad in (math.nan, math.inf)],
    (lambda: YoungFunction("zygmund", (2.0, math.inf)),
     "zygmund parameter must be a finite number"),
    (lambda: log_power_tail_threshold(math.nan, 5.0),
     "log_power parameter must be a finite number, got nan"),
    # the constructor checks what a builtin constructor checks
    (lambda: YoungFunction("power", (0.5,)), "exponent must be >= 1, got 0.5"),
    (lambda: YoungFunction("power", ()), "power takes 1 parameters, got 0"),
    (lambda: YoungFunction("zygmund", ("2", 0.5)),
     "zygmund parameter must be a finite number, got '2'"),
    (lambda: YoungFunction("patched:power", (2.0, 3.0), (0.5, 2.0), base=power(3.0)),
     "does not match Young function kind 'patched:power'"),
    # a patched record is checked as `patch` checks its arguments
    (lambda: YoungFunction.from_json({**_PATCHED_RECORD, "breakpoints": [5.0, 0.2]}),
     "need 0 < a < b, got a=5.0, b=0.2"),
    (lambda: YoungFunction.from_json({**_PATCHED_RECORD, "breakpoints": [0.2, math.inf]}),
     "breakpoint b must be a finite number, got inf"),
    (lambda: YoungFunction.from_json({**_PATCHED_RECORD, "params": [2.0, 0.5, math.nan]}),
     "convexity exponent s must be finite and >= 2, got nan"),
    (lambda: YoungFunction.from_json({**_PATCHED_RECORD, "params": [2.0, 0.5, 1.5]}),
     "convexity exponent s must be finite and >= 2, got 1.5"),
    # c1 and c2 follow from the record, so a record that holds them is refused
    (lambda: YoungFunction.from_json({**_PATCHED_RECORD, "c1": math.nan}), "unknown field 'c1'"),
    (lambda: YoungFunction.from_json({**_PATCHED_RECORD, "c2": -math.inf}), "unknown field 'c2'"),
    # ... and one whose c2 would leave the floats (b**(2 - 1/s) overflows) is refused
    (lambda: YoungFunction.from_json({**_PATCHED_RECORD, "breakpoints": [0.2, 1e200]}),
     "breakpoints (0.2, 1e+200) put c1 or c2 beyond the float range"),
    # the exponent s is one rule wherever it is read: NaN and inf are refused
    *[(partial(call, bad), f"convexity exponent s must be finite and >= 2, got {bad}")
      for bad in (math.nan, math.inf)
      for call in (lambda s: power_concavity_regions(power(3.0), s),
                   lambda s: patch(zygmund(2.0, 0.5), s, 0.2, 5.0),
                   lambda s: log_power_tail_threshold(3.0, s))],
    # u -> log_power(3)(u**(1/3.5)) is not concave on [0.99, 10.4], inside the upper side
    (lambda: patch(log_power(3.0), 3.5, 0.5, 2.0), "concavity precondition fails on [2, 1e+06]"),
])
def test_young_refusals_name_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
