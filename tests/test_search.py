"""Search layer: Brent's level solver against bisection, golden-section exit, elementwise bisection."""

import math

import numpy as np
import pytest

from jacksonlab import bisect_level, bisect_level_log, brent_level_log, golden_max
from jacksonlab.search import _INV_PHI


def golden_max_full(f, lo, hi, iters):
    # the golden-section loop run for all `iters` steps, without the early exit
    lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
    hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
    lo, hi = np.broadcast_arrays(lo, hi)
    lo, hi = lo.copy(), hi.copy()
    for _ in range(iters):
        x1 = hi - _INV_PHI * (hi - lo)
        x2 = lo + _INV_PHI * (hi - lo)
        left = np.asarray(f(x1), dtype=float) >= np.asarray(f(x2), dtype=float)
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
    xm = 0.5 * (lo + hi)
    return xm, np.atleast_1d(np.asarray(f(xm), dtype=float))


class Counted:
    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


LEVEL_CASES = [
    # (f, lo, hi, level): monotone in both directions, convex and concave in log x
    (lambda x: x ** 2.5, 1e-3, 1e3, 7.0),
    (lambda x: 3.0 * x ** -1.5, 1e-2, 1e2, 1.0),
    (lambda x: math.log1p(x), 1e-4, 1e4, 2.0),
    (lambda x: math.expm1(x) - x, 1e-3, 50.0, 1.0),
    (lambda x: x ** 2 * math.log(2.0 + x), 0.1, 10.0, 1.0),
    (lambda x: -math.log(x), 1.0 + 1e-12, 1e12, -5.0),
]


@pytest.mark.parametrize("case", range(len(LEVEL_CASES)))
@pytest.mark.parametrize("rtol", [0.0, 1e-13, 1e-8])
def test_brent_matches_log_bisection(case, rtol):
    f, lo, hi, level = LEVEL_CASES[case]
    increasing = f(hi) > f(lo)
    ref = bisect_level_log(f, lo, hi, level=level, increasing=increasing, rtol=rtol)
    counted = Counted(f)
    got = brent_level_log(counted, lo, hi, level=level, rtol=rtol)
    # both stop at the same scale in log x: one bracket width plus rounding
    width = max(rtol, 1e-15 * 2.0 * abs(math.log(ref))) + 8.0 * np.finfo(float).eps
    assert abs(math.log(got) - math.log(ref)) <= 1.5 * width
    assert counted.calls <= 40


def test_brent_uses_given_end_values():
    seen = []

    def f(x):
        seen.append(x)
        return x ** 3

    got = brent_level_log(f, 0.5, 4.0, level=2.0, f_lo=0.125, f_hi=64.0)
    assert got == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14, abs=0.0)
    # the ends are not evaluated again, and the interior steps are few
    assert 0.5 not in seen and 4.0 not in seen
    assert len(seen) <= 12
    assert brent_level_log(f, 0.5, 4.0, level=2.0) == got


def test_brent_secant_step_solves_log_linear_levels():
    # log of a power is linear in log x: the first secant step lands on the root
    for slope in (-3.0, -1.5, 0.5, 2.0):
        f = Counted(lambda x: slope * math.log(x) - 0.3)
        lo, hi = 0.1, 100.0
        got = brent_level_log(f, lo, hi, f_lo=f.f(lo), f_hi=f.f(hi))
        assert got == pytest.approx(math.exp(0.3 / slope), rel=1e-14, abs=0.0)
        assert f.calls <= 4


def test_brent_without_sign_change_returns_nearer_end():
    f = lambda x: 1.0 / x  # decreasing, above 0.01 on [1, 10]
    assert brent_level_log(f, 1.0, 10.0, level=0.01) == pytest.approx(10.0, rel=1e-6, abs=0.0)
    assert brent_level_log(f, 1.0, 10.0, level=5.0) == pytest.approx(1.0, rel=1e-6, abs=0.0)
    # a value exactly at the level is returned as is
    assert brent_level_log(f, 1.0, 10.0, level=1.0) == 1.0


def test_brent_bisects_through_infinite_values():
    # overflows to inf near the lower end; the bracket still shrinks to the root
    f = lambda x: math.inf if x < 1e-3 else 1.0 / x ** 4
    with np.errstate(all="ignore"):
        got = brent_level_log(f, 1e-6, 10.0, level=1.0)
    assert got == pytest.approx(1.0, rel=1e-13, abs=0.0)


def test_golden_exit_is_bit_identical():
    rng = np.random.default_rng(4)
    centers = rng.uniform(-3.0, 3.0, size=64)
    widths = rng.uniform(0.1, 2.0, size=64)

    def height(t):
        return -np.cosh(t - centers) + 0.1 * t

    for iters in (10, 60, 90, 200):
        f_exit, f_full = Counted(height), Counted(height)
        x, fx = golden_max(f_exit, centers - widths, centers + widths, iters=iters)
        x_ref, fx_ref = golden_max_full(f_full, centers - widths, centers + widths, iters)
        assert np.array_equal(x, x_ref) and np.array_equal(fx, fx_ref)
        assert f_exit.calls <= f_full.calls
    # the bracket stops changing well before 200 steps
    assert f_exit.calls < f_full.calls // 2


def test_golden_scalar_wrapper():
    x, fx = golden_max(lambda t: -(t - 0.3) ** 2, -1.0, 2.0, iters=200)
    assert isinstance(x, float) and x == pytest.approx(0.3, abs=1e-7)
    x_ref, _ = golden_max_full(lambda t: -(t - 0.3) ** 2, -1.0, 2.0, 200)
    assert x == float(x_ref[0])


def bisect_level_scalar(f, lo, hi, level=0.0, increasing=True, iters=100, tol=0.0):
    # the scalar bisection loop: the oracle of every element of `bisect_level`
    lo = float(lo)
    hi = float(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        val = float(f(mid))
        high_side = (val > level) if increasing else (val < level)
        if high_side:
            hi = mid
        else:
            lo = mid
        if hi - lo <= max(tol, 1e-15 * (abs(lo) + abs(hi))):
            break
    return 0.5 * (lo + hi)


def cubic(x, root, sign):
    # monotone, at the level 0.25 * sign at the root, with only correctly rounded arithmetic,
    # so an array and a float give equal bits
    d = x - root
    return sign * (d + d * d * d) + 0.25 * sign


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("tol", [0.0, 1e-6])
def test_bisect_level_elementwise_equals_scalar_calls(sign, tol):
    rng = np.random.default_rng(7)
    roots = np.concatenate([[0.0, 1e-9, -2.5], rng.uniform(-3.0, 3.0, 21)])
    # brackets of many widths, one with the root at an end (it never meets the relative stop)
    lo = np.concatenate([[0.0], roots[1:] - 10.0 ** rng.uniform(-4.0, 2.0, 23)])
    hi = roots + 10.0 ** rng.uniform(-4.0, 2.0, 24)
    level = 0.25 * sign
    for iters in (60, 200):
        got = bisect_level(lambda x: cubic(x, roots, sign), lo, hi, level=level,
                           increasing=sign > 0, iters=iters, tol=tol)
        want, stops = [], []
        for r, a, b in zip(roots, lo, hi):
            f = Counted(lambda x, r=r: cubic(x, r, sign))
            want.append(bisect_level_scalar(f, a, b, level=level, increasing=sign > 0,
                                            iters=iters, tol=tol))
            stops.append(f.calls)
        assert got.shape == lo.shape and got.tobytes() == np.array(want).tobytes()
        # the elements stop at different steps; without tol, the root at an end runs to a cap of 60
        assert len(set(stops)) > 3 and (stops[0] == 60) == (tol == 0.0 and iters == 60)
        scalar = [bisect_level(lambda x, r=r: cubic(x, r, sign), a, b, level=level,
                               increasing=sign > 0, iters=iters, tol=tol)
                  for r, a, b in zip(roots, lo.tolist(), hi.tolist())]
        assert scalar == want


def test_bisect_level_scalar_in_gives_float_out():
    seen = []

    def f(x):
        seen.append(type(x))
        return x * x - 2.0

    for lo, hi in ((0.0, 2.0), (np.float64(0.0), 2), (0, np.float64(2.0))):
        seen.clear()
        got = bisect_level(f, lo, hi)
        assert type(got) is float and got == bisect_level_scalar(f, lo, hi)
        assert set(seen) == {float}
    # a broadcast bracket is elementwise: one search per element of hi
    ends = np.array([2.0, 3.0])
    got = bisect_level(lambda x: x * x - 2.0, 0.0, ends)
    assert got.tolist() == [bisect_level_scalar(lambda x: x * x - 2.0, 0.0, e) for e in ends]
