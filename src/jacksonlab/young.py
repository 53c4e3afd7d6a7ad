"""Young functions: builtins, numerical conjugation, growth diagnostics, patching.

A Young function is convex, strictly increasing on (0, oo), and vanishes at 0.
This module provides the builtin families used by the Orlicz-norm machinery::

    power(p)          u**p                          p >= 1
    two_power(a, b)   max(u**a, u**b)               1 < a < b
    log_power(r)      u**r * (1 + |log u|)          r >= (3 + sqrt 5)/2
    zygmund(p, a)     u**p * log(2 + u)**(a*p)      p >= 1, a*p >= 1
    exp_growth()      exp(u) - 1 - u

plus three derived constructions: the complementary (convex-conjugate)
function, computed numerically (a grid argmax from phi's chord slopes, then
secant steps, a verified bracket and bisection for where phi' crosses y,
by Young's equality the maximizer); the doubling diagnostics `check_delta2` /
`check_nabla2`; and `patch`, which replaces a convex gap of u -> phi(u**(1/s))
by a constant-slope segment so the composition becomes globally concave.

Every Young function is checked in one place, the `YoungFunction`
constructor, whichever way it is built: the builtin constructors,
`builtin`, `complementary`, `patch` and `from_json` only pass their
arguments on.  A builtin kind is one row of `_BUILTINS`: arity, range
rule, power index, phi and its left and right derivatives phi'_-+, which
differ only at the kink x = 1 of two_power and log_power; values and
derivatives read that row, so no method branches on a builtin kind.  The
record carries its power index (`power_index`), which the pruned
Young-norm moduli of `grid` read, so no other module decodes a Young kind.
The exponent s of `power_concavity_regions`, `patch`,
`log_power_tail_threshold` and a patched record is checked by
`grid._convexity_exponent`.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import _REAL, _convexity_exponent, _number, _Record, _refuse_unread

_LOG_POWER_GATE = (3.0 + math.sqrt(5.0)) / 2.0


# -- builtin kinds: a row per kind, and the phi and phi' too long for it


def _kink(x, minus, low, high):
    """low left of the kink at x = 1 and high right of it; at 1 the side `minus` picks."""
    return np.where((x <= 1.0) if minus else (x < 1.0), low, high)


def _log_power(x, r):
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, safe ** r * (1.0 + np.abs(np.log(safe))), 0.0)


def _log_power_deriv(x, minus, r):
    safe = np.where(x > 0.0, x, 1.0)
    low = safe ** (r - 1.0) * (r - 1.0 - r * np.log(safe))
    high = safe ** (r - 1.0) * (r + 1.0 + r * np.log(safe))
    return np.where(x > 0.0, _kink(x, minus, low, high), 0.0)


def _zygmund_deriv(x, minus, p, alpha):
    ell = np.log(2.0 + x)
    return x ** (p - 1.0) * ell ** (alpha * p - 1.0) * (p * ell + alpha * p * x / (2.0 + x))


# kind: (arity, the range rule on its float params, the rule's message, the power index q
# with phi(u)/u**q nondecreasing on u > 0, phi(x, *params), phi'(x, minus, *params): the left
# derivative where minus is true, else the right one): phi/u**p is 1 or a power of
# log(2 + u) for power and zygmund, and convexity with phi(0) = 0 makes phi(u)/u nondecreasing
_BUILTINS = {
    "power": (1, lambda p: p >= 1.0, "power exponent must be >= 1, got {}", lambda p: p,
              lambda x, p: x ** p, lambda x, minus, p: p * x ** (p - 1.0)),
    "two_power": (2, lambda a, b: 1.0 < a < b, "two_power needs 1 < alpha < beta, got ({}, {})",
                  lambda a, b: a, lambda x, a, b: np.where(x <= 1.0, x ** a, x ** b),
                  lambda x, minus, a, b: _kink(x, minus, a * x ** (a - 1.0), b * x ** (b - 1.0))),
    "log_power": (1, lambda r: r >= _LOG_POWER_GATE,
                  f"log_power exponent must be >= {_LOG_POWER_GATE:.6f}, got {{}}", lambda r: 1.0,
                  _log_power, _log_power_deriv),
    "zygmund": (2, lambda p, a: p >= 1.0 and a * p >= 1.0,
                "zygmund needs p >= 1 and alpha*p >= 1, got ({}, {})", lambda p, a: p,
                lambda x, p, a: x ** p * np.log(2.0 + x) ** (a * p), _zygmund_deriv),
    "exp": (0, lambda: True, "", lambda: 1.0, lambda x: np.expm1(x) - x,
            lambda x, minus: np.expm1(x)),
}
# derived kind "<derived>:<base kind>": (the params it adds to its base's, the fields it reads
# besides kind and params)
_DERIVED = {"patched": (1, ("breakpoints", "c1", "c2", "base")), "conjugate": (2, ("base",))}


class YoungFunction:
    """Evaluable Young function with one-sided derivatives.

    The constructor is the one place a Young function is checked, however
    it is built (a builtin constructor, `complementary`, `patch` or
    `from_json`), before any value is computed.  A builtin kind takes its
    arity of finite params within its range rule (`_BUILTINS`); a patched
    kind its base's params and a finite s >= 2, finite breakpoints
    0 < a < b and finite c1 and c2; a conjugate kind its base's params,
    a finite y_max > 0 and an integer resolution >= 2, and a base that
    grows fast enough to be conjugated on the working grid.
    `power_index` is an exponent q >= 1 with phi(u)/u**q nondecreasing on
    u > 0: p for power(p) and zygmund(p, a), a for two_power(a, b), and
    1 for every other kind.

    Instances are immutable once built and safe to share across threads.
    Values and derivatives accept scalars or arrays of nonnegative numbers.
    """

    def __init__(self, kind, params=(), breakpoints=None, c1=None, c2=None, base=None):
        self.kind, self.base, params = str(kind), base, tuple(params)
        derived, _, rest = self.kind.partition(":")
        own, reads = _DERIVED.get(derived, (0, ()))
        for name, value in {"breakpoints": breakpoints, "c1": c1, "c2": c2, "base": base}.items():
            if value is not None and name not in reads:
                raise ValueError(f"the {self.kind} Young function reads no {name}")
        if self.kind in _BUILTINS:
            arity, holds, rule, index = _BUILTINS[self.kind][:4]
            if len(params) != arity:
                raise ValueError(f"{self.kind} takes {arity} parameters, got {len(params)}")
            self.params = tuple(_REAL(v, f"{self.kind} parameter") for v in params)
            if not holds(*self.params):
                raise ValueError(rule.format(*self.params))
            self.power_index = float(index(*self.params))
            return
        if not reads:
            raise ValueError(f"unknown Young function kind {self.kind!r}")
        if derived == "patched" and (base is None or breakpoints is None
                                     or len(breakpoints) != 2):
            raise ValueError("patched Young function needs a base and two breakpoints")
        if base is None:
            raise ValueError("conjugate Young function needs a base")
        if len(params) < own or (base.kind, base.params) != (rest, params[:-own]):
            raise ValueError(f"base {base!r} does not match Young function kind {self.kind!r}")
        self.power_index = 1.0
        if derived == "patched":
            s = _convexity_exponent(params[-1])
            self.params = base.params + (s,)
            self.breakpoints = a, b = _breakpoints(*breakpoints)
            self.c1 = 1.0 if c1 is None else _REAL(c1, "c1")
            self.c2 = 0.0 if c2 is None else _REAL(c2, "c2")
            # slope of the replacement segment, chosen so the derivative of
            # phi~(u**(1/s)) is continuous at the b-side junction
            self._seg_slope = base.deriv_plus(b) * b ** (1.0 / s - 1.0)
            self._gamma = 2.0 - 1.0 / s
            self._mid_base = self.c1 * float(base(a))
            return
        y_max, resolution = params[-2], _number(2)(params[-1], "resolution")
        if not (math.isfinite(y_max) and y_max > 0.0):
            raise ValueError(f"y_max must be finite and > 0, got {y_max!r}")
        slope, growth = _superlinear_slope(base)
        if not (np.isfinite(slope) and slope >= y_max and growth >= 1.5):
            raise ValueError("complement undefined at working precision: "
                             f"phi(x)/x reaches only {slope:.3g} (need {y_max:.3g})")
        self.params = base.params + (float(y_max), float(resolution))
        self._xgrid = np.geomspace(1e-6, 1e6, resolution)
        self._base_grid = np.asarray(base(self._xgrid), dtype=float)
        # chord slopes of the base between grid points; nondecreasing for a
        # convex base, so x_j*y - phi(x_j) rises exactly while chord[j] < y
        self._chord = np.diff(self._base_grid) / np.diff(self._xgrid)

    # -- evaluation -----------------------------------------------------

    def __call__(self, x):
        x, scalar = _as_array(x)
        out = self._value(x)
        return float(out[()]) if scalar else out

    def deriv_minus(self, x):
        """Left derivative; at 0 the right derivative is returned."""
        x, scalar = _as_array(x)
        out = self._deriv(x, True)
        return float(out[()]) if scalar else out

    def deriv_plus(self, x):
        """Right derivative."""
        x, scalar = _as_array(x)
        out = self._deriv(x, False)
        return float(out[()]) if scalar else out

    def _value(self, x):
        row = _BUILTINS.get(self.kind)
        if row is not None:
            return row[4](x, *self.params)
        if self.kind.startswith("patched:"):
            return self._patched_value(x)
        vals, _ = self._conj_values(np.ravel(x))
        return vals.reshape(x.shape)

    def _deriv(self, x, minus):
        row = _BUILTINS.get(self.kind)
        if row is not None:
            return row[5](x, minus, *self.params)
        if self.kind.startswith("patched:"):
            return self._patched_deriv(x, minus)
        _, xs = self._conj_values(np.ravel(x))
        return xs.reshape(x.shape)

    def _patched_value(self, x):
        a, b = self.breakpoints
        base = self.base
        mid = self._mid_base + self._seg_slope * (
            np.clip(x, a, b) ** self._gamma - a ** self._gamma) / self._gamma
        return np.where(x <= a, self.c1 * base(x),
                        np.where(x >= b, self.c2 + base(x), mid))

    def _patched_deriv(self, x, minus):
        a, b = self.breakpoints
        base = self.base
        s = self.params[-1]
        seg = self._seg_slope * np.where(x > 0.0, np.where(x > 0.0, x, 1.0) ** (1.0 - 1.0 / s), 0.0)
        dm = base.deriv_minus(x) if minus else base.deriv_plus(x)
        if minus:
            return np.where(x <= a, self.c1 * dm, np.where(x <= b, seg, dm))
        return np.where(x < a, self.c1 * dm, np.where(x < b, seg, dm))

    def _conj_values(self, y):
        y = np.asarray(y, dtype=float)
        # psi(y) = 0 with maximizer x = 0 for y <= 0; NaN stays NaN
        vals = np.where(np.isnan(y), np.nan, 0.0)
        args = vals.copy()
        pos = y > 0.0
        if np.any(pos):
            yy = y[pos]
            # grid argmax of x*y - phi(x): the first grid point whose chord
            # slope to the right reaches y
            idx = np.searchsorted(self._chord, yy, side="left")
            vals[pos], args[pos] = _conj_refine(self.base, self._xgrid, self._base_grid,
                                                yy, idx)
        return vals, args

    # -- serialization --------------------------------------------------

    def to_json(self):
        """The record `from_json` reads: {kind, params} and what a derived kind adds.

        A patched kind adds its breakpoints, c1 and c2; a patched or conjugate
        kind adds its base's record when the base is not a builtin.
        """
        data = {"kind": self.kind, "params": list(self.params)}
        if self.kind.startswith("patched:"):
            data.update(breakpoints=list(self.breakpoints), c1=self.c1, c2=self.c2)
        if self.base is not None and self.base.kind not in _BUILTINS:
            data["base"] = self.base.to_json()
        return data

    @staticmethod
    def from_json(data):
        """The Young function of a `to_json` record; the constructor checks it."""
        kind = str(data["kind"])
        derived, _, rest = kind.partition(":")
        own, reads = _DERIVED.get(derived, (0, ()))
        _refuse_unread(data, ("kind", "params") + reads, f"the {kind} Young function")
        params = list(data.get("params", ()))
        if not reads:
            return YoungFunction(kind, params)
        base = (YoungFunction.from_json(data["base"]) if "base" in data
                else YoungFunction(rest, params[:-own]))
        if derived == "patched":
            return YoungFunction(kind, params, data["breakpoints"], data["c1"], data["c2"], base)
        if params and isinstance(params[-1], float) and params[-1].is_integer():
            params[-1] = int(params[-1])  # a record holds the resolution as a float
        return YoungFunction(kind, params, base=base)

    def __repr__(self):
        bits = ", ".join(f"{v:g}" for v in self.params)
        return f"YoungFunction({self.kind}[{bits}])"


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _conj_refine(base, xg, base_grid, y, idx):
    """Value and maximizer of x*y - base(x) from the grid argmax `idx`.

    For convex phi the maximizer is where phi' crosses y (Young's equality),
    inside [x_{idx-1}, x_{idx+1}] as chord[idx-1] < y <= chord[idx].  Six
    secant steps on phi'_+(x) - y from those ends, clamped into them and held
    where x or phi'_+ stops moving, estimate the crossing x; [a, b] =
    x(1 -+ 2^-46) replaces the grid bracket where phi'_+(a) < y <= phi'_+(b).
    Bisection on the sign of phi'_+(mid) - y drops a row once its midpoint
    equals one of its ends, so `hi` is the first float above the bracket's
    lower end with phi'_+ >= y, or its upper end if there is none, whichever
    rows share the call.  `deriv_plus` is called 7 + 1 times, then once a
    step on the rows still open: about 16 calls on smooth phi; where a row
    keeps its grid bracket (y past the grid, a kink) bisection takes that
    bracket's 48 steps at the default resolution.  One base evaluation at
    `hi` gives the value, kept only where it beats the grid point.
    """
    lo = xg[np.maximum(idx - 1, 0)]
    hi = xg[np.minimum(idx + 1, len(xg) - 1)]
    x0, x1 = lo, hi
    d0, d1 = np.asarray(base.deriv_plus(np.stack([lo, hi])), dtype=float) - y
    for _ in range(6):
        hold = (x1 == x0) | (d1 == d0)
        with np.errstate(invalid="ignore", over="ignore"):
            x2 = np.where(hold, x1, x1 - d1 * (x1 - x0) / np.where(hold, 1.0, d1 - d0))
        x0, d0, x1 = x1, d1, np.clip(x2, lo, hi)
        d1 = np.asarray(base.deriv_plus(x1), dtype=float) - y
    ab = np.clip(x1 * (1.0 + np.array([[-2.0 ** -46], [2.0 ** -46]])), lo, hi)
    da, db = np.asarray(base.deriv_plus(ab), dtype=float)
    lo, hi = np.where((da < y) & (y <= db), ab, (lo, hi))
    rows = np.arange(len(y))
    for _ in range(64):
        mid = 0.5 * (lo[rows] + hi[rows])
        still = (mid != lo[rows]) & (mid != hi[rows])
        rows, mid = rows[still], mid[still]
        if not rows.size:
            break
        up = np.asarray(base.deriv_plus(mid), dtype=float) >= y[rows]
        lo[rows[~up]] = mid[~up]
        hi[rows[up]] = mid[up]
    refined = y * hi - np.asarray(base(hi), dtype=float)
    grid_best = y * xg[idx] - base_grid[idx]
    better = refined >= grid_best
    return (np.maximum(np.where(better, refined, grid_best), 0.0),
            np.where(better, hi, xg[idx]))


# -- builtin constructors ----------------------------------------------


def power(p):
    """u**p for p >= 1."""
    return YoungFunction("power", (p,))


def two_power(alpha, beta):
    """max(u**alpha, u**beta) for 1 < alpha < beta."""
    return YoungFunction("two_power", (alpha, beta))


def log_power(r):
    """u**r * (1 + |log u|); convex only for r >= (3 + sqrt 5)/2."""
    return YoungFunction("log_power", (r,))


def zygmund(p, alpha):
    """u**p * log(2 + u)**(alpha*p) for p >= 1 and alpha*p >= 1."""
    return YoungFunction("zygmund", (p, alpha))


def exp_growth():
    """exp(u) - 1 - u; grows too fast for the doubling condition."""
    return YoungFunction("exp", ())


def builtin(kind, *params):
    """Construct a builtin Young function by kind name."""
    return YoungFunction(kind, params)


# -- conjugation --------------------------------------------------------


def _superlinear_slope(phi):
    """Top-of-grid secant slope and per-two-decade growth of phi(x)/x, the grid top x_hi = 1e6."""
    x_hi = 1e6
    with np.errstate(over="ignore", invalid="ignore"):
        top = float(phi(x_hi))
        mid = float(phi(x_hi / 2.0))
        low = float(phi(x_hi / 100.0))
    if not (np.isfinite(top) and np.isfinite(mid) and np.isfinite(low)):
        return np.inf, np.inf
    slope = (top - mid) / (x_hi / 2.0)
    growth = (top / x_hi) / (low / (x_hi / 100.0))
    return slope, growth


def complementary(phi, y_max=1e3, resolution=2048):
    """Complementary Young function psi(y) = sup_x (x*y - phi(x)).

    The grid argmax over `resolution` log-spaced points in [1e-6, 1e6] is
    read off phi's chord slopes; secant steps and bisection on phi'_+(x) - y
    refine it to the last float (about 16 `deriv_plus` calls on smooth phi,
    56 past the grid or at a kink), so psi is accurate up to roughly `y_max`.
    psi's right derivative `deriv_plus(y)` is that maximizer.  psi(y) = 0
    for y <= 0 and NaN propagates.  The constructor raises ValueError for
    a `resolution` that is not an integer >= 2, a `y_max` that is not
    finite and positive, or when phi grows too slowly for the supremum to
    be attained on the working grid.
    """
    return YoungFunction("conjugate:" + phi.kind, phi.params + (y_max, resolution), base=phi)


# -- growth diagnostics -------------------------------------------------


class Delta2Result(_Record):
    __slots__ = ("holds", "K", "slope")

    def __init__(self, holds, K, slope):
        self._set(holds, K, slope)


class Nabla2Result(_Record):
    __slots__ = ("holds", "a")

    def __init__(self, holds, a):
        self._set(holds, a)


def check_delta2(phi):
    """Empirical doubling check: phi(2x) <= K * phi(x) on [1e-4, 1e4] (257 log-spaced x).

    `K` is the largest observed ratio.  `holds` requires the ratio to be
    finite and its log-growth over the top decade to stay below 0.01, so
    ratios that keep climbing fail even when finite.
    """
    u_hi = 1e4
    x = np.geomspace(1e-4, u_hi, 257)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = np.asarray(phi(2.0 * x), dtype=float) / np.asarray(phi(x), dtype=float)
        r_top = float(phi(2.0 * u_hi)) / float(phi(u_hi))
        r_dec = float(phi(0.2 * u_hi)) / float(phi(0.1 * u_hi))
    if not np.all(np.isfinite(ratio)) or not np.isfinite(r_top):
        return Delta2Result(False, np.inf, np.inf)
    slope = float(np.log(r_top) - np.log(r_dec))
    constant = float(np.max(ratio))
    return Delta2Result(bool(slope < 0.01), constant, slope)


def check_nabla2(psi):
    """Search for a > 1 with psi(x) <= psi(a*x) / (2*a) on [1e-2, 1e2] (121 log-spaced x).

    Scans the 96 candidate factors 2^(k/16) in (1, 64] and returns the
    smallest feasible one in the `a` field.
    """
    a_grid = 2.0 ** (np.arange(1, 97) / 16.0)
    x = np.geomspace(1e-2, 1e2, 121)
    px = np.asarray(psi(x), dtype=float)
    for a in a_grid:
        bound = np.asarray(psi(a * x), dtype=float) / (2.0 * a)
        if np.all(px <= bound * (1.0 + 1e-12)):
            return Nabla2Result(True, float(a))
    return Nabla2Result(False, np.inf)


# -- concavity of phi(u**(1/s)) ----------------------------------------


class ConcavityRegions(_Record):
    __slots__ = ("s", "u_lo", "u_hi", "intervals")

    def __init__(self, s, u_lo, u_hi, intervals):
        self._set(s, u_lo, u_hi, intervals)

    def covers(self, lo, hi):
        """True when one detected interval contains [lo, hi], up to a relative 1e-3 at each end."""
        for left, right in self.intervals:
            if left <= lo * (1.0 + 1e-3) and right >= hi * (1.0 - 1e-3):
                return True
        return False


def power_concavity_regions(phi, s, u_lo=1e-6, u_hi=1e6, resolution=4096):
    """Maximal intervals where u -> phi(u**(1/s)) is concave.

    Concavity is read off the sign of chord defects on a log-spaced grid;
    defects up to 1e-11 times the local scale count as concave so exactly
    linear stretches are not split by rounding noise.  `s` is a finite
    number >= 2 (`grid._convexity_exponent`).
    """
    s = _convexity_exponent(s)
    u = np.geomspace(u_lo, u_hi, resolution)
    g = np.asarray(phi(u ** (1.0 / s)), dtype=float)
    lam = (u[2:] - u[1:-1]) / (u[2:] - u[:-2])
    chord = lam * g[:-2] + (1.0 - lam) * g[2:]
    scale = np.maximum.reduce([np.abs(g[:-2]), np.abs(g[1:-1]), np.abs(g[2:])]) + 1e-300
    ok_mid = (chord - g[1:-1]) <= 1e-11 * scale
    ok = np.concatenate([[ok_mid[0]], ok_mid, [ok_mid[-1]]])
    intervals = []
    start = None
    for i, flag in enumerate(ok):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= 2:
                intervals.append((float(u[start]), float(u[i - 1])))
            start = None
    if start is not None and len(ok) - start >= 2:
        intervals.append((float(u[start]), float(u[-1])))
    return ConcavityRegions(s, float(u_lo), float(u_hi), tuple(intervals))


def log_power_tail_threshold(r, s):
    """Tail threshold u0 for log_power(r) with power parameter s > r.

    The root of (r/s)*(r/s - 1)*log(u0) = -1 in closed form,
    u0 = exp(-1/((r/s)*(r/s - 1))), or inf past the float range (s close to
    r); beyond u0 the logarithmic term alone forces concavity of
    u -> phi(u**(1/s)).  r is checked as log_power(r) checks it, and s as
    a finite number >= 2 (`grid._convexity_exponent`).
    """
    (r,), s = log_power(r).params, _convexity_exponent(s)
    if s <= r:
        raise ValueError(f"tail threshold needs s > r, got r={r}, s={s}")
    try:
        return math.exp(-1.0 / ((r / s) * (r / s - 1.0)))
    except OverflowError:
        return math.inf


# -- patching -----------------------------------------------------------


def _breakpoints(a, b):
    """(a, b) as floats, finite with 0 < a < b: the breakpoints of a patched Young function."""
    a, b = _REAL(a, "breakpoint a"), _REAL(b, "breakpoint b")
    if not 0.0 < a < b:
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    return a, b


class PatchResult(_Record):
    __slots__ = ("phi", "c1", "c2", "A")

    def __init__(self, phi, c1, c2, A):
        self._set(phi, c1, c2, A)


def patch(phi, s, a, b):
    """Bridge the convex gap of u -> phi(u**(1/s)) between a and b.

    Requires the composition to be concave on [u_lo, max(a, a**s)] and on
    [min(b, b**s), u_hi], the working grid [u_lo, u_hi] = [1e-6, 1e6] of
    `power_concavity_regions` at its defaults.  The result phi~ equals
    c1*phi below a, equals c2 + phi above b, and has a constant-exponent
    segment in between whose slope makes the composed derivative continuous
    and nonincreasing, so phi~(u**(1/s)) is globally concave.  `A` reports
    the equivalence constant sup max(phi~/phi, phi/phi~) over the working
    grid.  a, b and s are checked as the patched record checks them.
    """
    (a, b), s = _breakpoints(a, b), _convexity_exponent(s)
    regions = power_concavity_regions(phi, s)
    u_lo, u_hi = regions.u_lo, regions.u_hi
    low_hi = max(a, a ** s)
    high_lo = min(b, b ** s)
    if not regions.covers(u_lo, low_hi):
        raise ValueError(f"concavity precondition fails on [{u_lo:g}, {low_hi:g}]")
    if not regions.covers(high_lo, u_hi):
        raise ValueError(f"concavity precondition fails on [{high_lo:g}, {u_hi:g}]")
    dm_a = float(phi.deriv_minus(a))
    dp_b = float(phi.deriv_plus(b))
    if dm_a <= 0.0 or dp_b <= 0.0:
        raise ValueError("patch requires positive one-sided derivatives at a and b")
    seg_slope = dp_b * b ** (1.0 / s - 1.0)
    c1 = seg_slope / (dm_a * a ** (1.0 / s - 1.0))
    gamma = 2.0 - 1.0 / s
    mid_at_b = c1 * float(phi(a)) + seg_slope * (b ** gamma - a ** gamma) / gamma
    c2 = mid_at_b - float(phi(b))
    tilde = YoungFunction("patched:" + phi.kind, phi.params + (s,),
                          breakpoints=(a, b), c1=c1, c2=c2, base=phi)
    u = np.geomspace(u_lo, u_hi, 4096)
    old = np.asarray(phi(u), dtype=float)
    new = np.asarray(tilde(u), dtype=float)
    good = (old > 0.0) & (new > 0.0)
    ratios = np.maximum(new[good] / old[good], old[good] / new[good])
    return PatchResult(tilde, c1, c2, float(np.max(ratios)))
