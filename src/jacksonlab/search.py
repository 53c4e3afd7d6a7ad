"""Golden-section, bisection and Brent searches for unimodal and monotone functionals.

`golden_max` and `bisect_level` work elementwise on arrays, so that batches
of independent one-dimensional searches run in lockstep, one vectorized
evaluation per step; each element ends where its scalar search would.
`brent_level_log` and `bisect_level_log` are scalar.  The norms rest on
`brent_level_log`, and `lab.space_moduli` bisects all its pairs at once.
No library path calls `golden_max` (the numerical conjugate bisects on the
derivative inside `young`); it stays as public API and as a test oracle.
"""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
_EPS = float(np.finfo(float).eps)


def golden_max(f, lo, hi, iters=80):
    """Maximize a unimodal function over [lo, hi] by golden-section search.

    Parameters
    ----------
    f : callable
        Evaluates elementwise on arrays of the same shape as `lo`.
    lo, hi : float or ndarray
        Bracket endpoints; arrays run one search per element.
    iters : int
        Bracket-shrink steps; each multiplies the width by ~0.618.  The
        search stops early once a step leaves every bracket unchanged: that
        state is a fixed point, so the result equals the one after `iters`.

    Returns
    -------
    x, fx : ndarray (or floats for scalar input)
        Final bracket midpoint and its value.
    """
    scalar = np.isscalar(lo) and np.isscalar(hi)
    lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
    hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
    lo, hi = np.broadcast_arrays(lo, hi)
    lo, hi = lo.copy(), hi.copy()
    for _ in range(iters):
        x1 = hi - _INV_PHI * (hi - lo)
        x2 = lo + _INV_PHI * (hi - lo)
        f1 = np.asarray(f(x1), dtype=float)
        f2 = np.asarray(f(x2), dtype=float)
        left = f1 >= f2
        new_hi = np.where(left, x2, hi)
        new_lo = np.where(left, lo, x1)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    xm = 0.5 * (lo + hi)
    fm = np.atleast_1d(np.asarray(f(xm), dtype=float))
    if scalar:
        return float(xm.ravel()[0]), float(fm.ravel()[0])
    return xm, fm


def bisect_level(f, lo, hi, level=0.0, increasing=True, iters=100, tol=0.0):
    """Solve f(x) = level for monotone f on a bracketing interval.

    The bracket must satisfy f(lo) <= level <= f(hi) when `increasing`,
    and the reverse otherwise.  Plain bisection; returns the midpoint of
    the final bracket.  `tol` is an absolute bracket-width stop on top of
    the iteration cap.  Array brackets run one search per element, as in
    `golden_max`: f takes the array of midpoints, and an element whose
    bracket met its stop keeps it, so every element ends bit for bit where
    its scalar search would.  Scalar ends give f a float and return one.
    """
    scalar = np.isscalar(lo) and np.isscalar(hi)
    lo, hi = (a.astype(float) for a in np.broadcast_arrays(lo, hi))
    live = np.ones(lo.shape, dtype=bool)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        val = np.asarray(f(float(mid) if scalar else mid), dtype=float)
        high_side = (val > level) if increasing else (val < level)
        hi = np.where(live & high_side, mid, hi)
        lo = np.where(live & ~high_side, mid, lo)
        live &= ~(hi - lo <= np.maximum(tol, 1e-15 * (np.abs(lo) + np.abs(hi))))
        if not live.any():
            break
    mid = 0.5 * (lo + hi)
    return float(mid) if scalar else mid


def bisect_level_log(f, lo, hi, level=0.0, increasing=True, rtol=0.0):
    """Like `bisect_level` but bisecting in u = log(x); requires 0 < lo < hi.

    `rtol` is an absolute width in log x, not a relative width: bisection
    stops once the bracket [u_lo, u_hi] is at most
    max(rtol, 1e-15*(|u_lo| + |u_hi|)) wide, so the ratio of its ends in x
    is at most exp(rtol), about 1 + rtol, or after 200 steps.
    """
    llo = np.log(float(lo))
    lhi = np.log(float(hi))
    x = bisect_level(lambda u: f(np.exp(u)), llo, lhi, level=level,
                     increasing=increasing, iters=200, tol=rtol)
    return float(np.exp(x))


def brent_level_log(f, lo, hi, level=0.0, rtol=0.0, f_lo=None, f_hi=None):
    """Solve f(x) = level for monotone scalar f by Brent's method in u = log(x).

    Brent's zeroin (Algorithms for Minimization without Derivatives, 1973):
    inverse quadratic or secant steps, each accepted only inside a
    sign-change bracket that shrinks every step, so at worst it behaves like
    bisection (it bisects wherever a value is infinite).  It stops at the
    scale of `bisect_level_log`: a bracket half-width of
    2*eps*|u| + max(rtol, 1e-15*(|u_lo| + |u_hi|))/2, with `rtol` an
    absolute width in log x.  Requires 0 < lo < hi; `f_lo` and `f_hi` are
    f(lo) and f(hi) when the caller already has them.  Without a sign change
    in [lo, hi] the end nearer the level is returned, which is where
    bisection would also end for monotone f.
    """
    a, b = math.log(lo), math.log(hi)
    fa = (float(f(float(lo))) if f_lo is None else float(f_lo)) - level
    fb = (float(f(float(hi))) if f_hi is None else float(f_hi)) - level
    if fa == 0.0:
        return float(lo)
    if fb == 0.0 or (fa > 0.0) == (fb > 0.0):
        return float(hi) if abs(fb) <= abs(fa) else float(lo)
    # [b, c] brackets the root; b is the best estimate, a the previous one
    c, fc = a, fa
    d = e = b - a
    # a cap as in `bisect_level_log`; the bracket shrinks at least like bisection
    for _ in range(200):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * max(rtol, 1e-15 * (abs(b) + abs(c)))
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            break
        if abs(e) < tol or abs(fa) <= abs(fb) or not math.isfinite(fa + fc):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0.0 else -tol)
        fb = float(f(math.exp(b))) - level
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return math.exp(b)
