"""Best trigonometric approximation and K-functionals.

The best-approximation error is bounded above by the smaller error of two
explicit candidates inside the admissible degree band (partial sum, and a
ramped projection at half degree).  K-functionals are evaluated through three
routes: a realization over smoothed candidates, a heat-semigroup
difference, and a circular-mean difference on the 2-torus.  The band norms
are row norms |M f| memoized on f (`_row_norm`), keyed by a degree (1 - P_n,
P_n (-|nu|^2)^ell) and the norm's `NormSpec.key()`, so scales t with the
same degrees share their rows.
`k_delta` (a heat difference of `ops._difference_norms`) and the sphere
route keep no memo.  The sphere row V_ell(t) - 1 is minus the circle mean
of the shift's symbol (4 sin^2(nu.h/2))^ell over C(2*ell, ell): exact to
rounding at any t.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import _COUNT, _NATURAL, _Record
from .ops import (_apply_multiplier, _difference_norms, _mode_radius, _mode_radius2,
                  _multiplier_norms, _norm_spec, _spherical_mean_offset)


def degree_below(lam):
    """Largest admissible degree strictly below lam (at least 0)."""
    return max(0, math.ceil(lam - 1e-9) - 1)


def _band(f, n, kind):
    """Half-grid multiplier of the degree-n band projection (see `projection`)."""
    n = _NATURAL(n, "degree")
    if kind not in ("partial_sum", "vallee_poussin"):
        raise ValueError(f"unknown projection kind {kind!r}")
    rad = _mode_radius(f.size, f.dim)
    if kind == "partial_sum" or n == 0:
        return (rad <= n + 1e-9).astype(float)
    return np.clip((2.0 * n - rad) / n, 0.0, 1.0)


def projection(f, n, kind="partial_sum"):
    """Band projection of degree n.

    "partial_sum" keeps modes with |nu| <= n exactly.  "vallee_poussin"
    ramps linearly from 1 at |nu| <= n to 0 at |nu| >= 2n, so its output
    has degree at most 2n - 1 but much better norm behaviour.
    """
    return _apply_multiplier(f, _band(f, n, kind))


class ApproxResult(_Record):
    """Best-approximation error bound for one degree, with the candidate that gave it."""

    __slots__ = ("degree", "value", "method")

    def __init__(self, degree, value, method):
        self._set(degree, value, method)


def best_approx(f, n, norm=None):
    """Distance from f to trigonometric polynomials of degree at most n, bounded above.

    Returns an ApproxResult whose `value` is the smaller error of two
    explicit candidates inside the degree band: the partial sum of degree n
    and the ramped projection at degree n//2 (whose output degree stays
    below n).  Their errors are row norms memoized on f.  `n` is an
    integer >= 0, checked before the memo is read.
    """
    n = _NATURAL(n, "degree")
    errors = [_row_norm(f, ("rest", "partial_sum", n), norm)]
    if n >= 2:
        errors.append(_row_norm(f, ("rest", "vallee_poussin", n // 2), norm))
    k = errors.index(min(errors))  # the first minimum, as np.argmin picks it
    return ApproxResult(n, errors[k], ("partial_sum", "vallee_poussin")[k])


class KFuncResult(_Record):
    """K-functional value with the route that produced it."""

    __slots__ = ("t", "ell", "route", "value", "degree", "notes")

    def __init__(self, t, ell, route, value, degree=None, notes=()):
        self._set(t, ell, route, value, degree, notes)


def k_functional(f, ell, t, norm=None, route="realization"):
    """K-functional between B and the domain of the ell-th power of the Laplacian.

    realization: min over candidate degrees n in {0, ceil(1/t), 2*ceil(1/t)}
    of |f - P_n f| + t^(2*ell) * |Laplacian^ell P_n f| with ramped
    projections (n = 0 uses the mean).  heat: |(H(t^2) - I)^ell f| for the
    heat semigroup H (`k_delta` at t^2).  sphere (d=2): |V_ell(t) f - f| with
    the order-ell circular mean (see `ops.spherical_mean`); radii beyond pi/2
    are flagged in `notes`.  The realization norms are memoized rows
    (`_row_norm`), never keyed by t; the sphere norm is evaluated per call.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"scale t must be positive and finite, got {t}")
    ell, norm = _COUNT(ell, "order"), _norm_spec(norm)
    if route == "realization":
        n0 = max(1, math.ceil(1.0 / t - 1e-9))
        degrees = (0, n0, 2 * n0)
        # rows f - P_n f and Laplacian^ell P_n f (the zero multiplier for the mean, n = 0)
        vals = [_row_norm(f, ("rest", "vallee_poussin", n), norm)
                + t ** (2 * ell) * _row_norm(f, ("smooth", n, ell), norm) for n in degrees]
        k = vals.index(min(vals))
        return KFuncResult(float(t), ell, route, vals[k], degree=degrees[k])
    if route == "heat":
        return KFuncResult(float(t), ell, route, k_delta(f, ell, t * t, norm))
    if route == "sphere":
        if f.dim != 2:
            raise ValueError("sphere route needs a 2-d grid")
        notes = ("radius beyond pi/2, values are extrapolated",) if t > math.pi / 2.0 else ()
        row = _spherical_mean_offset(f.size, float(t), ell)
        return KFuncResult(float(t), ell, route, _multiplier_norms([f], row[None], norm)[0][0][0],
                           notes=notes)
    raise ValueError(f"unknown route {route!r}")


def k_delta(f, m, heat_time, norm=None):
    """Norm of (H(heat_time) - I)^m f, the heat-difference K-functional proxy."""
    return _difference_norms([f], "heat", [m], [float(heat_time)], norm)[0][m][0]


def _row_norm(f, key, norm):
    """|M f| for the half-grid multiplier M that `key` names, memoized on f.

    M is 1 - a degree-n band ("rest") or the ramped band times (-|nu|^2)^ell
    ("smooth").  The memo key ends with the norm's `NormSpec.key()`.  A
    row's norm does not depend on its stack.
    """
    memo_key = key + (_norm_spec(norm).key(),)
    value = f._memo.get(memo_key)
    if value is None:
        match key:
            case ("rest", kind, n):
                row = 1.0 - _band(f, n, kind)
            case ("smooth", n, ell):
                row = _band(f, n, "vallee_poussin") * (-_mode_radius2(f.size, f.dim)) ** ell
        value = f._memo[memo_key] = _multiplier_norms([f], row[None], norm)[0][0][0]
    return value
