"""Best trigonometric approximation and K-functionals.

Upper bounds for the best-approximation error come from two explicit
candidates inside the admissible degree band (partial sum, and a ramped
projection at half degree); an optional projected-subgradient pass tightens
them for non-Hilbert norms.  K-functionals are evaluated through three
routes: a realization over smoothed candidates, a heat-semigroup
difference, and a circular-mean difference on the 2-torus.  The band norms
are row norms |M f| memoized on f (`_row_norm`), keyed by a degree (1 - P_n,
P_n (-|nu|^2)^ell), so scales t with the same degrees share their rows.
`k_delta` (a heat difference of `ops._difference_norms`) and the sphere
route keep no memo.  The sphere row V_ell(t) - 1 is minus the circle mean
of the shift's symbol (4 sin^2(nu.h/2))^ell over C(2*ell, ell): exact to
rounding at any t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridFunction, _amemiya, _weight_array, lp_norm, luxemburg_norm
from .ops import (_apply_multiplier, _difference_norms, _mode_radius, _mode_radius2,
                  _multiplier_norms, _norm_spec, _positive_int, _spherical_mean_offset)


def degree_below(lam):
    """Largest admissible degree strictly below lam (at least 0)."""
    return max(0, math.ceil(lam - 1e-9) - 1)


def _band(f, n, kind):
    """Half-grid multiplier of the degree-n band projection (see `projection`)."""
    if n < 0 or n != int(n):
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
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


@dataclass(frozen=True)
class ApproxResult:
    """Best-approximation error bounds for one degree."""

    degree: int
    upper: float
    method: str
    optimized: float = None

    @property
    def value(self):
        return self.upper if self.optimized is None else min(self.upper, self.optimized)


def best_approx(f, n, norm=None, refine=False, iters=500, step=0.5):
    """Distance from f to trigonometric polynomials of degree at most n.

    Returns an ApproxResult whose `upper` is the smaller of the two
    explicit candidates (both lie inside the degree band: the ramped
    candidate is built at degree n//2 so its output degree stays < n);
    their errors are row norms memoized on f.  With refine=True a
    projected-subgradient descent polishes the candidate; this needs a
    declarative norm (a NormSpec, its bound `norm`, or None for L2).
    """
    spec = _norm_spec(norm)
    if refine and spec is None:
        raise ValueError("refine needs a declarative norm, not a bare callable")
    errors = [_row_norm(f, ("rest", "partial_sum", n), norm)]
    if n >= 2:
        errors.append(_row_norm(f, ("rest", "vallee_poussin", n // 2), norm))
    k = errors.index(min(errors))  # the first minimum, as np.argmin picks it
    plain = ApproxResult(int(n), errors[k], ("partial_sum", "vallee_poussin")[k])
    if not refine:
        return plain
    start = projection(f, n if k == 0 else n // 2, plain.method)
    optimized = _refine(f, int(n), start, plain.upper, spec, iters, step)
    return replace(plain, optimized=float(min(optimized, plain.upper)))


def _norm_subgradient(u, spec):
    """Subgradient of the NormSpec `spec` at sample vector u (zero vector at u = 0)."""
    size, g, weight = u.size, GridFunction(u), spec.weight
    w = 1.0 if weight is None else _weight_array(g, weight)
    if spec.variant == "lp":
        p = spec.p
        if np.isinf(p):
            grad = np.zeros_like(u)
            j = np.unravel_index(np.argmax(np.abs(u)), u.shape)
            grad[j] = np.sign(u[j])
            return grad
        nval = lp_norm(g, p, weight)
        if nval == 0.0:
            return np.zeros_like(u)
        return (w / size) * np.abs(u) ** (p - 1.0) * np.sign(u) / nval ** (p - 1.0)
    phi = spec.phi
    absu = np.abs(u)
    if spec.variant == "luxemburg":
        a = luxemburg_norm(g, phi, weight)
        if a == 0.0:
            return np.zeros_like(u)
        dphi = np.asarray(phi.deriv_plus(absu / a), dtype=float)
        denom = float(np.sum(w * dphi * absu))
        if denom <= 0.0:
            return np.zeros_like(u)
        return a * w * dphi * np.sign(u) / denom
    # orlicz: envelope derivative at the optimal scaling k*
    kstar, value = _amemiya(g, phi, weight)
    if value == 0.0:
        return np.zeros_like(u)
    return (w / size) * np.asarray(phi.deriv_plus(kstar * absu), dtype=float) * np.sign(u)


def _refine(f, n, start, start_val, spec, iters, step):
    nfun = spec.norm
    g = start.samples.copy()
    best = start_val
    gamma0 = step * max(start_val, 1e-15)
    for k in range(iters):
        u = f.samples - g
        grad = _norm_subgradient(u, spec)
        direction = projection(GridFunction(grad), n).samples
        scale = math.sqrt(float(np.mean(direction ** 2)))
        if scale < 1e-300:
            break
        g = g + (gamma0 / math.sqrt(k + 1.0)) * direction / scale
        best = min(best, nfun(GridFunction(f.samples - g)))
    return best


@dataclass(frozen=True)
class KFuncResult:
    """K-functional value with the route that produced it."""

    t: float
    ell: int
    route: str
    value: float
    degree: int = None
    notes: tuple = ()


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
    ell = _positive_int("order", ell)
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
        return KFuncResult(float(t), ell, route, _multiplier_norms(f, row[None], norm)[0][0],
                           notes=notes)
    raise ValueError(f"unknown route {route!r}")


def k_delta(f, m, heat_time, norm=None):
    """Norm of (H(heat_time) - I)^m f, the heat-difference K-functional proxy."""
    return _difference_norms(f, "heat", [m], [float(heat_time)], norm)[m][0]


def _row_norm(f, key, norm):
    """|M f| for the half-grid multiplier M that `key` names, memoized on f.

    M is 1 - a degree-n band ("rest") or the ramped band times (-|nu|^2)^ell
    ("smooth").  The norm is keyed by
    `NormSpec.key()`, or a bare callable by itself (an unhashable one is not
    memoized).  A row's norm does not depend on its stack.
    """
    spec = _norm_spec(norm)
    memo_key = key + ((spec.key(),) if spec is not None else (("callable", norm),))
    try:
        value = f._memo.get(memo_key)
    except TypeError:
        memo_key = value = None
    if value is None:
        match key:
            case ("rest", kind, n):
                row = 1.0 - _band(f, n, kind)
            case ("smooth", n, ell):
                row = _band(f, n, "vallee_poussin") * (-_mode_radius2(f.size, f.dim)) ** ell
        value = _multiplier_norms(f, row[None], norm)[0][0]
        if memo_key is not None:
            f._memo[memo_key] = value
    return value
