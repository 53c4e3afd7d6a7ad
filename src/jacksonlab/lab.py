"""Inequality registry and space-geometry estimators.

Every registered check is a record (`_Check`) that one interpreter,
`run_check`, runs: it evaluates one norm inequality over a dyadic range of
scales and a family of test functions, reports the per-point table of both
sides, the extremal ratio as the empirical constant, and a pass/fail verdict.
Lower-bound checks require the smallest LHS/RHS ratio to stay positive;
upper-bound checks the largest to stay finite; all checks also require the
ratio spread (max over median) to stay under a bound, so a constant that
drifts across the range fails even when each point is individually fine.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .approx import best_approx, degree_below, k_delta, k_functional
from .grid import (GridFunction, NormSpec, discretize, grid_points, luxemburg_norm,
                   orlicz_norm, random_smooth)
from .ops import (_SEMIGROUP_KINDS, _as_norm, _difference_norms, averaged_modulus, cesaro,
                  modulus, semigroup_modulus)
from .search import bisect_level
from .young import YoungFunction, zygmund

_RHS_FLOOR = 1e-13


@dataclass
class CheckReport:
    """Outcome of one inequality check.

    `table` rows are (index, lhs, rhs); `ratios` aligns with the table and
    holds lhs/rhs, inf where an upper check's ratio is unbounded, or NaN
    where the row was excluded from the constant and the spread (RHS below
    the noise floor, or a non-finite side).
    """

    check_id: str
    params: dict
    table: tuple
    ratios: tuple
    constant: float
    spread: float
    verdict: str
    runtime_ms: float = 0.0
    seed: int = 0
    resolutions: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def passed(self):
        return self.verdict == "pass"

    def to_json(self):
        def safe(x):
            return float(x) if x is not None and np.isfinite(x) else None

        return {
            "id": self.check_id,
            "params": self.params,
            "constant": safe(self.constant),
            "spread": safe(self.spread),
            "verdict": self.verdict,
            "runtime_ms": float(self.runtime_ms),
            "seed": int(self.seed),
            "resolutions": self.resolutions,
            "notes": list(self.notes),
            "table": [[int(i), safe(l), safe(r), safe(q)]
                      for (i, l, r), q in zip(self.table, self.ratios)],
        }

    def csv_text(self):
        lines = ["index,lhs,rhs,ratio"]
        for (i, l, r), q in zip(self.table, self.ratios):
            lines.append(f"{i},{l:.17g},{r:.17g},{q:.17g}")
        return "\n".join(lines) + "\n"


_NOISE = "excluded (rhs below noise floor)"
_NONFINITE = "excluded (non-finite value)"
_UNBOUNDED = "unbounded (rhs at or below the noise floor, lhs above it)"


def _ratio_stats(rows, direction="lower"):
    """Ratios, kept ratios, their max/median spread, and row counts by reason.

    The noise floor scales with the largest finite side.  A row with a
    non-finite side is excluded; a row whose RHS is at or below the floor is
    excluded too, except in an upper check whose LHS is above the floor:
    that ratio is unbounded (inf) and kept.  A zero LHS gives a kept 0.
    """
    scale = max((v for row in rows for v in row if np.isfinite(v)), default=0.0)
    floor = _RHS_FLOOR * max(scale, 1e-300)
    ratios = []
    counts = dict.fromkeys((_NOISE, _NONFINITE, _UNBOUNDED), 0)
    for l, r in rows:
        if not (np.isfinite(l) and np.isfinite(r)):
            reason, q = _NONFINITE, float("nan")
        elif r > floor:
            reason, q = None, l / r
        elif direction == "upper" and l > floor:
            reason, q = _UNBOUNDED, float("inf")
        else:
            reason, q = _NOISE, float("nan")
        if reason is not None:
            counts[reason] += 1
        ratios.append(q)
    kept = [q for q in ratios if not np.isnan(q)]
    med = float(np.median(kept)) if kept else 0.0
    spread = float(np.max(kept) / med) if 0.0 < med < float("inf") else float("inf")
    return ratios, kept, spread, counts


def _finish(check_id, params_used, rows, direction, spread_bound, seed,
            resolutions, notes=(), lower_threshold=0.0, upper_cap=None,
            require_all_at_least=None):
    """Assemble a CheckReport from raw (lhs, rhs) rows.

    direction "lower": constant is the minimum kept ratio and must exceed
    `lower_threshold`.  direction "upper": constant is the maximum kept
    ratio and must stay finite (and below `upper_cap` when given); with
    `require_all_at_least` every kept ratio must also clear that floor.
    A non-finite side fails; notes count excluded and unbounded rows by reason.
    """
    ratios, kept, spread, counts = _ratio_stats(rows, direction)
    notes = tuple(notes) + tuple(f"{k} rows {why}" for why, k in counts.items() if k)
    if not kept:
        constant, ok = float("nan"), False
    elif direction == "lower":
        constant = float(np.min(kept))
        ok = constant > lower_threshold and spread <= spread_bound
    else:
        constant = float(np.max(kept))
        ok = np.isfinite(constant) and spread <= spread_bound
        if upper_cap is not None:
            ok = ok and constant <= upper_cap
        if require_all_at_least is not None:
            ok = ok and float(np.min(kept)) >= require_all_at_least
    verdict = "pass" if ok and not counts[_NONFINITE] else "fail"
    table = tuple((i, float(l), float(r)) for i, (l, r) in enumerate(rows))
    return CheckReport(check_id, params_used, table, tuple(ratios), constant,
                       spread, verdict, seed=seed, resolutions=resolutions,
                       notes=notes)


# -- test family ---------------------------------------------------------


def _sawtooth8(x):
    acc = np.zeros_like(x)
    for k in range(1, 9):
        acc = acc + np.sin(k * x) / k
    return acc


_MEMBERS = ("cos", "abs-sin", "sawtooth8", "random")


def _members(names):
    """`names` as a nonempty list of standard family members; anything else is a ValueError."""
    if not isinstance(names, (list, tuple)) or not names:
        raise ValueError(f"must be a nonempty list of member names, got {names!r}")
    return [_choice(*_MEMBERS)(n) for n in names]


def standard_family(size, dim=1, rng=None, names=None):
    """Named test functions spanning smooth, Lipschitz, and rough regimes.

    d=1: cos x; |sin x| (Lipschitz, not C^1); an 8-term sawtooth partial
    sum; a seeded random band-limited function with quadratic mode decay.
    d=2 uses tensor analogues of the same four, the first three built from
    their 1-d factors.  `names` picks members; only those are built, in
    this order.
    """
    if dim not in (1, 2):
        raise ValueError(f"grid dimension must be 1 or 2, got {dim}")
    wanted = _MEMBERS if names is None else _members(names)
    # name: (axis samples, how two of them combine in 2-d); random is drawn whole
    axes = {"cos": (np.cos, np.multiply), "abs-sin": (lambda x: np.abs(np.sin(x)), np.multiply),
            "sawtooth8": (_sawtooth8, np.add), "random": None}
    x = grid_points(size, 1)[0]

    def member(n):
        if axes[n] is None:
            return random_smooth(size, dim, np.random.default_rng(0) if rng is None else rng)
        a = axes[n][0](x)
        return GridFunction(a if dim == 1 else axes[n][1].outer(a, a))

    return [(n, member(n)) for n in _MEMBERS if n in wanted]


_TAIL_REL_TOL, _TAIL_MAX_TERMS = 1e-14, 64


def dyadic_tail_sum(values_fn, r, s):
    """{sum_{j>=1} 2^(-j*r*s) values_fn(j)^s}^(1/s) with relative truncation.

    Stops at the first term below 1e-14 times the running sum (terms decay
    geometrically for bounded values), and after 64 terms at the latest;
    returns (value, j_stop).
    """
    acc = 0.0
    stop = _TAIL_MAX_TERMS
    for j in range(1, _TAIL_MAX_TERMS + 1):
        v = max(float(values_fn(j)), 0.0)
        term = 2.0 ** (-j * r * s) * v ** s
        acc += term
        if acc > 0.0 and term < _TAIL_REL_TOL * acc:
            stop = j
            break
    return acc ** (1.0 / s), stop


# -- space geometry ------------------------------------------------------


def _generator(rng):
    """(generator, seed) of an rng argument: None (seed 0), an integer seed, or a Generator (-1)."""
    if rng is None or isinstance(rng, (int, np.integer)):
        seed = 0 if rng is None else int(rng)
        return np.random.default_rng(seed), seed
    return rng, -1


@dataclass(frozen=True)
class ConvexityEstimate:
    """Empirical sharp constant of the s-convexity inequality."""

    m_hat: float
    witness: tuple
    witness_label: str
    trials: int


def estimate_convexity_constant(norm=None, s=2.0, rng=None, trials=200,
                                size=64, dim=1):
    """Smallest observed (max(|F+G|,|F-G|)^s - |F|^s)/|G|^s, clamped at 0.

    Samples mix fixed witness pairs (a flat function against cos, a
    near-parallel pair, disjoint-support bumps) with seeded random pairs
    drawn sequentially, so enlarging `trials` keeps every earlier sample
    and the estimate can only decrease.
    """
    if s < 2.0:
        raise ValueError(f"convexity exponent s must be >= 2, got {s}")
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    rng, _ = _generator(rng)
    nfun = _as_norm(norm)
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
    return ConvexityEstimate(float(best), best_pair, best_label, trials)


@dataclass(frozen=True)
class SpaceGeometry:
    """Empirical smoothness and convexity moduli of the unit ball."""

    sigma: tuple
    eta: tuple
    eps: tuple
    delta: tuple
    eta_exponent: float
    delta_exponent: float


def space_moduli(norm=None, size=64, dim=1, rng=None, trials=24):
    """Sampled smoothness curve eta and convexity curve delta with power fits.

    eta(sigma) is the largest observed (|F+G|+|F-G|)/2 - 1 over pairs with
    |F| = 1, |G| = sigma; delta(eps) the smallest observed 1 - |phi+psi|/2
    over unit pairs with |phi-psi| = eps.  Both curves are clamped at 0,
    pinned to 0 at the origin, and made nondecreasing; exponents come from
    a log-log fit over the positive part of each grid.
    """
    rng, _ = _generator(rng)
    nfun = _as_norm(norm)
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

    return SpaceGeometry(tuple(float(v) for v in sigma), tuple(float(v) for v in eta),
                         tuple(float(v) for v in eps), tuple(float(v) for v in delta),
                         fit(sigma, eta), fit(eps, delta))


def verify_duality(q, dim, rng=None, trials=400, tol=0.01):
    """Two-sided duality check on the finite-dimensional sequence space l_q.

    Estimates the smallest M making (|x+y| + |x-y|)/2 <= (|x|^q + M|y|^q)^(1/q)
    over sampled pairs, predicts the conjugate-space constant
    m = M^(-1/(q-1)) with s = q/(q-1), and verifies on l_s that
    max(|u+v|, |u-v|)^s >= |u|^s + m|v|^s up to 3*tol sampling slack.
    """
    if not (1.0 < q <= 2.0):
        raise ValueError(
            f"smoothness exponent q must lie in (1, 2], got {q}: no nontrivial "
            "norm satisfies the power-type smoothness inequality beyond q = 2")
    if dim < 2:
        raise ValueError(f"need dimension >= 2, got {dim}")
    rng, seed = _generator(rng)
    start = time.perf_counter()
    s = q / (q - 1.0)

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

    report = _finish(
        "duality", {"q": q, "dim": dim, "trials": trials, "tol": tol}, rows, "lower",
        float("inf"), seed, {"trials": trials},
        notes=(f"M_hat={M_hat:.12g}", f"s={s:.12g}", f"m_pred={m_pred:.12g}",
               "constant = min (max(|u+v|,|u-v|)^s - |u|^s)/|v|^s on l_s"),
        lower_threshold=m_pred - 3.0 * tol)
    report.runtime_ms = 1000.0 * (time.perf_counter() - start)
    return report


# -- check registry ------------------------------------------------------


def _record(cls):
    """Param converter: a JSON record is rebuilt as a `cls`; anything but a `cls` is refused."""
    def convert(value):
        value = cls.from_json(value) if isinstance(value, dict) else value
        if not isinstance(value, cls):
            raise ValueError(f"needs a {cls.__name__} record, got {type(value).__name__}")
        return value
    return convert


def _integer(low=-math.inf, high=math.inf, even=False):
    """Param converter: an integer in [low, high], even if asked; no bools, floats or strings."""
    rule = ("an even integer" if even else "an integer") + (
        f" from {low} to {high}" if high < math.inf else f" >= {low}" if low > -math.inf else "")

    def convert(value):
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or not low <= value <= high or value % (2 if even else 1)):
            raise ValueError(f"must be {rule}, got {value!r}")
        return int(value)
    return convert


def _choice(*options):
    """Param converter: one of the strings `options`."""
    def convert(value):
        if value not in options:
            raise ValueError(f"must be one of {', '.join(options)}, got {value!r}")
        return value
    return convert


_INT, _COUNT, _NATURAL = _integer(), _integer(1), _integer(0)


def _index_range(value):
    """Param converter: two integers [lo, hi] with lo <= hi."""
    if not isinstance(value, (list, tuple)) or len(value) != 2 or _INT(value[0]) > _INT(value[1]):
        raise ValueError(f"must be two integers [lo, hi] with lo <= hi, got {value!r}")
    return [int(value[0]), int(value[1])]


def _exponent(value):
    """Param converter: a finite s >= 2, the bound NormSpec puts on its own s."""
    if not 2.0 <= float(value) < math.inf:
        raise ValueError(f"convexity exponent s must be finite and >= 2, got {value!r}")
    return float(value)


# name: (default, converter, description).  A missing or null param takes the
# default; a callable default is computed from the params parsed before it, in
# the order of `check_params`.
_PARAMS = {
    "N": (256, _integer(8, even=True), "grid size"),
    "d": (1, _integer(1, 2), "grid dimension"),
    "seed": (0, _NATURAL, "seed of the random family member"),
    "family": (None, _members, "members of the standard family to use (all)"),
    "f": (None, _record(GridFunction), "GridFunction record to use as the family"),
    "spread_bound": (10.0, float, "largest max/median ratio that passes"),
    "norm": (lambda p: NormSpec(), _record(NormSpec), "NormSpec record (L2)"),
    "r": (1, _COUNT, "order of the left-hand side"),
    "s": (lambda p: p["norm"].s or 2.0, _exponent, "dyadic-sum exponent >= 2 (the norm's s, or 2)"),
    "n_range": (None, _index_range, "scales t = 2^-n for n from lo to hi"),
    "radii": (lambda p: 64 if p["d"] == 1 else 16, _COUNT, "step radii (64 in 1-d, else 16)"),
    "directions": (8, _COUNT, "step directions of 2-d moduli (1-d tries both signs)"),
    "semigroup": ("shift", _choice(*_SEMIGROUP_KINDS), "shift, heat or abel"),
    "points": (64, _COUNT, "parameter points of the one-sided modulus"),
    "quad_points": (128, _COUNT, "quadrature points of the averaged modulus"),
    "t_grid": ((0.25, 0.5, 1.0, 2.0, 3.0), lambda v: [float(t) for t in v], "scales t"),
    "h": (0.3, float, "base step"),
    "L": (10, _NATURAL, "last j of the sum"),
    "m": (None, float, "sharp constant; sets the pass threshold m^{1/s}/2 - tol"),
    "tol": (0.02, float, "margin of the threshold"),
    "ell": (1, _COUNT, "order of the K-functional or of the Cesaro mean"),
    "route": ("realization", _choice("realization", "heat", "sphere"),
              "K-functional route: realization, heat or sphere"),
    "lambda_power_max": (6, _NATURAL, "lambda = 2^k for k from 0 to this"),
    "phi": (lambda p: zygmund(2.0, 0.5), _record(YoungFunction), "Young function record (zygmund)"),
    "n": (16, _NATURAL, "degree of the Cesaro mean"),
    "slack": (1e-10, float, "rounding slack of the ratio bounds"),
}

# every check reads these; the sample counts among the others are resolutions
_BASE = ("N", "d", "seed", "family", "f", "spread_bound")
_COUNTS = ("L", "radii", "directions", "points", "quad_points")
_NORMED = ("norm", "r", "s")
_DYADIC = _NORMED + ("n_range",)
_MODULUS = _DYADIC + ("radii", "directions")


def _dyadic_scales(p):
    lo, hi = p["n_range"]
    return [(n, 2.0 ** (-n)) for n in range(lo, hi + 1)]


@dataclass(frozen=True)
class _Check:
    """One registered check, run by `run_check`.

    A dyadic check sets quantity `lhs` of order r at each scale (n, t)
    against {sum_j 2^(-jrs) term(2^j t)^s}^(1/s) of order r + 1, over
    `js(params, n)` or, when `js` is None, the dyadic tail; a lower check puts
    the quantity on the left, an upper check the sum.  Other checks give `rows`.
    `require` holds (param, predicate, message) rules on the parsed params;
    `bounds(params)` gives the `_finish` thresholds.
    """

    formula: str
    direction: str
    notes: tuple
    params: tuple
    order: str = "rows ordered by (function, n); functions: "
    lhs: object = None
    term: object = None
    js: object = None
    scales: object = _dyadic_scales
    rows: object = None
    defaults: dict = field(default_factory=dict)
    require: tuple = ()
    bounds: object = None
    threshold_note: str = None


# named quantities, each q(f, params, norm, scale, order)
def _difference(kind=None):
    """|(T(u) - I)^order f| for the semigroup `kind` (None: the check's `semigroup` param)."""
    return lambda f, p, nfun, u, order: _difference_norms(
        f, kind or p["semigroup"], order, [float(u)], nfun)[0]


def _modulus(f, p, nfun, u, order):
    return modulus(f, order, u, nfun, p["directions"], p["radii"])


def _semigroup_modulus(f, p, nfun, u, order):
    return semigroup_modulus(f, order, u, p["semigroup"], nfun, points=p["points"])


def _k_ell(f, p, nfun, u, order):
    return k_functional(f, p["ell"], u, nfun, route=p["route"]).value


def _approx_error(degree):
    """Best-approximation error at the degree `degree(scale)`."""
    return lambda f, p, nfun, u, order: best_approx(f, degree(u), nfun).value


# rows of the other checks
def _entire_412_rows(f, p, nfun):
    lams = [2.0 ** k for k in range(p["lambda_power_max"] + 1)]
    return [(best_approx(f, degree_below(lam), nfun).value, k_delta(f, p["r"], lam ** -2.0, nfun))
            for lam in lams]


def _cesaro_51_rows(f, p, nfun):
    smooth, phi = cesaro(f, p["n"], p["ell"]), p["phi"]
    return [(luxemburg_norm(smooth, phi), luxemburg_norm(f, phi)),
            (orlicz_norm(smooth, phi), orlicz_norm(f, phi))]


def _averaged_73_rows(f, p, nfun):
    return [(_semigroup_modulus(f, p, nfun, t, p["r"]),
             averaged_modulus(f, p["r"], t, p["semigroup"], nfun, quad_points=p["quad_points"]))
            for t in p["t_grid"]]


def _sandwich_rows(f, p, nfun):
    return [(orlicz_norm(f, p["phi"]), luxemburg_norm(f, p["phi"]))]


_ABEL_1D = (("d", lambda p: p["d"] == 1, "the abel-semigroup checks run on 1-d grids, got d={d}"),)
_SEMIGROUP_LAW = "omega_T^r(f,t) >= C {sum_j 2^(-jrs) omega_T^{r+1}(f,2^j t)^s}^(1/s) "
_SEMIGROUP_74 = _Check(
    _SEMIGROUP_LAW + "for a contraction semigroup", "lower",
    ("constant = min omega_T^r(f,t) / {sum_j 2^(-jrs) omega_T^{r+1}(f,2^j t)^s}^(1/s)",),
    _DYADIC + ("semigroup", "points"), lhs=_semigroup_modulus, term=_semigroup_modulus,
    defaults={"n_range": (1, 5), "semigroup": "abel", "points": 32})

_CHECKS = {
    "basic-2.1": _Check(
        "|(T-I)^r f| >= m1 {sum_{j>=0} 2^(-jrs) |(T^(2^j)-I)^(r+1) f|^s}^(1/s) "
        "with proof constant m1 = m^{1/s}/2", "lower",
        ("constant = min |(T-I)^r f| / {sum_{j=0}^L 2^(-jrs)|(T^(2^j)-I)^(r+1)f|^s}^(1/s)",),
        _NORMED + ("semigroup", "h", "L", "m", "tol"), order="rows indexed by test function: ",
        lhs=_difference(), term=_difference(), scales=lambda p: [(0, p["h"])],
        js=lambda p, n: range(p["L"] + 1),
        bounds=lambda p: ({} if p["m"] is None else
                          {"lower_threshold": p["m"] ** (1.0 / p["s"]) / 2.0 - p["tol"]}),
        threshold_note="threshold m^{1/s}/2 - tol = %.6g"),
    "jackson-1.4": _Check(
        "2^(-nr) {sum_{j<=n} 2^(jrs) omega^{r+1}(f,2^-j)^s}^(1/s) <= C omega^r(f,2^-n)",
        "upper",
        ("constant = max 2^(-nr){sum_{j<=n} 2^(jrs) omega^{r+1}(f,2^-j)^s}^(1/s) "
         "/ omega^r(f,2^-n)",),
        # at t = 2^-n and i = n - j: {sum_{i<n} 2^(-irs) omega^{r+1}(f,2^i t)^s}^(1/s)
        _MODULUS, lhs=_modulus, term=_modulus, js=lambda p, n: range(n - 1, -1, -1),
        defaults={"n_range": (1, 8)}),
    "jackson-4.8": _Check(
        "K_r(f,t^r) >= C {sum_j 2^(-jrs) K_{r+1}(f,(2^j t)^{r+1})^s}^(1/s) "
        "for the heat K-functional", "lower",
        ("heat K-functional route: K_rho(f, u^rho) computed as |(W(u)-I)^rho f|",),
        _DYADIC, lhs=_difference("heat"), term=_difference("heat"), defaults={"n_range": (1, 6)}),
    "jackson-4.9": _Check(
        "K_r(f,t^r) >= C {sum_j 2^(-jrs) E_{(2^j t)^(-1/2)}(f)^s}^(1/s) "
        "for the heat K-functional", "lower",
        ("lower bound of the heat K-functional by best-approximation errors "
         "at lambda_j = (2^j t)^(-1/2)",),
        _DYADIC, lhs=_difference("heat"), term=_approx_error(lambda u: degree_below(u ** -0.5)),
        defaults={"n_range": (1, 6)}),
    "jackson-5.9": _Check(
        "K_r(f,t^r) >= C {sum_j 2^(-jrs) K_{r+1}(f,(2^j t)^{r+1})^s}^(1/s) "
        "for the abel K-functional on the circle", "lower",
        ("abel K-functional route: K_rho(f, u^rho) computed as |(T(u)-I)^rho f|",),
        _DYADIC, lhs=_difference("abel"), term=_difference("abel"), require=_ABEL_1D,
        defaults={"n_range": (1, 6)}),
    "jackson-5.10": _Check(
        "K_r(f,2^(-nr)) >= C {sum_{j<=n} 2^(-jrs) E_{2^(n-j)}(f)^s}^(1/s) "
        "for the abel K-functional on the circle", "lower",
        ("constant = min |(T(2^-n)-I)^r f| / {sum_{j<=n} 2^(-jrs) E_{2^(n-j)}(f)^s}^(1/s)",),
        _DYADIC, lhs=_difference("abel"), term=_approx_error(lambda u: int(1.0 / u)),
        js=lambda p, n: range(1, n + 1), require=_ABEL_1D, defaults={"n_range": (1, 8)}),
    "entire-4.12": _Check(
        "E_lambda(f) <= C K_r(f, lambda^(-2r)) for the heat K-functional", "upper",
        ("constant = max E_lambda(f) / K_r(f, lambda^(-2r)) (heat route)",),
        ("norm", "r", "lambda_power_max"), rows=_entire_412_rows,
        order="rows ordered by (function, k) with lambda = 2^k; functions: "),
    "cesaro-5.1": _Check(
        "Cesaro means C_n^ell are a contraction in the Luxemburg and Orlicz norms", "upper",
        ("contraction check: constant = max |C_n^ell f| / |f| must stay <= 1 + slack",),
        ("phi", "ell", "n", "slack"), rows=_cesaro_51_rows,
        order="row pairs per function (luxemburg then orlicz); functions: ",
        require=(("d", lambda p: p["d"] == 1, "cesaro means run on 1-d grids, got d={d}"),),
        bounds=lambda p: {"upper_cap": 1.0 + p["slack"]}),
    "averaged-7.3": _Check(
        "w_T^r(f,t) <= omega_T^r(f,t) <= C(r) w_T^r(f,t) for the "
        "averaged and one-sided semigroup moduli", "upper",
        ("bracket check: every ratio omega/w must be >= 1 - slack; "
         "constant = max ratio is the empirical C(r)",),
        ("norm", "r", "semigroup", "points", "quad_points", "t_grid", "slack"),
        rows=_averaged_73_rows, order="rows ordered by (function, t); functions: ",
        bounds=lambda p: {"require_all_at_least": 1.0 - p["slack"]}),
    "semigroup-7.4": _SEMIGROUP_74,
    "shift-7.5": replace(
        _SEMIGROUP_74, formula=_SEMIGROUP_LAW + "for the shift semigroup on the circle",
        defaults={"n_range": (1, 5), "points": 32}),
    "kfunc-8.9": _Check(
        "omega^r(f,t) >= C {sum_j 2^(-jrs) K_ell(f,(2^j t)^(2 ell))^s}^(1/s), 2 ell > r",
        "lower",
        ("constant = min omega^r(f,t) / {sum_j 2^(-jrs) K_ell(f,(2^j t)^(2 ell))^s}^(1/s)",),
        _MODULUS + ("ell", "route"), lhs=_modulus, term=_k_ell,
        require=(("r", lambda p: 2 * p["ell"] > p["r"], "need 2*ell > r, got ell={ell}, r={r}"),
                 ("route", lambda p: p["route"] != "sphere" or p["d"] == 2,
                  "the sphere route runs on 2-d grids, got d={d}")),
        defaults={"n_range": (1, 4), "d": 2}),
    "jackson-8.10": _Check(
        "omega^r(f,t) >= C {sum_j 2^(-jrs) E_{1/(t 2^j)}(f)^s}^(1/s)", "lower",
        ("constant = min omega^r(f,t) / {sum_j 2^(-jrs) E_{1/(t 2^j)}(f)^s}^(1/s)",),
        _MODULUS, lhs=_modulus, term=_approx_error(lambda u: degree_below(1.0 / u)),
        defaults={"n_range": (1, 6)}),
    "lower-8.12": _Check(
        "omega^r(f,t)^s >= C sum_{j<=L} 2^(-jrs) omega^{r+1}(f,t 2^j)^s, "
        "L = min(l: 2^-l <= t)", "lower",
        ("constant = min omega^r(f,t) / {sum_{j<=L} 2^(-jrs) omega^{r+1}(f,t 2^j)^s}^(1/s), "
         "L = min(l: 2^-l <= t)",),
        _MODULUS, lhs=_modulus, term=_modulus, js=lambda p, n: range(1, max(1, n) + 1),
        defaults={"n_range": (1, 5)}),
    "orlicz-sandwich": _Check(
        "luxemburg <= orlicz <= 2 luxemburg on the test family", "upper",
        ("sandwich check: every ratio orlicz/luxemburg must lie in [1 - slack, 2 + slack]",),
        ("phi", "slack"), rows=_sandwich_rows, order="rows indexed by test function: ",
        defaults={"slack": 1e-8}, bounds=lambda p: {"upper_cap": 2.0 + p["slack"],
                                                    "require_all_at_least": 1.0 - p["slack"]}),
}


def registry_ids():
    """Registered check ids in canonical order."""
    return tuple(_CHECKS.keys())


def _lookup(check_id):
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check id {check_id!r}; known ids: " + ", ".join(_CHECKS))
    return _CHECKS[check_id]


def check_params(check_id):
    """Names of the params one registered check reads, in parse order."""
    return _BASE + _lookup(check_id).params


def describe_check(check_id):
    """Formula, verdict rule, and every param the check reads with its default."""
    check = _lookup(check_id)
    lines = [f"{check_id}: {check.formula}", f"{check.direction}-bound check; "
             + "; ".join(check.notes), "params:"]
    for name in check_params(check_id):
        default = check.defaults.get(name, _PARAMS[name][0])
        shown = "" if default is None or callable(default) else f" = {json.dumps(default)}"
        lines.append(f"  {name}{shown}: {_PARAMS[name][2]}")
    return "\n".join(lines)


def convert_param(name, value):
    """`value` as param `name` is read; a TypeError, ValueError or LookupError says why not."""
    return _PARAMS[name][1](value)


class ParamError(ValueError):
    """A refused check param: `name` is the param, `reason` what is wrong with it."""

    def __init__(self, check_id, name, reason, message=None):
        super().__init__(message or f"param {name!r} of {check_id}: {reason}")
        self.name, self.reason = name, reason


def parse_params(check_id, params):
    """Resolved value of every param the check reads, its `require` rules checked.

    A name the check does not read, a value its converter refuses or a
    broken rule raises a ParamError naming the param.
    """
    check, names = _lookup(check_id), check_params(check_id)
    for name in params:
        if name not in names:
            listing = ", ".join(names)
            raise ParamError(check_id, name, f"{check_id} reads no such param; it reads {listing}",
                             f"unknown param {name!r} for {check_id}; it reads: {listing}")
    p = {}
    for name in names:
        value = params.get(name)
        if value is None:
            value = check.defaults.get(name, _PARAMS[name][0])
            value = value(p) if callable(value) else value
        try:
            p[name] = None if value is None else convert_param(name, value)
        except (TypeError, ValueError, LookupError) as exc:
            # a record's missing field is a KeyError, whose str is the bare key
            reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ParamError(check_id, name, reason) from exc
    for name, holds, rule in check.require:
        if not holds(p):
            raise ParamError(check_id, name, rule.format(**p))
    return p


def _dyadic_rows(check, f, p, nfun, stops):
    r, s = p["r"], p["s"]
    # the sums at different scales t read terms at the same points 2^j t: evaluate each once
    term = functools.cache(lambda u: check.term(f, p, nfun, u, r + 1))
    rows = []
    for n, t in check.scales(p):
        q = check.lhs(f, p, nfun, t, r)
        if check.js is None:
            total, stop = dyadic_tail_sum(lambda j: term((2.0 ** j) * t), r, s)
            stops.append(stop)
        else:
            acc = 0.0
            for j in check.js(p, n):
                acc += 2.0 ** (-j * r * s) * term((2.0 ** j) * t) ** s
            total = acc ** (1.0 / s)
        rows.append((total, q) if check.direction == "upper" else (q, total))
    return rows


def run_check(check_id, params=None):
    """Run one registered check and return its CheckReport.

    The params go through `parse_params` (a refused one is a ParamError,
    a ValueError); the report's `params` hold every one of
    them, defaults resolved, and its `resolutions` the grid size, the
    sample counts read and, for a dyadic tail, the last j summed.
    """
    check = _lookup(check_id)
    start = time.perf_counter()
    p = parse_params(check_id, params or {})
    nfun = _as_norm(p.get("norm"))
    if p["f"] is not None:
        fam = [("custom", p["f"])]
    else:
        fam = standard_family(p["N"], p["d"], np.random.default_rng(p["seed"]),
                              names=p["family"])
    rows, stops = [], []
    for _, f in fam:
        rows += check.rows(f, p, nfun) if check.rows else _dyadic_rows(check, f, p, nfun, stops)
    notes = (check.order + ", ".join(name for name, _ in fam),)
    # a 1-d modulus tries both signs of each radius and reads no directions
    resolutions = {"N": p["N"], **{k: p[k] for k in _COUNTS
                                   if k in p and (k != "directions" or p["d"] == 2)}}
    if check.lhs and check.js is None:
        resolutions["max_j"] = max(stops, default=0)
        notes += (f"series truncated at j <= {resolutions['max_j']}",)
    notes += check.notes
    bounds = check.bounds(p) if check.bounds else {}
    if "lower_threshold" in bounds:
        notes += (check.threshold_note % bounds["lower_threshold"],)
    used = {k: v.to_json() if hasattr(v, "to_json") else v for k, v in p.items()}
    report = _finish(check_id, used, rows, check.direction, p["spread_bound"], p["seed"],
                     resolutions, notes, **bounds)
    report.runtime_ms = 1000.0 * (time.perf_counter() - start)
    return report
