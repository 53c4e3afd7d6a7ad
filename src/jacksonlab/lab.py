"""Inequality registry and space-geometry estimators.

Every registered check is a record (`_Check`) that one interpreter,
`run_check`, runs: it evaluates one norm inequality over a dyadic range of
scales and a family of test functions, reports the per-point table of both
sides, the extremal ratio as the empirical constant, and a pass/fail verdict.
Lower-bound checks require the smallest LHS/RHS ratio to stay positive;
upper-bound checks the largest to stay finite; all checks also require the
ratio spread (max over median) to stay under a bound, so a constant that
drifts across the range fails even when each point is individually fine.

The space-geometry estimators sample the hypothesis (*),
max(|F+G|, |F-G|)^s >= |F|^s + m|G|^s, and the moduli of the unit ball
behind it.  They draw their pairs in a fixed order and take their norms
through `NormSpec.rows`, one stacked call per stage (`_norms`), so each
norm has the one implementation in `grid`; `estimate_convexity_constant`
draws and reduces one stack of pairs at a time, so its memory does not
grow with `trials`.
"""

from __future__ import annotations

import json
import math
import sys
import time
from itertools import islice

import numpy as np

from .approx import best_approx, degree_below, k_functional
from .grid import (_COUNT, _DIM, _NATURAL, _REAL, _SIZE, GridFunction, NormSpec,
                   _convexity_exponent, _generator, _number, _Record, discretize, grid_points,
                   luxemburg_norm, orlicz_norm, random_smooth)
from .ops import (_SEMIGROUP_KINDS, _STACK_SAMPLES, _averaged_moduli, _difference_norms,
                  _moduli_tables, _norm_spec, _sup_table, cesaro)
from .search import bisect_level
from .young import YoungFunction, zygmund

_RHS_FLOOR = 1e-13


class CheckReport(_Record):
    """Outcome of one inequality check.

    `table` rows are (index, lhs, rhs); `ratios` aligns with the table and
    holds lhs/rhs, inf where an upper check's ratio is unbounded, or NaN
    where the row was excluded from the constant and the spread (RHS below
    the noise floor, or a non-finite side).  `_finish` builds it when the
    check is done, `runtime_ms` included.  Its `params` and `resolutions`
    are dicts, so a report has no hash.
    """

    __slots__ = ("check_id", "params", "table", "ratios", "constant", "spread", "verdict",
                 "runtime_ms", "seed", "resolutions", "notes")

    def __init__(self, check_id, params, table, ratios, constant, spread, verdict,
                 runtime_ms=0.0, seed=0, resolutions=None, notes=()):
        self._set(check_id, params, table, ratios, constant, spread, verdict, runtime_ms, seed,
                  {} if resolutions is None else resolutions, notes)

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


def _median(values):
    """Median of nonempty non-NaN floats, bit for bit `float(np.median(values))`.

    Not `np.median`: its NaN check imports `numpy.ma` (about 9 ms) into every cold batch.
    """
    s = sorted(map(float, values))
    mid = len(s) // 2
    middle = s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2
    return middle + 0.0  # np.mean sums from +0.0, so a -0.0 median reads +0.0 there


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
    med = _median(kept) if kept else 0.0
    spread = float(np.max(kept) / med) if 0.0 < med < float("inf") else float("inf")
    return ratios, kept, spread, counts


def _finish(check_id, params_used, rows, direction, spread_bound, seed, resolutions, start,
            notes=(), lower_threshold=0.0, upper_cap=None, require_all_at_least=None):
    """Assemble a CheckReport from raw (lhs, rhs) rows; `start` is the check's perf_counter start.

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
    return CheckReport(check_id, params_used, table, tuple(ratios), constant, spread, verdict,
                       1000.0 * (time.perf_counter() - start), seed, resolutions, notes)


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
    this order.  `size`, `dim` and `rng` are checked as `random_smooth`
    checks them, before any member is built.
    """
    size, dim, (rng, _) = _SIZE(size, "size"), _DIM(dim, "dim"), _generator(rng)
    wanted = _MEMBERS if names is None else _members(names)
    # name: (axis samples, how two of them combine in 2-d); random is drawn whole
    axes = {"cos": (np.cos, np.multiply), "abs-sin": (lambda x: np.abs(np.sin(x)), np.multiply),
            "sawtooth8": (_sawtooth8, np.add), "random": None}
    x = grid_points(size, 1)[0]

    def member(n):
        if axes[n] is None:
            return random_smooth(size, dim, rng)
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


def _norms(spec, *stacks):
    """The norms of the rows of equally tall stacks of flattened samples, stacked into one call.

    Row k of the result holds the norms of stack k.  One `NormSpec.rows`
    call takes the rows of every stack, in slices of `ops._STACK_SAMPLES`
    samples a stack (one slice at the estimators' default sizes), so that
    a 2-d grid does not multiply the samples held.  A row's norm is its
    one-function norm bit for bit, whatever it is stacked with.
    """
    step = max(1, _STACK_SAMPLES // stacks[0].shape[1])
    return np.concatenate([spec.rows(np.concatenate([a[k:k + step] for a in stacks]))
                           .reshape(len(stacks), -1) for k in range(0, len(stacks[0]), step)],
                          axis=1)


class ConvexityEstimate(_Record):
    """Empirical sharp constant of the s-convexity inequality."""

    __slots__ = ("m_hat", "witness", "witness_label", "trials")

    def __init__(self, m_hat, witness, witness_label, trials):
        self._set(m_hat, witness, witness_label, trials)


def estimate_convexity_constant(norm=None, s=2.0, rng=None, trials=200,
                                size=64, dim=1):
    """Smallest observed (max(|F+G|,|F-G|)^s - |F|^s)/|G|^s, clamped at 0.

    Samples mix fixed witness pairs (a flat function against cos, a
    near-parallel pair, disjoint-support bumps, zero against cos) with
    seeded random pairs drawn sequentially, so enlarging `trials` keeps
    every earlier sample and the estimate can only decrease.  F = 0 gives
    the ratio 1, which bounds m for every norm, so the estimate never
    exceeds 1.  `s` is a finite number >= 2, `trials` an integer >= 100,
    `size` an even integer >= 8 and `dim` 1 or 2.
    The pairs are drawn and reduced one stack at a time: each stack of
    `ops._STACK_SAMPLES` samples (every pair at the default size) takes one
    stacked norm call, and only the best pair so far is kept.
    """
    s = _convexity_exponent(s)
    trials = _number(100)(trials, "trials")
    size, dim = _SIZE(size, "size"), _DIM(dim, "dim")
    rng, _ = _generator(rng)
    spec = _norm_spec(norm)
    shape = (size,) * dim
    ones = GridFunction(np.ones(shape))
    cosf = discretize(lambda *x: np.cos(x[0]), size, dim)
    left = np.zeros(shape)  # 1 where the first coordinate is below pi, and right = 1 - left
    left[2.0 * np.pi * np.arange(size) / size < np.pi] = 1.0
    right = 1.0 - left

    def draw():
        yield from [("flat-vs-cos", ones, cosf), ("near-parallel", cosf, 0.01 * cosf),
                    ("disjoint-halves", GridFunction(left), GridFunction(right)),
                    ("zero-vs-cos", GridFunction(np.zeros(shape)), cosf)]
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
            yield f"random-{k}", F, G

    pairs = draw()
    best, label, witness = float("inf"), None, None
    # a stack is one slice of `_norms`, so its norms are those of one call over every pair
    while stack := list(islice(pairs, max(1, _STACK_SAMPLES // ones.samples.size))):
        Fs, Gs = (np.array([pair[k].samples.ravel() for pair in stack]) for k in (1, 2))
        norms = _norms(spec, Fs, Gs, Fs + Gs, Fs - Gs)
        # the ratios in Python floats, pair by pair, as exact as with one norm per call
        for (name, F, G), (nf, ng, plus, minus) in zip(stack, zip(*norms.tolist())):
            if ng < 1e-12:
                continue
            val = max((max(plus, minus) ** s - nf ** s) / ng ** s, 0.0)
            if val < best:
                best, label, witness = val, name, (F, G)
    return ConvexityEstimate(best, witness, label, trials)


class SpaceGeometry(_Record):
    """Empirical smoothness and convexity moduli of the unit ball."""

    __slots__ = ("sigma", "eta", "eps", "delta", "eta_exponent", "delta_exponent")

    def __init__(self, sigma, eta, eps, delta, eta_exponent, delta_exponent):
        self._set(sigma, eta, eps, delta, eta_exponent, delta_exponent)


def space_moduli(norm=None, size=64, dim=1, rng=None, trials=24):
    """Sampled smoothness curve eta and convexity curve delta with power fits.

    eta(sigma) is the largest observed (|F+G|+|F-G|)/2 - 1 over pairs with
    |F| = 1, |G| = sigma; delta(eps) the smallest observed 1 - |phi+psi|/2
    over unit pairs with |phi-psi| = eps.  Both curves are clamped at 0,
    pinned to 0 at the origin, and made nondecreasing; exponents come from
    a log-log fit over the positive part of each grid.  `trials` (an
    integer >= 0) random pairs join two fixed ones; `size` is an even
    integer >= 8 and `dim` 1 or 2.

    Every stage takes the norms of all pairs in one stacked call: eta one
    per sigma; delta bisects every pair of an eps in lockstep
    (`bisect_level` on arrays) on the angle theta of
    psi = unit(cos(theta) phi + sin(theta) b), two calls per step (the
    norms that make psi a unit, then |phi - psi|).
    """
    spec = _norm_spec(norm)
    trials = _NATURAL(trials, "trials")
    size, dim = _SIZE(size, "size"), _DIM(dim, "dim")
    rng, _ = _generator(rng)
    sigma = np.concatenate([[0.0], np.geomspace(0.02, 0.5, 15)])
    eps = np.concatenate([[0.0], np.geomspace(0.05, 1.0, 15)])

    # (cos x, sin x), then (cos 2x, cos x) in 1-d and (cos x cos y, sin x sin y) in 2-d
    fixed = [(lambda *x: np.cos(x[0]), lambda *x: np.sin(x[0])),
             (lambda x: np.cos(2 * x), np.cos) if dim == 1 else
             (lambda x, y: np.cos(x) * np.cos(y), lambda x, y: np.sin(x) * np.sin(y))]
    pairs = [(discretize(a, size, dim), discretize(b, size, dim)) for a, b in fixed] + [
        (random_smooth(size, dim, rng), random_smooth(size, dim, rng)) for _ in range(trials)]
    As, Bs = (np.array([pair[k].samples.ravel() for pair in pairs]) for k in (0, 1))
    na, nb = _norms(spec, As, Bs)
    keep = (na >= 1e-14) & (nb >= 1e-14)  # a pair with a zero side has no unit vector
    phi, b = (1.0 / na[keep])[:, None] * As[keep], (1.0 / nb[keep])[:, None] * Bs[keep]

    eta = np.zeros_like(sigma)
    for i in range(1, len(sigma)):
        G = sigma[i] * b
        plus, minus = _norms(spec, phi + G, phi - G)
        eta[i] = max([0.0] + (0.5 * plus + 0.5 * minus - 1.0).tolist())
    eta = np.maximum.accumulate(eta)

    def mix(theta, P, Q):
        # unit(cos(theta) P + sin(theta) Q) by rows, with the scalar math.cos and math.sin
        t = theta.tolist()
        v = (np.array([math.cos(a) for a in t])[:, None] * P
             + np.array([math.sin(a) for a in t])[:, None] * Q)
        return (1.0 / _norms(spec, v)[0])[:, None] * v

    def distance(theta, P, Q):
        return _norms(spec, P - mix(theta, P, Q))[0]

    gap = _norms(spec, phi - b)[0]
    at_half, at_pi = (distance(np.full(len(phi), t), phi, b) for t in (math.pi / 2.0, math.pi))
    delta = np.zeros_like(eps)
    for i in range(1, len(eps)):
        ev = eps[i]
        # the bracket [0, pi/2], or [0, pi] when pi/2 falls short; a pair that pi too
        # leaves short of eps, or whose gap is below it, has no psi
        hi = np.where(at_half < ev, math.pi, math.pi / 2.0)
        live = (gap >= ev - 1e-12) & ~((at_half < ev) & (at_pi < ev - 1e-9))
        if not live.any():
            continue
        P, Q = phi[live], b[live]
        theta = bisect_level(lambda th: distance(th, P, Q), np.zeros(len(P)), hi[live],
                             level=ev, iters=60)
        plus = _norms(spec, P + mix(theta, P, Q))[0]
        delta[i] = min(max(1.0 - 0.5 * n, 0.0) for n in plus.tolist())
    delta = np.maximum.accumulate(delta)

    def fit(xs, ys):
        good = (xs > 0.0) & (ys > 0.0)
        if np.count_nonzero(good) < 2:
            return float("nan")
        return float(np.polyfit(np.log(xs[good]), np.log(ys[good]), 1)[0])

    return SpaceGeometry(tuple(float(v) for v in sigma), tuple(float(v) for v in eta),
                         tuple(float(v) for v in eps), tuple(float(v) for v in delta),
                         fit(sigma, eta), fit(eps, delta))


def verify_duality(q, dim, rng=None, trials=400):
    """Two-sided duality check on the finite-dimensional sequence space l_q.

    Estimates the smallest M making (|x+y| + |x-y|)/2 <= (|x|^q + M|y|^q)^(1/q)
    over sampled pairs, predicts the conjugate-space constant
    m = M^(-1/(q-1)) with s = q/(q-1), and verifies on l_s that
    max(|u+v|, |u-v|)^s >= |u|^s + m|v|^s up to 3*tol sampling slack, tol = 0.01.
    Each side samples four fixed pairs and `trials` (an integer >= 0) seeded
    ones; q is a finite number and dim an integer >= 2.  The l_p norm on
    dim points is dim^(1/p) times the mean L_p norm of `NormSpec(p=p)`,
    which takes the norms of all pairs in one call.
    """
    q, dim = _REAL(q, "smoothness exponent q"), _number(2)(dim, "dim")
    if not (1.0 < q <= 2.0):
        raise ValueError(
            f"smoothness exponent q must lie in (1, 2], got {q}: no nontrivial "
            "norm satisfies the power-type smoothness inequality beyond q = 2")
    trials = _NATURAL(trials, "trials")
    rng, seed = _generator(rng)
    start = time.perf_counter()
    s, tol = q / (q - 1.0), 0.01
    fixed = np.zeros((4, 2, dim))
    fixed[:, 0, 0] = 1.0
    fixed[:, 1, 1] = (0.1, 0.5, 1.0, 2.0)

    def sampled(p):
        # |x|, |y|, |x+y|, |x-y| in l_p of the fixed pairs, then of `trials` drawn ones,
        # for every pair with |y| >= 1e-12
        x, y = np.concatenate([fixed, rng.standard_normal((trials, 2, dim))]).transpose(1, 0, 2)
        norms = dim ** (1.0 / p) * _norms(NormSpec(p=p), x, y, x + y, x - y)
        return [row for row in zip(*norms.tolist()) if row[1] >= 1e-12]

    M_hat = max([0.0] + [((0.5 * (plus + minus)) ** q - nx ** q) / ny ** q
                         for nx, ny, plus, minus in sampled(q)] + [1e-12])
    m_pred = M_hat ** (-1.0 / (q - 1.0))
    rows = [(max(plus, minus) ** s - nu ** s, nv ** s) for nu, nv, plus, minus in sampled(s)]

    return _finish(
        "duality", {"q": q, "dim": dim, "trials": trials, "tol": tol}, rows, "lower",
        float("inf"), seed, {"trials": trials}, start,
        notes=(f"M_hat={M_hat:.12g}", f"s={s:.12g}", f"m_pred={m_pred:.12g}",
               "constant = min (max(|u+v|,|u-v|)^s - |u|^s)/|v|^s on l_s"),
        lower_threshold=m_pred - 3.0 * tol)


# -- check registry ------------------------------------------------------


def _record(cls):
    """Param converter: a JSON record is rebuilt as a `cls`; anything but a `cls` is refused."""
    def convert(value):
        value = cls.from_json(value) if isinstance(value, dict) else value
        if not isinstance(value, cls):
            raise ValueError(f"needs a {cls.__name__} record, got {type(value).__name__}")
        return value
    return convert


def _choice(*options):
    """Param converter: one of the strings `options`."""
    def convert(value):
        if value not in options:
            raise ValueError(f"must be one of {', '.join(options)}, got {value!r}")
        return value
    return convert


_INT = _number()


def _reals(value):
    """Param converter: a nonempty list of finite real numbers."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"must be a nonempty list of finite numbers, got {value!r}")
    return [_REAL(v) for v in value]


def _index_range(value):
    """Param converter: two integers [lo, hi] with lo <= hi."""
    if not isinstance(value, (list, tuple)) or len(value) != 2 or _INT(value[0]) > _INT(value[1]):
        raise ValueError(f"must be two integers [lo, hi] with lo <= hi, got {value!r}")
    return [int(value[0]), int(value[1])]


# name: (default, converter, description).  A missing or null param takes the
# default; a callable default is computed from the params parsed before it, in
# the order of `check_params`.
_PARAMS = {
    "N": (256, _SIZE, "grid size"),
    "d": (1, _DIM, "grid dimension"),
    "seed": (0, _NATURAL, "seed of the random family member"),
    "family": (None, _members, "members of the standard family to use (all)"),
    "f": (None, _record(GridFunction), "GridFunction record to use as the family; sets N and d"),
    "spread_bound": (10.0, _REAL, "largest max/median ratio that passes"),
    "norm": (lambda p: NormSpec(), _record(NormSpec), "NormSpec record (L2)"),
    "r": (1, _COUNT, "order of the left-hand side"),
    "s": (lambda p: p["norm"].s or 2.0, _convexity_exponent,
          "dyadic-sum exponent >= 2 (max(p, 2) under a finite L_p norm, else 2)"),
    "n_range": (None, _index_range, "scales t = 2^-n for n from lo to hi"),
    "radii": (lambda p: 64 if p["d"] == 1 else 16, _COUNT, "step radii (64 in 1-d, else 16)"),
    "directions": (8, _COUNT, "step directions of 2-d moduli (1-d tries both signs)"),
    "semigroup": ("shift", _choice(*_SEMIGROUP_KINDS), "shift, heat or abel"),
    "points": (64, _COUNT, "parameter points of the one-sided modulus"),
    "quad_points": (128, _COUNT, "quadrature points of the averaged modulus"),
    "t_grid": ((0.25, 0.5, 1.0, 2.0, 3.0), _reals, "scales t"),
    "h": (0.3, _REAL, "base step"),
    "L": (10, _NATURAL, "last j of the sum"),
    "m": (None, _number(0, real=True), "sharp constant; sets the pass threshold m^{1/s}/2 - tol"),
    "tol": (0.02, _REAL, "margin of the threshold"),
    "ell": (1, _COUNT, "order of the K-functional or of the Cesaro mean"),
    "route": ("realization", _choice("realization", "heat", "sphere"),
              "K-functional route: realization, heat or sphere"),
    # up to 511, where the heat time lambda^-2 = 2^(-2k) is still a normal float
    "lambda_power_max": (6, _number(0, (1 - sys.float_info.min_exp) // 2),
                         "lambda = 2^k for k from 0 to this"),
    "phi": (lambda p: zygmund(2.0, 0.5), _record(YoungFunction), "Young function record (zygmund)"),
    "n": (16, _NATURAL, "degree of the Cesaro mean"),
    "slack": (1e-10, _REAL, "rounding slack of the ratio bounds"),
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


class _Check(_Record):
    """One registered check, run by `run_check`.

    A dyadic check sets quantity `lhs` of order r at each scale (n, t)
    against {sum_j 2^(-jrs) term(2^j t)^s}^(1/s) of order r + 1, over
    `js(params, n)` or, when `js` is None, the dyadic tail; a lower check puts
    the quantity on the left, an upper check the sum.  The quantities take
    the check's whole family and return one table per member, so the
    members share each stack's build of (T(u) - I)^r.  Other checks give
    `rows(fs, params)`, the family's rows in (function, ...) order.  Both
    read the norm `params["norm"]`.  `require` holds (param, predicate,
    message) rules on the parsed params; `bounds(params)` gives the
    `_finish` thresholds.
    """

    __slots__ = ("formula", "direction", "notes", "params", "order", "lhs", "term", "js",
                 "scales", "rows", "defaults", "require", "bounds", "threshold_note")

    def __init__(self, formula, direction, notes, params,
                 order="rows ordered by (function, n); functions: ", lhs=None, term=None,
                 js=None, scales=_dyadic_scales, rows=None, defaults=None, require=(),
                 bounds=None, threshold_note=None):
        self._set(formula, direction, notes, params, order, lhs, term, js, scales, rows,
                  {} if defaults is None else defaults, require, bounds, threshold_note)

    def replace(self, **changes):
        """This check with the fields in `changes` replaced."""
        return _Check(**dict(zip(self.__slots__, self._values()), **changes))


# named quantities, each q(fs, params, orders, scales) under the norm params["norm"]: one
# {(order, scale): value} per member of fs, which share each stack's build of (T(u) - I)^r
def _difference(kind=None):
    """|(T(u) - I)^order f| for the semigroup `kind` (None: the check's `semigroup` param)."""
    def tables(fs, p, orders, us):
        us = list(dict.fromkeys(us))
        return [{(r, u): v for r, col in norms.items() for u, v in zip(us, col)}
                for norms in _difference_norms(fs, kind or p["semigroup"], orders, us, p["norm"])]
    return tables


# basic-2.1 reads it on both sides, so `_dyadic_rows` asks for both orders in one call
_STEP_DIFFERENCE = _difference()


def _modulus(fs, p, orders, us):
    return _moduli_tables(fs, orders, us, p["norm"], p["directions"], p["radii"])


def _semigroup_modulus(fs, p, orders, us):
    return _sup_table(fs, p["semigroup"], orders, us, p["points"], p["norm"])


def _per_scale(value):
    """A quantity that reads no order: value(f, params, scale) per member and scale."""
    def tables(fs, p, orders, us):
        values = [{u: value(f, p, u) for u in dict.fromkeys(us)} for f in fs]
        return [{(r, u): v for r in orders for u, v in member.items()} for member in values]
    return tables


_k_ell = _per_scale(lambda f, p, u: k_functional(f, p["ell"], u, p["norm"], p["route"]).value)


def _approx_error(degree):
    """Best-approximation error at the degree `degree(scale)`."""
    return _per_scale(lambda f, p, u: best_approx(f, degree(u), p["norm"]).value)


# rows of the other checks, each rows(fs, params) over the family fs, by function
def _entire_412_rows(fs, p):
    r, lams = p["r"], [2.0 ** k for k in range(p["lambda_power_max"] + 1)]
    errors = _approx_error(degree_below)(fs, p, [r], lams)
    ks = _difference("heat")(fs, p, [r], [lam ** -2.0 for lam in lams])
    return [(e[(r, lam)], k[(r, lam ** -2.0)]) for e, k in zip(errors, ks) for lam in lams]


def _cesaro_51_rows(fs, p):
    phi, smooths = p["phi"], [cesaro(f, p["n"], p["ell"]) for f in fs]
    return [(norm(smooth, phi), norm(f, phi)) for f, smooth in zip(fs, smooths)
            for norm in (luxemburg_norm, orlicz_norm)]


def _averaged_73_rows(fs, p):
    r, ts = p["r"], p["t_grid"]
    sups = _semigroup_modulus(fs, p, [r], ts)
    means = _averaged_moduli(fs, r, ts, p["semigroup"], p["norm"], p["quad_points"])
    return [(sup[(r, t)], mean) for sup, row in zip(sups, means) for t, mean in zip(ts, row)]


def _sandwich_rows(fs, p):
    return [(orlicz_norm(f, p["phi"]), luxemburg_norm(f, p["phi"])) for f in fs]


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
        lhs=_STEP_DIFFERENCE, term=_STEP_DIFFERENCE, scales=lambda p: [(0, p["h"])],
        js=lambda p, n: range(p["L"] + 1),
        require=(("h", lambda p: p["h"] != 0.0, "the base step must be nonzero, got h={h}"),
                 ("h", lambda p: p["semigroup"] == "shift" or p["h"] > 0.0,
                  "the {semigroup} semigroup takes a time h > 0, got h={h}")),
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
        require=(("d", lambda p: p["d"] == 1, "cesaro means run on 1-d grids, got d={d}"),
                 ("n", lambda p: p["n"] < p["N"] // 2, "the degree n must be below N/2, "
                  "got n={n} at N={N}")),
        bounds=lambda p: {"upper_cap": 1.0 + p["slack"]}),
    "averaged-7.3": _Check(
        "w_T^r(f,t) <= omega_T^r(f,t) <= C(r) w_T^r(f,t) for the "
        "averaged and one-sided semigroup moduli", "upper",
        ("bracket check: every ratio omega/w must be >= 1 - slack; "
         "constant = max ratio is the empirical C(r)",),
        ("norm", "r", "semigroup", "points", "quad_points", "t_grid", "slack"),
        rows=_averaged_73_rows, order="rows ordered by (function, t); functions: ",
        require=(("t_grid", lambda p: min(p["t_grid"]) > 0.0,
                  "every scale t must be > 0, got {t_grid}"),
                 # the largest midpoint of the mean, as `_averaged_moduli` computes it
                 ("t_grid", lambda p: all(math.isfinite(t * (p["quad_points"] - 0.5)
                                                        / p["quad_points"]) for t in p["t_grid"]),
                  "every midpoint t(i + 1/2)/quad_points must be a finite float, got {t_grid}"),
                 ("t_grid", lambda p: p["semigroup"] != "shift"
                  or all(math.isfinite(p["N"] / 2 * t) for t in p["t_grid"]),
                  "every shift phase N/2 * t must be a finite float, got {t_grid}")),
        bounds=lambda p: {"require_all_at_least": 1.0 - p["slack"]}),
    "semigroup-7.4": _SEMIGROUP_74,
    "shift-7.5": _SEMIGROUP_74.replace(
        formula=_SEMIGROUP_LAW + "for the shift semigroup on the circle",
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

    A GridFunction record `f` sets N and d, which the params after it
    read; `family` is refused beside it, and a rule its N or d breaks names
    `f`.  A name the check does not read, a value its converter refuses, a
    broken rule, an empty sum over j or a power of 2 beyond the normal floats
    (`_power_beyond_floats`) raises a ParamError naming the param.
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
        if name == "f" and p["f"] is not None:
            if p["family"] is not None:
                raise ParamError(check_id, "family", "a check given a function f reads no family")
            p["N"], p["d"] = p["f"].size, p["f"].dim
    for name, holds, rule in check.require:
        if not holds(p):
            # N and d beside a function record are the record's
            name = "f" if name in ("N", "d") and p["f"] is not None else name
            raise ParamError(check_id, name, rule.format(**p))
    unfit = _power_beyond_floats(check, p)
    if unfit:
        raise ParamError(check_id, *unfit)
    return p


# the `math.frexp` exponents e of the normal floats m * 2^e, 1/2 <= |m| < 1
_NORMAL = range(sys.float_info.min_exp, sys.float_info.max_exp + 1)


def _power_beyond_floats(check, p):
    """(param, reason) for an empty sum or a power of 2 that is not a normal float, or None.

    At each scale t (2^-n, or basic-2.1's h) a dyadic check reads 2^j and
    2^j t for j in js(n) (a tail: j <= 64) and the weights 2^(-jrs) of a
    sum over js, which must not be empty (an empty sum is 0 and bounds
    nothing).  The exponents are linear in n and j, and the ends and the
    length of every js move monotonically with n, so the ends of n_range
    and of their js bound the rest.  A check whose steps u are shifts (it
    reads radii, or its semigroup is the shift) also turns phases nu*u for
    |nu| <= N/2: the largest, N/2 * u, has the exponent of u plus `lift`,
    and it must not overflow where u does not.
    """
    if check.lhs is None:
        return None
    r, s, basic = p["r"], p["s"], "n_range" not in p
    t_name, j_name = ("h", "L") if basic else ("n_range", "n_range")
    lift = math.frexp(p["N"] / 2 * math.frexp(p["h"] if basic else 1.0)[0])[1]
    phase = "radii" in p or p.get("semigroup") == "shift"
    for n, e in [(0, math.frexp(p["h"])[1])] if basic else [(n, 1 - n) for n in p["n_range"]]:
        t = "h" if basic else f"2^{-n}"
        powers, steps = [(t_name, f"the scale {t}", e)], [(t, e)]
        js = check.js(p, n) if check.js else range(1, _TAIL_MAX_TERMS + 1)
        if not js:
            return j_name, f"the sum over j is empty at n={n}"
        for j in (js[0], js[-1]):
            powers += [(j_name, f"the factor 2^{j}", j + 1),
                       (t_name, f"the step 2^{j} * {t}", e + j)]
            steps.append((f"2^{j} * {t}", e + j))
            if check.js:
                powers.append((j_name, f"the weight 2^(-{j}*{r}*{s:g})",
                               math.floor(-j * r * s) + 1))
        powers += [(t_name, f"the phase N/2 * {u}", k + lift) for u, k in steps if phase]
        for name, what, exponent in powers:
            if exponent not in _NORMAL:
                return name, f"{what} is not a normal float"
    return None


def _dyadic_rows(check, fs, p, stops):
    """The rows of a dyadic check over the family `fs`, ordered by (function, n)."""
    r, s, scales = p["r"], p["s"], check.scales(p)
    ts = [t for _, t in scales]
    # while the terms do not decrease, term j of a tail is above 2^(-(j-1)rs)(1 - 2^(-rs)) of
    # the running sum, so a tail reads j = 1..J at least: one call with the left sides
    J = 1 + math.floor(math.log2((1.0 - 2.0 ** (-r * s)) / _TAIL_REL_TOL) / (r * s))
    js = check.js or (lambda p, n: range(1, J + 1))
    us = [(2.0 ** j) * t for n, t in scales for j in js(p, n)]
    if check.term is check.lhs and check.js:  # a tail reads order r at no term
        tables = check.lhs(fs, p, [r, r + 1], ts + us)
    else:
        tables = [{**lhs, **term} for lhs, term in zip(check.lhs(fs, p, [r], ts),
                                                       check.term(fs, p, [r + 1], us))]
    rows = []
    for f, table in zip(fs, tables):
        def term(u):
            if (r + 1, u) not in table:  # a tail past J asks for a further term alone, once
                table.update(check.term([f], p, [r + 1], [u])[0])
            return table[(r + 1, u)]
        for n, t in scales:
            q = table[(r, t)]
            if check.js is None:
                total, stop = dyadic_tail_sum(lambda j: term((2.0 ** j) * t), r, s)
                stops.append(stop)
            else:
                acc = 0.0
                for j in js(p, n):
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
    fam = [("custom", p["f"])] if p["f"] is not None else standard_family(
        p["N"], p["d"], np.random.default_rng(p["seed"]), names=p["family"])
    fs, stops = [f for _, f in fam], []
    rows = check.rows(fs, p) if check.rows else _dyadic_rows(check, fs, p, stops)
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
    return _finish(check_id, used, rows, check.direction, p["spread_bound"], p["seed"],
                   resolutions, start, notes, **bounds)
