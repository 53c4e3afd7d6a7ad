"""Translation, finite differences, smoothing semigroups and moduli.

All operators act through Fourier multipliers on the sample grid, so for
band-limited inputs (modes strictly inside the alias-free range) they agree
with the continuum operators to rounding error.

Spectral path: every operator is `irfftn(f.spectrum() * mult)`, where
`GridFunction.spectrum` is the real FFT of the samples, computed once per
function and kept read-only.  Multipliers live on the matching half grid:
full frequency axes, except the last, which holds 0..N/2.  The frequency
grids are built once per (N, d).  The unpaired Nyquist slot N/2 is its own
mirror, so a multiplier there must be real: the translate multiplier puts
cos(N*h/2) in it (the sampled translate of a cos(N*x/2) component is
cos(N*h/2) * cos(N*x/2)), and the results equal the real part of the
complex full-grid transform to rounding error.

The shift's phases exp(i*nu*h) come from `_axis_phases` by angle addition:
nu = c + s with c a multiple of w = 2^(bitlen(N/2)//2) and 0 <= s < w, so
a step takes cos and sin at N/(2w) + 1 coarse and w fine angles, and one
complex outer product exp(i*c*h) * exp(i*s*h) gives every phase.  A full
axis takes its negative half as the exact conjugate of its positive half,
and the Nyquist slot keeps cos(N*h/2) computed directly.  Each phase is
within 2*eps*(1 + |nu*h|) of exp(i*nu*h), the accuracy of the direct
formula, which the rounding of nu*h limits in both.

One builder, `_semigroup_multipliers`, makes T(u) of every semigroup: the
shift (u a step), heat or Abel (u a time), and refuses a non-finite u;
`_step_multipliers` makes (T(u) - I)^r from it for a list of orders, each
next order the last one times T(u) - I, and `_difference_norms` is the one
entry for the norms of (T(u) - I)^r f, which every modulus and difference
norm calls.

`_multiplier_norms` is the one evaluator of norms of multiplier images
M f: (T(u) - I)^r over many scales u, and the rows 1 - P_n,
P_n (-|nu|^2)^ell and V_ell(t) - 1 that `approx` gives.  A norm is a
`NormSpec` or None (L2); `_norm_spec` refuses anything else with a
TypeError before any work.  Under the unweighted L2 norm the evaluator
takes no inverse transform at all: by Parseval, the norm is
sqrt(sum(|M|^2 * w)) with `GridFunction.parseval_weights` w.  The
shift builds |M|^2 from its real symbol (4 sin^2(nu.h/2))^r (cos(N*h/2) - 1
on the Nyquist lines); V_ell(t) - 1 is minus the circle mean of that symbol
at r = ell over C(2*ell, ell); every other multiplier squares itself.
|M|^2 of a step is even in the step, so the L2 modulus evaluates only
positive steps in 1-d and, for an even count, only the directions in
[0, pi) in 2-d.  Every other norm runs one inverse transform per stack of
multipliers and hands the rows, flattened, to `NormSpec.rows` in `grid`
with the weight normalized once per call: one reduction over all rows for
L_p, one level solve per row for a Luxemburg or Orlicz norm.  This module
computes no norm itself; the one-function norms of `grid` are the same
rows, one at a time.  A stack holds max(1, `_STACK_SAMPLES` // N^d) rows,
a constant per grid, so outputs never depend on the machine or the thread
count.

The moduli keep only the max of their rows (`sup`).  Under a Luxemburg or
Orlicz norm the evaluator then hands each stack to `grid._young_stack_sup`,
which rules rows out by one vectorized modular and solves only the rows
that may beat the running max; the result is the per-row max bit for bit.

`moduli_table` and `semigroup_moduli_table` give a modulus for every
(order, t) of a list of orders and scales in one call.  The steps
t*(i+1)/count of dyadic t nest exactly, so a table evaluates each distinct
step once, takes every order from one build of T(u) - I per stack by
successive products, and reads each cell as the max of its t's rows; the
cells equal the one-cell `modulus` and `semigroup_modulus` bit for bit.
Under a Luxemburg or Orlicz norm a table goes up the t and keeps only each
t's max: a t evaluates (by the pruned sup) the steps that no smaller t had,
and a step a smaller t had is at most that t's max, so it is evaluated
again only when the new steps stay below that max.

The 2-d L2 modulus takes a shorter path when its directions lie on the
lattice: under the unweighted L2 norm, a count that divides 8 (1, 2, 4 or
8, the default of `lab`) samples only (1, 0), (1, 1), (0, 1) and (-1, 1) up
to sign.  A step h = rho*(a, b)/|(a, b)| then sees nu only through the
integer m = a*nu0 + b*nu1, and `_projected_norms` sums the Parseval weights
once per call and direction into W(m) (one `np.bincount`, a finite Radon
projection), so a step costs O(N) instead of an O(N^2) symbol.  The Nyquist
row and column keep their real cos(N*h/2) factor and are summed directly.
It is the evaluator of `_sup_table`'s rows in that case, and it rounds
differently from the per-step symbol (within 1e-14 relative), which
stays the path of every other count, of 1-d, of weighted L2 and of every
other norm.

The moduli keep nothing between calls: every call evaluates its rows and
returns.  (T(u) - I)^r depends on the grid and u, not on f, so the private
evaluators (`_multiplier_norms`, `_difference_norms`, `_sup_table`,
`_projected_norms`), `_moduli_tables` and `_averaged_moduli`, the family
forms of `moduli_table` and `averaged_modulus`, take a family of members on
one grid: each stack is built once, and every member reads it (under L2
through its own Parseval weights, under another L_p through its own inverse
FFT, under a Young norm against its own running max).  A member's values do
not depend on the others, and a one-member family does the one-function
work.  `lab` asks for the moduli of a check's whole family in one call per
side (and for a term past a dyadic tail's sure range alone, per member), and
`approx._row_norm` memoizes rows that several scales share.
Besides the frequency grids, one cache is module-wide: `_spherical_mean_offset`
is an `lru_cache(maxsize=64)` keyed by (N, t, ell, quad_points), and at
N=256 it can hold 64 read-only arrays of about 264 KB each (17 MB).  A
sphere-route K-functional reads each radius once per member, so a check's
members share a row through it: 28 rows for the 4 members of `kfunc-8.9`
at N=32, read 112 times.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .grid import _COUNT, _NATURAL, GridFunction, NormSpec, _weight_array, _young_stack_sup

# Sample budget of one batched inverse transform (rows = budget // N^d, at least 1).
_STACK_SAMPLES = 1 << 15


def _inverse(spec, shape):
    """Real samples of `shape` from their half-grid spectrum (inverse of rfftn), per stack row."""
    if len(shape) == 1:
        return np.fft.irfft(spec, n=shape[0])
    return np.fft.irfftn(spec, s=shape, axes=(-2, -1))


def _apply_multiplier(f, mult):
    """The operator with half-grid multiplier `mult` applied to f."""
    return GridFunction(_inverse(f.spectrum() * mult, f.samples.shape))


@lru_cache(maxsize=64)
def _axis_freqs(size):
    """Integer frequencies of a full FFT axis and of the halved rfft axis."""
    full = np.fft.fftfreq(size) * size
    half = np.arange(size // 2 + 1, dtype=float)
    full.setflags(write=False)
    half.setflags(write=False)
    return full, half


@lru_cache(maxsize=64)
def _phase_split(size):
    """The coarse (multiples of w) and fine (0..w-1) parts of nu = c + s, w = 2^(bitlen(N/2)//2)."""
    half = size // 2
    w = 1 << (half.bit_length() // 2)
    coarse = np.arange(half // w + 1, dtype=float) * w
    fine = np.arange(w, dtype=float)
    coarse.setflags(write=False)
    fine.setflags(write=False)
    return coarse, fine


def _exp_i(angles):
    """exp(i*angles) from one cos and one sin call."""
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def _axis_phases(size, steps):
    """exp(i*nu*h) along each axis for a k x d stack of steps h.

    One k x len(axis) array per axis (the last is the half axis), real
    cos(N*h/2) at Nyquist.  By angle addition: exp(i*c*h) * exp(i*s*h) for
    nu = c + s (`_phase_split`), so a row takes cos and sin at about
    sqrt(2N) angles; a full axis takes its negative half as the conjugate
    of the positive half.  Each element is within 2*eps*(1 + |nu*h|) of
    exp(i*nu*h).
    """
    coarse, fine = _phase_split(size)
    half, k = size // 2, len(steps)
    phases = []
    for axis in range(steps.shape[1]):
        h = steps[:, axis]
        pos = _exp_i(np.outer(h, coarse))[:, :, None] * _exp_i(np.outer(h, fine))[:, None, :]
        pos = pos.reshape(k, pos.shape[1] * pos.shape[2])[:, :half + 1]
        pos[:, half] = np.cos(0.5 * size * h)
        if axis == steps.shape[1] - 1:
            phases.append(pos)
        else:
            phase = np.empty((k, size), dtype=complex)
            phase[:, :half + 1] = pos
            np.conjugate(pos[:, half - 1:0:-1], out=phase[:, half + 1:])
            phases.append(phase)
    return phases


@lru_cache(maxsize=64)
def _mode_radius2(size, dim):
    """|nu|^2 on the half grid (read-only)."""
    full, half = _axis_freqs(size)
    r2 = half ** 2 if dim == 1 else full[:, None] ** 2 + half[None, :] ** 2
    r2.setflags(write=False)
    return r2


@lru_cache(maxsize=64)
def _mode_radius(size, dim):
    """|nu| on the half grid (read-only)."""
    rad = np.sqrt(_mode_radius2(size, dim))
    rad.setflags(write=False)
    return rad


def _as_step(f, h):
    """A step argument (scalar for d=1, d-sequence) as a 1 x d stack."""
    if np.isscalar(h):
        if f.dim != 1:
            raise ValueError("scalar step only valid on 1-d grids")
        h = (h,)
    h = np.array([[float(v) for v in h]])
    if h.shape[1] != f.dim:
        raise ValueError(f"step has {h.shape[1]} components for a {f.dim}-d grid")
    return h


def translate(f, h):
    """f(. + h); h is a scalar (d=1) or a pair (d=2).

    The group law T(a)T(b) = T(a+b) holds only on inputs without Nyquist
    content: the Nyquist slot of the multiplier is cos(N*h/2), and
    cos(N*a/2) cos(N*b/2) is not cos(N*(a+b)/2).
    """
    return _apply_multiplier(f, _semigroup_multipliers(f.size, f.dim, "shift", _as_step(f, h))[0])


def difference(f, h, r=1):
    """r-th forward difference sum_k (-1)^(r-k) C(r,k) f(. + k*h)."""
    r = _COUNT(r, "difference order")
    mult = _step_multipliers(f.size, f.dim, "shift", [r], _as_step(f, h))[0][0]
    return _apply_multiplier(f, mult)


_L2 = NormSpec()


def _norm_spec(norm):
    """The NormSpec `norm` (None is L2); anything else is refused with a TypeError."""
    if norm is None:
        return _L2
    if not isinstance(norm, NormSpec):
        raise TypeError(f"a norm is a NormSpec or None, got {type(norm).__name__}")
    return norm


def _plain_p(spec):
    """p when `spec` (a NormSpec) is an unweighted L_p norm, else None; 2 is Parseval's."""
    return spec.p if spec.variant == "lp" and spec.weight is None else None


def _powers(a, orders):
    """[a**r for r in `orders`] (ascending integers >= 1) by successive products, overwriting a.

    Each power is the one before times a, left to right, so it is the same
    bits whichever orders are asked with it.  A power is overwritten by the
    next only when it is not asked for and, if it is a, a is not needed again.
    """
    top = orders[-1] if orders else 0
    out, cur = [], a
    for r in range(1, top + 1):
        if r - 1 in orders or r == 2 < top:
            cur = cur * a
        elif r > 1:
            cur *= a
        if r in orders:
            out.append(cur)
    return out


def _abs2(z):
    return z * z if z.dtype.kind == "f" else z.real ** 2 + z.imag ** 2


def _stacks(steps, size, dim):
    """`steps` cut into stacks of at most `_STACK_SAMPLES` grid samples (one step at least)."""
    chunk = max(1, _STACK_SAMPLES // size ** dim)
    return (steps[k:k + chunk] for k in range(0, len(steps), chunk))


def _parseval_sums(m2, weights):
    """sum(w * m2) over each row of the stack m2, one array of sums per Parseval weight array w.

    The last w weights m2 in place and every other w one scratch copy, so a
    single w does the in-place work alone.
    """
    scratch = np.empty_like(m2) if len(weights) > 1 else None
    sums = []
    for k, w in enumerate(weights):
        out = np.multiply(m2, w, out=m2 if k == len(weights) - 1 else scratch)
        sums.append(out.reshape(len(out), -1).sum(axis=-1))
    return sums


def _multiplier_norms(fs, items, norm, build=None, sup=False):
    """Columns of norms of M f for half-grid multipliers M, one list of columns per member f.

    `fs` holds members on one grid.  `items` are the multipliers, one
    column.  Or build(stack) turns a stack of `items` into a list of stacks
    of multipliers, one per column (build(stack, True): new arrays of their
    |M|^2).  Each stack is built once, and every member reads it.  A
    column is the list of its norms.  `norm` is a NormSpec or None (L2).
    Unweighted L2 takes no inverse FFT (Parseval); every other norm one
    inverse FFT per member and stack, whose rows go to `NormSpec.rows`
    with the weight normalized once per call.  With `sup`, a column is
    max(0, *norms) bit for bit: the stacks run from last to first (the
    moduli list their steps outward, so the last mostly holds the max), and
    a Luxemburg or Orlicz norm solves only the rows `grid._young_stack_sup`
    keeps, each member against its own running max.  An empty `items` is
    one empty column.
    """
    spec, shape = _norm_spec(norm), fs[0].samples.shape
    parseval = _plain_p(spec) == 2.0
    young = sup and spec.variant != "lp"
    w = None if parseval else _weight_array(fs[0], spec.weight)
    stacks, cols = list(_stacks(items, fs[0].size, fs[0].dim)), None
    for block in reversed(stacks) if sup else stacks:
        if build:
            mults = build(block, True) if parseval else build(block)
        else:
            mults = [_abs2(block) if parseval else block]
        cols = cols or [[(0.0, None) if young else [] for _ in mults] for _ in fs]
        for c, mult in enumerate(mults):
            if parseval:
                sums = _parseval_sums(mult, [f.parseval_weights() for f in fs])
                for col, total in zip(cols, sums):
                    col[c].extend(np.sqrt(total).tolist())
                continue
            for f, col in zip(fs, cols):
                rows = _inverse(f.spectrum() * mult, shape).reshape(len(mult), -1)
                if young:
                    col[c] = _young_stack_sup(rows, spec, w, col[c])
                else:
                    col[c].extend(spec.rows(rows, w).tolist())
    cols = cols or [[(0.0, None) if young else []] for _ in fs]
    if sup:
        cols = [[best[0] if young else max([0.0, *best]) for best in col] for col in cols]
    return cols


def _shift_symbol(size, steps):
    """|exp(i*nu.h) - 1|^2 = 4 sin^2(nu.h/2) on the half grid per step h of a k x d stack.

    Exact to rounding for small nu.h; the Nyquist slots hold it at nu = -N/2
    (full axis) and +N/2 (half axis), without the real cos(N*h/2) factor.
    """
    full, half = _axis_freqs(size)
    if steps.shape[1] == 1:
        m2 = np.sin((0.5 * steps) * half)
        m2 *= 2.0
    else:
        # the sine from per-axis sines and cosines; the 2 scales the axis-0 rows exactly
        a0, a1 = (0.5 * steps[:, :1]) * full, (0.5 * steps[:, 1:]) * half
        s0, c0 = np.sin(a0), np.cos(a0)
        s0 *= 2.0
        c0 *= 2.0
        m2 = s0[:, :, None] * np.cos(a1)[:, None, :]
        m2 += c0[:, :, None] * np.sin(a1)[:, None, :]
    m2 *= m2
    return m2


_SEMIGROUP_KINDS = ("shift", "heat", "abel")


def _semigroup_multipliers(size, dim, kind, us):
    """T(u) on the half grid, one per u: a k x d stack of shift steps, or a vector of times.

    shift: exp(i*nu.h), real cos(N*h/2) in the Nyquist slots; heat:
    exp(-u*|nu|^2); abel: exp(-u*|nu|).  The one place that refuses an
    unknown kind, a shift given times, a non-finite scale or a negative time.
    """
    if kind not in _SEMIGROUP_KINDS:
        raise ValueError(f"semigroup kind must be one of {_SEMIGROUP_KINDS}, got {kind!r}")
    us = np.asarray(us, dtype=float)
    if not np.isfinite(us).all():
        raise ValueError(f"semigroup scale must be finite, got {us[~np.isfinite(us)][0]}")
    if kind == "shift":
        if us.ndim != 2:
            raise ValueError("unknown semigroup kind 'shift' for a time: the shift takes steps")
        p = _axis_phases(size, us)
        return p[0] if dim == 1 else p[0][:, :, None] * p[1][:, None, :]
    if not np.all(us >= 0.0):
        raise ValueError(f"semigroup time must be >= 0, got {us.min()}")
    us = us.reshape(us.shape + (1,) * dim)
    return np.exp(-us * (_mode_radius2 if kind == "heat" else _mode_radius)(size, dim))


def _step_multipliers(size, dim, kind, orders, steps, squared=False):
    """(T(u) - I)^r on the half grid, or its |.|^2, one stack per order r of `orders` (ascending).

    A stack has one row per u of `steps` (shift steps or times).  T(u) - I,
    or the shift's real |.|^2 symbol, is built once; the orders are its
    successive products.
    """
    if kind != "shift" or not squared:
        mults = _semigroup_multipliers(size, dim, kind, steps)
        mults -= 1.0
        powers = _powers(mults, orders)
        return [_abs2(m) for m in powers] if squared else powers
    m2 = _shift_symbol(size, steps)
    # the Nyquist slots carry the real factor cos(N*h/2) instead of a phase
    if dim == 1:
        m2[:, -1] = np.square(np.cos(0.5 * size * steps[:, 0]) - 1.0)
    else:
        p0, p1 = _axis_phases(size, steps)
        m2[:, size // 2, :] = _abs2(p0[:, size // 2, None] * p1 - 1.0)
        m2[:, :, -1] = _abs2(p0 * p1[:, -1:] - 1.0)
    return _powers(m2, orders)


def _orders(orders):
    """The distinct difference orders, ascending; each must be an integer >= 1."""
    return sorted({_COUNT(r, "difference order") for r in orders})


def _difference_norms(fs, kind, orders, us, norm, sup=False, direction=None):
    """{r: norms of (T(u) - I)^r f over the scales u} for each order r; with `sup`, their max and 0.

    One dict per member f of `fs` (members on one grid).  Every order of
    every member comes from one build of T(u) - I per stack.  u is a k x d
    stack of shift steps, a vector of shift lengths along `direction`
    (default (1, 0); signed steps in 1-d), or heat/abel times.  Bad
    arguments, the norm's weight among them, and non-finite scales are
    refused before any row is evaluated, also when there is no row.
    """
    size, dim, norm = fs[0].size, fs[0].dim, _norm_spec(norm)
    orders = _orders(orders)
    us = np.asarray(us, dtype=float)
    if not np.isfinite(us).all():
        raise ValueError(f"scale must be finite, got {us[~np.isfinite(us)][0]}")
    if kind == "shift" and us.ndim == 1:
        if dim == 1:
            us = us[:, None]
        else:
            dx, dy = (1.0, 0.0) if direction is None else direction
            scale = math.hypot(dx, dy)
            if scale <= 0.0:
                raise ValueError("shift direction must be a nonzero vector")
            us = np.outer(us, (dx, dy)) / scale
    build = partial(_step_multipliers, size, dim, kind, orders)
    if len(us):
        cols = _multiplier_norms(fs, us, norm, build, sup)
    else:
        # no row to evaluate, so the kind and the weight are checked here
        build(us)
        _weight_array(fs[0], norm.weight)
        cols = [[0.0 if sup else [] for _ in orders] for _ in fs]
    return [dict(zip(orders, col)) for col in cols]


# The lattice directions of the angles k*pi/4 in [0, pi), counterclockwise from (1, 0).
_LATTICE = ((1, 0), (1, 1), (0, 1), (-1, 1))


def _projected_norms(fs, orders, radii, lattice):
    """[{r: L2 norms of (T(h) - I)^r f}] for the steps h = rho*(a, b)/|(a, b)|, one per member f.

    The members `fs` share one 2-d grid.  rho runs over `radii` and (a, b)
    over the integer directions `lattice`; a column lists the steps
    radius-major, as `_sup_table` lays them out.  By Parseval the norm is
    sqrt(sum(w * |M|^2)), and off the Nyquist lines |M|^2 =
    (4 sin^2(nu.h/2))^r depends on nu only through the integer
    m = a*nu0 + b*nu1.  So each member's w is summed once per direction into
    W(m) by `np.bincount` (a finite Radon projection of |f^|^2), and a step
    costs O(N): the sum over m of W(m) (4 sin^2(rho*m/(2|(a, b)|)))^r, plus
    the Nyquist row and column, which keep their real cos(N*h/2) factor and
    are summed as they are.  Every order comes from one build by `_powers`,
    which every member reads, and every sum is a ufunc reduction, never
    BLAS, so the bits do not depend on the machine.  The radii go in stacks
    of `_STACK_SAMPLES` terms.
    """
    orders = _orders(orders)
    size, nyq = fs[0].size, fs[0].size // 2
    full, half = _axis_freqs(size)
    ws = [f.parseval_weights() for f in fs]
    inners = []
    for w in ws:
        inner = w[:, :-1].copy()
        inner[nyq] = 0.0  # the Nyquist row and column are summed apart
        inners.append(inner.ravel())
    cols = [{r: np.empty((len(radii), len(lattice))) for r in orders} for _ in fs]
    for j, (a, b) in enumerate(lattice):
        scale = math.hypot(a, b)
        m = (a * full[:, None] + b * half[None, :-1]).astype(np.intp)
        low = int(m.min())
        bins = (m - low).ravel()
        weights = [np.concatenate([np.bincount(bins, weights=inner), w[nyq, :-1], w[:, -1]])
                   for inner, w in zip(inners, ws)]
        angles = np.arange(low, int(m.max()) + 1) * (0.5 / scale)
        chunk = max(1, _STACK_SAMPLES // len(weights[0]))
        for k in range(0, len(radii), chunk):
            block = radii[k:k + chunk]
            p0, p1 = _axis_phases(size, np.outer(block, (a / scale, b / scale)))
            sines = 2.0 * np.sin(np.outer(block, angles))
            m2 = np.concatenate([sines * sines, _abs2(p0[:, nyq, None] * p1[:, :-1] - 1.0),
                                 _abs2(p0 * p1[:, -1:] - 1.0)], axis=1)
            for r, power in zip(orders, _powers(m2, orders)):
                for col, total in zip(cols, _parseval_sums(power, weights)):
                    col[r][k:k + chunk, j] = np.sqrt(total)
    return [{r: col.ravel().tolist() for r, col in member.items()} for member in cols]


def _scales(t, us):
    """The scales `us` of a modulus at t, none at a finite t <= 0 (a non-finite t is refused)."""
    return us[:0] if -math.inf < t <= 0.0 else us


def _sup_table(fs, kind, orders, ts, count, norm, units=None, direction=None, lattice=None):
    """[{(order, t): max(0, norms of (T(u) - I)^order f over the rows of u = t*(i+1)/count)}].

    One table per member f of `fs`, members on one grid, and every stack of
    rows is built once for all of them.  The rows of a scale u are u
    itself, or u times each row of `units` (an m x d array of shift steps
    per unit scale).  A positive dyadic scaling is exact, so the scales of
    dyadic t nest, and the distinct scales of all t are evaluated once,
    every order from one build per stack.  Under a Luxemburg or Orlicz norm
    the t go upward, and each t takes the pruned sup (`sup=True`) of the
    scales no smaller t had.  A scale first met at a smaller t is at most
    that t's max, so when the new rows reach the largest such max the old
    ones are skipped, and otherwise they are evaluated too; only each t's
    max is kept, and every cell is the exact max of its rows.  With
    `lattice` (integer directions, in place of `units`, under the
    unweighted L2 norm) the rows are u along each direction, evaluated by
    `_projected_norms`.
    """
    ts = list(dict.fromkeys(ts))
    bad = [t for t in ts if not -math.inf < t < math.inf]
    if bad:
        raise ValueError(f"scale must be finite, got {bad[0]}")
    fracs = np.arange(1, count + 1) / count
    scales = [_scales(t, t * fracs) for t in ts]

    def rows(us):
        return us if units is None else (us[:, None, None] * units).reshape(-1, units.shape[1])

    if _norm_spec(norm).variant != "lp":
        # the t go upward; first[u] is the place in that walk of the first t with the scale u
        walk = sorted(range(len(ts)), key=ts.__getitem__)
        first, sups = {}, [None] * len(ts)
        for n, k in enumerate(walk):
            new, old, owners = [], [], set()
            for u in scales[k].tolist():
                m = first.setdefault(u, n)
                if m == n:
                    new.append(u)
                else:
                    old.append(u)
                    owners.add(m)
            sup = _difference_norms(fs, kind, orders, rows(np.array(new)), norm, True, direction)
            # a scale seen before is at most the max of the first t that had it
            late = [i for i, cells in enumerate(sup)
                    if any(value < max(sups[walk[m]][i][r] for m in owners)
                           for r, value in cells.items())] if owners else []
            if late:
                olds = _difference_norms([fs[i] for i in late], kind, orders,
                                         rows(np.array(old)), norm, True, direction)
                for i, cells in zip(late, olds):
                    sup[i] = {r: max(value, cells[r]) for r, value in sup[i].items()}
            sups[k] = sup
        return [{(r, t): value for t, sup in zip(ts, sups) for r, value in sup[i].items()}
                for i in range(len(fs))]
    # the distinct scales of all t, numbered where each is first met, and the numbers of each t
    place = {}
    picks = [[place.setdefault(u, len(place)) for u in us.tolist()] for us in scales]
    distinct = np.fromiter(place, float)
    if lattice is None:
        norms = _difference_norms(fs, kind, orders, rows(distinct), norm, False, direction)
        width = 1 if units is None else len(units)
    else:
        norms, width = _projected_norms(fs, orders, distinct, lattice), len(lattice)
    tables = []
    for member in norms:
        table = {}
        for r, col in member.items():
            # the max of the rows of each scale; like max([0.0, ...]), it passes over a NaN row
            peak = col if width == 1 else np.fmax.reduce(np.reshape(col, (-1, width)),
                                                         axis=1).tolist()
            table.update(((r, t), max([0.0, *map(peak.__getitem__, pick)]))
                         for t, pick in zip(ts, picks))
        tables.append(table)
    return tables


def _moduli_tables(fs, orders, ts, norm=None, directions=64, radii=64):
    """[moduli_table(f, orders, ts, norm, directions, radii) for f in fs], fs on one grid.

    Every step of every stack is built once, and every member reads it.
    """
    directions = _COUNT(directions, "directions")
    radii = _COUNT(radii, "radii")
    # the L2 norm of (T(h) - I)^r f is even in h, so one sign of each step is enough
    even = _plain_p(_norm_spec(norm)) == 2.0
    if fs[0].dim == 1:
        units = np.array([[1.0]] if even else [[1.0], [-1.0]])
    else:
        # an even count pairs every direction in [0, pi) with its opposite
        count = directions // 2 if even and directions % 2 == 0 else directions
        if even and 8 % directions == 0:
            # the angles are multiples of pi/4, so the directions are on the lattice
            lattice = _LATTICE[::8 // directions][:count]
            return _sup_table(fs, "shift", orders, ts, radii, norm, lattice=lattice)
        angles = 2.0 * np.pi * np.arange(count) / directions
        units = np.array([(math.cos(th), math.sin(th)) for th in angles])
    return _sup_table(fs, "shift", orders, ts, radii, norm, units)


def moduli_table(f, orders, ts, norm=None, directions=64, radii=64):
    """{(order, t): modulus(f, order, t, norm, directions, radii)} for every order and t.

    One call builds every distinct step of all t once and takes every order
    from it by successive products (see `_sup_table`); the values are those
    of the one-cell calls bit for bit.  Under the unweighted L2 norm on a
    2-d grid, a count that divides 8 samples lattice directions only, and
    their steps are evaluated by projection (`_projected_norms`).
    """
    return _moduli_tables([f], orders, ts, norm, directions, radii)[0]


def modulus(f, r, t, norm=None, directions=64, radii=64):
    """Modulus of smoothness: sup over |h| <= t of the norm of the r-th difference.

    Steps run over radii t*(i+1)/radii (endpoint included, so grids nest
    under doubling of t) and, for d=2, over `directions` equispaced angles;
    for d=1 both signs are tried.  The value is a lower bound of the true
    sup, nondecreasing under grid refinement.  One cell of `moduli_table`.
    """
    return moduli_table(f, [r], [t], norm, directions, radii)[(r, t)]


# -- semigroups ----------------------------------------------------------


def spectral_semigroup(f, t, kind):
    """Smoothing semigroup at time t >= 0: kind "heat" or "abel".

    heat: multiplier exp(-t*|nu|^2).  abel: multiplier exp(-t*|nu|).
    The abel kernel on the grid is nonnegative, so abel smoothing contracts
    every L_p and Orlicz norm.  The heat multiplier is a Gaussian cut at the
    Nyquist frequency, and its grid kernel dips below 0 for t below about
    0.18 at N=16, 0.09 at N=32 and 0.06 at N=64 (at N=64 by less than 1e-15
    above t = 0.03): there heat smoothing is a contraction in L2 only, and
    L_p/Orlicz norms may grow.
    """
    return _apply_multiplier(f, _semigroup_multipliers(f.size, f.dim, kind, [t])[0])


def semigroup_difference(f, t, kind, r=1):
    """(T(t) - I)^r f for the heat or abel semigroup at time t >= 0 (else a ValueError)."""
    r = _COUNT(r, "difference order")
    return _apply_multiplier(f, _step_multipliers(f.size, f.dim, kind, [r], [t])[0][0])


def semigroup_moduli_table(f, orders, ts, semigroup="shift", norm=None, points=64,
                           direction=None):
    """{(order, t): semigroup_modulus(f, order, t, ...)} for every order and t.

    Its times u = t*(i+1)/points nest like the steps of `moduli_table`, and
    one call evaluates each distinct u once for every order.
    """
    points = _COUNT(points, "points")
    return _sup_table([f], semigroup, orders, ts, points, norm, direction=direction)[0]


def semigroup_modulus(f, r, t, semigroup="shift", norm=None, points=64, direction=None):
    """One-sided modulus: sup over u in [0, t] of the norm of (T(u) - I)^r f.

    The sup runs over u = t*(i+1)/points (endpoint included).  For the
    shift on a 2-d grid the step moves along `direction` (default (1,0)).
    `semigroup` is a kind name: "shift", "heat" or "abel".  One cell of
    `semigroup_moduli_table`.
    """
    return semigroup_moduli_table(f, [r], [t], semigroup, norm, points, direction)[(r, t)]


def _averaged_moduli(fs, r, ts, semigroup="shift", norm=None, quad_points=128, direction=None):
    """[[averaged_modulus(f, r, t, ...) for t in ts] for f in fs], fs on one grid.

    The midpoints of every t go in one `_difference_norms` call, so each
    stack is built once, and every member reads it.
    """
    quad_points = _COUNT(quad_points, "quad_points")
    mids = [_scales(t, t * (np.arange(quad_points) + 0.5) / quad_points) for t in ts]
    ends = np.cumsum([0] + [len(m) for m in mids]).tolist()
    cols = _difference_norms(fs, semigroup, [r], np.concatenate(mids), norm, direction=direction)
    return [[float(np.mean(col[r][a:b])) if b > a else 0.0 for a, b in zip(ends, ends[1:])]
            for col in cols]


def averaged_modulus(f, r, t, semigroup="shift", norm=None, quad_points=128, direction=None):
    """Integral mean (1/t) * int_0^t of the norm of (T(u) - I)^r f du.

    Composite midpoint rule with `quad_points` nodes; same semigroup
    conventions as `semigroup_modulus`.  Always below the one-sided
    modulus at the same t.  One entry of `_averaged_moduli`.
    """
    return _averaged_moduli([f], r, [t], semigroup, norm, quad_points, direction)[0][0]


def cesaro_weights(n, ell):
    """Weights A(n-k, ell)/A(n, ell), k = 0..n, with A(m, ell) = C(m+ell, ell)."""
    n, ell = _NATURAL(n, "degree"), _COUNT(ell, "order")
    a = np.array([math.comb(m + ell, ell) for m in range(n + 1)], dtype=float)
    return a[::-1] / a[-1]


def cesaro(f, n, ell=1):
    """Cesaro mean of order ell of the degree-n partial sum (1-d grids)."""
    if f.dim != 1:
        raise ValueError("cesaro means are only defined on 1-d grids")
    n, ell = _NATURAL(n, "degree"), _COUNT(ell, "order")
    if n >= f.size // 2:
        raise ValueError(f"degree {n} too large for grid size {f.size}")
    w = cesaro_weights(n, ell)
    freqs = np.arange(f.size // 2 + 1)
    mult = np.where(freqs <= n, w[np.minimum(freqs, n)], 0.0)
    return _apply_multiplier(f, mult)


def laplacian_power(f, ell=1):
    """Power of the Laplacian through the Fourier multiplier (-|nu|^2)^ell.

    ell=1 gives the plain Laplacian of f.
    """
    ell = _COUNT(ell, "power")
    return _apply_multiplier(f, (-_mode_radius2(f.size, f.dim)) ** ell)


@lru_cache(maxsize=64)
def _spherical_mean_offset(size, t, ell, quad_points=256):
    """V_ell(t) - 1 of `spherical_mean` on the half grid (d=2, real, read-only).

    sum_{j=-ell..ell} (-1)^j C(2*ell, ell-j) exp(i*j*theta) = (4 sin^2(theta/2))^ell,
    so the row is a mean of the shift's nonnegative symbol: no 1 cancels at small t.
    """
    ths = (2.0 * math.pi * k / quad_points for k in range(quad_points))
    steps = np.array([(t * math.cos(th), t * math.sin(th)) for th in ths])
    acc = sum(_powers(_shift_symbol(size, block), [ell])[0].sum(axis=0)
              for block in _stacks(steps, size, 2))
    acc *= -1.0 / (quad_points * math.comb(2 * ell, ell))
    acc.setflags(write=False)
    return acc


def spherical_mean(f, t, ell=1, quad_points=256):
    """Circular-mean smoother on the 2-torus.

    ell=1 is the plain mean of f over the circle of radius t centred at
    each point.  Higher ell combines means at radii j*t with binomial
    weights that cancel low-order error terms: V_ell = (-2/C(2*ell, ell))
    * sum_{j=1..ell} (-1)^j C(2*ell, ell-j) V(j*t) = 1 - mean over |h| = t
    of (4 sin^2(nu.h/2))^ell / C(2*ell, ell), on `quad_points` equispaced
    nodes.  An odd count gives the rule symmetrized under h -> -h: the real
    part of the binomial sum of complex circle means.
    """
    if f.dim != 2:
        raise ValueError("spherical means are only defined on 2-d grids")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"radius must be >= 0 and finite, got {t}")
    ell, quad_points = _COUNT(ell, "order"), _COUNT(quad_points, "quad_points")
    return _apply_multiplier(f, 1.0 + _spherical_mean_offset(f.size, t, ell, quad_points))
