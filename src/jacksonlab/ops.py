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

One builder, `_semigroup_multipliers`, makes T(u) of every semigroup: the
shift (u a step), heat or Abel (u a time); `_step_multipliers` makes
(T(u) - I)^r from it, and `_difference_norms` is the one entry for the
norms of (T(u) - I)^r f, which every modulus and difference norm calls.

`_multiplier_norms` is the one evaluator of norms of multiplier images
M f: (T(u) - I)^r over many scales u, and for `approx` the rows 1 - P_n,
P_n (-|nu|^2)^ell and V_ell(t) - 1.  Under the unweighted L2 norm it takes
no inverse transform at all: by Parseval, the norm is sqrt(sum(|M|^2 * w))
with `GridFunction.parseval_weights` w.  The shift builds |M|^2 from its
real symbol (4 sin^2(nu.h/2))^r (cos(N*h/2) - 1 on the Nyquist lines);
V_ell(t) - 1 is minus the circle mean of that symbol at r = ell over
C(2*ell, ell); every other multiplier squares itself.  |M|^2 of a step is
even in the step, so the L2 modulus evaluates only positive steps in 1-d
and, for an even count, only the directions in [0, pi) in 2-d.  Every
other norm runs one inverse transform per stack of multipliers (an
unweighted L_p norm is then taken over all rows in one reduction).  A
stack holds max(1, `_STACK_SAMPLES` // N^d) rows, a constant per grid, so
outputs never depend on the machine or the thread count.

`modulus` and `semigroup_modulus` keep only the max of their rows.  Under
a Luxemburg or Orlicz norm they go through `_multiplier_sup`, which rules
rows out by one vectorized modular per stack and solves only the rows that
may beat the running max; the result is the per-row max bit for bit.

Nothing here is memoized: every call evaluates its rows.  The dyadic sums
of `lab` evaluate each of their terms once per function, and the only memo
left, `approx._row_norm`, holds rows that several scales share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .grid import GridFunction, NormSpec, _amemiya, _lp_rows, _weight_array, luxemburg_norm

# Sample budget of one batched inverse transform (rows = budget // N^d, at least 1).
_STACK_SAMPLES = 1 << 15


def coeffs(f):
    """Fourier coefficients c_nu = (1/N^d) sum f(x_j) exp(-i nu . x_j)."""
    return np.fft.fftn(f.samples) / f.samples.size


def synthesize(spectrum):
    """Inverse of `coeffs`: build a GridFunction from coefficient array."""
    spectrum = np.asarray(spectrum, dtype=complex)
    return GridFunction(np.fft.ifftn(spectrum * spectrum.size).real)


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


def _axis_phases(size, steps):
    """exp(i*nu*h) along each axis for a k x d stack of steps h.

    One k x len(axis) array per axis (the last is the half axis), real cos(N*h/2) at Nyquist.
    """
    full, half = _axis_freqs(size)
    dim = steps.shape[1]
    phases = []
    for axis in range(dim):
        h = steps[:, axis]
        angles = np.outer(h, half if axis == dim - 1 else full)
        phase = np.empty(angles.shape, dtype=complex)
        np.cos(angles, out=phase.real)
        np.sin(angles, out=phase.imag)
        phase[:, size // 2] = np.cos(0.5 * size * h)
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


def _positive_int(name, value):
    if value < 1 or value != int(value):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def translate(f, h):
    """f(. + h); h is a scalar (d=1) or a pair (d=2).

    The group law T(a)T(b) = T(a+b) holds only on inputs without Nyquist
    content: the Nyquist slot of the multiplier is cos(N*h/2), and
    cos(N*a/2) cos(N*b/2) is not cos(N*(a+b)/2).
    """
    return _apply_multiplier(f, _semigroup_multipliers(f.size, f.dim, "shift", _as_step(f, h))[0])


def difference(f, h, r=1):
    """r-th forward difference sum_k (-1)^(r-k) C(r,k) f(. + k*h)."""
    r = _positive_int("difference order", r)
    return _apply_multiplier(f, _step_multipliers(f.size, f.dim, "shift", r, _as_step(f, h))[0])


_L2 = NormSpec()


def _as_norm(norm):
    if norm is None:
        return _L2.norm
    if callable(norm) and not hasattr(norm, "norm"):
        return norm
    return norm.norm


def _norm_spec(norm):
    """The NormSpec that `norm` evaluates (None is L2), or None for any other callable."""
    if norm is None:
        return _L2
    if isinstance(norm, NormSpec):
        return norm
    if getattr(norm, "__func__", None) is NormSpec.norm:
        return norm.__self__
    return None


def _plain_p(norm):
    """p when `norm` is an unweighted L_p norm, else None; p = 2 takes the Parseval path."""
    spec = _norm_spec(norm)
    return spec.p if spec is not None and spec.variant == "lp" and spec.weight is None else None


def _int_power(a, r):
    """a**r for an integer r >= 1 by repeated multiplication, overwriting a."""
    if r == 1:
        return a
    # a fresh copy costs more than the product, so r = 2 squares in place
    base = a.copy() if r > 2 else None
    a *= a
    for _ in range(r - 2):
        a *= base
    return a


def _abs2(z):
    return z * z if z.dtype.kind == "f" else z.real ** 2 + z.imag ** 2


def _stacks(steps, size, dim):
    """`steps` cut into stacks of at most `_STACK_SAMPLES` grid samples (one step at least)."""
    chunk = max(1, _STACK_SAMPLES // size ** dim)
    return (steps[k:k + chunk] for k in range(0, len(steps), chunk))


def _multiplier_norms(f, items, build, norm):
    """Norm of M f for every half-grid multiplier M, one inverse FFT per stack of `items`.

    build(stack) gives the multipliers of a stack of items, build(stack, True)
    a new array of their |M|^2.  The unweighted L2 norm takes no inverse FFT
    (Parseval path); another unweighted L_p norm is one reduction per stack,
    any other norm one evaluation per row.  A caller that keeps only the max
    takes `_multiplier_sup`, which solves few rows under a Young norm.
    """
    plain_p, nfun = _plain_p(norm), _as_norm(norm)
    out = []
    for block in _stacks(items, f.size, f.dim):
        if plain_p == 2.0:
            m2 = build(block, True)
            m2 *= f.parseval_weights()
            out.extend(np.sqrt(m2.reshape(len(m2), -1).sum(axis=-1)).tolist())
            continue
        rows = _inverse(f.spectrum() * build(block), f.samples.shape)
        if plain_p is not None:
            out.extend(_lp_rows(rows.reshape(len(rows), -1), plain_p).tolist())
        else:
            out.extend(float(nfun(GridFunction(row))) for row in rows)
    return out


def _given(mults, squared=False):
    """A `_multiplier_norms` build whose items are the multipliers themselves."""
    return _abs2(mults) if squared else mults


def _multiplier_sup(f, items, build, norm):
    """max(0, *`_multiplier_norms`(f, items, build, norm)), bit for bit.

    Under a Luxemburg or Orlicz norm, weighted or not, each stack's rows go
    through `_young_stack_sup`, which solves only the rows that may beat the
    running max; every other norm takes the max of `_multiplier_norms`.
    """
    spec = _norm_spec(norm)
    if spec is None or spec.variant == "lp":
        return max([0.0, *_multiplier_norms(f, items, build, norm)])
    w = _weight_array(f, spec.weight)
    w = None if w is None else w.ravel()
    best = (0.0, None)
    # the moduli list their steps outward, so the last stack mostly holds the max
    for block in reversed(list(_stacks(items, f.size, f.dim))):
        rows = _inverse(f.spectrum() * build(block), f.samples.shape)
        best = _young_stack_sup(f, rows, spec, w, best)
    return best[0]


def _young_stack_sup(f, rows, spec, w, best):
    """The running (max norm, its Amemiya k*) `best`, raised by the rows of one stack.

    One vectorized modular mean w*phi(k|row|) over the live rows rules rows
    out.  Luxemburg: the modular is nonincreasing in a = 1/k, so at a a hair
    below the max a row with modular <= 1 has a smaller norm.  Orlicz:
    (1 + modular)/k bounds the Amemiya norm from above for every k, so at
    the max's own k* a row whose bound is a hair below the max has a smaller
    norm.  The hair (a relative 1e-9) is far above the level solvers'
    tolerance, so a row left out never carries the max and the result is
    the per-row max bit for bit.  The rows kept are solved largest modular
    first, and each new max filters again; before a nonzero max they are
    ranked by peak.  `rows` is overwritten by its absolute values: a Young
    norm reads |row| only; `w` is the flattened normalized weight or None.
    """
    live = np.abs(rows, out=rows).reshape(len(rows), -1)
    phi, lux = spec.phi, spec.variant == "luxemburg"
    while len(live):
        top, kstar = best
        if top == 0.0:
            # zero rows have norm 0 and are left out
            mod, level = live.max(axis=-1), 0.0
        else:
            floor = top * (1.0 - 1e-9)
            k, level = (1.0 / floor, 1.0) if lux else (kstar, kstar * floor - 1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = np.asarray(phi(k * live), dtype=float)
                if w is not None:
                    vals *= w
                mod = vals.mean(axis=-1)
        keep = ~(mod <= level)  # a NaN modular stays in
        live, mod = live[keep], mod[keep]
        order = np.argsort(-mod, kind="stable")
        for n, j in enumerate(order):
            row = GridFunction(live[j].reshape(f.samples.shape))
            if lux:
                value, kj = luxemburg_norm(row, phi, spec.weight), None
            else:
                kj, value = _amemiya(row, phi, spec.weight)
            if value > best[0]:
                best = (value, kj)
                live = np.delete(live, order[:n + 1], axis=0)
                break
        else:
            break
    return best


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
    unknown kind, a shift given times, or a negative time.
    """
    if kind not in _SEMIGROUP_KINDS:
        raise ValueError(f"semigroup kind must be one of {_SEMIGROUP_KINDS}, got {kind!r}")
    us = np.asarray(us, dtype=float)
    if kind == "shift":
        if us.ndim != 2:
            raise ValueError("unknown semigroup kind 'shift' for a time: the shift takes steps")
        p = _axis_phases(size, us)
        return p[0] if dim == 1 else p[0][:, :, None] * p[1][:, None, :]
    if not np.all(us >= 0.0):
        raise ValueError(f"semigroup time must be >= 0, got {us.min()}")
    us = us.reshape(us.shape + (1,) * dim)
    return np.exp(-us * (_mode_radius2 if kind == "heat" else _mode_radius)(size, dim))


def _step_multipliers(size, dim, kind, r, steps, squared=False):
    """(T(u) - I)^r on the half grid, or its |.|^2, one per u of `steps` (shift steps or times)."""
    if kind != "shift" or not squared:
        mults = _semigroup_multipliers(size, dim, kind, steps)
        mults -= 1.0
        return _abs2(_int_power(mults, r)) if squared else _int_power(mults, r)
    m2 = _shift_symbol(size, steps)
    # the Nyquist slots carry the real factor cos(N*h/2) instead of a phase
    if dim == 1:
        m2[:, -1] = np.square(np.cos(0.5 * size * steps[:, 0]) - 1.0)
    else:
        p0, p1 = _axis_phases(size, steps)
        m2[:, size // 2, :] = _abs2(p0[:, size // 2, None] * p1 - 1.0)
        m2[:, :, -1] = _abs2(p0 * p1[:, -1:] - 1.0)
    return _int_power(m2, r)


def _difference_norms(f, kind, r, us, norm, sup=False, direction=None):
    """Norm of (T(u) - I)^r f for every scale u; with `sup`, the max of them and 0.

    u is a k x d stack of shift steps, a vector of shift lengths along
    `direction` (default (1, 0); signed steps in 1-d), or heat/abel times.
    Bad arguments and non-finite scales are refused before any row is evaluated.
    """
    r = _positive_int("difference order", r)
    us = np.asarray(us, dtype=float)
    if not np.isfinite(us).all():
        raise ValueError(f"scale must be finite, got {us[~np.isfinite(us)][0]}")
    if kind == "shift" and us.ndim == 1:
        if f.dim == 1:
            us = us[:, None]
        else:
            dx, dy = (1.0, 0.0) if direction is None else direction
            scale = math.hypot(dx, dy)
            if scale <= 0.0:
                raise ValueError("shift direction must be a nonzero vector")
            us = np.outer(us, (dx, dy)) / scale
    build = partial(_step_multipliers, f.size, f.dim, kind, r)
    if not len(us):
        build(us)  # no row to build, so the builder checks the kind here
    return (_multiplier_sup if sup else _multiplier_norms)(f, us, build, norm)


def _scales(t, us):
    """The scales `us` of a modulus at t, none at a finite t <= 0 (a non-finite t is refused)."""
    return us[:0] if -math.inf < t <= 0.0 else us


def modulus(f, r, t, norm=None, directions=64, radii=64):
    """Modulus of smoothness: sup over |h| <= t of the norm of the r-th difference.

    Steps run over radii t*(i+1)/radii (endpoint included, so grids nest
    under doubling of t) and, for d=2, over `directions` equispaced angles;
    for d=1 both signs are tried.  The value is a lower bound of the true
    sup, nondecreasing under grid refinement.
    """
    directions = _positive_int("directions", directions)
    radii = _positive_int("radii", radii)
    rad = _scales(t, t * (np.arange(1, radii + 1) / radii))
    # the L2 norm of (T(h) - I)^r f is even in h, so one sign of each step is enough
    even = _plain_p(norm) == 2.0
    if f.dim == 1:
        steps = rad if even else np.stack([rad, -rad], axis=1).ravel()
        return _difference_norms(f, "shift", r, steps[:, None], norm, sup=True)
    # an even count pairs every direction in [0, pi) with its opposite
    count = directions // 2 if even and directions % 2 == 0 else directions
    angles = 2.0 * np.pi * np.arange(count) / directions
    steps = np.array([(rho * math.cos(th), rho * math.sin(th)) for rho in rad for th in angles])
    return _difference_norms(f, "shift", r, steps, norm, sup=True)


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
    r = _positive_int("difference order", r)
    return _apply_multiplier(f, _step_multipliers(f.size, f.dim, kind, r, [t])[0])


def semigroup_modulus(f, r, t, semigroup="shift", norm=None, points=64, direction=None):
    """One-sided modulus: sup over u in [0, t] of the norm of (T(u) - I)^r f.

    The sup runs over u = t*(i+1)/points (endpoint included).  For the
    shift on a 2-d grid the step moves along `direction` (default (1,0)).
    `semigroup` is a kind name: "shift", "heat" or "abel".
    """
    points = _positive_int("points", points)
    us = _scales(t, t * (np.arange(1, points + 1) / points))
    return _difference_norms(f, semigroup, r, us, norm, sup=True, direction=direction)


def averaged_modulus(f, r, t, semigroup="shift", norm=None, quad_points=128, direction=None):
    """Integral mean (1/t) * int_0^t of the norm of (T(u) - I)^r f du.

    Composite midpoint rule with `quad_points` nodes; same semigroup
    conventions as `semigroup_modulus`.  Always below the one-sided
    modulus at the same t.
    """
    quad_points = _positive_int("quad_points", quad_points)
    mids = _scales(t, t * (np.arange(quad_points) + 0.5) / quad_points)
    norms = _difference_norms(f, semigroup, r, mids, norm, direction=direction)
    return float(np.mean(norms)) if norms else 0.0


def cesaro_weights(n, ell):
    """Weights A(n-k, ell)/A(n, ell), k = 0..n, with A(m, ell) = C(m+ell, ell)."""
    if n < 0 or ell < 1:
        raise ValueError(f"need degree n >= 0 and order ell >= 1, got ({n}, {ell})")
    a = np.array([math.comb(m + ell, ell) for m in range(n + 1)], dtype=float)
    return a[::-1] / a[-1]


def cesaro(f, n, ell=1):
    """Cesaro mean of order ell of the degree-n partial sum (1-d grids)."""
    if f.dim != 1:
        raise ValueError("cesaro means are only defined on 1-d grids")
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
    ell = _positive_int("power", ell)
    return _apply_multiplier(f, (-_mode_radius2(f.size, f.dim)) ** ell)


@lru_cache(maxsize=512)
def _spherical_mean_offset(size, t, ell, quad_points=256):
    """V_ell(t) - 1 of `spherical_mean` on the half grid (d=2, real, read-only).

    sum_{j=-ell..ell} (-1)^j C(2*ell, ell-j) exp(i*j*theta) = (4 sin^2(theta/2))^ell,
    so the row is a mean of the shift's nonnegative symbol: no 1 cancels at small t.
    """
    ths = (2.0 * math.pi * k / quad_points for k in range(quad_points))
    steps = np.array([(t * math.cos(th), t * math.sin(th)) for th in ths])
    acc = sum(_int_power(_shift_symbol(size, block), ell).sum(axis=0)
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
    if t < 0.0:
        raise ValueError(f"radius must be >= 0, got {t}")
    ell, quad_points = _positive_int("order", ell), _positive_int("quad_points", quad_points)
    return _apply_multiplier(f, 1.0 + _spherical_mean_offset(f.size, t, ell, quad_points))


# -- declarative operator record -----------------------------------------


_OPERATOR_KINDS = ("shift", "heat", "abel", "cesaro", "sphmean", "lap")


@dataclass(frozen=True)
class OperatorSpec:
    """Serializable description of one linear operator on grid functions.

    kind "shift" uses step `h` (scalar for d=1, pair for d=2), "heat" and
    "abel" use time `t`, "cesaro" uses degree `n` and order `ell`,
    "sphmean" uses radius `t` and order `ell`, "lap" uses power `ell`.
    """

    kind: str
    h: object = None
    t: float = None
    n: int = None
    ell: int = 1

    def __post_init__(self):
        if self.kind not in _OPERATOR_KINDS:
            raise ValueError(f"operator kind must be one of {_OPERATOR_KINDS}, got {self.kind!r}")

    def apply(self, f):
        if self.kind == "shift":
            return translate(f, self.h)
        if self.kind in ("heat", "abel"):
            return spectral_semigroup(f, self.t, self.kind)
        if self.kind == "cesaro":
            return cesaro(f, self.n, self.ell)
        if self.kind == "lap":
            return laplacian_power(f, self.ell)
        return spherical_mean(f, self.t, self.ell)

    def to_json(self):
        data = {"op": self.kind}
        if self.h is not None:
            data["h"] = list(self.h) if not np.isscalar(self.h) else self.h
        if self.t is not None:
            data["t"] = self.t
        if self.n is not None:
            data["n"] = self.n
        if self.kind in ("cesaro", "sphmean", "lap"):
            data["ell"] = self.ell
        return data

    @staticmethod
    def from_json(data):
        h = data.get("h")
        if isinstance(h, list):
            h = tuple(h)
        return OperatorSpec(kind=data["op"], h=h, t=data.get("t"),
                            n=data.get("n"), ell=data.get("ell", 1))
