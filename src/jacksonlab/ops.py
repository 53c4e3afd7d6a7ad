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

`modulus`, `semigroup_modulus` and `averaged_modulus` measure
(T(u) - I)^r f over many steps u.  Under the unweighted L2 norm they take
no inverse transform at all: by Parseval, the norm is
sqrt(sum(|M|^2 * w)) with `GridFunction.parseval_weights` w, and |M|^2 is
built from real sines (the shift: (4 sin^2(nu.h/2))^r, cos(N*h/2) - 1 on
the Nyquist lines) or from the square of the real heat/abel multiplier.
|M|^2 is even in the step, so the L2 modulus evaluates only positive steps
in 1-d and, for an even count, only the directions in [0, pi) in 2-d.
Every other norm runs the inverse transform: in 1-d the multipliers of
many steps are stacked and one inverse transform runs over the stack (an
unweighted L_p norm is then taken over all rows in one reduction); 2-d
grids run one step per transform.  A stack holds at most `_STACK_SAMPLES`
samples, a constant, so outputs never depend on the machine or the thread
count.

`modulus` and `semigroup_modulus` (and `approx.k_functional`, `k_delta`
and `best_approx`) are memoized on the GridFunction instance, keyed by the
quantity, its orders and parameters, and `NormSpec.key()`; the memo dies
with the function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridFunction, NormSpec, _lp_rows

# Sample budget of one batched inverse transform (rows = budget // N).
_STACK_SAMPLES = 1 << 15


def coeffs(f):
    """Fourier coefficients c_nu = (1/N^d) sum f(x_j) exp(-i nu . x_j)."""
    return np.fft.fftn(f.samples) / f.samples.size


def synthesize(spectrum):
    """Inverse of `coeffs`: build a GridFunction from coefficient array."""
    spectrum = np.asarray(spectrum, dtype=complex)
    return GridFunction(np.fft.ifftn(spectrum * spectrum.size).real)


def _inverse(spec, shape):
    """Real samples of `shape` from their half-grid spectrum (inverse of rfftn)."""
    if len(shape) == 1:
        return np.fft.irfft(spec, n=shape[0])
    return np.fft.irfftn(spec, s=shape, axes=(0, 1))


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


def _axis_phase(freqs, size, h):
    """exp(i*nu*h) along one axis, with cos(N*h/2) in the Nyquist slot."""
    phase = np.exp(1j * freqs * h)
    phase[size // 2] = np.cos(0.5 * size * h)
    return phase


def _translate_multiplier(size, dim, h):
    full, half = _axis_freqs(size)
    if dim == 1:
        (h0,) = h
        return _axis_phase(half, size, h0)
    h0, h1 = h
    return _axis_phase(full, size, h0)[:, None] * _axis_phase(half, size, h1)[None, :]


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
    """Normalize a step argument to a d-tuple of floats."""
    if np.isscalar(h):
        if f.dim != 1:
            raise ValueError("scalar step only valid on 1-d grids")
        return (float(h),)
    h = tuple(float(v) for v in h)
    if len(h) != f.dim:
        raise ValueError(f"step has {len(h)} components for a {f.dim}-d grid")
    return h


def _check_order(r):
    if r < 1 or r != int(r):
        raise ValueError(f"difference order must be a positive integer, got {r}")
    return int(r)


def translate(f, h):
    """f(. + h); h is a scalar (d=1) or a pair (d=2).

    The group law T(a)T(b) = T(a+b) holds only on inputs without Nyquist
    content: the Nyquist slot of the multiplier is cos(N*h/2), and
    cos(N*a/2) cos(N*b/2) is not cos(N*(a+b)/2).
    """
    return _apply_multiplier(f, _translate_multiplier(f.size, f.dim, _as_step(f, h)))


def difference(f, h, r=1):
    """r-th forward difference sum_k (-1)^(r-k) C(r,k) f(. + k*h)."""
    r = _check_order(r)
    mult = _translate_multiplier(f.size, f.dim, _as_step(f, h))
    return _apply_multiplier(f, (mult - 1.0) ** r)


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


def _memoized(f, key, norm, compute):
    """compute(), remembered on f under key + the norm's identity.

    A NormSpec (or its bound `norm`) is keyed by `NormSpec.key()`; any other
    callable by the object itself, which the key keeps alive.  Unhashable
    callables are not memoized.
    """
    spec = _norm_spec(norm)
    if spec is not None:
        key += (spec.key(),)
    else:
        try:
            hash(norm)
        except TypeError:
            return compute()
        key += (("callable", norm),)
    memo = f._memo
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


def _plain_l2(norm):
    """True when `norm` is the unweighted L2 norm, which the Parseval path evaluates."""
    spec = _norm_spec(norm)
    return spec is not None and spec.variant == "lp" and spec.p == 2.0 and spec.weight is None


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
    return z.real ** 2 + z.imag ** 2


def _stacked_norms(f, kind, r, steps, norm):
    """Norm of (T(u) - I)^r f for every step u (d=1), one inverse FFT per stack of steps.

    The unweighted L2 norm takes no inverse FFT (Parseval path).
    """
    chunk = max(1, _STACK_SAMPLES // f.size)
    spec = _norm_spec(norm)
    plain_p = spec.p if spec is not None and spec.variant == "lp" and spec.weight is None else None
    nfun = _as_norm(norm)
    out = []
    for k in range(0, len(steps), chunk):
        block = steps[k:k + chunk]
        if plain_p == 2.0:
            m2 = _squared_multipliers(f.size, 1, kind, block, r)
            m2 *= f.parseval_weights()
            out.extend(float(v) for v in np.sqrt(m2.sum(axis=-1)))
            continue
        mults = _step_multipliers(f.size, kind, block, r)
        rows = np.fft.irfft(f.spectrum() * mults, n=f.size, axis=-1)
        if plain_p is not None:
            out.extend(float(v) for v in _lp_rows(rows, plain_p))
        else:
            out.extend(float(nfun(GridFunction(row))) for row in rows)
    return out


def _step_multipliers(size, kind, steps, r):
    """Rows (T(u) - I)^r on the 1-d half grid, one per step u (signed for the shift)."""
    if kind == "shift":
        _, half = _axis_freqs(size)
        angles = np.outer(steps, half)
        rows = np.empty(angles.shape, dtype=complex)
        np.cos(angles, out=rows.real)
        np.sin(angles, out=rows.imag)
        rows[:, -1] = np.cos(0.5 * size * steps)
    else:
        rows = _semigroup_multiplier(size, 1, steps[:, None], kind)
    rows -= 1.0
    return _int_power(rows, r)


def _squared_multipliers(size, dim, kind, u, r):
    """|(T(u) - I)^r|^2 on the half grid.

    In 1-d, u is an array of steps and there is one row per step; in 2-d,
    u is one step pair for the shift and one time for heat and abel.
    """
    if kind != "shift":
        m2 = _semigroup_multiplier(size, dim, u if dim == 2 else u[:, None], kind) - 1.0
        m2 *= m2
        return _int_power(m2, r)
    full, half = _axis_freqs(size)
    if dim == 1:
        # |exp(i*nu*u) - 1|^2 = 4 sin^2(nu*u/2), exact to rounding even for small nu*u
        m2 = np.sin(np.outer(0.5 * u, half))
    else:
        h0, h1 = u
        a0, a1 = (0.5 * h0) * full, (0.5 * h1) * half
        # the sine of (nu0*h0 + nu1*h1)/2 from per-axis sines and cosines
        m2 = np.outer(np.sin(a0), np.cos(a1))
        m2 += np.outer(np.cos(a0), np.sin(a1))
    m2 *= m2
    m2 *= 4.0
    # the Nyquist slots carry the real factor cos(N*h/2) instead of a phase
    if dim == 1:
        m2[:, -1] = np.square(np.cos(0.5 * size * u) - 1.0)
    else:
        p0, p1 = _axis_phase(full, size, h0), _axis_phase(half, size, h1)
        m2[size // 2, :] = _abs2(p0[size // 2] * p1 - 1.0)
        m2[:, -1] = _abs2(p0 * p1[-1] - 1.0)
    return _int_power(m2, r)


def _planar_norms(f, kind, r, steps, norm):
    """Norm of (T(u) - I)^r f for every u in `steps` on a 2-d grid, one step at a time.

    u is a step pair for the shift and a time for heat and abel.  The
    unweighted L2 norm takes no inverse FFT (Parseval path).
    """
    if _plain_l2(norm):
        weights = f.parseval_weights()
        out = []
        for u in steps:
            m2 = _squared_multipliers(f.size, 2, kind, u, r)
            m2 *= weights
            out.append(math.sqrt(float(m2.sum())))
        return out
    nfun = _as_norm(norm)
    if kind == "shift":
        return [nfun(difference(f, u, r)) for u in steps]
    return [nfun(semigroup_difference(f, u, kind, r)) for u in steps]


def _check_count(name, value):
    if value < 1 or value != int(value):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def modulus(f, r, t, norm=None, directions=64, radii=64):
    """Modulus of smoothness: sup over |h| <= t of the norm of the r-th difference.

    Steps run over radii t*(i+1)/radii (endpoint included, so grids nest
    under doubling of t) and, for d=2, over `directions` equispaced angles;
    for d=1 both signs are tried.  The value is a lower bound of the true
    sup, nondecreasing under grid refinement.
    """
    directions = _check_count("directions", directions)
    radii = _check_count("radii", radii)
    if t <= 0.0:
        return 0.0
    r = _check_order(r)
    key = ("modulus", r, float(t), directions, radii)
    return _memoized(f, key, norm, lambda: _modulus(f, r, t, norm, directions, radii))


def _modulus(f, r, t, norm, directions, radii):
    rad = t * (np.arange(1, radii + 1) / radii)
    # the L2 norm of (T(h) - I)^r f is even in h, so one sign of each step is enough
    even = _plain_l2(norm)
    if f.dim == 1:
        steps = rad if even else np.stack([rad, -rad], axis=1).ravel()
        return max([0.0, *_stacked_norms(f, "shift", r, steps, norm)])
    # an even count pairs every direction in [0, pi) with its opposite
    count = directions // 2 if even and directions % 2 == 0 else directions
    angles = 2.0 * np.pi * np.arange(count) / directions
    steps = [(rho * math.cos(th), rho * math.sin(th)) for rho in rad for th in angles]
    return max([0.0, *_planar_norms(f, "shift", r, steps, norm)])


# -- semigroups ----------------------------------------------------------


def _semigroup_multiplier(size, dim, t, kind):
    """Half-grid multiplier of the heat (exp(-t|nu|^2)) or abel (exp(-t|nu|)) semigroup."""
    if kind == "heat":
        return np.exp(-t * _mode_radius2(size, dim))
    if kind == "abel":
        return np.exp(-t * _mode_radius(size, dim))
    raise ValueError(f"unknown semigroup kind {kind!r}")


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
    if t < 0.0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    return _apply_multiplier(f, _semigroup_multiplier(f.size, f.dim, t, kind))


def semigroup_difference(f, t, kind, r=1):
    """(T(t) - I)^r f for the heat or abel semigroup."""
    r = _check_order(r)
    return _apply_multiplier(f, (_semigroup_multiplier(f.size, f.dim, t, kind) - 1.0) ** r)


_SEMIGROUP_KINDS = ("shift", "heat", "abel")


def _semigroup_kind_direction(semigroup, direction):
    """Normalize a semigroup argument (name or OperatorSpec) to (kind, direction)."""
    kind = semigroup
    if isinstance(semigroup, OperatorSpec):
        kind = semigroup.kind
        if kind == "shift" and direction is None and semigroup.h is not None:
            h = semigroup.h
            if not np.isscalar(h):
                direction = tuple(float(v) for v in h)
    if kind not in _SEMIGROUP_KINDS:
        raise ValueError(f"semigroup kind must be one of {_SEMIGROUP_KINDS}, got {kind!r}")
    return kind, direction


def _shift_step(u, direction):
    """The 2-d step of length u along `direction` (default (1, 0))."""
    dx, dy = (1.0, 0.0) if direction is None else direction
    scale = math.hypot(dx, dy)
    if scale <= 0.0:
        raise ValueError("shift direction must be a nonzero vector")
    return (u * dx / scale, u * dy / scale)


def _one_parameter_difference(f, u, kind, r, direction):
    """(T(u) - I)^r f for shift/heat/abel with scalar parameter u >= 0."""
    if kind == "shift":
        if f.dim == 1:
            return difference(f, u, r)
        return difference(f, _shift_step(u, direction), r)
    return semigroup_difference(f, u, kind, r)


def _one_parameter_norms(f, us, kind, r, direction, norm):
    """Norm of (T(u) - I)^r f for every u in `us`: stacked in 1-d, one by one in 2-d."""
    if f.dim == 1:
        return _stacked_norms(f, kind, r, us, norm)
    if kind == "shift":
        return _planar_norms(f, kind, r, [_shift_step(float(u), direction) for u in us], norm)
    return _planar_norms(f, kind, r, [float(u) for u in us], norm)


def semigroup_modulus(f, r, t, semigroup="shift", norm=None, points=64, direction=None):
    """One-sided modulus: sup over u in [0, t] of the norm of (T(u) - I)^r f.

    The sup runs over u = t*(i+1)/points (endpoint included).  For the
    shift on a 2-d grid the step moves along `direction` (default (1,0)).
    `semigroup` is a kind name or an OperatorSpec of a semigroup variant.
    """
    points = _check_count("points", points)
    if t <= 0.0:
        return 0.0
    kind, direction = _semigroup_kind_direction(semigroup, direction)
    r = _check_order(r)
    key = ("semigroup_modulus", r, float(t), kind, points,
           None if direction is None else tuple(float(v) for v in direction))
    us = t * (np.arange(1, points + 1) / points)
    return _memoized(f, key, norm,
                     lambda: max([0.0, *_one_parameter_norms(f, us, kind, r, direction, norm)]))


def averaged_modulus(f, r, t, semigroup="shift", norm=None, quad_points=128, direction=None):
    """Integral mean (1/t) * int_0^t of the norm of (T(u) - I)^r f du.

    Composite midpoint rule with `quad_points` nodes; same semigroup
    conventions as `semigroup_modulus`.  Always below the one-sided
    modulus at the same t.
    """
    quad_points = _check_count("quad_points", quad_points)
    if t <= 0.0:
        return 0.0
    kind, direction = _semigroup_kind_direction(semigroup, direction)
    r = _check_order(r)
    mids = t * (np.arange(quad_points) + 0.5) / quad_points
    return float(np.mean(_one_parameter_norms(f, mids, kind, r, direction, norm)))


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
    if ell < 1 or ell != int(ell):
        raise ValueError(f"power must be a positive integer, got {ell}")
    return _apply_multiplier(f, (-_mode_radius2(f.size, f.dim)) ** int(ell))


@lru_cache(maxsize=512)
def _sphere_multiplier(size, t, quad_points):
    """Average of translate multipliers over the circle of radius t (d=2, half grid)."""
    acc = np.zeros((size, size // 2 + 1), dtype=complex)
    for k in range(quad_points):
        th = 2.0 * math.pi * k / quad_points
        acc += _translate_multiplier(size, 2, (t * math.cos(th), t * math.sin(th)))
    acc /= quad_points
    acc.setflags(write=False)
    return acc


def spherical_mean(f, t, ell=1, quad_points=256):
    """Circular-mean smoother on the 2-torus.

    ell=1 is the plain mean of f over the circle of radius t centred at
    each point.  Higher ell combines means at radii j*t, j = 1..ell, with
    binomial weights so that low-order error terms cancel:
    V_ell = (-2/C(2*ell, ell)) * sum_j (-1)^j C(2*ell, ell-j) V(j*t).
    """
    if f.dim != 2:
        raise ValueError("spherical means are only defined on 2-d grids")
    if t < 0.0:
        raise ValueError(f"radius must be >= 0, got {t}")
    if ell < 1 or ell != int(ell):
        raise ValueError(f"order must be a positive integer, got {ell}")
    ell = int(ell)
    if ell == 1:
        return _apply_multiplier(f, _sphere_multiplier(f.size, float(t), quad_points))
    total = np.zeros((f.size, f.size // 2 + 1), dtype=complex)
    for j in range(1, ell + 1):
        term = _sphere_multiplier(f.size, float(j * t), quad_points)
        total = total + (-1.0) ** j * math.comb(2 * ell, ell - j) * term
    total *= -2.0 / math.comb(2 * ell, ell)
    return _apply_multiplier(f, total)


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
