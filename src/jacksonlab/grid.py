"""Equispaced periodic grids on the 1- and 2-torus and norms on them.

Samples live at x_j = 2*pi*j/N per axis and integrals are normalized so the
measure of the whole torus is 1; every norm below is an average, not a sum.

Each norm is computed in one place, `NormSpec.rows`, over a stack of
flattened samples and the flattened normalized weight (`_weight_array`):
L_p in one reduction (`_lp_rows`), a Luxemburg or Orlicz norm by one level
solve per row (`_luxemburg`, `_amemiya`, on the array |row|), with one
modular mean (`_modular`) beside them.  `NormSpec.norm`, `lp_norm`,
`luxemburg_norm` and `orlicz_norm` are one-row views of it, so a
one-function norm equals its row in the moduli's stacks bit for bit.  The
pruned max of the sup moduli under a Young norm, `_young_stack_sup`, lives
here beside the solvers it calls; `ops` only hands it the stacks.  It
reads the power index q of a Young function from the record
(`YoungFunction.power_index`, set where the record is checked), so this
module never decodes a Young kind.

`_number` is the one integer rule: `ops`, `approx`, `young`, `lab` and
`cli` check every count, degree and order through it.
"""

from __future__ import annotations

import json
import math
import numbers
import sys

import numpy as np

from .search import brent_level_log


class GridFunction:
    """Real samples on an equispaced periodic grid, d in {1, 2}.

    The sample array is copied and frozen at construction; arithmetic
    returns new instances.  2-d grids are square (N x N).  The real
    spectrum and its Parseval weights are computed on first use and kept;
    the band and sphere row norms of `approx` are memoized in a
    per-instance dict, so all of them live exactly as long as the function.
    """

    __slots__ = ("samples", "_spectrum", "_parseval", "_memo")

    def __init__(self, samples):
        arr = np.array(samples, dtype=float, copy=True)
        if arr.ndim not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {arr.ndim}")
        n = arr.shape[0]
        if n < 8 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {n}")
        if arr.ndim == 2 and arr.shape[1] != n:
            raise ValueError(f"2-d grids must be square, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "_spectrum", None)
        object.__setattr__(self, "_parseval", None)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    @property
    def dim(self):
        return self.samples.ndim

    @property
    def size(self):
        return self.samples.shape[0]

    def spectrum(self):
        """`numpy.fft.rfftn` of the samples: computed once, then returned read-only."""
        spec = self._spectrum
        if spec is None:
            spec = np.fft.rfftn(self.samples)
            spec.setflags(write=False)
            object.__setattr__(self, "_spectrum", spec)
        return spec

    def parseval_weights(self):
        """Weights w on the half grid with sum(w * |M|^2) = mean of (M f)^2.

        w = |spectrum|^2 * multiplicity / N^(2d), for any half-grid
        multiplier M whose inverse transform is real.  Columns 0 and N/2 of
        the last axis are their own mirrors and count once; every other
        column also stands for its conjugate and counts twice.  Computed
        once, then returned read-only.
        """
        weights = self._parseval
        if weights is None:
            spec = self.spectrum()
            weights = spec.real ** 2 + spec.imag ** 2
            weights[..., 1:-1] *= 2.0
            weights /= float(self.samples.size) ** 2
            weights.setflags(write=False)
            object.__setattr__(self, "_parseval", weights)
        return weights

    def __add__(self, other):
        return GridFunction(self.samples + _raw(other))

    def __radd__(self, other):
        return GridFunction(_raw(other) + self.samples)

    def __sub__(self, other):
        return GridFunction(self.samples - _raw(other))

    def __rsub__(self, other):
        return GridFunction(_raw(other) - self.samples)

    def __mul__(self, other):
        return GridFunction(self.samples * _raw(other))

    def __rmul__(self, other):
        return GridFunction(_raw(other) * self.samples)

    def __neg__(self):
        return GridFunction(-self.samples)

    def __repr__(self):
        return f"GridFunction(N={self.size}, d={self.dim})"

    def to_json(self):
        return {"d": self.dim, "N": self.size, "samples": self.samples.tolist()}

    @staticmethod
    def from_json(data):
        _refuse_unread(data, ("d", "N", "samples"), "the grid function")
        arr = np.asarray(data["samples"], dtype=float)
        f = GridFunction(arr)
        if f.dim != data.get("d", f.dim) or f.size != data.get("N", f.size):
            raise ValueError("sample array does not match the declared d/N")
        return f


def _refuse_unread(data, fields, record):
    """Raise a ValueError naming the first key of the record `data` that is not in `fields`."""
    for name in data:
        if name not in fields:
            raise ValueError(f"unknown field {name!r}; {record} record reads {', '.join(fields)}")


def _raw(other):
    if isinstance(other, GridFunction):
        return other.samples
    return np.asarray(other, dtype=float)


def grid_points(size, dim):
    """Coordinate arrays x_j = 2*pi*j/N; one array per axis (meshgrid for d=2)."""
    x = 2.0 * np.pi * np.arange(size) / size
    if dim == 1:
        return (x,)
    if dim == 2:
        return tuple(np.meshgrid(x, x, indexing="ij"))
    raise ValueError(f"grid dimension must be 1 or 2, got {dim}")


def discretize(func, size, dim=1):
    """Sample a callable of d periodic coordinates onto the grid."""
    pts = grid_points(size, dim)
    return GridFunction(np.asarray(func(*pts), dtype=float))


def _weight_array(f, weight):
    """Flattened normalized weight samples (mean 1), or None.

    A weight is refused, before any norm is evaluated, unless it has the
    shape of f's samples and every sample is finite and positive.  A weight
    whose mean overflows is divided by its max before it is normalized.
    """
    if weight is None:
        return None
    w = _raw(weight)
    if w.shape != f.samples.shape:
        raise ValueError(f"weight shape {w.shape} does not match samples {f.samples.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight samples must be finite")
    if np.any(w <= 0.0):
        raise ValueError("weight must be strictly positive")
    with np.errstate(over="ignore"):
        mean = np.mean(w)
    if not math.isfinite(mean):  # the sum passes the float range: scale by the max first
        w = w / np.max(w)
        mean = np.mean(w)
    return (w / mean).ravel()


def _abs_power(x, p, out=None):
    """|x|**p, a new array or `out` (which may be x); an integer p by products of |x| in place.

    p = 4 takes two squarings.
    """
    a = np.abs(x, out=out)
    if not float(p).is_integer():
        return np.power(a, p, out=a)
    bits = bin(int(p))[3:]
    base = np.abs(x) if "1" in bits else None
    for bit in bits:  # binary powering from the top bit: square, then times |x| where a bit is set
        a *= a
        if bit == "1":
            a *= base
    return a


def lp_norm(f, p, weight=None):
    """(mean of w*|f|**p)**(1/p); max|f| for p = inf, where the weight is checked but not read."""
    return NormSpec(p=p, weight=weight).norm(f)


def _lp_rows(rows, p, w=None):
    """The L_p norm of every row of a stack of flattened samples, in one reduction.

    `w` is the flattened normalized weight (`_weight_array`) or None.
    """
    if np.isinf(p):
        return np.max(np.abs(rows), axis=-1)
    a = _abs_power(rows, p)
    if w is not None:
        a *= w
    return np.mean(a, axis=-1) ** (1.0 / p)


def _modular(a, phi, w):
    """Mean of w*phi(a) over the samples a >= 0 (w = 1 when None)."""
    vals = np.asarray(phi(a), dtype=float)
    return float(np.mean(vals) if w is None else np.mean(w * vals))


def orlicz_functional(f, phi, weight=None):
    """Modular mean of phi(|f|) with optional weight."""
    return _modular(np.abs(f.samples).ravel(), phi, _weight_array(f, weight))


def _log(value):
    """log of a modular value (-inf at 0).

    The level solvers work on log modulars: these are linear in the log of
    the scale for power functions and close to it for the other Young
    functions.
    """
    return math.log(value) if value > 0.0 else -math.inf


def _scale_level(a, w, g, start, rtol):
    """Scale s > 0 at which the mean of w*g(a/s) crosses 1, g nondecreasing.

    The mean is nonincreasing in s.  The crossing is bracketed by decades
    from `start` (at most 64), keeping both end values for Brent's method
    in log s.  Without a crossing the last bracket end is returned.  A mean
    that overflows to inf - inf counts as above 1.
    """
    def log_mean(s):
        with np.errstate(over="ignore", invalid="ignore"):
            mean = _modular(a / s, g, w)
        return math.inf if math.isnan(mean) else _log(mean)

    lo, val_lo = start, log_mean(start)
    step = 10.0 if val_lo > 0.0 else 0.1
    for _ in range(64):
        hi, val_hi = lo * step, log_mean(lo * step)
        if (val_hi > 0.0) != (val_lo > 0.0):
            break
        lo, val_lo = hi, val_hi
    if step < 1.0:
        lo, hi, val_lo, val_hi = hi, lo, val_hi, val_lo
    return brent_level_log(log_mean, lo, hi, rtol=rtol, f_lo=val_lo, f_hi=val_hi)


def _luxemburg(a, phi, w):
    """Luxemburg norm of the samples a = |f|: the smallest s > 0 with mean w*phi(a/s) <= 1.

    Brent's method in log s from the peak of a, to a relative 1e-13;
    0 for the zero function.  `w` is the normalized weight or None.
    """
    peak = float(np.max(a))
    return 0.0 if peak == 0.0 else _scale_level(a, w, phi, peak, 1e-13)


def _amemiya(a, phi, w):
    """Minimizer k* of (1 + mean w*phi(k*a))/k over k > 0, and that minimum, for a = |f|.

    k* solves mean w*(x phi'(x) - phi(x)) = 1 at x = k*a: the gap equals
    psi(phi'(x)) (Young's equality), nondecreasing in k.  It is solved in
    s = 1/k from the Luxemburg norm.  With no crossing in 64 decades (phi =
    power(1), gap 0) the infimum is the limit k -> oo, taken at the last
    decade.  The zero function gives (inf, 0.0).
    """
    lux = _luxemburg(a, phi, w)
    if lux == 0.0:
        return math.inf, 0.0
    k = 1.0 / _scale_level(a, w, lambda x: x * phi.deriv_plus(x) - phi(x), lux, 0.0)
    return k, (1.0 + _modular(k * a, phi, w)) / k


def luxemburg_norm(f, phi, weight=None):
    """Smallest a > 0 with mean phi(|f|/a) <= 1 (`_luxemburg`); 0 for the zero function."""
    return NormSpec("luxemburg", phi=phi, weight=weight).norm(f)


def orlicz_norm(f, phi, weight=None):
    """Orlicz (Amemiya) norm: inf over k > 0 of (1 + mean w*phi(k*|f|)) / k.

    The infimum is taken where mean w*(x phi'(x) - phi(x)) = 1 at x = k|f|,
    a level solved by Brent's method as the Luxemburg one is (`_amemiya`).
    Equivalent to the dual-pairing norm for the complementary function;
    always between the Luxemburg norm and twice the Luxemburg norm.
    """
    return NormSpec("orlicz", phi=phi, weight=weight).norm(f)


def _young_stack_sup(stack, spec, w, best):
    """The running (max norm, its Amemiya k*) `best`, raised by the rows of one stack.

    `stack` holds flattened samples and is overwritten by its absolute
    values (a Young norm reads |row| only); `spec` is a Luxemburg or
    Orlicz NormSpec and `w` the flattened normalized weight or None.  Rows
    are ruled out by the modular mean w*phi(k|row|) against a level.
    Luxemburg: the modular is nonincreasing in a = 1/k, so at a a hair
    below the max a row with modular <= 1 has a smaller norm.  Orlicz:
    (1 + modular)/k bounds the Amemiya norm from above for every k, so at
    the max's own k* a row whose bound is a hair below the max has a
    smaller norm.  The hair (a relative 1e-9) is far above the level
    solvers' tolerance, so a row left out never carries the max and the
    result is the per-row max bit for bit.

    Two stages test the live rows against that level.  The first takes one
    phi value a row: with q the record's `power_index`, phi(u)/u**q is
    nondecreasing, so phi(k|g|) <= phi(kM) (|g|/M)**q for the row's peak M
    and the modular is at most phi(kM) * mean w*(|g|/M)**q.  M and that
    mean do not depend on k, so they are taken once per stack.  A row whose
    bound is at most the level is out, and a NaN or inf bound keeps it.
    The second evaluates the modular itself on the rows left.  The rows
    kept are solved largest modular first, and each new max filters again;
    before a nonzero max they are ranked by peak.
    """
    rows = np.abs(stack, out=stack)
    phi, lux = spec.phi, spec.variant == "luxemburg"
    peak = rows.max(axis=-1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        share = rows * (1.0 / peak)[:, None]
        _abs_power(share, phi.power_index, out=share)
        if w is not None:
            share *= w
        share = share.mean(axis=-1)
    live = np.arange(len(rows))  # the rows still in, by index
    while len(live):
        top, kstar = best
        if top == 0.0:
            # zero rows have norm 0 and are left out
            mod, level = peak[live], 0.0
        else:
            floor = top * (1.0 - 1e-9)
            k, level = (1.0 / floor, 1.0) if lux else (kstar, kstar * floor - 1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                bound = np.asarray(phi(k * peak[live]), dtype=float) * share[live]
                live = live[~(bound <= level)]  # a NaN bound stays in
                if not len(live):
                    break
                vals = np.asarray(phi(k * rows[live]), dtype=float)
                if w is not None:
                    vals *= w
                mod = vals.mean(axis=-1)
        keep = ~(mod <= level)  # a NaN modular stays in
        live, mod = live[keep], mod[keep]
        order = np.argsort(-mod, kind="stable")
        for n, j in enumerate(order):
            if lux:
                value, kj = _luxemburg(rows[live[j]], phi, w), None
            else:
                kj, value = _amemiya(rows[live[j]], phi, w)
            if value > best[0]:
                best = (value, kj)
                live = np.delete(live, order[:n + 1])
                break
        else:
            break
    return best


def orlicz_norm_dual_bound(f, phi, psi, weight=None, trials=64, rng=None):
    """Lower bound sup <|f|, g> over random g with modular of psi at most 1.

    Complements the Amemiya value from above and below:
    dual_bound <= orlicz_norm.  Candidates are built from the derivative
    of phi at the optimal Luxemburg scaling plus random perturbations.
    `trials` is an integer >= 0, checked before any norm.
    """
    trials = _NATURAL(trials, "trials")
    absf, w = np.abs(f.samples).ravel(), _weight_array(f, weight)
    lux = _luxemburg(absf, phi, w)
    if lux == 0.0:
        return 0.0
    if rng is None:
        rng = np.random.default_rng(0)
    wa = np.ones_like(absf) if w is None else w

    def pair(g):
        g = np.maximum(g, 0.0)
        mod = _modular(g, psi, wa)
        if mod <= 0.0:
            return 0.0
        # scale g down to modular exactly 1; psi convex with psi(0) = 0 gives
        # psi(g/c) <= psi(g)/c, so the crossing lies in [1, mod] (when rounding
        # leaves the modular at c = mod a hair above 1, the solver returns mod)
        if mod > 1.0:
            g = g / brent_level_log(lambda c: _log(_modular(g / c, psi, wa)), 1.0, mod,
                                    f_lo=_log(mod))
        return float(np.mean(wa * absf * g))

    best = pair(np.asarray(phi.deriv_plus(absf / lux), dtype=float))
    for _ in range(trials):
        bump = rng.uniform(0.5, 2.0) * np.asarray(
            phi.deriv_plus(absf / (lux * rng.uniform(0.8, 1.25))), dtype=float)
        noise = rng.uniform(0.0, 0.2, size=absf.shape) * np.max(bump)
        best = max(best, pair(bump + noise))
    return best


_VARIANTS = ("lp", "luxemburg", "orlicz")


def _number(low=-math.inf, high=math.inf, even=False, real=False):
    """Converter for a finite float (`real`) or an integer (even if asked) in [low, high].

    The one integer rule: every count, degree and order goes through it,
    and so do the finite real params of a check and of a Young record.
    convert(value, name=None) returns the float or int, or raises a
    ValueError "<name> must be <rule>, got <value>".  Bools, strings,
    floats where an integer is asked for, and numbers beyond the float
    range are refused.
    """
    kind, step = (numbers.Real, None) if real else (numbers.Integral, 2 if even else 1)
    rule = ("a finite number" if real else "an even integer" if even else "an integer") + (
        f" from {low} to {high}" if high < math.inf else f" >= {low}" if low > -math.inf else "")

    def convert(value, name=None):
        if (isinstance(value, bool) or not isinstance(value, kind) or (step and value % step)
                or not (low <= value <= high and abs(value) <= sys.float_info.max)):
            raise ValueError(f"{name + ' ' if name else ''}must be {rule}, got {value!r}")
        return float(value) if real else int(value)
    return convert


_COUNT, _NATURAL, _REAL = _number(1), _number(0), _number(real=True)


def _convexity_exponent(s):
    """float(s) for a finite number s >= 2, the exponent s of (*) in a norm record or a check."""
    if isinstance(s, (bool, str)) or not 2.0 <= s <= float(np.finfo(float).max):
        raise ValueError(f"convexity exponent s must be finite and >= 2, got {s!r}")
    return float(s)


class _Record:
    """Base of the plain records: the fields are the `__slots__`, set once by `_set`.

    Records of one class are equal when their fields are.  A record is
    frozen: assignment and deletion raise AttributeError, and it hashes by
    its fields.
    """

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class NormSpec(_Record):
    """Declarative description of the norm B used by checks and reports.

    variant "lp" uses `p`; "luxemburg" and "orlicz" use the Young
    function `phi`.  `s` is the convexity exponent of (*) attached to the
    space, finite and >= 2: for L_p with finite p it defaults to max(p, 2)
    (Clarkson), and a Young norm has none unless it is given.
    """

    __slots__ = ("variant", "p", "phi", "s", "weight", "_key")

    def __init__(self, variant="lp", p=2.0, phi=None, s=None, weight=None):
        if variant not in _VARIANTS:
            raise ValueError(f"norm variant must be one of {_VARIANTS}, got {variant!r}")
        if variant == "lp":
            if isinstance(p, bool) or not isinstance(p, numbers.Real) or not p >= 1.0:
                raise ValueError(f"exponent must be >= 1, got {p!r}")
            if phi is not None:
                raise ValueError("an lp norm reads no Young function phi")
            if s is None and not np.isinf(p):
                s = max(float(p), 2.0)
        elif phi is None:
            raise ValueError(f"variant {variant!r} needs a Young function")
        if s is not None:
            s = _convexity_exponent(s)
        self._set(variant, p, phi, s, weight, None)

    def _weight_record(self):
        """JSON record of the weight (shape and sha256 of its float64 samples), or None."""
        if self.weight is None:
            return None
        import hashlib  # loads OpenSSL; only weighted specs pay for it

        w = np.ascontiguousarray(_raw(self.weight), dtype=float)
        return {"shape": list(w.shape), "sha256": hashlib.sha256(w.tobytes()).hexdigest()}

    def key(self):
        """Hashable identity of the computed norm: variant, p (lp) or phi record, weight digest.

        Computed once per spec (a weight is read as it is at the first call).
        """
        key = self._key
        if key is None:
            reads = (float(self.p) if self.variant == "lp"
                     else json.dumps(self.phi.to_json(), sort_keys=True))
            weight = self._weight_record()
            if weight is not None:
                weight = (tuple(weight["shape"]), weight["sha256"])
            key = (self.variant, reads, weight)
            object.__setattr__(self, "_key", key)
        return key

    # the weight is an array, so `_Record`'s field-wise comparison would ask
    # numpy for the truth value of an array; compare the digest instead
    def __eq__(self, other):
        if not isinstance(other, NormSpec):
            return NotImplemented
        return (self.key(), self.s) == (other.key(), other.s)

    def __hash__(self):
        return hash((self.key(), self.s))

    def rows(self, stack, w):
        """The norms of the rows of a stack of flattened samples, as an array.

        `w` is the flattened normalized weight (`_weight_array`) or None.
        L_p takes one reduction over the stack (`_lp_rows`); a Luxemburg or
        Orlicz norm one level solve per row (`_luxemburg`, `_amemiya`).
        """
        if self.variant == "lp":
            return _lp_rows(stack, self.p, w)
        if self.variant == "luxemburg":
            return np.array([_luxemburg(a, self.phi, w) for a in np.abs(stack)])
        return np.array([_amemiya(a, self.phi, w)[1] for a in np.abs(stack)])

    def norm(self, f):
        """The norm of f: its samples as the one row of `rows`."""
        return float(self.rows(f.samples.reshape(1, -1), _weight_array(f, self.weight))[0])

    def to_json(self):
        data = {"norm": self.variant}
        if self.variant == "lp":
            data["p"] = self.p
        else:
            data["phi"] = self.phi.to_json()
        if self.s is not None:
            data["s"] = self.s
        if self.weight is not None:
            data["weight"] = self._weight_record()
        return data

    @staticmethod
    def from_json(data):
        from .young import YoungFunction

        if "weight" in data:
            raise ValueError("a norm record's weight holds only a digest; "
                             "build the NormSpec with the weight samples instead")
        variant = data.get("norm", "lp")
        if variant in _VARIANTS:  # the constructor names any other variant
            _refuse_unread(data, ("norm", "p" if variant == "lp" else "phi", "s"),
                           f"the {variant} norm")
        phi = YoungFunction.from_json(data["phi"]) if "phi" in data else None
        return NormSpec(variant=variant, p=data.get("p", 2.0), phi=phi, s=data.get("s"))


def random_smooth(size, dim, rng, band=None, decay=1.0):
    """Random real trigonometric polynomial with polynomially decaying modes.

    Modes are supported on |nu| <= band (default N/3, safely inside the
    alias-free range) with coefficient scale (1 + |nu|**2)**(-decay).  A
    given band is a finite number >= 0, checked before anything is drawn.
    """
    band = size // 3 if band is None else _number(0, real=True)(band, "band")
    freqs = np.fft.fftfreq(size) * size
    if dim == 1:
        mask = np.abs(freqs) <= band
        radius2 = freqs ** 2
    else:
        # |nu|^2 by broadcasting the squared axis frequencies
        radius2 = freqs[:, None] ** 2 + freqs[None, :] ** 2
        mask = np.sqrt(radius2) <= band
    shape = (size,) * dim
    spec = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    spec *= mask / (1.0 + radius2) ** decay
    samples = np.fft.ifftn(spec).real
    samples *= size ** dim
    peak = np.max(np.abs(samples))
    if peak > 0:
        samples = samples / peak
    return GridFunction(samples)
