"""Grid functions, Lebesgue and Orlicz-type norms, and norm descriptors."""

import hashlib
import inspect
import json
import math
import re
import warnings

import numpy as np
import pytest

from jacksonlab import (GridFunction, NormSpec, YoungFunction, bisect_level_log, complementary,
                        discretize, exp_growth, golden_max, grid_points, log_power, lp_norm,
                        luxemburg_norm, modulus, orlicz_functional, orlicz_norm,
                        orlicz_norm_dual_bound, patch, power, random_smooth,
                        two_power, zygmund)
from jacksonlab import ops as ops_module
from jacksonlab.grid import _lp_rows, _weight_array

SQRT2 = math.sqrt(2.0)


def test_grid_points_and_discretize():
    (x,) = grid_points(8, 1)
    assert x.shape == (8,)
    assert x[0] == 0.0 and x[1] == pytest.approx(math.pi / 4.0, rel=1e-6, abs=0.0)
    xx, yy = grid_points(4, 2)
    assert xx.shape == (4, 4) and yy[0, 1] == pytest.approx(math.pi / 2.0, rel=1e-6, abs=0.0)
    f = discretize(np.cos, 16, 1)
    assert f.dim == 1 and f.size == 16
    g = discretize(lambda a, b: np.cos(a) * np.sin(b), 16, 2)
    assert g.dim == 2 and g.samples.shape == (16, 16)


def test_grid_function_arithmetic_and_json():
    f = discretize(np.cos, 32, 1)
    g = discretize(np.sin, 32, 1)
    h = 2.0 * f - g + f
    assert np.allclose(h.samples, 3.0 * f.samples - g.samples)
    back = GridFunction.from_json(f.to_json())
    assert back.dim == 1 and back.size == 32
    assert np.array_equal(back.samples, f.samples)
    bad = f.to_json()
    bad["N"] = 64
    with pytest.raises(ValueError):
        GridFunction.from_json(bad)


def test_lp_norm_trig_oracles():
    # cos**2 and cos**4 are trigonometric polynomials, so the grid mean is exact
    f = discretize(np.cos, 64, 1)
    assert lp_norm(f, 2.0) == pytest.approx(1.0 / SQRT2, abs=1e-14)
    assert lp_norm(f, 4.0) == pytest.approx((3.0 / 8.0) ** 0.25, abs=1e-14)
    assert lp_norm(f, np.inf) == pytest.approx(1.0, abs=1e-14)
    # |cos| converges at the aliasing rate for the remaining exponents
    big = discretize(np.cos, 4096, 1)
    assert lp_norm(big, 1.0) == pytest.approx(2.0 / math.pi, rel=1e-6, abs=0.0)


def test_lp_norm_weighted():
    f = discretize(np.cos, 64, 1)
    w = 1.0 + 0.5 * discretize(np.cos, 64, 1).samples
    # mean((1 + cos/2) cos^2) = 1/2 since odd powers of cos average to zero
    assert lp_norm(f, 2.0, weight=w) == pytest.approx(1.0 / SQRT2, abs=1e-14)


@pytest.mark.parametrize("p", [4.0, math.inf])
def test_lp_norm_checks_its_weight_at_every_p(p):
    f = discretize(np.cos, 16, 1)
    with pytest.raises(ValueError, match="weight shape"):
        lp_norm(f, p, weight=np.ones(5))
    with pytest.raises(ValueError, match="strictly positive"):
        lp_norm(f, p, weight=-np.ones(16))
    if math.isinf(p):  # a valid weight leaves the sup norm max|f|
        assert lp_norm(f, p, weight=np.linspace(0.5, 2.0, 16)) == lp_norm(f, p) == 1.0


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 5.0, 2.5, np.inf])
def test_lp_rows_and_lp_norm_match_a_long_double_mean(p, weighted):
    # the weighted norm of f is the plain norm of w**(1/p) * f, which the rows take
    rng = np.random.default_rng(20)
    samples = rng.standard_normal((6, 512)) * np.exp(rng.uniform(-3.0, 3.0, (6, 1)))
    w = rng.uniform(0.2, 5.0, 512) if weighted else np.ones(512)
    w /= np.mean(w)
    rows = _lp_rows(samples * w ** (1.0 / p), p)
    # the rows' own weight: mean(w * |row|^p) in one reduction
    weighted_rows = _lp_rows(samples, p, w if weighted else None)
    norms = [lp_norm(GridFunction(x), p, w if weighted else None) for x in samples]
    a = np.abs(samples).astype(np.longdouble)
    ref = (a.max(axis=-1) if np.isinf(p)
           else np.mean(w.astype(np.longdouble) * a ** p, axis=-1) ** (1 / np.longdouble(p)))
    assert rows.tolist() == pytest.approx(norms, rel=1e-15, abs=0.0)
    assert weighted_rows.tolist() == pytest.approx(norms, rel=1e-15, abs=0.0)
    for got in (rows, weighted_rows, np.array(norms)):
        assert np.abs(got / ref - 1.0).max() <= 1e-15


_ROW_SPECS = ([("lp", p) for p in (1.0, 1.5, 2.0, 3.0, 4.0, 7.0, math.inf)]
              + [("luxemburg", None), ("orlicz", None)])


@pytest.mark.parametrize("dim,sizes", [(1, (16, 64, 128, 1024)), (2, (16, 32))])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("variant,p", _ROW_SPECS)
def test_a_one_function_norm_is_its_own_row_in_a_stack(dim, sizes, weighted, variant, p):
    # lp_norm, luxemburg_norm, orlicz_norm and NormSpec.norm are one row of
    # NormSpec.rows, the evaluator of the moduli's stacks, bit for bit
    rng = np.random.default_rng(300 + dim)
    phi = None if variant == "lp" else zygmund(2.0, 0.5)
    count = 2 if variant != "lp" else 12
    for size in sizes:
        fs = [random_smooth(size, dim, rng) for _ in range(count)]
        weight = rng.uniform(0.2, 5.0, fs[0].samples.shape) if weighted else None
        spec = NormSpec(variant=variant, p=2.0 if p is None else p, phi=phi, weight=weight)
        stack = np.stack([f.samples.ravel() for f in fs])
        rows = spec.rows(stack, _weight_array(fs[0], weight)).tolist()
        ones = {"lp": lambda f: lp_norm(f, p, weight),
                "luxemburg": lambda f: luxemburg_norm(f, phi, weight),
                "orlicz": lambda f: orlicz_norm(f, phi, weight)}[variant]
        assert [ones(f) for f in fs] == rows
        assert [spec.norm(f) for f in fs] == rows
        if variant == "lp":
            assert _lp_rows(stack, p, _weight_array(fs[0], weight)).tolist() == rows


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_weight_is_refused_before_any_row(monkeypatch, bad):
    rows, ffts = [], []
    evaluate, inverse = NormSpec.rows, ops_module._inverse
    monkeypatch.setattr(NormSpec, "rows",
                        lambda *args: rows.append(1) or evaluate(*args))
    monkeypatch.setattr(ops_module, "_inverse",
                        lambda *args: ffts.append(1) or inverse(*args))
    f = discretize(np.cos, 16, 1)
    w = np.ones(16)
    w[3] = bad
    cases = [lambda: lp_norm(f, 4.0, w), lambda: lp_norm(f, math.inf, w),
             lambda: luxemburg_norm(f, zygmund(2.0, 0.5), w),
             lambda: orlicz_norm(f, zygmund(2.0, 0.5), w),
             lambda: orlicz_functional(f, zygmund(2.0, 0.5), w)]
    for p in (4.0, math.inf):
        cases.append(lambda p=p: modulus(f, 1, 0.5, NormSpec(p=p, weight=w)))
    cases.append(lambda: modulus(f, 1, 0.5, NormSpec("luxemburg", phi=zygmund(2.0, 0.5),
                                                     weight=w)))
    for case in cases:
        with pytest.raises(ValueError, match="weight samples must be finite"):
            case()
    assert rows == [] and ffts == []


@pytest.mark.parametrize("dim,size", [(1, 16), (2, 8)])
def test_a_weight_whose_mean_overflows_is_normalized(dim, size):
    # the mean of 1e308 over the samples passes the float range; a RuntimeWarning is an
    # error under this suite's settings
    f = random_smooth(size, dim, np.random.default_rng(40 + dim))
    shape = f.samples.shape
    assert np.array_equal(_weight_array(f, np.full(shape, 1e308)), np.ones(size ** dim))
    assert lp_norm(f, 4.0, np.full(shape, 1e308)) == lp_norm(f, 4.0)
    assert luxemburg_norm(f, zygmund(2.0, 0.5), np.full(shape, 1e308)) == luxemburg_norm(
        f, zygmund(2.0, 0.5))
    # a weight that is not constant keeps its shape: w and w * 1e308 normalize alike
    w = 1.0 + 0.5 * np.cos(grid_points(size, dim)[0])
    big = _weight_array(f, w * (1e308 / 1.5))
    assert np.all(np.isfinite(big))
    assert np.allclose(big, _weight_array(f, w), rtol=1e-14, atol=0.0)
    assert lp_norm(f, 4.0, w * (1e308 / 1.5)) == pytest.approx(lp_norm(f, 4.0, w), rel=1e-14)


def test_luxemburg_matches_lp_for_power_young():
    rng = np.random.default_rng(11)
    for p in (1.5, 2.0, 3.0, 4.0):
        phi = power(p)
        for _ in range(5):
            f = random_smooth(256, 1, rng)
            lux = luxemburg_norm(f, phi)
            ref = lp_norm(f, p)
            assert lux == pytest.approx(ref, rel=1e-10, abs=0.0)


def luxemburg_by_bisection(f, phi, weight=None, rtol=1e-13):
    # decade bracket from the peak, then bisection in log a down to rtol
    absf = np.abs(f.samples)
    w = None if weight is None else weight / np.mean(weight)

    def modular(a):
        vals = np.asarray(phi(absf / a), dtype=float)
        return float(np.mean(vals) if w is None else np.mean(w * vals))

    lo = hi = float(np.max(absf))
    while modular(hi) > 1.0:
        hi *= 10.0
    while modular(lo) <= 1.0:
        lo /= 10.0
    return bisect_level_log(modular, lo, hi, level=1.0, increasing=False, rtol=rtol)


class CountedYoung:
    def __init__(self, phi):
        self.phi = phi
        self.calls = 0
        self.derivs = 0

    def __call__(self, x):
        self.calls += 1
        return self.phi(x)

    def deriv_plus(self, x):
        self.derivs += 1
        return self.phi.deriv_plus(x)


def test_luxemburg_brent_matches_bisection_oracle():
    rng = np.random.default_rng(23)
    phis = [power(1.5), power(3.0), two_power(1.5, 3.0), log_power(3.0),
            zygmund(2.0, 0.5), patch(zygmund(2.0, 0.5), 3.0, 0.2, 5.0).phi]
    for phi in phis:
        for k in range(6):
            f = random_smooth(256, 1, rng) * float(10.0 ** rng.uniform(-2.0, 2.0))
            weight = None if k % 2 == 0 else 1.0 + 0.5 * rng.uniform(size=256)
            ref = luxemburg_by_bisection(f, phi, weight)
            assert luxemburg_norm(f, phi, weight) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_luxemburg_evaluation_budget():
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_smooth(1024, 1, rng)
        phi = CountedYoung(zygmund(2.0, 0.5))
        lux = luxemburg_norm(f, phi)
        # bracketing included; bisection to rtol=1e-13 needs about 47
        assert phi.calls <= 16
        assert orlicz_functional((1.0 / lux) * f, phi.phi) == pytest.approx(1.0, rel=1e-12,
                                                                            abs=0.0)


def amemiya_by_scan_and_golden(f, phi, weight=None):
    # the earlier evaluator: a 61-point scan of (1 + rho(k f))/k over
    # k in exp(+-3)/lux, then 80 golden-section steps around the best point
    lux = luxemburg_norm(f, phi, weight)
    absf = np.abs(f.samples).ravel()
    w = None if weight is None else (weight / np.mean(weight)).ravel()

    def objective(logk):
        k = np.exp(logk)
        vals = np.asarray(phi(np.outer(k, absf)), dtype=float)
        return (1.0 + np.mean(vals if w is None else vals * w, axis=1)) / k

    scan = np.log(1.0 / lux) + np.linspace(-3.0, 3.0, 61)
    heights = objective(scan)
    i = int(np.argmin(heights))
    lo, hi = scan[max(i - 1, 0)], scan[min(i + 1, len(scan) - 1)]
    _, neg = golden_max(lambda t: -objective(np.atleast_1d(t))[0], float(lo), float(hi), iters=80)
    return min(-neg, float(heights[i]))


def test_orlicz_level_solve_matches_scan_and_golden_oracle():
    rng = np.random.default_rng(5)
    phis = [zygmund(2.0, 0.5), power(3.0), two_power(1.5, 3.0), log_power(3.0),
            exp_growth(), complementary(zygmund(2.0, 0.5))]
    for phi in phis:
        for size, dim in ((64, 1), (16, 2)):
            for weighted in (False, True):
                f = random_smooth(size, dim, rng) * float(10.0 ** rng.uniform(-2.0, 1.5))
                w = 1.0 + 0.5 * rng.uniform(size=f.samples.shape) if weighted else None
                ref = amemiya_by_scan_and_golden(f, phi, w)
                assert orlicz_norm(f, phi, w) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_orlicz_kinked_young_level_jump():
    # at x = 1 the level x phi'(x) - phi(x) jumps from 1/2 to 2 (two_power)
    # or from 1 to 3 (log_power); for a constant c every sample jumps at once,
    # the jump straddles 1, and the infimum is taken at k = 1/c: 2c
    for phi, below, above in ((two_power(1.5, 3.0), 0.5, 2.0), (log_power(3.0), 1.0, 3.0)):
        gap = lambda x: x * phi.deriv_plus(x) - phi(x)  # noqa: E731
        assert gap(1.0 - 1e-12) == pytest.approx(below, rel=1e-9, abs=0.0)
        assert gap(1.0) == pytest.approx(above, rel=1e-12, abs=0.0)
        for c in (0.3, 1.0, 7.0):
            f = GridFunction(np.full(64, c))
            assert orlicz_norm(f, phi) == pytest.approx(2.0 * c, rel=1e-14, abs=0.0)
            weight = 1.0 + np.arange(64.0)
            assert orlicz_norm(f, phi, weight) == pytest.approx(2.0 * c, rel=1e-14, abs=0.0)


def test_orlicz_power_one_is_l1():
    # x phi'(x) - phi(x) = 0: no crossing, the infimum is the limit k -> oo
    rng = np.random.default_rng(12)
    for size, dim in ((256, 1), (32, 2)):
        f = random_smooth(size, dim, rng)
        assert orlicz_norm(f, power(1.0)) == pytest.approx(lp_norm(f, 1.0), rel=1e-14, abs=0.0)
        w = 1.0 + rng.uniform(size=f.samples.shape)
        assert orlicz_norm(f, power(1.0), w) == pytest.approx(lp_norm(f, 1.0, w), rel=1e-14,
                                                              abs=0.0)


def test_orlicz_exp_overflow_stays_quiet():
    # a spike carrying weight 1e-300 needs phi(x) ~ 1e302, so the Luxemburg
    # bracket evaluates exp past its overflow; no RuntimeWarning escapes
    f = GridFunction(np.r_[1.0, np.zeros(63)])
    w = np.r_[1e-300, np.ones(63)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lux = luxemburg_norm(f, exp_growth(), w)
        orl = orlicz_norm(f, exp_growth(), w)
    assert lux <= orl <= 2.0 * lux
    ks = np.geomspace(0.5, 2.0, 2001) / orl
    with np.errstate(over="ignore"):
        brute = [(1.0 + np.mean(w / np.mean(w) * exp_growth()(k * f.samples))) / k for k in ks]
    assert orl <= min(brute) * (1.0 + 1e-12)


def test_orlicz_evaluation_budget():
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_smooth(1024, 1, rng)
        phi = CountedYoung(zygmund(2.0, 0.5))
        orl = orlicz_norm(f, phi)
        # Luxemburg start (at most 16), the level solve, one final modular;
        # the scan and golden search took 155-159 calls of phi
        assert phi.calls <= 26 and phi.derivs <= 9
        assert orl == pytest.approx(amemiya_by_scan_and_golden(f, phi.phi), rel=1e-13, abs=0.0)


def test_dual_bound_rescaling_budget():
    rng = np.random.default_rng(2024)
    f = random_smooth(128, 1, rng)
    phi = power(3.0)
    psi = CountedYoung(complementary(phi))
    dual = orlicz_norm_dual_bound(f, phi, psi, trials=8, rng=rng)
    assert dual <= orlicz_norm(f, phi) * (1.0 + 1e-9)
    # 9 candidates, each one modular plus a short solve; bisection took about 55
    assert psi.calls <= 9 * 6


def test_luxemburg_and_orlicz_cos_oracle():
    f = discretize(np.cos, 256, 1)
    phi = power(2.0)
    assert luxemburg_norm(f, phi) == pytest.approx(1.0 / SQRT2, abs=1e-12)
    # for phi = u^2 the Amemiya infimum equals exactly twice the Luxemburg value
    assert orlicz_norm(f, phi) == pytest.approx(SQRT2, abs=1e-9)


def test_orlicz_functional_scaling():
    f = discretize(np.cos, 64, 1)
    phi = power(2.0)
    lux = luxemburg_norm(f, phi)
    # modular of f / lux sits at level 1 by definition
    assert orlicz_functional((1.0 / lux) * f, phi) == pytest.approx(1.0, rel=1e-10, abs=0.0)


def test_sandwich_for_non_power_young():
    rng = np.random.default_rng(3)
    for phi in (zygmund(2.0, 0.5), two_power(1.5, 3.0)):
        for _ in range(5):
            f = random_smooth(128, 1, rng)
            lux = luxemburg_norm(f, phi)
            orl = orlicz_norm(f, phi)
            assert orl >= lux * (1.0 - 1e-8)
            assert orl <= 2.0 * lux * (1.0 + 1e-8)


def test_orlicz_dual_bound_certifies_from_below():
    f = discretize(np.cos, 128, 1)
    phi = power(2.0)
    psi = complementary(phi)
    orl = orlicz_norm(f, phi)
    dual = orlicz_norm_dual_bound(f, phi, psi)
    assert dual <= orl * (1.0 + 1e-9)
    # the derivative candidate is optimal here, so the bound is tight
    assert dual == pytest.approx(orl, rel=1e-6, abs=0.0)


def test_zero_function_norms():
    z = GridFunction(np.zeros(32))
    assert lp_norm(z, 2.0) == 0.0
    assert luxemburg_norm(z, power(2.0)) == 0.0
    assert orlicz_norm(z, power(2.0)) == 0.0


def test_norm_spec_defaults_and_conjugacy():
    # a spec holds what the norm or a check reads: no dual exponent, constant or label
    assert list(inspect.signature(NormSpec).parameters) == ["variant", "p", "phi", "s", "weight"]
    spec = NormSpec()
    assert spec.variant == "lp" and spec.p == 2.0 and spec.s == 2.0
    assert NormSpec(variant="lp", p=4.0).s == 4.0
    assert NormSpec(variant="lp", p=1.5).s == 2.0
    spec_s = NormSpec(variant="lp", p=2.0, s=3)
    assert spec_s.s == 3.0 and isinstance(spec_s.s, float)
    assert NormSpec(variant="lp", p=np.inf).s is None
    assert NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5)).s is None


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(variant="nonsense")
    with pytest.raises(ValueError):
        NormSpec(variant="lp", p=0.5)
    with pytest.raises(ValueError):
        NormSpec(variant="lp", p=2.0, s=1.5)
    with pytest.raises(ValueError):
        NormSpec(variant="luxemburg")
    with pytest.raises(ValueError, match="reads no Young function"):
        NormSpec(variant="lp", phi=zygmund(2.0, 0.5))
    # a NaN exponent, or an s that is not a finite number, is refused
    for bad in (dict(p=math.nan), dict(p=math.nan, s=2.0), dict(p=-math.inf), dict(s=math.nan),
                dict(s=math.inf), dict(s="3"), dict(s=True), dict(s=10 ** 400)):
        with pytest.raises(ValueError):
            NormSpec(variant="lp", **bad)
    f = discretize(np.cos, 16, 1)
    for p in (math.nan, -math.inf, 0.5):
        with pytest.raises(ValueError, match="exponent must be >= 1"):
            lp_norm(f, p)
    assert lp_norm(f, math.inf) == 1.0


def test_norm_spec_json_round_trip_and_dispatch():
    f = discretize(np.cos, 64, 1)
    phi = zygmund(2.0, 0.5)
    # a Young norm's p is not read, so it is neither recorded nor part of the identity
    for spec in (NormSpec(variant="lp", p=3.0),
                 NormSpec(variant="luxemburg", phi=phi),
                 NormSpec(variant="luxemburg", phi=phi, p=3.0),
                 NormSpec(variant="orlicz", phi=phi, s=3.0)):
        back = NormSpec.from_json(spec.to_json())
        assert back == spec and hash(back) == hash(spec)
        assert back.norm(f) == pytest.approx(spec.norm(f), rel=1e-12, abs=0.0)
    assert NormSpec(variant="lp", p=2.0).norm(f) == pytest.approx(1.0 / SQRT2, rel=1e-6, abs=0.0)
    # the variant has one spelling, "norm"
    with pytest.raises(ValueError, match="unknown field 'variant'"):
        NormSpec.from_json({"variant": "lp", "p": 4.0})


def test_norm_spec_records_weight_and_key():
    w = 1.0 + 0.5 * np.cos(grid_points(64, 1)[0])
    plain = NormSpec(variant="lp", p=2.0)
    weighted = NormSpec(variant="lp", p=2.0, weight=w)
    # unweighted records are unchanged
    assert json.dumps(plain.to_json()) == '{"norm": "lp", "p": 2.0, "s": 2.0}'
    record = weighted.to_json()["weight"]
    assert record == {"shape": [64],
                      "sha256": hashlib.sha256(np.asarray(w, dtype=float).tobytes()).hexdigest()}
    with pytest.raises(ValueError):
        NormSpec.from_json(weighted.to_json())
    keys = {plain.key(), weighted.key(), NormSpec(variant="lp", p=4.0).key(),
            NormSpec(variant="lp", p=2.0, weight=w[::-1]).key(),
            NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5)).key(),
            NormSpec(variant="luxemburg", phi=zygmund(2.0, 1.0)).key()}
    assert len(keys) == 6
    hash(weighted.key())
    # the key names the norm, not the attached exponent
    assert NormSpec(variant="lp", p=2.0, s=3.0).key() == plain.key()


def test_norm_spec_equality_and_hash():
    w = 1.0 + 0.5 * np.cos(grid_points(64, 1)[0])
    a = NormSpec(variant="lp", p=2.0, weight=w)
    same = NormSpec(variant="lp", p=2.0, weight=w.copy())
    other = NormSpec(variant="lp", p=2.0, weight=w[::-1])
    assert a == same and hash(a) == hash(same)
    assert a != other and a != NormSpec(variant="lp", p=2.0)
    assert len({a, same, other}) == 2
    phi = zygmund(2.0, 0.5)
    assert NormSpec(variant="luxemburg", phi=phi) == NormSpec(variant="luxemburg",
                                                              phi=zygmund(2.0, 0.5))
    assert NormSpec(variant="luxemburg", phi=phi) != NormSpec(variant="orlicz", phi=phi)
    # the attached exponent takes part, unlike in key(); a Young norm's unread p does not
    assert NormSpec(variant="lp", p=2.0, s=3.0) != NormSpec(variant="lp", p=2.0)
    assert NormSpec(variant="luxemburg", phi=phi, p=3.0) == NormSpec(variant="luxemburg", phi=phi)
    assert hash(NormSpec()) == hash(NormSpec())
    assert NormSpec() != "lp"


_PATCHED = patch(zygmund(2.0, 0.5), 3.0, 0.2, 5.0).phi


@pytest.mark.parametrize("make, unread", [
    (lambda: power(2.5), ("c1", "c2", "breakpoints", "base", "label")),
    (lambda: two_power(1.5, 3.0), ("c1",)),
    (lambda: log_power(3.0), ("breakpoints",)),
    (lambda: zygmund(2.0, 0.5), ("c1", "c2", "breakpoints", "base")),
    (lambda: exp_growth(), ("c2",)),
    (lambda: complementary(power(3.0)), ("c1", "c2", "breakpoints", "label")),
    (lambda: complementary(complementary(power(3.0)), y_max=20.0), ("c1", "breakpoints")),
    (lambda: _PATCHED, ("label", "s")),
    (lambda: discretize(np.cos, 16, 1), ("norm", "label", "sample")),
    (lambda: discretize(lambda x, y: np.cos(x) * np.sin(y), 8, 2), ("weight",)),
    (lambda: NormSpec(variant="lp", p=4.0), ("q", "m", "M", "label", "variant", "phi", "P")),
    (lambda: NormSpec(variant="lp", p=math.inf), ("q", "label")),
    (lambda: NormSpec(variant="luxemburg", phi=_PATCHED), ("p", "q", "m", "M", "label")),
    (lambda: NormSpec(variant="orlicz", phi=complementary(power(3.0)), s=3.0), ("p", "M")),
], ids=["power", "two_power", "log_power", "zygmund", "exp", "conjugate", "nested-conjugate",
        "patched", "grid-1d", "grid-2d", "lp", "linf", "luxemburg-patched", "orlicz-conjugate"])
def test_records_round_trip_and_refuse_unread_fields(make, unread):
    x = make()
    cls = type(x)
    record = json.loads(json.dumps(x.to_json()))
    back = cls.from_json(record)
    assert back.to_json() == record
    if isinstance(x, NormSpec):
        assert back == x
    if isinstance(x, GridFunction):
        assert np.array_equal(back.samples, x.samples)
    for name in unread:
        assert name not in record
        with pytest.raises(ValueError, match=f"unknown field '{name}'"):
            cls.from_json({**record, name: record.get("params", 1.0)})
    # a field nested in a record is refused as well
    nested = record.get("base") or record.get("phi")
    if isinstance(nested, dict):
        with pytest.raises(ValueError, match="unknown field 'c0'"):
            cls.from_json({**record, "base" if "base" in record else "phi": {**nested, "c0": 1}})
    # the constructor refuses what the record refuses: YoungFunction("zygmund", ..., c1=9.0)
    if isinstance(x, YoungFunction):
        given = {"breakpoints": (0.2, 5.0), "c1": 9.0, "c2": 1.0, "base": x}
        for name in set(unread) & set(given):
            kwargs = {"base": x.base, name: given[name]}
            with pytest.raises(ValueError, match=f"reads no {name}"):
                YoungFunction(x.kind, x.params, **kwargs)


def random_smooth_by_meshgrid(size, dim, rng, band=None, decay=1.0):
    """`random_smooth` with |nu|^2 from full `np.meshgrid` arrays, as it was first written."""
    if band is None:
        band = size // 3
    freqs = np.fft.fftfreq(size) * size
    if dim == 1:
        mask = np.abs(freqs) <= band
        radius2 = freqs ** 2
    else:
        fx, fy = np.meshgrid(freqs, freqs, indexing="ij")
        radius2 = fx ** 2 + fy ** 2
        mask = np.sqrt(radius2) <= band
    shape = (size,) * dim
    spec = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    spec *= mask / (1.0 + radius2) ** decay
    samples = np.fft.ifftn(spec).real
    samples *= size ** dim
    peak = np.max(np.abs(samples))
    if peak > 0:
        samples = samples / peak
    return samples


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("size", [16, 128, 256])
@pytest.mark.parametrize("band", [None, 5, 7.5])
@pytest.mark.parametrize("decay", [1.0, 1.5])
def test_random_smooth_equals_the_meshgrid_formula_bit_for_bit(dim, size, band, decay):
    got = random_smooth(size, dim, np.random.default_rng(size + dim), band, decay).samples
    want = random_smooth_by_meshgrid(size, dim, np.random.default_rng(size + dim), band, decay)
    assert got.tobytes() == want.tobytes()


def test_random_smooth_deterministic_and_normalized():
    a = random_smooth(128, 1, np.random.default_rng(5))
    b = random_smooth(128, 1, np.random.default_rng(5))
    assert np.array_equal(a.samples, b.samples)
    assert np.max(np.abs(a.samples)) == pytest.approx(1.0, abs=1e-12)
    c = random_smooth(64, 2, np.random.default_rng(5))
    assert c.samples.shape == (64, 64)


@pytest.mark.parametrize("error, call, message", [
    (ValueError, lambda: GridFunction(np.zeros((8, 8, 8))), "grid dimension must be 1 or 2, got 3"),
    (ValueError, lambda: GridFunction(np.zeros(4)), "grid size must be even and >= 8, got 4"),
    (ValueError, lambda: GridFunction(np.zeros(9)), "grid size must be even and >= 8, got 9"),
    (ValueError, lambda: GridFunction(np.zeros((8, 16))), "2-d grids must be square, got (8, 16)"),
    (ValueError, lambda: GridFunction(np.r_[np.zeros(15), np.inf]), "samples must be finite"),
    (AttributeError, lambda: setattr(GridFunction(np.zeros(8)), "samples", np.ones(8)),
     "GridFunction is immutable"),
    (ValueError, lambda: grid_points(16, 3), "grid dimension must be 1 or 2, got 3"),
    # the dual bound's trials are a count, checked before any norm
    *[(ValueError, lambda trials=trials: orlicz_norm_dual_bound(
        discretize(np.cos, 16, 1), power(3.0), complementary(power(3.0)), trials=trials),
       f"trials must be an integer >= 0, got {trials!r}") for trials in (-5, True, 2.5)],
    # a NaN param is refused where the Young function is built, before the norm reads it
    (ValueError, lambda: luxemburg_norm(discretize(np.cos, 16, 1), power(math.nan)),
     "power parameter must be a finite number, got nan"),
    # an L_p exponent is a number, never a bool (True ran as L1) or a string
    (ValueError, lambda: NormSpec(p=True), "exponent must be >= 1, got True"),
    (ValueError, lambda: lp_norm(discretize(np.cos, 16, 1), True),
     "exponent must be >= 1, got True"),
    (ValueError, lambda: NormSpec(p="4"), "exponent must be >= 1, got '4'"),
    # a band that is not a finite number >= 0 gave the zero function
    *[(ValueError, lambda band=band: random_smooth(16, 1, np.random.default_rng(0), band),
       f"band must be a finite number >= 0, got {band!r}") for band in (math.nan, -1, True)],
])
def test_grid_refusals_name_what_is_wrong(error, call, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
