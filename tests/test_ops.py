"""Fourier multipliers, smoothing semigroups, and moduli of smoothness."""

import math
import re

import numpy as np
import pytest
from scipy.special import j0

from jacksonlab import (GridFunction, NormSpec, YoungFunction, averaged_modulus, best_approx,
                        cesaro, cesaro_weights, complementary, difference, discretize,
                        estimate_convexity_constant, grid_points, k_delta, k_functional,
                        laplacian_power, lp_norm, luxemburg_norm, moduli_table, modulus, patch,
                        power, projection, random_smooth, run_check, semigroup_difference,
                        semigroup_moduli_table, semigroup_modulus, space_moduli,
                        spectral_semigroup, spherical_mean, translate, two_power, zygmund)
from jacksonlab import cli as cli_module
from jacksonlab import grid as grid_module
from jacksonlab import ops as ops_module
from jacksonlab.ops import _difference_norms

SQRT2 = math.sqrt(2.0)


def test_translate_matches_shifted_samples():
    f = discretize(np.cos, 64, 1)
    (x,) = grid_points(64, 1)
    g = translate(f, 0.3)
    assert np.allclose(g.samples, np.cos(x + 0.3), atol=1e-12)
    h = discretize(lambda a, b: np.sin(a + 2.0 * b), 32, 2)
    xx, yy = grid_points(32, 2)
    moved = translate(h, (0.4, -0.1))
    assert np.allclose(moved.samples, np.sin(xx + 0.4 + 2.0 * (yy - 0.1)), atol=1e-12)


def test_translate_keeps_nyquist_real():
    size = 16
    f = GridFunction((-1.0) ** np.arange(size).astype(float))
    g = translate(f, 0.37)
    assert np.isrealobj(g.samples)
    assert np.allclose(g.samples, math.cos(0.5 * size * 0.37) * f.samples, atol=1e-12)


def test_difference_oracle_on_cos():
    f = discretize(np.cos, 128, 1)
    for h in (0.2, 0.7):
        for r in (1, 2, 3):
            got = lp_norm(difference(f, h, r), 2.0)
            assert got == pytest.approx((2.0 * math.sin(h / 2.0)) ** r / SQRT2,
                                        rel=1e-12, abs=0.0)


def test_semigroup_law():
    rng = np.random.default_rng(1)
    for kind in ("heat", "abel"):
        for dim in (1, 2):
            f = random_smooth(32, dim, rng)
            a = spectral_semigroup(spectral_semigroup(f, 0.2, kind), 0.5, kind)
            b = spectral_semigroup(f, 0.7, kind)
            assert np.max(np.abs(a.samples - b.samples)) < 1e-12


def test_heat_and_abel_on_cos():
    f = discretize(np.cos, 64, 1)
    for t in (0.25, 1.0):
        heat = spectral_semigroup(f, t, "heat")
        assert np.allclose(heat.samples, math.exp(-t) * f.samples, atol=1e-13)
        abel = spectral_semigroup(f, t, "abel")
        assert np.allclose(abel.samples, math.exp(-t) * f.samples, atol=1e-13)
    # mode 2 separates the two kernels: exp(-4t) vs exp(-2t)
    g = discretize(lambda x: np.cos(2.0 * x), 64, 1)
    assert np.allclose(spectral_semigroup(g, 0.5, "heat").samples,
                       math.exp(-2.0) * g.samples, atol=1e-13)
    assert np.allclose(spectral_semigroup(g, 0.5, "abel").samples,
                       math.exp(-1.0) * g.samples, atol=1e-13)


def test_semigroup_difference_matches_composition():
    f = discretize(np.cos, 64, 1)
    t = 0.3
    direct = semigroup_difference(f, t, "heat", 2)
    step = spectral_semigroup(f, t, "heat") - f
    twice = spectral_semigroup(step, t, "heat") - step
    assert np.allclose(direct.samples, twice.samples, atol=1e-13)


def test_contractions_in_lp_and_luxemburg():
    rng = np.random.default_rng(7)
    phi = zygmund(2.0, 0.5)
    for _ in range(10):
        f = random_smooth(128, 1, rng)
        smoothed = [spectral_semigroup(f, 0.4, "heat"),
                    spectral_semigroup(f, 0.4, "abel"),
                    cesaro(f, 8, 1)]
        for g in smoothed:
            for p in (1.0, 2.0, 4.0):
                assert lp_norm(g, p) <= lp_norm(f, p) * (1.0 + 1e-10)
            assert luxemburg_norm(g, phi) <= luxemburg_norm(f, phi) * (1.0 + 1e-10)
    f2 = random_smooth(32, 2, rng)
    v = spherical_mean(f2, 0.5)
    for p in (1.0, 2.0):
        assert lp_norm(v, p) <= lp_norm(f2, p) * (1.0 + 1e-10)


def test_fejer_kernel_nonnegative():
    size = 128
    spike = np.zeros(size)
    spike[0] = float(size)
    kernel = cesaro(GridFunction(spike), 20, 1)
    assert np.min(kernel.samples) >= -1e-12


def test_cesaro_oracle_and_weights():
    w = cesaro_weights(2, 1)
    assert np.allclose(w, [1.0, 2.0 / 3.0, 1.0 / 3.0])
    f = discretize(np.cos, 64, 1)
    assert np.allclose(cesaro(f, 2, 1).samples, (2.0 / 3.0) * f.samples, atol=1e-14)
    with pytest.raises(ValueError):
        cesaro(f, 40, 1)


def test_operator_identity_links_steps():
    # (T(h)-I)^r equals the alternating combination
    # sum_k (-1)^k C(r,k) {T(kh)(T(ks)-I)^r - (T(h+ks)-I)^r}
    rng = np.random.default_rng(9)
    h, s = 0.3, 0.17

    def T(g, u, kind):
        return translate(g, u) if kind == "shift" else spectral_semigroup(g, u, kind)

    def diff_r(g, u, kind, r):
        return difference(g, u, r) if kind == "shift" \
            else semigroup_difference(g, u, kind, r)

    for kind in ("shift", "heat", "abel"):
        for r in (1, 2, 3):
            for _ in range(5):
                f = random_smooth(64, 1, rng)
                lhs = diff_r(f, h, kind, r)
                acc = np.zeros(64)
                for k in range(1, r + 1):
                    termA = T(diff_r(f, k * s, kind, r), k * h, kind)
                    termB = diff_r(f, h + k * s, kind, r)
                    acc = acc + (-1.0) ** k * math.comb(r, k) * (termA.samples - termB.samples)
                assert np.max(np.abs(lhs.samples - acc)) < 1e-10


def test_laplacian_power():
    f = discretize(np.cos, 64, 1)
    assert np.allclose(laplacian_power(f, 1).samples, -f.samples, atol=1e-12)
    g = discretize(lambda x, y: np.cos(x) * np.cos(y), 32, 2)
    assert np.allclose(laplacian_power(g, 1).samples, -2.0 * g.samples, atol=1e-12)
    assert np.allclose(laplacian_power(g, 2).samples, 4.0 * g.samples, atol=1e-11)


def test_spherical_mean_preserves_constants_exactly():
    one = GridFunction(np.ones((64, 64)))
    for t in (0.3, 0.7, 2.0):
        out = spherical_mean(one, t)
        assert np.max(np.abs(out.samples - 1.0)) == 0.0


def test_spherical_mean_bessel_oracle():
    f = discretize(lambda x, y: np.cos(x), 64, 2)
    for t in (0.4, 0.9, 1.7):
        got = spherical_mean(f, t)
        assert np.allclose(got.samples, j0(t) * f.samples, atol=1e-8)


def test_spherical_mean_higher_order_reproduces_smooth_modes_better():
    f = discretize(lambda x, y: np.cos(x), 64, 2)
    t = 0.5
    err1 = np.max(np.abs(spherical_mean(f, t, 1).samples - f.samples))
    err2 = np.max(np.abs(spherical_mean(f, t, 2).samples - f.samples))
    assert err2 < err1


def test_sphere_route_keeps_every_cache_hit_in_a_bounded_cache():
    # the 4 default members of kfunc-8.9 read the same 28 radii, each radius once per member
    ops_module._spherical_mean_offset.cache_clear()
    run_check("kfunc-8.9", {"N": 32, "route": "sphere"})
    info = ops_module._spherical_mean_offset.cache_info()
    assert (info.misses, info.hits) == (28, 84)
    assert info.currsize <= info.maxsize == 64


def test_modulus_oracle_first_and_second_order():
    f = discretize(np.cos, 256, 1)
    for t in (0.1, 0.5, 1.0, 2.0, 3.0):
        got = modulus(f, 1, t)
        assert got == pytest.approx(SQRT2 * math.sin(t / 2.0), abs=1e-9)
        got2 = modulus(f, 2, t)
        assert got2 == pytest.approx(2.0 * SQRT2 * math.sin(t / 2.0) ** 2, abs=1e-9)


def test_modulus_2d_picks_best_direction():
    f = discretize(lambda x, y: np.cos(x), 64, 2)
    got = modulus(f, 1, 0.8, directions=64, radii=32)
    assert got == pytest.approx(SQRT2 * math.sin(0.4), rel=1e-6, abs=0.0)


def test_modulus_monotone_in_t_and_r_bound():
    f = discretize(lambda x: np.abs(np.sin(x)), 256, 1)
    vals = [modulus(f, 1, t) for t in (0.25, 0.5, 1.0, 2.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # second order never exceeds twice the first order
    assert modulus(f, 2, 0.5) <= 2.0 * modulus(f, 1, 0.5) + 1e-12


def test_one_sided_semigroup_modulus_shift_matches_two_sided_for_even():
    f = discretize(np.cos, 256, 1)
    for t in (0.5, 1.5):
        one_sided = semigroup_modulus(f, 1, t, "shift")
        assert one_sided == pytest.approx(SQRT2 * math.sin(t / 2.0), abs=1e-9)


def test_averaged_modulus_closed_form():
    f = discretize(np.cos, 256, 1)
    for t in (0.5, 1.0, 3.0):
        got = averaged_modulus(f, 1, t, "shift", quad_points=2048)
        want = (2.0 * SQRT2 / t) * (1.0 - math.cos(t / 2.0))
        assert got == pytest.approx(want, abs=1e-6)


def test_averaged_below_one_sided():
    rng = np.random.default_rng(2)
    f = random_smooth(128, 1, rng)
    for sg in ("shift", "heat", "abel"):
        for r in (1, 2):
            w = averaged_modulus(f, r, 0.7, sg)
            om = semigroup_modulus(f, r, 0.7, sg)
            assert w <= om * (1.0 + 1e-10)


def test_heat_semigroup_modulus_oracle():
    f = discretize(np.cos, 64, 1)
    t = 0.8
    got = semigroup_modulus(f, 1, t, "heat")
    assert got == pytest.approx((1.0 - math.exp(-t)) / SQRT2, rel=1e-12, abs=0.0)


def test_modulus_rejects_bad_order(monkeypatch):
    f = discretize(np.cos, 32, 1)
    g = discretize(lambda x, y: np.cos(x + y), 16, 2)
    with pytest.raises(ValueError):
        difference(f, 0.3, 0)
    with pytest.raises(ValueError):
        spectral_semigroup(f, 0.3, "unknown")
    # a negative time or the shift is refused like spectral_semigroup refuses it
    with pytest.raises(ValueError, match="time must be >= 0"):
        semigroup_difference(f, -0.3, "heat")
    with pytest.raises(ValueError, match="unknown semigroup kind 'shift'"):
        semigroup_difference(f, 0.3, "shift")
    # a semigroup is named by its kind alone; a (kind, time) pair is refused
    for modulus_of in (semigroup_modulus, averaged_modulus):
        with pytest.raises(ValueError, match="semigroup kind must be one of"):
            modulus_of(f, 1, 0.5, ("heat", 123.0))
    # every semigroup entry shares the builder's refusals
    for apply in (spectral_semigroup, semigroup_difference):
        with pytest.raises(ValueError, match="semigroup kind must be one of"):
            apply(f, 0.3, "bogus")
        with pytest.raises(ValueError, match="unknown semigroup kind 'shift'"):
            apply(f, 0.3, "shift")
        with pytest.raises(ValueError, match="time must be >= 0"):
            apply(f, -0.3, "abel")
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="must be finite"):
                apply(f, t, "heat")
    # a non-finite step or radius is refused before a multiplier is built
    for apply in (translate, difference):
        with pytest.raises(ValueError, match="must be finite"):
            apply(f, math.inf)
    for t in (math.inf, math.nan, -0.5):
        with pytest.raises(ValueError, match="radius must be >= 0 and finite"):
            spherical_mean(g, t)
    for modulus_of in (semigroup_modulus, averaged_modulus):
        for t in (0.5, 0.0, -1.0):
            with pytest.raises(ValueError, match="semigroup kind must be one of"):
                modulus_of(f, 1, t, "bogus")
        # a finite t <= 0 has no scale, and the modulus there is 0
        assert modulus_of(f, 1, -1.0, "heat") == 0.0
    with pytest.raises(ValueError, match="time must be >= 0"):
        k_delta(f, 1, -0.1)
    # bad arguments fail before any row is evaluated, also at t <= 0 and t not finite
    def no_rows(*args):
        raise AssertionError("a row was evaluated")
    monkeypatch.setattr(ops_module, "_multiplier_norms", no_rows)
    l4 = NormSpec(variant="lp", p=4.0)
    for bad in (lambda: modulus(f, 0, 0.0),
                lambda: semigroup_modulus(f, 1, 0.0, "bogus"),
                lambda: averaged_modulus(f, 1, 0.0, "bogus"),
                lambda: semigroup_modulus(f, 0, -1.0, "heat"),
                lambda: semigroup_modulus(g, 1, 0.0, "shift", direction=(0, 0)),
                lambda: modulus(f, 1, math.inf),
                lambda: modulus(f, 1, -math.inf),
                lambda: modulus(f, 1, math.nan, l4),
                lambda: modulus(g, 1, math.nan),
                lambda: semigroup_modulus(f, 1, math.nan, "heat"),
                lambda: averaged_modulus(f, 1, math.nan, "heat"),
                lambda: k_delta(f, 1, math.nan),
                lambda: k_functional(g, 1, math.nan, route="heat"),
                lambda: k_functional(g, 1, math.nan, route="sphere"),
                lambda: k_functional(f, 1, math.nan),
                lambda: k_functional(f, 1, math.inf)):
        with pytest.raises(ValueError):
            bad()


def test_a_norm_is_a_normspec_or_none(monkeypatch):
    # a bare callable, a bound NormSpec.norm or a name is refused before any row is evaluated,
    # also at t <= 0, where a modulus evaluates no row at all
    def no_rows(*args):
        raise AssertionError("a row was evaluated")
    monkeypatch.setattr(ops_module, "_multiplier_norms", no_rows)
    entries = [lambda g, nrm: best_approx(g, 3, nrm),
               lambda g, nrm: k_delta(g, 1, 0.25, nrm),
               lambda g, nrm: k_delta(g, 1, 0.0, nrm),
               lambda g, nrm: estimate_convexity_constant(nrm, size=g.size, dim=g.dim),
               lambda g, nrm: space_moduli(nrm, size=g.size, dim=g.dim)]
    entries += [lambda g, nrm, route=route: k_functional(g, 1, 0.5, nrm, route)
                for route in ("realization", "heat", "sphere")]
    for t in (0.5, 0.0, -1.0):
        entries += [lambda g, nrm, t=t: modulus(g, 1, t, nrm),
                    lambda g, nrm, t=t: moduli_table(g, [1, 2], [t, 2.0 * t], nrm),
                    lambda g, nrm, t=t: semigroup_modulus(g, 1, t, "heat", nrm),
                    lambda g, nrm, t=t: semigroup_moduli_table(g, [1], [t], "shift", nrm),
                    lambda g, nrm, t=t: averaged_modulus(g, 1, t, "abel", nrm)]
    bad = {"function": lambda g: pytest.fail("the norm was evaluated"),
           "method": NormSpec().norm, "str": "l2"}
    for g in (discretize(np.cos, 32, 1), discretize(lambda x, y: np.cos(x + y), 16, 2)):
        for entry in entries:
            for kind, nrm in bad.items():
                with pytest.raises(TypeError, match=f"a norm is a NormSpec or None, got {kind}$"):
                    entry(g, nrm)
            assert not g._memo


# -- oracle: the complex full-grid multiplier path ------------------------
#
# The operators run on real FFTs with half-grid multipliers.  The oracle
# below is the earlier complex path, ifftn(fftn(f) * m).real with m on the
# full grid, kept here only to pin the real path to it.


def _full_freqs(size):
    return np.fft.fftfreq(size) * size


def _oracle_phase(size, h):
    phase = np.exp(1j * _full_freqs(size) * h)
    phase[size // 2] = math.cos(0.5 * size * h)
    return phase


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("size", [8, 16, 128, 1024, 4096])
def test_axis_phases_match_a_long_double_exponential(dim, size):
    # angle addition is accurate to the rounding of nu*h, as the direct exp(1j*nu*h) is
    rng = np.random.default_rng(size + dim)
    steps = np.concatenate([rng.uniform(-8.0, 8.0, (12, dim)), np.zeros((1, dim)),
                            np.full((1, dim), 1e-9)])
    half, eps = size // 2, np.finfo(float).eps
    phases = ops_module._axis_phases(size, steps)
    assert len(phases) == dim
    for axis, phase in enumerate(phases):
        full = axis < dim - 1
        nu = _full_freqs(size) if full else np.arange(half + 1.0)
        angles = steps[:, axis, None].astype(np.longdouble) * nu.astype(np.longdouble)
        err = np.hypot(phase.real - np.cos(angles), phase.imag - np.sin(angles)).astype(float)
        err[:, half] = 0.0
        assert np.all(err <= 2.0 * eps * (1.0 + np.abs(angles.astype(float))))
        assert np.array_equal(phase[:, half], np.cos(0.5 * size * steps[:, axis]))
        if full:
            assert np.array_equal(phase[:, half + 1:], np.conj(phase[:, half - 1:0:-1]))
    empty = ops_module._axis_phases(size, np.empty((0, dim)))
    assert [p.shape for p in empty] == [(0, size)] * (dim - 1) + [(0, half + 1)]


def _oracle_translate(size, dim, h):
    if dim == 1:
        return _oracle_phase(size, h[0])
    return _oracle_phase(size, h[0])[:, None] * _oracle_phase(size, h[1])[None, :]


def _oracle_radius2(size, dim):
    n = _full_freqs(size)
    if dim == 1:
        return n ** 2
    fx, fy = np.meshgrid(n, n, indexing="ij")
    return fx ** 2 + fy ** 2


def _directional_deriv(f, xi, r):
    """r-th derivative along xi through `ops._apply_multiplier`: a complex half-grid multiplier.

    Odd orders zero out the unpaired Nyquist slots.  For even orders on a 2-d
    grid the Nyquist row pairs nu = (N/2, k) with its mirror (N/2, -k) and
    keeps the even part of the two multipliers, as the real part of the
    complex transform does.
    """
    full, half = ops_module._axis_freqs(f.size)
    nyq = f.size // 2
    if f.dim == 1:
        mult = (1j * half * xi) ** r
        if r % 2 == 1:
            mult[nyq] = 0.0
        return ops_module._apply_multiplier(f, mult)
    x0, x1 = xi
    mult = (1j * (full[:, None] * x0 + half[None, :] * x1)) ** r
    if r % 2 == 1:
        mult[nyq, :] = 0.0
        mult[:, nyq] = 0.0
    else:
        row = (1j * (full[nyq] * x0 + full * x1)) ** r
        mult[nyq] = 0.5 * (row + np.conj(row[-np.arange(f.size) % f.size]))[:nyq + 1]
    return ops_module._apply_multiplier(f, mult)


def _oracle_deriv(size, dim, xi, r):
    n = _full_freqs(size)
    if dim == 1:
        dot = n * xi
        nyq = np.zeros(size, dtype=bool)
        nyq[size // 2] = True
    else:
        fx, fy = np.meshgrid(n, n, indexing="ij")
        dot = fx * xi[0] + fy * xi[1]
        nyq = np.zeros((size, size), dtype=bool)
        nyq[size // 2, :] = True
        nyq[:, size // 2] = True
    mult = (1j * dot) ** r
    return np.where(nyq, 0.0, mult) if r % 2 == 1 else mult


def _oracle_sphere(size, t, quad_points=256):
    acc = np.zeros((size, size), dtype=complex)
    for k in range(quad_points):
        th = 2.0 * math.pi * k / quad_points
        acc += _oracle_translate(size, 2, (t * math.cos(th), t * math.sin(th)))
    return acc / quad_points


def _oracle_apply(f, mult):
    return np.fft.ifftn(np.fft.fftn(f.samples) * mult).real


def _with_nyquist(size, dim, seed):
    """White noise plus explicit cos(N*x/2) components on every axis."""
    rng = np.random.default_rng(seed)
    pts = grid_points(size, dim)
    samples = rng.standard_normal((size,) * dim)
    for x in pts:
        samples = samples + 2.0 * np.cos(0.5 * size * x)
    return GridFunction(samples)


def _assert_close(got, want, rtol=1e-13):
    want = np.asarray(want)
    err = np.max(np.abs(got.samples - want))
    assert err <= rtol * np.max(np.abs(want)), err


@pytest.mark.parametrize("dim,size", [(1, 32), (2, 16)])
def test_real_spectral_path_matches_complex_oracle(dim, size):
    f = _with_nyquist(size, dim, seed=40 + dim)
    r2 = _oracle_radius2(size, dim)
    rad = np.sqrt(r2)
    h = (0.37,) if dim == 1 else (0.37, -0.61)
    step = h[0] if dim == 1 else h
    t_mult = _oracle_translate(size, dim, h)
    _assert_close(translate(f, step), _oracle_apply(f, t_mult))
    for r in (1, 2, 3):
        _assert_close(difference(f, step, r), _oracle_apply(f, (t_mult - 1.0) ** r))
    for t in (0.05, 0.4):
        heat, abel = np.exp(-t * r2), np.exp(-t * rad)
        _assert_close(spectral_semigroup(f, t, "heat"), _oracle_apply(f, heat))
        _assert_close(spectral_semigroup(f, t, "abel"), _oracle_apply(f, abel))
        for r in (1, 2):
            _assert_close(semigroup_difference(f, t, "heat", r),
                          _oracle_apply(f, (heat - 1.0) ** r))
            _assert_close(semigroup_difference(f, t, "abel", r),
                          _oracle_apply(f, (abel - 1.0) ** r))
    for n in (0, 3, 5):
        _assert_close(projection(f, n, "partial_sum"),
                      _oracle_apply(f, (rad <= n + 1e-9).astype(float)))
        ramp = (rad <= 1e-9).astype(float) if n == 0 else np.clip((2.0 * n - rad) / n, 0.0, 1.0)
        _assert_close(projection(f, n, "vallee_poussin"), _oracle_apply(f, ramp))
    for ell in (1, 2):
        _assert_close(laplacian_power(f, ell), _oracle_apply(f, (-r2) ** ell))
    xi = 1.0 if dim == 1 else (0.6, 0.8)
    for r in (1, 2, 3, 4):
        _assert_close(_directional_deriv(f, xi, r),
                      _oracle_apply(f, _oracle_deriv(size, dim, xi, r)))
    if dim == 1:
        for n, ell in ((4, 1), (7, 2)):
            w = cesaro_weights(n, ell)
            k = np.abs(_full_freqs(size)).astype(int)
            mult = np.where(k <= n, w[np.minimum(k, n)], 0.0)
            _assert_close(cesaro(f, n, ell), _oracle_apply(f, mult))
    else:
        t = 0.45
        _assert_close(spherical_mean(f, t, 1), _oracle_apply(f, _oracle_sphere(size, t)))
        two = (-2.0 / 6.0) * (-4.0 * _oracle_sphere(size, t) + _oracle_sphere(size, 2 * t))
        _assert_close(spherical_mean(f, t, 2), _oracle_apply(f, two))


def test_spherical_mean_with_odd_node_count_is_the_real_part_of_the_binomial_rule():
    # 255 nodes are not closed under h -> -h: the complex binomial sum of circle means
    # picks up an imaginary part, and the sine-symbol row is its real part
    size, t, nodes = 64, 2.0, 255
    f = _with_nyquist(size, 2, seed=47)
    for ell in (1, 2, 3):
        means = [_oracle_sphere(size, j * t, nodes) for j in range(1, ell + 1)]
        want = (-2.0 / math.comb(2 * ell, ell)) * sum(
            (-1.0) ** j * math.comb(2 * ell, ell - j) * m for j, m in enumerate(means, 1))
        if ell == 3:
            assert np.max(np.abs(want.imag)) > 1e-3 * np.max(np.abs(want))
        _assert_close(spherical_mean(f, t, ell, quad_points=nodes),
                      _oracle_apply(f, want.real))


def _fresh(f):
    """Same samples, empty memo and spectrum cache."""
    return GridFunction(f.samples)


def _grid_norm(norm, f):
    """`norm`, or for "weighted-l<p>" a weighted L_p norm on f's grid."""
    if not isinstance(norm, str):
        return norm
    return NormSpec(p=float(norm.removeprefix("weighted-l")),
                    weight=1.0 + 0.5 * np.cos(grid_points(f.size, f.dim)[0]))


@pytest.mark.parametrize("norm", [None, NormSpec(variant="lp", p=4.0),
                                  NormSpec(variant="lp", p=math.inf),
                                  NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5)),
                                  NormSpec(variant="orlicz", phi=zygmund(2.0, 0.5)),
                                  "weighted-l2", "weighted-l3", "weighted-l4"])
def test_stacked_moduli_match_per_step_loop(norm):
    # a 2-d stack at N = 128 holds 2 rows: 6 radii x 5 directions is 15 stacks,
    # 7 one-sided points 4 stacks, the last one short
    for f, radii, directions in ((_with_nyquist(256, 1, seed=3), 40, 1),
                                 (_with_nyquist(128, 2, seed=4), 6, 5)):
        spec = _grid_norm(norm, f)
        nfun = (lambda g: lp_norm(g, 2.0)) if spec is None else spec.norm
        t, points = 0.8, 40 if f.dim == 1 else 7
        for r in (1, 2):
            # the step grids of `modulus` and `semigroup_modulus`, rounded as they round them
            rad = t * (np.arange(1, radii + 1) / radii)
            if f.dim == 1:
                steps = [s * rho for rho in rad for s in (1.0, -1.0)]
            else:
                angles = 2.0 * np.pi * np.arange(directions) / directions
                steps = [(rho * math.cos(th), rho * math.sin(th)) for rho in rad for th in angles]
            want = max(nfun(difference(f, h, r)) for h in steps)
            got = modulus(_fresh(f), r, t, spec, directions=directions, radii=radii)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
            us = t * (np.arange(1, points + 1) / points)
            for kind in ("shift", "heat", "abel"):
                def one(u, kind=kind):
                    if kind != "shift":
                        return semigroup_difference(f, u, kind, r)
                    return difference(f, u if f.dim == 1 else (u, 0.0), r)

                want = max(nfun(one(u)) for u in us)
                got = semigroup_modulus(_fresh(f), r, t, kind, spec, points=points)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def _modulus_steps(dim, t, radii, directions, even):
    """The steps of `modulus` at t, rounded as it rounds them; `even`: the L2 halving."""
    if not t > 0.0:
        return []
    rad = t * (np.arange(1, radii + 1) / radii)
    if dim == 1:
        return [[s * rho] for rho in rad for s in ((1.0,) if even else (1.0, -1.0))]
    count = directions // 2 if even and directions % 2 == 0 else directions
    angles = 2.0 * np.pi * np.arange(count) / directions
    return [(rho * math.cos(th), rho * math.sin(th)) for rho in rad for th in angles]


# dyadic t, non-dyadic t and t <= 0
_TABLE_TS = [0.5, 0.25, 0.125, 2.0 ** -5, 0.3, 0.15, 0.7, 0.0, -0.5]


def _per_step_sup(f, kind, r, rows, norm=None):
    """max(0, norms of (T(u) - I)^r f), one `_difference_norms` call per row u."""
    return max([0.0, *(_difference_norms([f], kind, [r], np.array([u]), norm)[0][r][0]
                       for u in rows)])


@pytest.mark.parametrize("dim,size", [(1, 64), (2, 16)])
@pytest.mark.parametrize("norm", [None, NormSpec(variant="lp", p=3.0),
                                  NormSpec(variant="lp", p=4.0),
                                  NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5))],
                         ids=["l2", "l3", "l4", "luxemburg"])
def test_moduli_tables_equal_the_per_step_loop(dim, size, norm):
    # dyadic t share steps, 0.3 and 0.15 share theirs with each other only, and
    # 0.7 with none; t <= 0 has no step and a modulus of 0.  The 2-d L2 modulus
    # with 4 directions is taken by projection, which rounds differently: see
    # test_projected_moduli_match_the_per_step_loop
    f = _with_nyquist(size, dim, seed=110 + dim)
    ts = _TABLE_TS
    radii, points = 6, 5
    even = norm is None
    for r in (1, 2, 3):
        cells = {(o, t) for o in (r, r + 1) for t in ts}
        for directions in ((64,) if dim == 1 else (5,) if even else (4, 5)):
            table = moduli_table(_fresh(f), [r, r + 1], ts, norm, directions, radii)
            assert set(table) == cells
            for (o, t), value in table.items():
                steps = _modulus_steps(dim, t, radii, directions, even)
                assert value == _per_step_sup(f, "shift", o, steps, norm)
                if t <= 0.0:
                    assert value == 0.0
        for kind in ("shift", "heat", "abel"):
            table = semigroup_moduli_table(_fresh(f), [r + 1, r], ts, kind, norm, points)
            assert set(table) == cells
            for (o, t), value in table.items():
                us = t * (np.arange(1, points + 1) / points) if t > 0.0 else []
                rows = [u if kind != "shift" or dim == 1 else (u, 0.0) for u in us]
                assert value == _per_step_sup(f, kind, o, rows, norm)


@pytest.mark.parametrize("size", [16, 64])
def test_projected_moduli_match_the_per_step_loop(size):
    # 2-d L2 with a direction count dividing 8 samples lattice directions only,
    # which the table evaluates by projection; the per-step loop is the oracle
    f = _with_nyquist(size, 2, seed=120)
    radii = 6
    for r in (1, 2, 3):
        for directions in (1, 2, 4, 8):
            table = moduli_table(_fresh(f), [r, r + 1], _TABLE_TS, None, directions, radii)
            assert set(table) == {(o, t) for o in (r, r + 1) for t in _TABLE_TS}
            for (o, t), value in table.items():
                want = _per_step_sup(f, "shift", o, _modulus_steps(2, t, radii, directions, True))
                if t <= 0.0:
                    assert value == 0.0
                else:
                    assert value == pytest.approx(want, rel=1e-13, abs=0.0)


def test_only_lattice_directions_under_unweighted_l2_take_the_projection(monkeypatch):
    symbols = []
    real = ops_module._shift_symbol
    monkeypatch.setattr(ops_module, "_shift_symbol",
                        lambda *args: symbols.append(args) or real(*args))
    calls = _count_ffts(monkeypatch)
    f = _with_nyquist(32, 2, seed=121)
    ts = [0.5, 0.25, 0.3]
    moduli_table(_fresh(f), [1, 2], ts, None, directions=8, radii=4)
    assert symbols == [] and calls == []
    moduli_table(_fresh(f), [1, 2], ts, _grid_norm("weighted-l2", f), directions=8, radii=4)
    assert symbols == [] and calls
    calls.clear()
    moduli_table(_fresh(f), [1, 2], ts, None, directions=5, radii=4)
    assert symbols and calls == []


def test_jackson_14_builds_each_step_once_for_both_orders(monkeypatch):
    # 8 dyadic t with 64 radii have 288 distinct radii, 576 signed steps under L4:
    # 18 stacks of 32, and one inverse FFT per stack for each of the orders 1 and 2
    f = random_smooth(1024, 1, np.random.default_rng(5))
    calls = _count_ffts(monkeypatch)
    run_check("jackson-1.4", {"f": f, "norm": {"norm": "lp", "p": 4.0}, "r": 1,
                              "n_range": [1, 8]})
    assert calls == ["irfft"] * 36


def _young_specs(size, dim, phi=None):
    """Luxemburg and Orlicz norms of phi (default the Zygmund function), unweighted and weighted."""
    weight = 1.0 + 0.5 * np.cos(grid_points(size, dim)[0])
    phi = zygmund(2.0, 0.5) if phi is None else phi
    return [NormSpec(variant=v, phi=phi, weight=w)
            for v in ("luxemburg", "orlicz") for w in (None, weight)]


def _even(size, dim):
    """An even function: the steps h and -h give mirrored rows with equal norms."""
    pts = grid_points(size, dim)
    x = pts[0] if dim == 1 else pts[0] + 2.0 * pts[1]
    return GridFunction(np.cos(x) + 0.4 * np.cos(3.0 * x) + 0.3 * np.abs(np.sin(x)))


# Young functions of every power index the pruning reads (`YoungFunction.power_index`):
# q = 2 (zygmund), 3, 1.5 (two_power), and 1 for a patched and a conjugate phi
_PRUNED_PHIS = {"zygmund": lambda: zygmund(2.0, 0.5), "power": lambda: power(3.0),
                "two_power": lambda: two_power(1.5, 3.0),
                "patched": lambda: patch(zygmund(2.0, 0.5), 3.0, 0.2, 5.0).phi,
                "conjugate": lambda: complementary(power(3.0))}


# Zygmund: 1-d at N = 1024: 32 rows per stack, 96 two-sided steps (3 stacks), 80 times
# (3 stacks, the last short); 2-d at N = 64: 8 rows per stack, 48 steps, 20 times.
# The others on small grids: 1-d at N = 64, 24 steps and 12 times in one stack each;
# 2-d at N = 16, 30 steps and 8 times; a conjugate phi costs a root search a call, so
# 12 steps and 6 times at N = 32 and 12 steps and 4 times at N = 8
_SMALL = {1: (1, 64, 12, 1, 12), 2: (2, 16, 5, 6, 8)}
_SMALLER = {1: (1, 32, 6, 1, 6), 2: (2, 8, 3, 4, 4)}


@pytest.mark.parametrize("phi,dim,size,radii,directions,points",
                         # the zygmund cases keep their ids from before the other phi
                         [pytest.param("zygmund", 1, 1024, 48, 1, 80, id="1-1024-48-1-80"),
                          pytest.param("zygmund", 2, 64, 6, 8, 20, id="2-64-6-8-20")]
                         + [(name, *_SMALL[dim]) for name in ("power", "two_power", "patched")
                            for dim in (1, 2)]
                         + [("conjugate", *_SMALLER[dim]) for dim in (1, 2)])
def test_pruned_young_moduli_equal_the_per_row_max(phi, dim, size, radii, directions, points):
    # the radii and times exactly as the moduli build them
    t = 0.7
    rad = t * (np.arange(1, radii + 1) / radii)
    if dim == 1:
        steps = [s * rho for rho in rad for s in (1.0, -1.0)]
    else:
        angles = 2.0 * np.pi * np.arange(directions) / directions
        steps = [(rho * math.cos(th), rho * math.sin(th)) for rho in rad for th in angles]
    us = t * (np.arange(1, points + 1) / points)
    specs = _young_specs(size, dim, _PRUNED_PHIS[phi]())
    for f in (_even(size, dim), random_smooth(size, dim, np.random.default_rng(90 + dim))):
        for spec in specs:
            for r in (1, 2):
                want = max([0.0, *(spec.norm(difference(f, h, r)) for h in steps)])
                got = modulus(_fresh(f), r, t, spec, directions=directions, radii=radii)
                assert got == want
                for kind in ("shift", "heat", "abel"):
                    def one(u, kind=kind):
                        if kind != "shift":
                            return semigroup_difference(f, u, kind, r)
                        return difference(f, u if dim == 1 else (u, 0.0), r)

                    want = max([0.0, *(spec.norm(one(u)) for u in us)])
                    assert semigroup_modulus(_fresh(f), r, t, kind, spec, points=points) == want


def test_pruned_luxemburg_moduli_solve_few_rows(monkeypatch):
    # 16 moduli of 128 two-sided steps each: a solve per row would be 2,048
    calls = []
    solve = grid_module._luxemburg

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(grid_module, "_luxemburg", counted)
    f = random_smooth(1024, 1, np.random.default_rng(2024))
    spec = NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5))
    for r in (1, 2):
        for j in range(1, 9):
            modulus(f, r, 2.0 ** -j, spec)
    assert 0 < len(calls) <= 128


@pytest.mark.parametrize("dim,size", [(1, 16), (2, 8)])
def test_a_modulus_at_t_zero_checks_its_weight(dim, size):
    # t = 0 leaves no step to evaluate; the weight is checked against the grid all the same
    f = random_smooth(size, dim, np.random.default_rng(60 + dim))
    nan = np.ones(f.samples.shape)
    nan.flat[3] = np.nan
    for weight, message in ((np.ones(5), "weight shape"), (nan, "weight samples must be finite"),
                            (-np.ones(f.samples.shape), "weight must be strictly positive")):
        for spec in (NormSpec(p=4.0, weight=weight), NormSpec(p=2.0, weight=weight),
                     NormSpec("luxemburg", phi=zygmund(2.0, 0.5), weight=weight)):
            calls = [lambda: modulus(f, 1, 0.0, spec, directions=4, radii=4)]
            calls += [lambda kind=kind: semigroup_modulus(f, 2, 0.0, kind, spec, points=4)
                      for kind in ("shift", "heat", "abel")]
            for call in calls:
                with pytest.raises(ValueError, match=message):
                    call()
    spec = NormSpec(p=4.0, weight=np.full(f.samples.shape, 2.0))
    assert modulus(f, 1, 0.0, spec, directions=4, radii=4) == 0.0
    assert semigroup_modulus(f, 2, 0.0, "heat", spec, points=4) == 0.0


def test_pruned_sup_of_a_constant_is_zero():
    f = GridFunction(np.full(64, 0.25))
    for spec in _young_specs(64, 1):
        assert modulus(f, 1, 0.5, spec) == 0.0
        assert semigroup_modulus(f, 2, 0.5, "heat", spec) == 0.0


# dyadic t, the t_grid 0.25..3 (1 shares steps with 3 and 2 with 3, not dyadically),
# a duplicate and t <= 0, in no order
_YOUNG_TS = [0.5, 3.0, 0.125, 0.25, 2.0, 0.0625, 1.0, 0.25, 0.0, -0.5]


@pytest.mark.parametrize("dim,size,directions", [(1, 64, 1), (2, 16, 5), (2, 16, 6)])
def test_young_tables_equal_the_one_cell_moduli(dim, size, directions):
    # a one-cell call has no smaller t to take a bound from, so it is the oracle
    radii, points = 6, 5
    fs = (_even(size, dim), random_smooth(size, dim, np.random.default_rng(130 + dim)))
    for f in fs:
        for spec in _young_specs(size, dim):
            for r in (1, 2):
                cells = {(o, t) for o in (r, r + 1) for t in _YOUNG_TS}
                table = moduli_table(_fresh(f), [r, r + 1], _YOUNG_TS, spec, directions, radii)
                assert set(table) == cells
                for (o, t), value in table.items():
                    assert value == modulus(_fresh(f), o, t, spec, directions, radii)
                    if t <= 0.0:
                        assert value == 0.0
                for kind in ("shift", "heat", "abel"):
                    table = semigroup_moduli_table(_fresh(f), [r, r + 1], _YOUNG_TS, kind, spec,
                                                   points)
                    assert set(table) == cells
                    for (o, t), value in table.items():
                        assert value == semigroup_modulus(_fresh(f), o, t, kind, spec, points)


def _count_fallbacks(monkeypatch):
    """The scale lists a Young table evaluates: one per t, plus one per t whose old steps it needs."""
    calls = []
    real = ops_module._difference_norms

    def counted(fs, kind, orders, us, *args, **kwargs):
        calls.append(len(us))
        return real(fs, kind, orders, us, *args, **kwargs)

    monkeypatch.setattr(ops_module, "_difference_norms", counted)
    return calls


def test_young_table_evaluates_old_steps_where_one_holds_the_max(monkeypatch):
    # |Delta_h cos(13 x)| peaks at h = pi/13 < 1/4: the max at t = 1/2 is a step
    # of t = 1/4, and the steps in (1/4, 1/2] stay below it
    x = grid_points(256, 1)[0]
    f = GridFunction(np.cos(13.0 * x) + 0.1 * np.sin(3.0 * x))
    ts = [0.5, 0.25]
    calls = _count_fallbacks(monkeypatch)
    for spec in _young_specs(256, 1):
        calls.clear()
        table = moduli_table(_fresh(f), [1], ts, spec)
        # 64 two-sided steps of 1/4, then the 32 new ones of 1/2 and its 32 old ones
        assert calls == [128, 64, 64]
        assert table[(1, 0.5)] == table[(1, 0.25)] > 0.0
        for t in ts:
            assert table[(1, t)] == modulus(_fresh(f), 1, t, spec)
        table = semigroup_moduli_table(_fresh(f), [1], ts, "shift", spec)
        assert table[(1, 0.5)] == semigroup_modulus(_fresh(f), 1, 0.5, "shift", spec)
    g = random_smooth(256, 1, np.random.default_rng(131))
    ts = [2.0 ** -j for j in range(1, 9)]
    for spec in _young_specs(256, 1):
        for kind in ("shift", "heat", "abel"):
            calls.clear()
            semigroup_moduli_table(g, [1, 2], ts, kind, spec)
            assert len(calls) == len(ts)
        calls.clear()
        moduli_table(g, [1, 2], ts, spec)
        assert len(calls) == len(ts)


def test_luxemburg_jackson_14_evaluates_each_step_once(monkeypatch):
    # orlicz-1d's jackson-1.4 (N = 1024, seed 2024, checks[0]): 8 dyadic t with 64 radii
    # have 288 distinct radii, 576 two-sided steps, each evaluated once for orders 1 and 2
    rows, solves = [], []
    young_sup, solve = ops_module._young_stack_sup, grid_module._luxemburg

    def counted_sup(block, *args):
        rows.append(len(block))
        return young_sup(block, *args)

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ops_module, "_young_stack_sup", counted_sup)
    monkeypatch.setattr(grid_module, "_luxemburg", counted_solve)
    norm = {"norm": "luxemburg", "phi": {"kind": "zygmund", "params": [2.0, 0.5]}}
    config = {"checks": [{"id": "jackson-1.4", "params": {"norm": norm, "family": ["random"]}}],
              "N": 1024, "seed": 2024}
    (cid, params), = cli_module._validate(config)[0]
    calls = _count_ffts(monkeypatch)
    run_check(cid, params)
    assert sum(rows) == 1152
    assert calls.count("irfft") == 36
    assert 0 < len(solves) <= 25


def test_luxemburg_jackson_14_filters_with_one_phi_value_a_row(monkeypatch):
    # orlicz-1d's jackson-1.4 (N = 1024, seed 2024, checks[0]): the exact modular filter
    # alone evaluated phi at 1,163,264 points inside _young_stack_sup, for 25 solves; the
    # power-index bound leaves it about 151,000 and the same 25 solves
    inside, points, solves = [False], [], []
    young_sup, solve = ops_module._young_stack_sup, grid_module._luxemburg
    call = YoungFunction.__call__

    def counted_sup(*args):
        inside[0] = True
        try:
            return young_sup(*args)
        finally:
            inside[0] = False

    def counted_solve(*args):
        # a level solve is not the filter: its phi points are not counted
        solves.append(1)
        was, inside[0] = inside[0], False
        try:
            return solve(*args)
        finally:
            inside[0] = was

    def counted_call(self, x):
        if inside[0]:
            points.append(np.size(x))
        return call(self, x)

    monkeypatch.setattr(ops_module, "_young_stack_sup", counted_sup)
    monkeypatch.setattr(grid_module, "_luxemburg", counted_solve)
    monkeypatch.setattr(YoungFunction, "__call__", counted_call)
    norm = {"norm": "luxemburg", "phi": {"kind": "zygmund", "params": [2.0, 0.5]}}
    config = {"checks": [{"id": "jackson-1.4", "params": {"norm": norm, "family": ["random"]}}],
              "N": 1024, "seed": 2024}
    (cid, params), = cli_module._validate(config)[0]
    run_check(cid, params)
    assert 0 < sum(points) <= 1_163_264 // 4
    assert len(solves) == 25


@pytest.mark.parametrize("dim,size", [(1, 4096), (2, 64)])
def test_a_step_norm_does_not_depend_on_its_stack(dim, size):
    # 8 rows per stack at both sizes; 20 steps fill three stacks, the last one short
    f = _with_nyquist(size, dim, seed=80 + dim)
    us = np.linspace(-0.9, 1.1, 20)
    shifts = us[:, None] if dim == 1 else np.stack([us, 0.7 * us[::-1]], axis=1)
    for norm in (None, NormSpec(variant="lp", p=4.0),
                 NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5))):
        for kind, steps in (("shift", shifts), ("heat", np.abs(us)), ("abel", np.abs(us))):
            stacked = _difference_norms([f], kind, [2], steps, norm)[0][2]
            alone = [_difference_norms([f], kind, [2], steps[i:i + 1], norm)[0][2][0]
                     for i in range(len(us))]
            assert stacked == alone
            assert _difference_norms([f], kind, [2], steps[::-1], norm)[0][2] == stacked[::-1]
            # the sup walks the stacks from last to first and equals the max of the rows
            for order in (steps, steps[::-1]):
                (sup,) = _difference_norms([f], kind, [2], order, norm, sup=True)
                assert sup == {2: max([0.0, *stacked])}
        if dim == 2:
            # shift lengths along a direction are the steps of that unit vector
            along = _difference_norms([f], "shift", [2], us, norm, direction=(1, 2))
            steps = np.outer(us, (1, 2)) / math.hypot(1, 2)
            assert along == _difference_norms([f], "shift", [2], steps, norm)


def test_stacked_scan_spans_several_stacks():
    # 2**15 samples per stack at N = 4096 is 8 rows; 64 radii x 2 signs is 16 stacks
    f = random_smooth(4096, 1, np.random.default_rng(8))
    rad = 0.3 * np.arange(1, 65) / 64
    want = max(lp_norm(difference(f, s * rho, 2), 2.0) for rho in rad for s in (1.0, -1.0))
    assert modulus(f, 2, 0.3) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_memo_keys_keep_quantities_apart():
    f = random_smooth(128, 1, np.random.default_rng(11))
    w = 1.0 + 0.5 * np.cos(grid_points(128, 1)[0])
    l2, l4 = NormSpec(variant="lp", p=2.0), NormSpec(variant="lp", p=4.0)
    l2w = NormSpec(variant="lp", p=2.0, weight=w)
    calls = [
        lambda g, nrm, r, t: modulus(g, r, t, nrm),
        lambda g, nrm, r, t: semigroup_modulus(g, r, t, "heat", nrm),
        lambda g, nrm, r, t: k_functional(g, r, t, nrm).value,
        lambda g, nrm, r, t: k_delta(g, r, t, nrm),
    ]
    variants = [(l2, 1, 0.3), (l4, 1, 0.3), (l2w, 1, 0.3), (l2, 2, 0.3), (l2, 1, 0.6)]
    # the moduli and k_delta keep no memo; k_functional's realization adds its
    # rest and smooth rows per degree: (l2, ell 1) degrees 0, 4, 8 fill 6 rows, so
    # do l4 and weighted l2; ell 2 shares the 3 rest rows and t = 0.6 (degrees
    # 0, 2, 4) adds the rest and smooth rows of degree 2
    entries = [0, 0, 6 + 6 + 6 + 3 + 2, 0]
    for call, added in zip(calls, entries):
        before = len(f._memo)
        # every variant on the shared f (memo filling up) equals a fresh evaluation
        shared = [call(f, nrm, r, t) for nrm, r, t in variants]
        fresh = [call(_fresh(f), nrm, r, t) for nrm, r, t in variants]
        assert shared == fresh
        assert len(set(shared)) == len(variants)
        # a repeat gives the same value
        assert [call(f, nrm, r, t) for nrm, r, t in variants] == shared
        assert len(f._memo) - before == added


def test_one_dimensional_moduli_share_an_entry_across_directions():
    f = random_smooth(64, 1, np.random.default_rng(11))
    assert modulus(f, 1, 0.5, directions=3) == modulus(f, 1, 0.5, directions=64)


def test_spectrum_is_cached_and_read_only():
    f = random_smooth(64, 2, np.random.default_rng(13))
    spec = f.spectrum()
    assert spec is f.spectrum()
    assert spec.shape == (64, 33)
    assert not spec.flags.writeable
    assert np.allclose(spec, np.fft.fftn(f.samples)[:, :33], atol=1e-12)


# -- the Parseval path of the unweighted L2 moduli --------------------------


def _l2_of(kind, f, u, r):
    if kind == "shift":
        return lp_norm(difference(f, u, r), 2.0)
    return lp_norm(semigroup_difference(f, u, kind, r), 2.0)


@pytest.mark.parametrize("dim,size", [(1, 32), (2, 16)])
def test_parseval_moduli_match_inverse_fft_oracle(dim, size):
    f = _with_nyquist(size, dim, seed=50 + dim)
    t, radii = 1.3, 12
    rad = t * np.arange(1, radii + 1) / radii
    mids = t * (np.arange(radii) + 0.5) / radii
    direction = (0.6, 0.8)
    for r in (1, 2, 3):
        for directions in (5, 6):
            if dim == 1:
                steps = [s * rho for rho in rad for s in (1.0, -1.0)]
            else:
                angles = 2.0 * np.pi * np.arange(directions) / directions
                steps = [(rho * math.cos(th), rho * math.sin(th)) for rho in rad for th in angles]
            want = max(_l2_of("shift", f, h, r) for h in steps)
            got = modulus(_fresh(f), r, t, directions=directions, radii=radii)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        for kind in ("shift", "heat", "abel"):
            def at(u, kind=kind):
                if kind == "shift" and dim == 2:
                    return _l2_of(kind, f, (u * direction[0], u * direction[1]), r)
                return _l2_of(kind, f, float(u), r)

            got = semigroup_modulus(_fresh(f), r, t, kind, points=radii, direction=direction)
            assert got == pytest.approx(max(at(u) for u in rad), rel=1e-13, abs=0.0)
            got = averaged_modulus(_fresh(f), r, t, kind, quad_points=radii, direction=direction)
            assert got == pytest.approx(np.mean([at(u) for u in mids]), rel=1e-13, abs=0.0)


def _count_ffts(monkeypatch, names=("irfft", "irfftn")):
    calls = []
    for name in names:
        real = getattr(np.fft, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("dim,size", [(1, 64), (2, 16)])
def test_only_the_unweighted_l2_norm_skips_the_inverse_fft(dim, size, monkeypatch):
    calls = _count_ffts(monkeypatch)
    f = _with_nyquist(size, dim, seed=60 + dim)
    weight = 1.0 + 0.5 * np.cos(grid_points(size, dim)[0])
    quantities = [
        lambda g, nrm: modulus(g, 2, 0.5, nrm, directions=4, radii=4),
        lambda g, nrm: semigroup_modulus(g, 2, 0.5, "heat", nrm, points=4),
        lambda g, nrm: averaged_modulus(g, 2, 0.5, "abel", nrm, quad_points=4),
    ]
    for quantity in quantities:
        for nrm in (None, NormSpec()):
            g = _fresh(f)
            quantity(g, nrm)
            assert calls == [] and g._parseval is not None
        for nrm in (NormSpec(weight=weight), NormSpec(variant="lp", p=4.0),
                    NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5))):
            g = _fresh(f)
            quantity(g, nrm)
            assert calls and g._parseval is None
            calls.clear()


def test_parseval_weights_sum_to_the_mean_square():
    for dim, size in ((1, 32), (2, 16)):
        f = _with_nyquist(size, dim, seed=70 + dim)
        weights = f.parseval_weights()
        assert weights is f.parseval_weights()
        assert not weights.flags.writeable
        assert weights.shape == f.spectrum().shape
        assert np.sum(weights) == pytest.approx(np.mean(f.samples ** 2), rel=1e-14, abs=0.0)


# -- best-approximation errors and K-functionals as multiplier rows ---------
#
# The oracle is the chain these quantities once ran: build the projection,
# subtract it in sample space, transform it again for the Laplacian, then take
# the norms.


def _chain_best_approx(f, n, nfun):
    candidates = [projection(f, n, "partial_sum")]
    if n >= 2:
        candidates.append(projection(f, n // 2, "vallee_poussin"))
    return min(nfun(f - g) for g in candidates)


def _chain_realization(f, ell, t, nfun):
    n0 = max(1, math.ceil(1.0 / t - 1e-9))
    vals = [nfun(f - GridFunction(np.full_like(f.samples, np.mean(f.samples))))]
    for n in (n0, 2 * n0):
        p = projection(f, n, "vallee_poussin")
        vals.append(nfun(f - p) + t ** (2 * ell) * nfun(laplacian_power(p, ell)))
    return min(vals)


def _chain_sphere(f, ell, t, nfun):
    return nfun(spherical_mean(f, t, ell) - f)


@pytest.mark.parametrize("dim,size", [(1, 32), (2, 16)])
@pytest.mark.parametrize("norm", [None, NormSpec(variant="lp", p=4.0), "weighted-l2",
                                  NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5)),
                                  NormSpec(variant="orlicz", phi=zygmund(2.0, 0.5))],
                         ids=["l2", "l4", "weighted-l2", "luxemburg", "orlicz"])
def test_approx_rows_match_the_projection_chain(dim, size, norm):
    f = _with_nyquist(size, dim, seed=90 + dim)
    spec = _grid_norm(norm, f)
    nfun = (lambda g: lp_norm(g, 2.0)) if spec is None else spec.norm
    pairs = [(best_approx(_fresh(f), n, spec).value, _chain_best_approx(f, n, nfun))
             for n in (0, 1, 3, 6, size // 2)]
    # at small t the chain's own subtraction noise is above 1e-12 of the value;
    # the closed form on cos covers that range
    for ell in (1, 2):
        for t in (1.3, 0.4, 0.1):
            pairs.append((k_functional(_fresh(f), ell, t, spec).value,
                          _chain_realization(f, ell, t, nfun)))
            if dim == 2:
                pairs.append((k_functional(_fresh(f), ell, t, spec, route="sphere").value,
                              _chain_sphere(f, ell, t, nfun)))
    checked = [(got, want) for got, want in pairs if want > 1e-12]
    assert len(checked) >= len(pairs) - 1  # only the error of degree N/2 vanishes
    for got, want in checked:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim,size", [(1, 64), (2, 16)])
def test_approx_rows_take_no_fft_beyond_the_spectrum(dim, size, monkeypatch):
    calls = _count_ffts(monkeypatch, ("rfft", "rfftn", "irfft", "irfftn"))
    f = _with_nyquist(size, dim, seed=100 + dim)
    quantities = [lambda g, nrm: best_approx(g, 5, nrm),
                  lambda g, nrm: k_functional(g, 2, 0.3, nrm)]
    if dim == 2:
        quantities.append(lambda g, nrm: k_functional(g, 2, 0.3, nrm, route="sphere"))
    for quantity in quantities:
        for nrm in (None, NormSpec()):
            g = _fresh(f)
            quantity(g, nrm)
            # the spectrum of f is the one transform
            assert calls == ["rfftn"] and g._parseval is not None
            calls.clear()
    # under L4 the realization runs at most two inverse FFTs per degree, no forward one
    g = _fresh(f)
    k_functional(g, 2, 0.3, NormSpec(variant="lp", p=4.0))
    inverse = [c for c in calls if c.startswith("irfft")]
    assert calls.count("rfftn") == 1 and "rfft" not in calls
    assert 1 <= len(inverse) <= 2 * 3


def test_moduli_reject_empty_sample_counts():
    f = discretize(np.cos, 32, 1)
    for call in (lambda: modulus(f, 1, 0.5, radii=0),
                 lambda: modulus(f, 1, 0.5, directions=0),
                 lambda: modulus(f, 1, 0.5, radii=2.5),
                 lambda: semigroup_modulus(f, 1, 0.5, "heat", points=0),
                 lambda: averaged_modulus(f, 1, 0.5, "heat", quad_points=-3)):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            call()


_COS_2D = discretize(lambda a, b: np.cos(a), 16, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: translate(_COS_2D, 0.5), "scalar step only valid on 1-d grids"),
    (lambda: translate(_COS_2D, (0.5, 0.1, 0.2)), "step has 3 components for a 2-d grid"),
    (lambda: translate(discretize(np.cos, 16, 1), (0.5, 0.1)),
     "step has 2 components for a 1-d grid"),
    (lambda: cesaro_weights(-1, 1), "degree must be an integer >= 0, got -1"),
    (lambda: cesaro_weights(2.5, 1), "degree must be an integer >= 0, got 2.5"),
    (lambda: cesaro_weights(2, True), "order must be an integer >= 1, got True"),
    (lambda: cesaro(discretize(np.cos, 16, 1), 2.5), "degree must be an integer >= 0, got 2.5"),
    (lambda: cesaro(discretize(np.cos, 16, 1), True), "degree must be an integer >= 0, got True"),
    (lambda: cesaro(discretize(np.cos, 16, 1), 2, 1.0), "order must be an integer >= 1, got 1.0"),
    (lambda: cesaro(_COS_2D, 2), "cesaro means are only defined on 1-d grids"),
    (lambda: spherical_mean(discretize(np.cos, 16, 1), 0.5),
     "spherical means are only defined on 2-d grids"),
    # a count or an order is an integer, never a bool or a float
    (lambda: modulus(discretize(np.cos, 16, 1), True, 0.5),
     "difference order must be an integer >= 1, got True"),
    (lambda: difference(discretize(np.cos, 16, 1), 0.3, r=2.0),
     "difference order must be an integer >= 1, got 2.0"),
    (lambda: modulus(discretize(np.cos, 16, 1), 1, 0.5, radii=8.0),
     "radii must be an integer >= 1, got 8.0"),
    (lambda: moduli_table(_COS_2D, [1], [0.5], directions=True),
     "directions must be an integer >= 1, got True"),
    (lambda: semigroup_modulus(discretize(np.cos, 16, 1), 1, 0.5, "heat", points=True),
     "points must be an integer >= 1, got True"),
    (lambda: averaged_modulus(discretize(np.cos, 16, 1), 1, 0.5, "heat", quad_points=8.0),
     "quad_points must be an integer >= 1, got 8.0"),
    (lambda: semigroup_difference(discretize(np.cos, 16, 1), 0.5, "heat", r=1.0),
     "difference order must be an integer >= 1, got 1.0"),
    (lambda: laplacian_power(discretize(np.cos, 16, 1), ell=True),
     "power must be an integer >= 1, got True"),
    (lambda: spherical_mean(_COS_2D, 0.5, ell=2.0), "order must be an integer >= 1, got 2.0"),
    (lambda: spherical_mean(_COS_2D, 0.5, quad_points=True),
     "quad_points must be an integer >= 1, got True"),
])
def test_operator_refusals_name_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
