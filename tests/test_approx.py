"""Best trigonometric approximation, projections, and K-functionals."""

import math

import numpy as np
import pytest

from jacksonlab import (GridFunction, NormSpec, best_approx, degree_below,
                        directional_deriv, discretize, k_delta, k_functional, lp_norm,
                        projection, random_smooth, semigroup_difference, zygmund)
from jacksonlab import approx as approx_module
from jacksonlab import ops as ops_module
from jacksonlab.approx import _row_norm
from jacksonlab.ops import _given, _mode_radius2

SQRT2 = math.sqrt(2.0)


def test_degree_below_strict_cutoff():
    # modes strictly below lambda survive, so lambda = m+ keeps degree m
    assert degree_below(0.5) == 0
    assert degree_below(1.0) == 0
    assert degree_below(1.5) == 1
    assert degree_below(2.0) == 1
    assert degree_below(2.5) == 2
    assert degree_below(8.0) == 7


def test_projection_partial_sum_and_vallee_poussin():
    f = discretize(lambda x: np.cos(x) + 0.25 * np.cos(5.0 * x), 64, 1)
    low = discretize(np.cos, 64, 1)
    ps = projection(f, 2, kind="partial_sum")
    assert np.allclose(ps.samples, low.samples, atol=1e-13)
    # the de la Vallee Poussin window is exact on degrees up to n
    vp = projection(low, 1, kind="vallee_poussin")
    assert np.allclose(vp.samples, low.samples, atol=1e-13)
    with pytest.raises(ValueError):
        projection(f, 2, kind="mystery")


def test_best_approx_l2_oracle():
    f = discretize(lambda x: np.cos(x) + 0.5 * np.cos(5.0 * x), 256, 1)
    # in L2 the partial sum is optimal, so the error is the removed energy
    res = best_approx(f, 3)
    assert res.value == pytest.approx(0.5 / SQRT2, rel=1e-12, abs=0.0)
    assert res.degree == 3
    # f lies in the degree-5 space: the error is 0 up to rounding of an O(1) signal
    assert best_approx(f, 5).value == pytest.approx(0.0, abs=1e-12)
    cos = discretize(np.cos, 256, 1)
    assert best_approx(cos, 0).value == pytest.approx(1.0 / SQRT2, rel=1e-12, abs=0.0)
    # cos has degree 1: only rounding of the unit-size samples is left
    assert best_approx(cos, 1).value == pytest.approx(0.0, abs=1e-12)


def test_best_approx_refine_never_hurts():
    rng = np.random.default_rng(4)
    spec = NormSpec(variant="lp", p=4.0)
    for _ in range(3):
        f = random_smooth(128, 1, rng)
        plain = best_approx(f, 4, spec)
        refined = best_approx(f, 4, spec, refine=True)
        assert refined.value <= plain.value + 1e-12
        assert refined.optimized is not None
    # the Orlicz subgradient takes the Amemiya minimizer k* from the level solve
    for size, dim in ((64, 1), (16, 2)):
        for weighted in (False, True):
            f = random_smooth(size, dim, rng)
            w = 1.0 + 0.5 * rng.uniform(size=f.samples.shape) if weighted else None
            spec = NormSpec(variant="orlicz", phi=zygmund(2.0, 0.5), weight=w)
            plain = best_approx(f, 3, spec)
            refined = best_approx(f, 3, spec, refine=True)
            assert refined.value <= plain.value + 1e-12
            assert refined.optimized is not None
    # the bound norm method is the spec's declarative norm, refined the same way
    for size, dim in ((64, 1), (16, 2)):
        f = random_smooth(size, dim, rng)
        for spec in (NormSpec(variant="lp", p=4.0),
                     NormSpec(variant="orlicz", phi=zygmund(2.0, 0.5))):
            want = best_approx(GridFunction(f.samples), 3, spec, refine=True)
            assert best_approx(f, 3, spec.norm, refine=True) == want
    with pytest.raises(ValueError, match="not a bare callable"):
        best_approx(f, 3, lambda g: lp_norm(g, 4.0), refine=True)


def _count_multiplier_norms(monkeypatch):
    """Calls of `ops._multiplier_norms`, through approx's name for it and through ops."""
    calls = []
    real = ops_module._multiplier_norms

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(approx_module, "_multiplier_norms", counted)
    monkeypatch.setattr(ops_module, "_multiplier_norms", counted)
    return calls


def test_best_approx_is_memoized_without_refine(monkeypatch):
    calls = _count_multiplier_norms(monkeypatch)
    spec = NormSpec(variant="lp", p=4.0)
    f = random_smooth(128, 1, np.random.default_rng(8))
    plain = best_approx(f, 6, spec)
    assert len(calls) == 2  # the partial-sum and the ramped candidate
    # a repeat, also through the bound norm method, reads the memo
    assert best_approx(f, 6, spec) == plain
    assert best_approx(f, 6, spec.norm) == plain
    assert len(calls) == 2
    assert best_approx(f, 6) != plain  # another norm is another entry
    fresh = best_approx(GridFunction(f.samples.copy()), 6, spec)
    assert fresh == plain
    refined = best_approx(f, 6, spec, refine=True, iters=5)
    assert refined is not best_approx(f, 6, spec, refine=True, iters=5)
    assert refined.upper == plain.upper and refined.method == plain.method


def test_directional_derivative_oracle():
    f = discretize(np.cos, 64, 1)
    d1 = directional_deriv(f, r=1)
    assert np.allclose(d1.samples, -discretize(np.sin, 64, 1).samples, atol=1e-11)
    d2 = directional_deriv(f, r=2)
    assert np.allclose(d2.samples, -f.samples, atol=1e-11)
    g = discretize(lambda x, y: np.cos(x + 2.0 * y), 32, 2)
    # derivative along (0, 1) brings down the factor for the second coordinate
    dg = directional_deriv(g, xi=(0.0, 1.0), r=2)
    assert np.allclose(dg.samples, -4.0 * g.samples, atol=1e-10)


def test_k_functional_heat_route_oracle():
    f = discretize(np.cos, 128, 1)
    for t in (0.25, 0.7):
        res = k_functional(f, 1, t, route="heat")
        want = (1.0 - math.exp(-t * t)) / SQRT2
        assert res.value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert res.route == "heat"


def test_k_functional_realization_oracle_on_cos():
    # bands of degree >= 1 keep cos's mode exactly (1 - M is 0 there), leaving
    # t^(2 ell) |lap^ell cos| = t^(2 ell) |cos|.  Once the bands cover the grid
    # (t <= 2/N) the rounding tail of the samples drops out too, and the value is
    # exact to rounding even far below the rounding of |cos| itself.
    f = discretize(np.cos, 128, 1)
    for spec, size in ((None, 1.0 / SQRT2), (NormSpec(variant="lp", p=4.0), 0.375 ** 0.25)):
        for ell in (1, 2):
            for t in (1.0, 0.5, 0.2, 2.0 ** -4, 2.0 ** -6, 2.0 ** -7, 2.0 ** -8):
                res = k_functional(f, ell, t, spec, route="realization")
                rel = 1e-13 if t <= 2.0 / f.size else 1e-10
                assert res.value == pytest.approx(t ** (2 * ell) * size, rel=rel, abs=0.0)
    assert k_functional(f, 1, 0.5).degree >= 1


def test_k_functional_realization_upper_bounds_heat():
    rng = np.random.default_rng(6)
    # both routes are equivalent K-functionals; check two-sided comparability
    for _ in range(3):
        f = random_smooth(128, 1, rng)
        for t in (0.25, 0.5):
            real = k_functional(f, 1, t, route="realization").value
            heat = k_functional(f, 1, t, route="heat").value
            assert real <= 40.0 * heat + 1e-12
            assert heat <= 40.0 * real + 1e-12


def test_k_functional_sphere_route():
    f = discretize(lambda x, y: np.cos(x) * np.cos(y), 32, 2)
    res = k_functional(f, 1, 0.5, route="sphere")
    assert res.value > 0.0
    far = k_functional(f, 1, 2.0, route="sphere")
    assert any("extrapolated" in n for n in far.notes)
    with pytest.raises(ValueError):
        k_functional(discretize(np.cos, 32, 1), 1, 0.5, route="sphere")


def _sphere_row_series(ell, x):
    """V_ell - 1 at a mode of length 1 and radius x by its power series, free of cancellation.

    J0(j x) - 1 = sum_k c_k (j x)^(2k), so V_ell - 1 = (-2/C(2 ell, ell)) sum_k c_k x^(2k) S_k
    with the exact integer moments S_k = sum_{j=1..ell} (-1)^j C(2 ell, ell - j) j^(2k),
    which vanish for k < ell.
    """
    term, total, k = 1.0, 0.0, 0
    while True:
        k += 1
        term *= -(x * x / 4.0) / (k * k)
        moment = sum((-1) ** j * math.comb(2 * ell, ell - j) * j ** (2 * k)
                     for j in range(1, ell + 1))
        step = term * moment
        if k > ell and total + step == total:
            return -2.0 / math.comb(2 * ell, ell) * total
        total += step


def test_k_functional_sphere_route_keeps_digits_at_small_radii():
    # cos(x)cos(y) lives on modes of length sqrt(2), and |cos(x)cos(y)|_2 = 1/2
    f = discretize(lambda x, y: np.cos(x) * np.cos(y), 16, 2)
    for ell in (1, 2, 3):
        for t in (2.0 ** -6, 2.0 ** -8, 2.0 ** -10):
            want = -0.5 * _sphere_row_series(ell, SQRT2 * t)
            got = k_functional(f, ell, t, route="sphere").value
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_k_delta_matches_heat_difference():
    f = discretize(np.cos, 64, 1)
    got = k_delta(f, 2, 0.3)
    want = (1.0 - math.exp(-0.3)) ** 2 / SQRT2
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_k_functional_heat_route_is_k_delta():
    spec = NormSpec(variant="lp", p=4.0)
    rng = np.random.default_rng(9)
    for k in range(60):
        f = random_smooth(32, 1 + k % 2, rng)
        # the heat route is k_delta at time t^2 by construction
        want = k_delta(GridFunction(f.samples.copy()), 2, 0.6 * 0.6, spec)
        assert k_functional(f, 2, 0.6, spec, route="heat").value == want
        # the stacked row reduction (L4) and the Parseval sum (L2) agree with the
        # sample-space norm of the difference to rounding
        for norm, p in ((spec, 4.0), (None, 2.0)):
            direct = lp_norm(semigroup_difference(f, 0.6 * 0.6, "heat", 2), p)
            assert k_delta(f, 2, 0.6 * 0.6, norm) == pytest.approx(direct, rel=1e-14, abs=0.0)


def test_k_functional_vanishes_iff_constant():
    const = discretize(lambda x: 0.0 * x + 2.5, 64, 1)
    # a constant is its own smoothing: only rounding of the samples (2.5) is left
    assert k_functional(const, 1, 0.5).value == pytest.approx(0.0, abs=1e-13)
    f = discretize(np.cos, 64, 1)
    assert k_functional(f, 1, 0.5).value > 1e-3


@pytest.mark.parametrize("dim,size", [(1, 64), (2, 16)])
def test_k_functional_rows_are_keyed_by_degree_radius_and_time(dim, size, monkeypatch):
    calls = _count_multiplier_norms(monkeypatch)
    g = random_smooth(size, dim, np.random.default_rng(20 + dim))
    first = k_functional(g, 1, 0.3)
    assert len(g._memo) == 6 and len(calls) == 6  # rest and smooth rows of degrees 0, 4, 8
    # t = 0.27 has the same degrees (n0 = 4): no new row
    k_functional(g, 1, 0.27)
    assert len(g._memo) == 6 and len(calls) == 6
    assert k_functional(g, 1, 0.3) == first
    # best_approx(g, 8) reads the ramped row of degree 4 and adds its partial sum
    best_approx(g, 8)
    assert len(g._memo) == 7 and len(calls) == 7
    # the heat route at t is k_delta at t^2, which keeps no entry
    heat = k_functional(g, 2, 0.3, route="heat")
    assert k_delta(g, 2, 0.3 * 0.3) == heat.value
    assert len(g._memo) == 7
    if dim == 2:
        # the sphere row depends on its radius only, and each scale reads it once: no entry
        sphere = k_functional(g, 1, 0.3, route="sphere")
        assert len(g._memo) == 7
        assert k_functional(g, 1, 0.3, route="sphere") == sphere
        assert len(g._memo) == 7


@pytest.mark.parametrize("dim,size", [(1, 64), (2, 16)])
@pytest.mark.parametrize("norm", [None, NormSpec(variant="lp", p=4.0),
                                  NormSpec(variant="luxemburg", phi=zygmund(2.0, 0.5))],
                         ids=["l2", "l4", "luxemburg"])
def test_realization_rows_equal_their_stacked_evaluation(dim, size, norm):
    # the six rows alone equal one stacked evaluation, and the K-functional is
    # min over degrees of rest + t^(2 ell) smooth as one vectorized expression
    f = random_smooth(size, dim, np.random.default_rng(30 + dim))
    ell, t, degrees = 2, 0.3, (0, 4, 8)
    bands = np.stack([approx_module._band(f, n, "vallee_poussin") for n in degrees])
    rows = np.concatenate([1.0 - bands, bands * (-_mode_radius2(size, dim)) ** ell])
    stacked = ops_module._multiplier_norms(f, rows, _given, norm)
    g = GridFunction(f.samples)
    alone = ([_row_norm(g, ("rest", "vallee_poussin", n), norm) for n in degrees]
             + [_row_norm(g, ("smooth", n, ell), norm) for n in degrees])
    assert alone == stacked
    vals = np.array(stacked[:3]) + t ** (2 * ell) * np.array(stacked[3:])
    res = k_functional(g, ell, t, norm)
    assert res.value == float(vals.min())
    assert res.degree == degrees[int(np.argmin(vals))]
