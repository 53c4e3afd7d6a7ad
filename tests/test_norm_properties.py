"""Property tests of the three norm variants and of the smoothing operators.

Norms: homogeneity, triangle inequality, the Luxemburg/Orlicz sandwich.
Operators: heat, Abel and Cesaro smoothing contract in L_p and Luxemburg
norms, and the semigroup laws H(s)H(t) = H(s+t) (heat), P(s)P(t) = P(s+t)
(Abel) and T(a)T(b) = T(a+b) (shift, on inputs without Nyquist content).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacksonlab import (GridFunction, NormSpec, cesaro, power, spectral_semigroup,
                        translate, two_power, zygmund)

N = 16

# derandomized: the examples are the same on every run, and nothing is stored
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

samples = st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
                   min_size=N, max_size=N).map(np.array)
nonzero_samples = samples.filter(lambda a: np.max(np.abs(a)) > 1e-6)
scalars = st.floats(1e-3, 1e3, allow_subnormal=False) | st.floats(-1e3, -1e-3,
                                                                    allow_subnormal=False)

YOUNG = {"power": power(2.5), "zygmund": zygmund(2.0, 0.5), "two_power": two_power(1.5, 3.0)}
SPECS = ([NormSpec(variant="lp", p=p) for p in (1.0, 2.0, 3.5, np.inf)]
         + [NormSpec(variant=v, phi=phi) for v in ("luxemburg", "orlicz")
            for phi in YOUNG.values()])


def spec_id(spec):
    return f"L{spec.p:g}" if spec.variant == "lp" else f"{spec.variant}:{spec.phi.kind}"


SPEC_IDS = [spec_id(spec) for spec in SPECS]
# every norm, the Amemiya infimum by its level solve included, is exact to rounding
SLACK = {"lp": 1e-12, "luxemburg": 1e-12, "orlicz": 1e-12}


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@PROPERTY
@given(a=samples, c=scalars)
def test_positive_homogeneity(spec, a, c):
    f = GridFunction(a)
    assert spec.norm(c * f) == pytest.approx(abs(c) * spec.norm(f),
                                             rel=SLACK[spec.variant], abs=0.0)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@PROPERTY
@given(a=samples, b=samples)
def test_triangle_inequality(spec, a, b):
    f, g = GridFunction(a), GridFunction(b)
    bound = spec.norm(f) + spec.norm(g)
    assert spec.norm(f + g) <= bound * (1.0 + SLACK[spec.variant])


@pytest.mark.parametrize("kind", sorted(YOUNG))
@PROPERTY
@given(a=nonzero_samples)
def test_luxemburg_orlicz_sandwich(kind, a):
    f, phi = GridFunction(a), YOUNG[kind]
    lux = NormSpec(variant="luxemburg", phi=phi).norm(f)
    orl = NormSpec(variant="orlicz", phi=phi).norm(f)
    assert lux * (1.0 - 1e-9) <= orl <= 2.0 * lux * (1.0 + 1e-9)


# Smoothing by a nonnegative kernel of mass 1 is a mean of grid translates, so
# it contracts every rearrangement-invariant norm.  The Abel and Cesaro
# kernels on the grid are nonnegative at every parameter.  The heat
# multiplier is a Gaussian cut off at the Nyquist frequency: on a 16-point
# grid its kernel dips below 0 for t below about 0.18, where contraction
# outside L2 is not guaranteed, so the heat times start at 0.25.
CONTRACTION_SPECS = [spec for spec in SPECS if spec.variant != "orlicz"]
CONTRACTION_SLACK = 1e-10


@pytest.mark.parametrize("spec", CONTRACTION_SPECS,
                         ids=[spec_id(spec) for spec in CONTRACTION_SPECS])
@PROPERTY
@given(a=samples, heat_t=st.floats(0.25, 4.0), abel_t=st.floats(0.0, 4.0),
       n=st.integers(0, N // 2 - 1), ell=st.integers(1, 3))
def test_smoothing_contracts(spec, a, heat_t, abel_t, n, ell):
    f = GridFunction(a)
    bound = spec.norm(f) * (1.0 + CONTRACTION_SLACK)
    for g in (spectral_semigroup(f, heat_t, "heat"), spectral_semigroup(f, abel_t, "abel"),
              cesaro(f, n, ell)):
        assert spec.norm(g) <= bound


planar_samples = st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
                          min_size=64, max_size=64).map(lambda v: np.array(v).reshape(8, 8))


steps = st.floats(-4.0, 4.0)


def without_nyquist(a):
    """`a` with the unpaired Nyquist column (and, in 2-d, row) of its spectrum zeroed."""
    spectrum = np.fft.rfftn(a)
    spectrum[..., -1] = 0.0
    if a.ndim == 2:
        spectrum[a.shape[0] // 2] = 0.0
    return np.fft.irfftn(spectrum, a.shape, axes=range(a.ndim))


# The translate multiplier holds cos(N*h/2) in the Nyquist slot, so on
# Nyquist content T(a)T(b) and T(a+b) differ by 0.4-0.7 relative; without
# it the group law holds to rounding.
@pytest.mark.parametrize("dim", [1, 2])
@PROPERTY
@given(data=st.data(), s=st.floats(0.0, 4.0), t=st.floats(0.0, 4.0))
def test_heat_semigroup_law(dim, data, s, t):
    a = data.draw(samples if dim == 1 else planar_samples)
    f = GridFunction(a)
    tol = 1e-12 * np.max(np.abs(a))
    for kind in ("heat", "abel"):
        twice = spectral_semigroup(spectral_semigroup(f, t, kind), s, kind)
        once = spectral_semigroup(f, s + t, kind)
        assert np.max(np.abs(twice.samples - once.samples)) <= tol
    x, y = (data.draw(steps if dim == 1 else st.tuples(steps, steps)) for _ in range(2))
    g = GridFunction(without_nyquist(a))
    twice = translate(translate(g, y), x)
    once = translate(g, x + y if dim == 1 else (x[0] + y[0], x[1] + y[1]))
    assert np.max(np.abs(twice.samples - once.samples)) <= tol
