"""Property tests of the three norm variants: homogeneity, triangle inequality, sandwich."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacksonlab import GridFunction, NormSpec, power, two_power, zygmund

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
SPEC_IDS = [spec.label for spec in SPECS]
# the Amemiya infimum is a golden-section minimum; the others are exact to rounding
SLACK = {"lp": 1e-12, "luxemburg": 1e-12, "orlicz": 1e-9}


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
