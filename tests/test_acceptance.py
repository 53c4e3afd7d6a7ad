"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line so a
full run reads as a scoreboard.  Grid sizes: N=1024 for 1-d criteria,
N=256 for 2-d criteria.
"""

import contextlib
import json
import math

import numpy as np
import pytest
from scipy.special import j0

from jacksonlab import (GridFunction, averaged_modulus, cesaro, complementary,
                        discretize, estimate_convexity_constant, log_power,
                        log_power_tail_threshold, lp_norm, luxemburg_norm,
                        modulus, orlicz_norm, patch, power, random_smooth,
                        run_check, space_moduli, spectral_semigroup,
                        spherical_mean, translate, two_power, verify_duality,
                        zygmund, NormSpec, difference, semigroup_difference)
from jacksonlab.cli import main as cli_main

SQRT2 = math.sqrt(2.0)
N1 = 1024
N2 = 256


@contextlib.contextmanager
def criterion(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {name}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"[acceptance] {name}: PASS")


def test_c1_norm_conformance(capsys):
    with criterion(capsys, "1 norm conformance"):
        rng = np.random.default_rng(2024)
        funcs = [random_smooth(N1, 1, rng) for _ in range(100)]
        for p in (1.5, 2.0, 3.0, 4.0):
            phi = power(p)
            for f in funcs:
                lux = luxemburg_norm(f, phi)
                ref = lp_norm(f, p)
                assert abs(lux - ref) <= 1e-10 * ref
                orl = orlicz_norm(f, phi)
                assert orl >= lux * (1.0 - 1e-8)
                assert orl <= 2.0 * lux * (1.0 + 1e-8)
        cos = discretize(np.cos, N1, 1)
        assert abs(luxemburg_norm(cos, power(2.0)) - 1.0 / SQRT2) <= 1e-9
        assert abs(orlicz_norm(cos, power(2.0)) - SQRT2) <= 1e-6


def test_c2_young_toolkit(capsys):
    with criterion(capsys, "2 young toolkit"):
        assert abs(complementary(power(2.0))(2.0) - 1.0) <= 1e-6
        grid = np.geomspace(0.01, 10.0, 80)
        for phi in (power(2.0), power(3.0), two_power(1.5, 3.0),
                    zygmund(2.0, 0.5), log_power(3.0)):
            back = complementary(complementary(phi), y_max=20.0)
            rel = np.abs(np.asarray(back(grid)) - np.asarray(phi(grid)))
            rel /= np.maximum(np.asarray(phi(grid)), 1e-300)
            assert np.max(rel) <= 1e-6
        with pytest.raises(ValueError):
            log_power(2.618)
        u0 = log_power_tail_threshold(3.0, 4.0)
        assert abs(u0 - math.exp(16.0 / 3.0)) <= 0.01 * math.exp(16.0 / 3.0)
        result = patch(two_power(1.5, 3.0), 3.0, 0.5, 2.0)
        assert np.isfinite(result.A)
        t = np.geomspace(1e-5, 1e5, 4096)
        g = np.asarray(result.phi(t ** (1.0 / 3.0)))
        lam = (t[2:] - t[1:-1]) / (t[2:] - t[:-2])
        chord = lam * g[:-2] + (1.0 - lam) * g[2:]
        scale = np.maximum(np.abs(g[1:-1]), np.abs(chord))
        assert np.min((g[1:-1] - chord) / np.maximum(scale, 1e-300)) >= -1e-10


def test_c3_operator_laws(capsys):
    with criterion(capsys, "3 operator laws"):
        rng = np.random.default_rng(99)
        # semigroup law
        for kind in ("heat", "abel"):
            f = random_smooth(N1, 1, rng)
            a = spectral_semigroup(spectral_semigroup(f, 0.2, kind), 0.3, kind)
            b = spectral_semigroup(f, 0.5, kind)
            assert np.max(np.abs(a.samples - b.samples)) <= 1e-12
        # contraction of the four smoothers in L_p and Luxemburg
        phi = zygmund(2.0, 0.5)
        for k in range(100):
            f = random_smooth(N1, 1, rng)
            for g in (spectral_semigroup(f, 0.4, "heat"),
                      spectral_semigroup(f, 0.4, "abel"),
                      cesaro(f, 16, 1)):
                for p in (1.5, 3.0):
                    assert lp_norm(g, p) <= lp_norm(f, p) * (1.0 + 1e-10)
                assert luxemburg_norm(g, phi) <= luxemburg_norm(f, phi) * (1.0 + 1e-10)
        for k in range(100):
            f2 = random_smooth(N2, 2, rng)
            v = spherical_mean(f2, 0.6)
            for p in (1.5, 3.0):
                assert lp_norm(v, p) <= lp_norm(f2, p) * (1.0 + 1e-10)
            assert luxemburg_norm(v, phi) <= luxemburg_norm(f2, phi) * (1.0 + 1e-10)
        # Fejer kernel positivity
        spike = np.zeros(N1)
        spike[0] = float(N1)
        kernel = cesaro(GridFunction(spike), 64, 1)
        assert np.min(kernel.samples) >= -1e-12
        # alternating step identity for powered differences, r <= 3
        h, step = 0.3, 0.17

        def T(g, u, kind):
            return translate(g, u) if kind == "shift" else spectral_semigroup(g, u, kind)

        def diff_r(g, u, kind, r):
            return difference(g, u, r) if kind == "shift" \
                else semigroup_difference(g, u, kind, r)

        for kind in ("shift", "heat", "abel"):
            for r in (1, 2, 3):
                for _ in range(6):
                    f = random_smooth(N1, 1, rng)
                    lhs = diff_r(f, h, kind, r)
                    acc = np.zeros(N1)
                    for k in range(1, r + 1):
                        termA = T(diff_r(f, k * step, kind, r), k * h, kind)
                        termB = diff_r(f, h + k * step, kind, r)
                        acc = acc + (-1.0) ** k * math.comb(r, k) \
                            * (termA.samples - termB.samples)
                    assert np.max(np.abs(lhs.samples - acc)) <= 1e-10
        # spherical means: exact on constants, Bessel factor on cos
        one = GridFunction(np.ones((N2, N2)))
        cosx = discretize(lambda x, y: np.cos(x), N2, 2)
        for t in (0.4, 0.9, 1.7):
            assert np.max(np.abs(spherical_mean(one, t).samples - 1.0)) == 0.0
            got = spherical_mean(cosx, t)
            assert np.max(np.abs(got.samples - j0(t) * cosx.samples)) <= 1e-8


def test_c4_closed_form_moduli(capsys):
    with criterion(capsys, "4 closed-form moduli"):
        cos = discretize(np.cos, N1, 1)
        for t in np.arange(0.1, 3.05, 0.1):
            got = modulus(cos, 1, float(t))
            assert abs(got - SQRT2 * math.sin(t / 2.0)) <= 1e-6
            w = averaged_modulus(cos, 1, float(t), "shift", quad_points=2048)
            want = (2.0 * SQRT2 / t) * (1.0 - math.cos(t / 2.0))
            assert abs(w - want) <= 1e-6
        for r in (1, 2, 3):
            rep = run_check("averaged-7.3", {"N": N1, "r": r})
            assert rep.verdict == "pass"
            assert rep.constant <= 20.0


def test_c5_two_sided_dyadic_bound_at_proof_constant(capsys):
    with criterion(capsys, "5 dyadic lower bound at the proof constant"):
        for r in (1, 2):
            rep = run_check("basic-2.1", {
                "N": N1, "norm": {"norm": "lp", "p": 2.0}, "s": 2.0,
                "semigroup": "shift", "h": 0.3, "r": r, "L": 10, "m": 1.0})
            assert rep.verdict == "pass"
            assert rep.constant >= 0.48


def test_c6_sharp_jackson_suite(capsys):
    runs = [
        ("jackson-1.4", {"N": N1, "norm": {"norm": "lp", "p": 2.0}, "r": 1,
                         "n_range": [1, 8]}),
        ("jackson-1.4", {"N": N1, "norm": {"norm": "lp", "p": 4.0}, "r": 1,
                         "n_range": [1, 8]}),
        ("jackson-1.4", {"N": N1, "norm": {"norm": "lp", "p": 2.0}, "r": 2,
                         "n_range": [1, 8]}),
        ("jackson-1.4", {"N": N1, "norm": {"norm": "lp", "p": 4.0}, "r": 2,
                         "n_range": [1, 8]}),
        ("jackson-8.10", {"N": N1, "d": 1}),
        ("jackson-8.10", {"N": N2, "d": 2}),
        ("kfunc-8.9", {"N": N2, "d": 2}),
        ("jackson-5.9", {"N": N1, "d": 1}),
        ("jackson-5.10", {"N": N1, "d": 1}),
        ("jackson-4.8", {"N": N1}),
        ("jackson-4.9", {"N": N1}),
    ]
    with criterion(capsys, "6 sharp jackson suite"):
        for cid, params in runs:
            rep = run_check(cid, params)
            assert rep.verdict == "pass", (cid, params, rep.constant, rep.spread)
            assert rep.spread <= 10.0, (cid, rep.spread)


def test_c7_convexity_geometry(capsys):
    with criterion(capsys, "7 convexity geometry"):
        l2 = estimate_convexity_constant(NormSpec(variant="lp", p=2.0), s=2.0,
                                         rng=0, trials=200, size=256)
        assert l2.m_hat >= 0.98
        l1 = estimate_convexity_constant(NormSpec(variant="lp", p=1.0),
                                         s=2.0, rng=0, trials=200, size=256)
        assert abs(l1.m_hat) <= 1e-12
        assert verify_duality(2.0, 4, rng=0).verdict == "pass"
        assert verify_duality(1.5, 8, rng=0).verdict == "pass"
        with pytest.raises(ValueError):
            verify_duality(2.5, 4)
        geo = space_moduli(NormSpec(variant="lp", p=2.0), size=64, rng=0)
        assert abs(geo.eta_exponent - 2.0) <= 0.1
        assert abs(geo.delta_exponent - 2.0) <= 0.1


def test_c8_cesaro_orlicz_contraction(capsys):
    with criterion(capsys, "8 cesaro contraction in Orlicz-type norms"):
        rng = np.random.default_rng(55)
        funcs = [random_smooth(N1, 1, rng) for _ in range(100)]
        for phi in (power(2.0), zygmund(2.0, 0.5), two_power(1.5, 3.0)):
            for f in funcs:
                smooth = cesaro(f, 16, 1)
                assert luxemburg_norm(smooth, phi) <= \
                    luxemburg_norm(f, phi) * (1.0 + 1e-10)
                assert orlicz_norm(smooth, phi) <= \
                    orlicz_norm(f, phi) * (1.0 + 1e-10)


def test_c9_determinism(tmp_path, capsys):
    config = {
        "checks": [{"id": cid} for cid in (
            "basic-2.1", "jackson-1.4", "jackson-4.8", "jackson-4.9",
            "jackson-5.9", "jackson-5.10", "entire-4.12", "cesaro-5.1",
            "averaged-7.3", "semigroup-7.4", "shift-7.5", "kfunc-8.9",
            "jackson-8.10", "lower-8.12", "orlicz-sandwich")],
        "N": 128,
        "seed": 2024,
    }
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(config))
    with criterion(capsys, "9 determinism of the full suite"):
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "one")]) == 0
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "two")]) == 0
        names = sorted(p.name for p in (tmp_path / "one").iterdir()
                       if p.suffix == ".csv" and p.name != "summary.csv")
        assert len(names) == 15
        for name in names:
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, name
        # the summary repeats the constants; only wall-clock times may move
        trim = lambda p: [",".join(line.split(",")[:3])
                          for line in p.read_text().strip().split("\n")]
        assert trim(tmp_path / "one" / "summary.csv") == \
            trim(tmp_path / "two" / "summary.csv")
