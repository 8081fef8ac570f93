import math

import numpy as np
import pytest

from conftest import block_average, random_trig_poly
from mgale import modulus as mo
from mgale.martingale import cond_exp
from mgale.tails import TailModel, fit_tail_model
from mgale.torus import GridFunction, _lp_norm_array, lp_norm, render, sine_series


def test_profile_constant_is_zero():
    prof = mo.modulus_profile(GridFunction(6, np.full(64, 4.2), "real"), 2)
    np.testing.assert_array_equal(prof.values, np.zeros(7))


def test_profile_sine_closed_form():
    prof = mo.modulus_profile(render(sine_series({1: 1.0}), 14), 2)
    ns = np.arange(1, 15)
    expected = math.sqrt(2) * np.sin(np.pi * 2.0**-ns)
    assert np.abs(prof.values[1:] - expected).max() < 1e-6


def test_profile_nonincreasing_and_bounded(rng):
    g = render(random_trig_poly(rng), 10)
    for p in (1.5, 2, 4, math.inf):
        prof = mo.modulus_profile(g, p)
        assert np.all(np.diff(prof.values) <= 1e-15)
        assert prof.values.max() <= 2 * lp_norm(g, p) + 1e-12


def test_profile_doubling_subadditivity(rng):
    g = render(random_trig_poly(rng), 10)
    prof = mo.modulus_profile(g, 2)
    # omega(2 delta) <= 2 omega(delta): values[n] <= 2 values[n+1]
    assert np.all(prof.values[:-1] <= 2 * prof.values[1:] + 1e-12)


def test_sawtooth_slope_near_half():
    J = 14
    x = np.arange(2**J) / 2**J
    saw = GridFunction(J, np.pi * (0.5 - x) * (x > 0), "real")
    prof = mo.modulus_profile(saw, 2)
    ns = np.arange(4, 11)
    slope = -np.polyfit(ns * math.log(2), np.log(prof.values[ns]), 1)[0]
    assert 0.45 <= slope <= 0.55


def test_dyadic_approx_constant():
    rep = mo.dyadic_approx_audit(GridFunction(5, np.full(32, 1.0), "real"), 2, 3)
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


def test_dyadic_approx_sine():
    rep = mo.dyadic_approx_audit(render(sine_series({1: 1.0}), 12), 2, 3)
    assert rep.passed and rep.margin > 0


def test_dyadic_approx_randomized(rng):
    for _ in range(20):
        g = render(random_trig_poly(rng, degree=48), 10)
        for p in (1.5, 2, 4, math.inf):
            for rep in mo.dyadic_approx_audit_all(g, p, levels=range(0, 11, 2)):
                assert rep.passed, rep.context


def _reference_dyadic_approx_all(f, p, levels):
    """(lhs, rhs) per level from expanded block averages and the running
    maximum of the shift curve, as computed before the Haar pyramid."""
    J = f.resolution_log2
    cummax = np.maximum.accumulate(mo.shift_norm_curve(f.samples, [p])[p])
    return [
        (_lp_norm_array(f.samples - block_average(f.samples, n, J), p), 2.0 * cummax[2 ** (J - n)])
        for n in levels
    ]


@pytest.mark.parametrize("J", [0, 1, 6])
@pytest.mark.parametrize("complex_values", [False, True])
def test_dyadic_approx_matches_block_average_reference(rng, J, complex_values):
    arr = rng.standard_normal(2**J)
    if complex_values:
        arr = arr + 1j * rng.standard_normal(2**J)
    f = GridFunction(J, arr, "complex" if complex_values else "real")
    atol = 8 * np.finfo(np.float64).eps * np.abs(arr).max()
    for p in (1, 1.5, 2, 4, math.inf):
        for levels in (None, [J, 0, J // 2, J // 2]):
            reports = mo.dyadic_approx_audit_all(f, p, levels)
            ref = _reference_dyadic_approx_all(f, p, range(J + 1) if levels is None else levels)
            assert len(reports) == len(ref)
            for rep, (lhs, rhs) in zip(reports, ref):
                assert rep.passed and rep.rhs == rhs
                assert abs(rep.lhs - lhs) <= atol
        for n, (lhs, _) in enumerate(_reference_dyadic_approx_all(f, p, range(J + 1))):
            rep = mo.dyadic_approx_audit(f, p, n)
            assert rep.passed and abs(rep.lhs - lhs) <= atol
        for bad in (-1, J + 1):
            with pytest.raises(ValueError):
                mo.dyadic_approx_audit_all(f, p, [0, bad])


def test_dyadic_approx_never_fails_on_noise(rng):
    # the factor-2 bound is universal, rough functions included
    arr = rng.standard_normal(2**9)
    g = GridFunction(9, arr, "real")
    for rep in mo.dyadic_approx_audit_all(g, math.inf):
        assert rep.passed


def test_criterion_geometric_tail_finite():
    prof = mo.modulus_profile(render(sine_series({1: 1.0}), 12), 2)
    tail = mo.fit_profile_tail(prof)
    val = mo.criterion_sqrt_n(prof, 2, tail)
    assert math.isfinite(val) and val > 0


def test_criterion_power_log_divergence():
    # omega(2^-n) ~ 1/(sqrt(n) log n): the weighted series diverges
    ns = np.arange(0, 13)
    vals = 1.0 / (np.sqrt(np.maximum(ns, 1)) * np.maximum(1.0, np.log(np.maximum(ns, 2))))
    prof = mo.ModulusProfile(2, vals, 12)
    tail = TailModel("power_log", 1.0, 0.5, 1.0)
    assert mo.criterion_sqrt_n(prof, 2, tail) == math.inf


def test_criterion_zero_function():
    prof = mo.ModulusProfile(2, np.zeros(11), 10)
    assert mo.criterion_sqrt_n(prof, 2, TailModel("geometric", 0.0, 0.5)) == 0.0


def test_grid_refinement_stability(rng):
    f = random_trig_poly(rng, degree=64)
    p12 = mo.modulus_profile(render(f, 12), 2)
    p14 = mo.modulus_profile(render(f, 14), 2)
    ratio = p14.values[1:13] / p12.values[1:13]
    assert np.all(np.abs(ratio - 1) < 0.02)


def test_fourier_modulus_matches_grid(rng):
    f = random_trig_poly(rng, degree=32)
    grid = mo.modulus_profile(render(f, 13), 2)
    exact = mo.fourier_modulus_l2(f, 2.0 ** -np.arange(1, 8), h_points=2**13)
    assert np.abs(exact - grid.values[1:8]).max() < 2e-3


def test_fourier_modulus_rejects_huge_frequencies():
    f = sine_series({2**60: 1.0})
    with pytest.raises(ValueError):
        mo.fourier_modulus_l2(f, [0.5])


def test_tail_model_fitting():
    ns = np.arange(8, 13)
    geo = fit_tail_model(ns, 3.0 * 0.5**ns)
    assert geo.kind == "geometric" and geo.exponent == pytest.approx(0.5, rel=1e-6)
    pw = fit_tail_model(ns, 2.0 * ns**-1.5)
    assert pw.kind == "power" and pw.exponent == pytest.approx(1.5, rel=1e-6)


def test_shift_norm_curve_fft_path_matches_direct(rng):
    arr = rng.standard_normal(256)
    fft_curve = mo.shift_norm_curve(arr, [2])[2]
    direct = mo.shift_norm_curve(arr, [2, math.inf])[2]
    assert np.abs(fft_curve - direct).max() < 1e-10


def _rolled_scan(s, p, max_shift):
    """The reference: every shift t = 0..max_shift rolled out explicitly."""
    return np.array([_lp_norm_array(np.roll(s, -t) - s, p) for t in range(max_shift + 1)])


@pytest.mark.parametrize("p", [1.5, 3, math.inf])
@pytest.mark.parametrize("J, max_shift", [
    (6, 20),   # below N/2
    (6, 32),   # N/2
    (6, 64),   # N
    (6, 150),  # past N: shifts wrap
    (0, 0),
    (0, 1),
    (1, 1),
    (1, 2),
])
@pytest.mark.parametrize("chunk", [256, 7])
def test_shift_norm_curve_generic_p_matches_rolled_scan(rng, p, J, max_shift, chunk):
    arr = rng.standard_normal(2**J)
    curve = mo.shift_norm_curve(arr, [p], max_shift=max_shift, chunk=chunk)[p]
    np.testing.assert_allclose(curve, _rolled_scan(arr, p, max_shift), rtol=1e-12, atol=1e-15)


def test_shift_norm_curve_generic_p_complex_default_range(rng):
    arr = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    curves = mo.shift_norm_curve(arr, [1.5, 4])
    for p in (1.5, 4):
        np.testing.assert_allclose(curves[p], _rolled_scan(arr, p, 32), rtol=1e-12, atol=1e-15)
