import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_trig_poly
from mgale.torus import (
    AliasingError,
    FourierFunction,
    GridFunction,
    dilate,
    lp_norm,
    render,
    sine_series,
    translate,
)


def test_render_sine_quarter_points():
    g = render(FourierFunction({1: -0.5j, -1: 0.5j}), 2)
    assert g.value_kind == "real"
    np.testing.assert_allclose(g.samples, [0.0, 1.0, 0.0, -1.0], atol=1e-15)


def test_render_empty_sum_is_zero():
    g = render(FourierFunction({}), 3)
    assert g.n_samples == 8
    np.testing.assert_array_equal(g.samples, np.zeros(8))


def test_render_matches_pointwise_oracle():
    # truncated Davenport-type sum, m <= 64, against direct summation
    f = sine_series({m: 1.0 / m for m in range(1, 65)})
    g = render(f, 10)
    x = np.arange(2**10) / 2**10
    direct = sum(np.sin(2 * np.pi * m * x) / m for m in range(1, 65))
    assert np.abs(g.samples - direct).max() < 1e-12


def test_render_rejects_nonfinite_amplitudes():
    with pytest.raises(ValueError):
        FourierFunction({1: float("nan")})
    with pytest.raises(ValueError):
        FourierFunction({2: complex(1, float("inf"))})


def test_render_refuses_aliased_modes():
    f = FourierFunction({300: 1.0})
    with pytest.raises(AliasingError):
        render(f, 9)  # 300 >= 256 = 2^8
    assert render(f, 10).n_samples == 1024  # 300 < 512 = 2^9
    with pytest.raises(AliasingError):
        render(sine_series({1: 1.0}), 0)  # any nonzero mode at J = 0
    assert render(FourierFunction({0: 2.0}), 0).samples[0] == 2.0


def test_lp_norm_constant():
    g = GridFunction(5, np.ones(32), "real")
    for p in (1, 1.5, 2, 4, math.inf):
        assert lp_norm(g, p) == pytest.approx(1.0)


def test_lp_norm_sine():
    g = render(sine_series({1: 1.0}), 12)
    assert lp_norm(g, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert lp_norm(g, math.inf) == pytest.approx(1.0, abs=1e-6)


def test_lp_norm_rejects_small_p():
    g = GridFunction(3, np.ones(8), "real")
    with pytest.raises(ValueError):
        lp_norm(g, 0.5)


def test_grid_function_leaves_caller_array_writeable(rng):
    a = rng.standard_normal(8)
    g = GridFunction(3, a, "real")
    assert a.flags.writeable
    assert not g.samples.flags.writeable
    kept = g.samples.copy()
    a[:] = 0.0
    np.testing.assert_array_equal(g.samples, kept)
    row = rng.standard_normal((2, 8))[1]  # a view into a caller's batch
    GridFunction(3, row, "real")
    assert row.flags.writeable


def test_translate_identity_and_period(rng):
    g = GridFunction(6, rng.standard_normal(64), "real")
    np.testing.assert_array_equal(translate(g, 0).samples, g.samples)
    np.testing.assert_array_equal(translate(g, 64).samples, g.samples)


def test_translate_quarter_turns_sine_into_cosine():
    J = 10
    g = translate(render(sine_series({1: 1.0}), J), 2 ** (J - 2))
    x = np.arange(2**J) / 2**J
    assert np.abs(g.samples - np.cos(2 * np.pi * x)).max() < 1e-14


def test_translate_preserves_norms_exactly(rng):
    g = GridFunction(7, rng.standard_normal(128), "real")
    for p in (1, 2, 4, math.inf):
        assert lp_norm(translate(g, 37), p) == lp_norm(g, p)


def test_dilate_single_frequency_and_identity():
    f = FourierFunction({1: 0.7 + 0.1j})
    assert dilate(f, 3).coeffs == {3: 0.7 + 0.1j}
    assert dilate(f, 1) is f
    with pytest.raises(ValueError):
        dilate(f, 0)


def test_dilate_pointwise_oracle():
    f = sine_series({1: 1.0, 3: 0.25})
    J = 10
    g = render(dilate(f, 5), J)
    x = np.arange(2**J) / 2**J
    direct = np.sin(2 * np.pi * 5 * x) + 0.25 * np.sin(2 * np.pi * 15 * x)
    assert np.abs(g.samples - direct).max() < 1e-12


def test_render_dilate_commutes_with_grid_dilation(rng):
    # f(m x) sampled on the grid == render of the dilated coefficients
    f = random_trig_poly(rng, degree=16)
    J, m = 11, 3
    g = render(dilate(f, m), J)
    base = render(f, J)
    resampled = base.samples[(m * np.arange(2**J)) % 2**J]
    assert np.abs(g.samples - resampled).max() < 1e-11


def test_zero_amplitudes_dropped():
    f = FourierFunction({1: 0.0, 2: 1.0})
    assert 1 not in f.coeffs and 2 in f.coeffs


def test_realness_detection():
    assert sine_series({3: 2.0}).is_real_valued()
    assert not FourierFunction({1: 1.0}).is_real_valued()


@given(st.integers(0, 6), st.integers(-500, 500))
@settings(max_examples=40, deadline=None)
def test_translate_norm_invariance_property(J, t):
    rng = np.random.default_rng(abs(t) + J)
    g = GridFunction(J, rng.standard_normal(2**J), "real")
    assert lp_norm(translate(g, t), 2) == pytest.approx(lp_norm(g, 2), rel=1e-12)


@given(st.sampled_from([1, 1.5, 2, 3, 4]), st.sampled_from([2, 3, 4, 6, math.inf]))
@settings(max_examples=30, deadline=None)
def test_lp_monotone_in_p(p, q):
    if q != math.inf and p > q:
        p, q = q, p
    rng = np.random.default_rng(17)
    g = GridFunction(8, rng.standard_normal(256), "real")
    assert lp_norm(g, p) <= lp_norm(g, q) + 1e-12
