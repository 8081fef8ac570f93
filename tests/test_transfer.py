import math
import warnings

import numpy as np
import pytest

from conftest import random_trig_poly
from mgale import transfer as tr
from mgale.dilated import SeriesSpec, gaposhkin_example
from mgale.torus import FourierFunction, sine_series


def test_transfer_kills_odd_sine():
    assert tr.transfer_apply(sine_series({1: 1.0})).coeffs == {}


def test_transfer_halves_even_frequency():
    out = tr.transfer_apply(sine_series({2: 1.0}))
    assert out.coeffs == sine_series({1: 1.0}).coeffs


def test_transfer_preserves_mean_and_one():
    one = FourierFunction({0: 1.0})
    assert tr.transfer_apply(one).coeffs == {0: 1.0}
    f = FourierFunction({0: 0.3, 2: 1.0, 3: -1.0})
    assert tr.transfer_apply(f).coeffs[0] == 0.3


def test_two_forms_cross_check(rng):
    for _ in range(10):
        f = random_trig_poly(rng, degree=32)
        assert tr.transfer_pointwise_check(f, 10).passed


def test_duality_random_pairs(rng):
    for _ in range(30):
        f = random_trig_poly(rng, degree=40, real=True)
        g = random_trig_poly(rng, degree=40, real=True)
        assert tr.duality_audit(f, g, 12).passed


def test_decay_closed_form():
    f = sine_series({2**k: 2.0**-k for k in range(1, 20)})
    dec = tr.transfer_decay(f, 22)
    expected = [math.sqrt(sum(4.0**-k / 2 for k in range(max(n, 1), 20))) for n in range(23)]
    np.testing.assert_allclose(dec.norms[1:], expected[1:], rtol=1e-12)
    # the infinite-series closed form, up to the k <= 19 truncation
    assert dec.norms[3] == pytest.approx(2.0**-3 / math.sqrt(1.5), rel=1e-9)


def test_decay_nonincreasing(rng):
    for _ in range(10):
        f = random_trig_poly(rng, degree=64)
        dec = tr.transfer_decay(f, 8)
        assert np.all(np.diff(dec.norms) <= 1e-14)


def test_decay_single_sine_truncates():
    dec = tr.transfer_decay(sine_series({1: 1.0}), 4)
    assert dec.norms[0] == pytest.approx(1 / math.sqrt(2))
    assert np.all(dec.norms[1:] == 0.0)


def test_decay_norms_alive_at_n_are_exact():
    # modes 2^1..2^11: ||L^n f||_2^2 = sum_{k >= max(n, 1)} 4^-k / 2, nonzero at N = 3
    f = sine_series({2**k: 1.0 / 2**k for k in range(1, 12)})
    dec = tr.transfer_decay(f, 3)
    expected = [math.sqrt(sum(4.0**-k / 2 for k in range(max(n, 1), 12))) for n in range(4)]
    np.testing.assert_allclose(dec.norms, expected, rtol=1e-13)


def test_decay_of_amplitudes_whose_squares_overflow():
    # |c_m|^2 = 1e600 overflows: the energies go relative to max |c_m|, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = tr.transfer_decay(FourierFunction({1: 1e300, 2: 1e300}), 8).norms
        assert tr.transfer_decay(FourierFunction({1: 1e300}), 8).norms[0] == 1e300
    assert norms[0] == 1e300 * math.sqrt(2.0)
    assert norms[1] == 1e300
    assert not norms[2:].any()


def test_decay_csv():
    dec = tr.transfer_decay(sine_series({1: 1.0}), 3)
    lines = dec.to_csv().splitlines()
    assert lines[0] == "n,norm,criterion_partial"
    assert len(lines) == 5


def doubling_series(f, coeffs) -> SeriesSpec:
    """sum_k a_k f(T^k x) as the dilated series on the frequencies 2^0, ..., 2^(K-1)."""
    return SeriesSpec(tuple(coeffs), tuple(1 << k for k in range(len(coeffs))), f)


def test_ergodic_series_run_converging():
    f = sine_series({1: 1.0})
    coeffs = [1.0 / (k + 1) for k in range(256)]
    diag, dec = tr.ergodic_series_run(doubling_series(f, coeffs), [8, 16, 32, 64, 128], 150, seed=4)
    assert diag.verdict == "converging"
    assert np.all(dec.norms[1:] == 0.0)  # L f = 0 for the pure sine


def test_ergodic_series_zero_coeffs():
    f = sine_series({1: 1.0})
    diag, _ = tr.ergodic_series_run(doubling_series(f, [0.0] * 64), [8, 16, 32], 128, seed=4)
    assert np.all(diag.median == 0)


def test_ergodic_series_run_gaposhkin_dynamical():
    # the doubling-map realization of the near-critical exhibit: the
    # oscillation trend is diverging, and the attached decay holds the
    # exact norms ||L^n f||_2 of its generator
    base = gaposhkin_example(1, 2**13)
    cps = [2**j for j in range(4, 13)]
    diag, dec = tr.ergodic_series_run(doubling_series(base.generator, base.coeffs), cps, 200, seed=20240817)
    assert diag.verdict == "diverging"
    expected = [tr.l2_norm_exact(tr.transfer_power(base.generator, n)) for n in range(dec.norms.size)]
    np.testing.assert_allclose(dec.norms, expected, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("freqs", [(2, 4, 8, 16), (1, 2, 3, 4), (1, 2, 4, 16)])
def test_ergodic_series_run_refuses_frequencies_off_the_doubling_ladder(freqs):
    # T^k x = 2^k x: any other n_k would be a dilated series labelled ergodic
    spec = SeriesSpec((1.0,) * 4, freqs, sine_series({1: 1.0}))
    with pytest.raises(ValueError, match="2\\^0"):
        tr.ergodic_series_run(spec, [1, 2], 100, seed=0)


# ------------------------------------------------------ kernel equivalence

def _halve(f: FourierFunction) -> FourierFunction:
    """One application of L by the original formulation: keep the even
    frequencies, halved."""
    return FourierFunction({m // 2: c for m, c in f.coeffs.items() if m % 2 == 0})


def _valuation_rich(rng, real: bool) -> FourierFunction:
    """Zero-mean f whose modes (both signs) have 2-adic valuations 0..12."""
    coeffs = {}
    for v in range(13):
        for odd in rng.choice(np.arange(1, 40, 2), size=3, replace=False):
            m = int(odd) << v
            c = complex(rng.standard_normal(), rng.standard_normal())
            coeffs[m] = c
            coeffs[-m] = c.conjugate() if real else complex(rng.standard_normal(), rng.standard_normal())
    return FourierFunction(coeffs)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("N", [0, 5, 12, 13, 20])
def test_decay_matches_iterated_transfer(rng, real, N):
    # N below, at (12) and past the top valuation of the modes
    f = _valuation_rich(rng, real)
    norms, cur = [], f
    for _ in range(N + 1):
        norms.append(tr.l2_norm_exact(cur))
        cur = _halve(cur)
    assert (tr.l2_norm_exact(cur) == 0.0) == (N >= 12)
    dec = tr.transfer_decay(f, N)
    np.testing.assert_allclose(dec.norms, norms, rtol=1e-13, atol=0.0)
    assert np.all(dec.norms[13:] == 0.0)
    # the report's last criterion partial sum, sum_{1 <= n <= N} ||L^n f||_2 / sqrt(n)
    partial = float(dec.to_csv().splitlines()[-1].split(",")[2])
    assert partial == pytest.approx(sum(norms[n] / math.sqrt(n) for n in range(1, N + 1)), rel=1e-13)


@pytest.mark.parametrize("real", [True, False])
def test_transfer_power_matches_repeated_apply(rng, real):
    f = _valuation_rich(rng, real)
    applied, halved = f, f
    for k in range(15):
        assert tr.transfer_power(f, k).coeffs == applied.coeffs == halved.coeffs
        applied, halved = tr.transfer_apply(applied), _halve(halved)
    with pytest.raises(ValueError):
        tr.transfer_power(f, -1)
