import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from mgale import martingale as mg
from mgale import modulus as mo
from mgale import riesz as rz
from mgale.dilated import oscillation_verdict
from mgale.modulus import shift_norm_curve
from mgale.torus import FourierFunction, render, sine_series


def std_spec(depth=9, c=0.6):
    return rz.RieszProductSpec(tuple(3**k for k in range(depth)), tuple([c] * depth))


def test_spec_validation():
    with pytest.raises(ValueError):
        rz.RieszProductSpec((1, 2), (0.5, 0.5))  # ratio < 3
    with pytest.raises(ValueError):
        rz.RieszProductSpec((2, 7), (0.5, 0.5))  # not divisible
    with pytest.raises(ValueError):
        rz.RieszProductSpec((1, 3), (0.5, 1.5))  # |c| > 1
    rz.RieszProductSpec((1, 3), (1.0, 0.5))  # |c| = 1 is allowed


def test_density_trivial_case():
    spec = rz.RieszProductSpec((1,), (0.0,))
    dens = rz.riesz_partial_density(spec, 0, 8)
    np.testing.assert_allclose(dens.samples, np.ones(256))


def test_density_mean_min_nonnegative():
    spec = std_spec(6, 0.7)
    dens = rz.riesz_partial_density(spec, 5, 13)
    assert dens.samples.mean() == pytest.approx(1.0, abs=1e-12)
    assert dens.samples.min() >= 0.0
    assert dens.samples.min() >= (1 - 0.7) ** 6 - 1e-12


def test_density_aliasing_guard():
    spec = std_spec(9)
    with pytest.raises(ValueError):
        rz.riesz_partial_density(spec, 8, 10)


def test_coefficients_match_quadrature():
    spec = std_spec(6)
    dens = rz.riesz_partial_density(spec, 5, 13)
    x = np.arange(2**13) / 2**13
    for k in (0, 1, 3, 4, 9, 13, 1 + 3 + 9, 27 - 3, 121):
        exact = rz.riesz_fourier_coeff(spec, 5, k)
        quad = (dens.samples * np.exp(-2j * np.pi * k * x)).mean()
        assert abs(complex(exact) - quad) < 1e-10


def test_coefficient_examples():
    spec = rz.RieszProductSpec((1, 3, 9), (0.6, 0.4 + 0.2j, 0.3))
    assert complex(rz.riesz_fourier_coeff(spec, 2, 0)) == pytest.approx(1.0)
    assert complex(rz.riesz_fourier_coeff(spec, 2, 1)) == pytest.approx(0.3)
    assert complex(rz.riesz_fourier_coeff(spec, 2, 4)) == pytest.approx(0.3 * (0.2 + 0.1j), rel=1e-12)
    assert complex(rz.riesz_fourier_coeff(spec, 2, -1)) == pytest.approx(0.3)
    # 2 = 3 - 1 is representable in balanced ternary; 14 > 1 + 3 + 9 is not
    assert complex(rz.riesz_fourier_coeff(spec, 2, 2)) == pytest.approx(
        (0.4 + 0.2j) / 2 * 0.3, rel=1e-12
    )
    assert rz.riesz_fourier_coeff(spec, 2, 14) == 0.0


def test_greedy_matches_expansion():
    spec = rz.RieszProductSpec((1, 3, 9, 27), (0.5, 0.4 + 0.1j, 0.3, 0.2))
    table = rz.partial_density_coeffs(spec, 3)
    assert len(table) == 3**4
    for s, v in table.items():
        assert complex(rz.riesz_fourier_coeff(spec, 3, s)) == pytest.approx(v, rel=1e-12)


def test_sampling_uniform_chi_square():
    spec = rz.RieszProductSpec((1, 3, 9), (0.0, 0.0, 0.0))
    xs = rz.sample_mu(spec, 2, 10, 100_000, seed=4)
    counts, _ = np.histogram(xs, bins=64, range=(0, 1))
    stat = ((counts - 100_000 / 64) ** 2 / (100_000 / 64)).sum()
    assert stat < chi2_dist.ppf(0.99, 63)


def test_sampling_empirical_coefficient():
    spec = std_spec(6)
    count = 10**6
    xs = rz.sample_mu(spec, 5, 13, count, seed=9)
    emp = np.exp(-2j * np.pi * spec.lambdas[0] * xs).mean()
    exact = complex(rz.riesz_fourier_coeff(spec, 5, spec.lambdas[0]))
    assert abs(emp - exact) < 3 / math.sqrt(count)


def test_sampling_empty():
    assert rz.sample_mu(std_spec(3), 2, 8, 0, seed=1).size == 0


def test_sampling_deterministic():
    a = rz.sample_mu(std_spec(4), 3, 10, 500, seed=11)
    b = rz.sample_mu(std_spec(4), 3, 10, 500, seed=11)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("spec, N, J, count, seed", [
    (std_spec(4), 3, 10, 500, 11),
    (std_spec(6, 0.9), 5, 14, 20_000, 3),
    (rz.RieszProductSpec((1, 3, 15, 45), (0.5 + 0.3j, -0.4j, 0.7, 0.2 - 0.6j)), 3, 12, 5000, 0),
])
def test_sampling_matches_the_three_array_form(spec, N, J, count, seed):
    # the density, its normalised copy and their cumulative sum held at once
    dens = rz.riesz_partial_density(spec, N, J).samples
    probs = dens / dens.sum()
    cdf = np.cumsum(probs)
    ref = np.searchsorted(cdf, np.random.default_rng(seed).random(count), side="right") / 2.0**J
    assert np.array_equal(rz.sample_mu(spec, N, J, count, seed), ref)


def test_series_run_l2_converging():
    spec = rz.RieszProductSpec(tuple(3**k for k in range(13)), tuple([0.6] * 13))
    fam = lambda n: FourierFunction({1: 1.0})
    a = [2.0**-n for n in range(13)]
    diag = rz.riesz_series_run(spec, fam, a, [1, 2, 4, 6], 1500, seed=3)
    assert diag.verdict == "converging"
    assert diag.label == "riesz-series"


def test_series_run_zero_coeffs():
    spec = std_spec(6)
    fam = lambda n: FourierFunction({1: 1.0})
    diag = rz.riesz_series_run(spec, fam, [0.0] * 4, [1, 2], 500, seed=3)
    assert np.all(diag.median == 0)


def test_series_run_sawtooth_out_of_hypothesis():
    spec = std_spec(6)
    saw = sine_series({m: 1.0 / m for m in range(1, 65)})
    diag = rz.riesz_series_run(spec, lambda n: saw, [0.5] * 4, [1, 2], 300, seed=3)
    assert diag.label.endswith("[out-of-hypothesis]")


def test_series_run_reads_hypothesis_alias_free(monkeypatch):
    # 4096 Davenport modes need J = bits(4096) + 1 = 14 to render alias-free
    from mgale.davenport import davenport_fourier

    grids, original = [], rz.grid_inf_modulus

    def spy(f, octaves, J):
        grids.append(J)
        return original(f, octaves, J)

    monkeypatch.setattr(rz, "grid_inf_modulus", spy)
    fn = davenport_fourier(0.75, 4096)
    diag = rz.riesz_series_run(std_spec(6), lambda n: fn, [0.5] * 4, [1, 2], 100, seed=3)
    assert grids == [14]
    assert diag.label.startswith("riesz-series")


@pytest.mark.parametrize("octaves", [4, 12, 15])
def test_grid_inf_modulus_matches_shift_curve_read_off(octaves):
    # octaves past J repeat the finest grid value
    f = sine_series({1: 1.0, 5: 0.3, 17: -0.2})
    J = 12
    cm = np.maximum.accumulate(shift_norm_curve(render(f, J).samples, [math.inf])[math.inf])
    ref = np.array([cm[2 ** (J - min(n, J))] for n in range(octaves + 1)])
    np.testing.assert_array_equal(rz.grid_inf_modulus(f, octaves, J), ref)


def test_series_run_validation():
    spec = std_spec(4)
    fam = lambda n: FourierFunction({1: 1.0})
    with pytest.raises(ValueError):
        rz.riesz_series_run(spec, fam, [1.0] * 5, [1], 100, seed=0)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(0, 10**6), st.integers(3, 5), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_coefficients_property(seed, ratio, depth):
    rng = np.random.default_rng(seed)
    lambdas = [1]
    for _ in range(depth - 1):
        lambdas.append(lambdas[-1] * ratio)
    cs = rng.uniform(0.1, 0.9, depth) * np.exp(2j * np.pi * rng.random(depth))
    spec = rz.RieszProductSpec(tuple(lambdas), tuple(cs))
    table = rz.partial_density_coeffs(spec, depth - 1)
    # greedy representation agrees with the product expansion everywhere
    for s, v in table.items():
        assert complex(rz.riesz_fourier_coeff(spec, depth - 1, s)) == pytest.approx(v, rel=1e-12)
    # and the total mass at frequency zero is one
    assert table[0] == pytest.approx(1.0)


# ------------------------------------------------------ kernel equivalence

@pytest.mark.parametrize("cs", [
    (0.6, 0.5, 0.8, 0.3, 0.9),
    (0.5 + 0.3j, -0.4j, 0.7, 0.2 - 0.6j, 1.0),
])
def test_partial_density_matches_float_phase_product(cs):
    spec = rz.RieszProductSpec((1, 3, 15, 45, 405), cs)
    J = 12
    x = np.arange(2**J) / 2**J
    ref = np.ones(2**J)
    for lam, c in zip(spec.lambdas, spec.cs):
        ref *= 1.0 + (c * np.exp(2j * np.pi * lam * x)).real
    got = rz.riesz_partial_density(spec, 4, J).samples
    assert np.abs(got - np.maximum(ref, 0.0)).max() <= 1e-10 * ref.max()


def _one_pass_density(spec, N, J):
    """The reference P_N: one product over the whole grid, a full-grid
    temporary per operation, clipped at the end."""
    n_grid = 2**J
    ks = np.arange(n_grid, dtype=np.int64)
    step = 2.0 * np.pi / n_grid
    dens = np.ones(n_grid)
    for lam, c in zip(spec.lambdas[: N + 1], spec.cs[: N + 1]):
        theta = step * (((lam % n_grid) * ks) & (n_grid - 1))
        factor = c.real * np.cos(theta)
        if c.imag != 0.0:
            factor -= c.imag * np.sin(theta)
        dens *= 1.0 + factor
    return np.maximum(dens, 0.0)


def _density_spec(complex_cs):
    """Ratios 3, 4, 5 in turn and amplitudes up to 1; every fourth c_n
    has modulus 1, so P_N has zeros (and, for complex c, roundoff below
    them for the clip)."""
    rng = np.random.default_rng(21)
    lambdas = [1]
    for n in range(14):
        lambdas.append(lambdas[-1] * (3 + n % 3))
    cs = rng.uniform(-1.0, 1.0, 15)
    if complex_cs:
        cs = cs * np.exp(2j * np.pi * rng.random(15))
        cs[::4] = np.exp(2j * np.pi * 26 / 1024)  # from J = 10 a factor reads -2.2e-16
    else:
        cs[::4] = -1.0  # the factor is exactly 0 at theta = 0
    return rz.RieszProductSpec(tuple(lambdas), tuple(cs))


def _deepest_level(spec, J):
    """The largest N whose partial product fits the 2^J grid, or None."""
    fits = [N for N in range(spec.depth) if sum(spec.lambdas[: N + 1]) < 2 ** (J - 1)]
    return fits[-1] if fits else None


@pytest.mark.parametrize("complex_cs", [False, True])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_partial_density_is_bit_identical_to_the_one_pass_product(monkeypatch, complex_cs, threads):
    # blocks of 97 points: from J = 7 on there are many, and the last is ragged;
    # four threads on two or fewer cores switch often, and no point is lost or mixed
    opened = []

    class RecordingPool(mo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(mo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(mg, "_BLOCK_CELLS", 97)
    monkeypatch.setattr(mo, "_SCAN_THREADS", threads)
    monkeypatch.setattr(mo.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    spec = _density_spec(complex_cs)
    baseline = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for J in range(17):
            N = _deepest_level(spec, J)
            if N is None:  # no level fits below J = 2
                with pytest.raises(ValueError):
                    rz.riesz_partial_density(spec, 0, J)
                continue
            opened.clear()
            got = rz.riesz_partial_density(spec, N, J).samples
            assert np.array_equal(got, _one_pass_density(spec, N, J)), J
            assert threading.active_count() == baseline
            blocks = -(-(2**J) // 97)
            assert opened == ([min(threads, blocks)] if threads > 1 and blocks > 1 else []), J
    finally:
        sys.setswitchinterval(interval)


def _density_in_child(conn, spec):
    conn.send(rz.riesz_partial_density(spec, spec.depth - 1, 18).samples)
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")
def test_a_forked_child_tabulates_the_density_after_the_parent():
    spec = _density_spec(True)
    spec = rz.RieszProductSpec(spec.lambdas[:8], spec.cs[:8])
    parent = rz.riesz_partial_density(spec, 7, 18).samples  # four blocks
    assert np.array_equal(parent, _one_pass_density(spec, 7, 18))
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_density_in_child, args=(send, spec))
    child.start()
    try:
        assert recv.poll(60), "the forked density did not finish within 60 s"
        dens = recv.recv()
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert np.array_equal(dens, parent)


def test_series_run_means_match_expansion(monkeypatch):
    # the greedy lookups at -m lambda_n equal the expansion's entries, and a
    # run whose lookups are served from the expansion reports the same
    spec = rz.RieszProductSpec(tuple(3**k for k in range(7)), (0.6, 0.5 + 0.2j, 0.7, -0.4, 0.3j, 0.8, 0.5))
    N = 5
    table = rz.partial_density_coeffs(spec, N)
    fam = lambda n: FourierFunction({1: 0.5, -1: 0.5, 2: 0.25j, -2: -0.25j, 4: 0.1})
    for n in range(N + 1):
        for m in fam(n).coeffs:
            k = -m * spec.lambdas[n]
            assert complex(rz.riesz_fourier_coeff(spec, N, k)) == pytest.approx(table.get(k, 0j), rel=1e-14, abs=1e-300)
    a = [1.0 / (n + 1) for n in range(N + 1)]
    fast = rz.riesz_series_run(spec, fam, a, [1, 2, 3], 400, seed=5)
    monkeypatch.setattr(rz, "riesz_fourier_coeff", lambda spec, N, k: table.get(k, 0j))
    slow = rz.riesz_series_run(spec, fam, a, [1, 2, 3], 400, seed=5)
    np.testing.assert_allclose(fast.median, slow.median, rtol=1e-12)
    np.testing.assert_allclose(fast.q90, slow.q90, rtol=1e-12)
    assert (fast.verdict, fast.label) == (slow.verdict, slow.label)


def _series_run_ref(spec, fn_family, coeffs, checkpoints, sample_count, seed):
    """riesz_series_run's terms and window aggregation as written before the
    aggregation became a shared helper (hypothesis check left out)."""
    coeffs = tuple(complex(a) for a in coeffs)
    checkpoints = sorted(int(c) for c in checkpoints)
    N = len(coeffs) - 1
    J = max(12, int(math.ceil(math.log2(sum(spec.lambdas[: N + 1])))) + 2)
    xs = rz.sample_mu(spec, N, J, sample_count, seed)
    n_grid = 2**J
    ks = np.round(xs * n_grid).astype(np.int64)
    terms = np.zeros((sample_count, N + 1), dtype=np.complex128)
    for n in range(N + 1):
        fn = fn_family(n)
        lam = spec.lambdas[n]
        mean = sum(c * rz.riesz_fourier_coeff(spec, N, -m * lam) for m, c in fn.coeffs.items())
        vals = np.zeros(sample_count, dtype=np.complex128)
        for m, c in fn.coeffs.items():
            ph = (int(m) * lam % n_grid) * ks % n_grid
            vals += c * np.exp(2j * np.pi * ph / n_grid)
        terms[:, n] = coeffs[n] * (vals - mean)
    if np.abs(terms.imag).max() < 1e-13 * max(np.abs(terms).max(), 1.0):
        terms = terms.real
    sums = np.cumsum(terms, axis=1)
    amps = np.abs(np.array(coeffs))
    med, q90, scales = [], [], []
    for cp in checkpoints:
        hi = min(2 * cp, N + 1)
        window = sums[:, cp - 1 : hi]
        if np.isrealobj(window):
            osc = window.max(axis=1) - window.min(axis=1)
        else:
            center = window.mean(axis=1, keepdims=True)
            osc = 2.0 * np.abs(window - center).max(axis=1)
        med.append(float(np.median(osc)))
        q90.append(float(np.quantile(osc, 0.9)))
        scales.append(float(np.sqrt((amps[cp - 1 : hi] ** 2).sum())))
    verdict, slope = oscillation_verdict(checkpoints, med, scales)
    return np.array(med), np.array(q90), verdict, slope


@pytest.mark.parametrize("spec, fam, a, checkpoints, count, seed", [
    (rz.RieszProductSpec(tuple(3**k for k in range(13)), tuple([0.6] * 13)),
     lambda n: FourierFunction({1: 1.0}), [2.0**-n for n in range(13)], [1, 2, 4, 6], 1500, 3),
    (std_spec(6), lambda n: FourierFunction({1: 1.0}), [0.0] * 4, [1, 2], 500, 3),
    (std_spec(6), lambda n: sine_series({m: 1.0 / m for m in range(1, 65)}), [0.5] * 4, [1, 2], 300, 3),
    (rz.RieszProductSpec(tuple(3**k for k in range(7)), (0.6, 0.5 + 0.2j, 0.7, -0.4, 0.3j, 0.8, 0.5)),
     lambda n: FourierFunction({1: 0.5, -1: 0.5, 2: 0.25j, -2: -0.25j, 4: 0.1}),
     [1.0 / (n + 1) for n in range(6)], [1, 2, 3], 400, 5),
])
def test_series_run_matches_reference(spec, fam, a, checkpoints, count, seed):
    diag = rz.riesz_series_run(spec, fam, a, checkpoints, count, seed)
    med, q90, verdict, slope = _series_run_ref(spec, fam, a, checkpoints, count, seed)
    np.testing.assert_array_equal(diag.median, med)
    np.testing.assert_array_equal(diag.q90, q90)
    assert (diag.verdict, diag.fitted_slope) == (verdict, slope)
    assert diag.checkpoints == tuple(checkpoints)
