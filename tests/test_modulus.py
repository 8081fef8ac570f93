import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from conftest import block_average, random_trig_poly
from mgale import modulus as mo
from mgale.torus import GridFunction, _lp_norm_array, render, sine_series


def test_profile_constant_is_zero():
    prof = mo.modulus_profile(GridFunction(6, np.full(64, 4.2), "real"), 2)
    np.testing.assert_array_equal(prof.values, np.zeros(7))


def test_modulus_profile_leaves_caller_array_writeable():
    values = np.array([2.0, 1.0, 0.5])
    prof = mo.ModulusProfile(1.5, values, 2)
    assert values.flags.writeable and not prof.values.flags.writeable
    assert not np.shares_memory(values, prof.values)
    values[:] = 0.0
    np.testing.assert_array_equal(prof.values, [2.0, 1.0, 0.5])


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
        assert prof.values.max() <= 2 * _lp_norm_array(g.samples, p) + 1e-12


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
    for rep in mo.dyadic_approx_audit_all(GridFunction(5, np.full(32, 1.0), "real"), 2):
        assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


def test_dyadic_approx_sine():
    rep = mo.dyadic_approx_audit_all(render(sine_series({1: 1.0}), 12), 2)[3]
    assert rep.context == "dyadic-approx[p=2,n=3]"
    assert rep.passed and rep.margin > 0


def test_dyadic_approx_randomized(rng):
    for _ in range(20):
        g = render(random_trig_poly(rng, degree=48), 10)
        for p in (1.5, 2, 4, math.inf):
            for rep in mo.dyadic_approx_audit_all(g, p):
                assert rep.passed, rep.context


def _reference_dyadic_approx_all(f, p):
    """(lhs, rhs) per level from expanded block averages and the running
    maximum of the shift curve, as computed before the Haar pyramid."""
    J = f.resolution_log2
    cummax = np.maximum.accumulate(mo.shift_norm_curve(f.samples, [p])[p])
    return [
        (_lp_norm_array(f.samples - block_average(f.samples, n, J), p), 2.0 * cummax[2 ** (J - n)])
        for n in range(J + 1)
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
        reports = mo.dyadic_approx_audit_all(f, p)
        ref = _reference_dyadic_approx_all(f, p)
        assert len(reports) == len(ref) == J + 1
        for rep, (lhs, rhs) in zip(reports, ref):
            assert rep.passed and rep.rhs == rhs
            assert abs(rep.lhs - lhs) <= atol


def test_dyadic_approx_never_fails_on_noise(rng):
    # the factor-2 bound is universal, rough functions included
    arr = rng.standard_normal(2**9)
    g = GridFunction(9, arr, "real")
    for rep in mo.dyadic_approx_audit_all(g, math.inf):
        assert rep.passed


def test_grid_refinement_stability(rng):
    f = random_trig_poly(rng, degree=64)
    p12 = mo.modulus_profile(render(f, 12), 2)
    p14 = mo.modulus_profile(render(f, 14), 2)
    ratio = p14.values[1:13] / p12.values[1:13]
    assert np.all(np.abs(ratio - 1) < 0.02)


def test_fourier_modulus_matches_grid(rng):
    f = random_trig_poly(rng, degree=32)
    grid = mo.modulus_profile(render(f, 13), 2)
    exact = mo.fourier_modulus_l2(f, 2.0 ** -np.arange(1, 8))
    assert np.abs(exact - grid.values[1:8]).max() < 2e-3


def test_fourier_modulus_rejects_huge_frequencies():
    f = sine_series({2**60: 1.0})
    with pytest.raises(ValueError):
        mo.fourier_modulus_l2(f, [0.5])


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


def _unblocked_scan(s, ps):
    """The reference generic-p pass: one thread, one full-size difference
    matrix per 256 rows, each p by its per-chunk expression, then folded
    to every shift t = 0..N."""
    n = s.size
    shifted = np.lib.stride_tricks.sliding_window_view(np.concatenate([s, s]), n)
    scan = {p: np.empty(n // 2 + 1) for p in ps}
    for lo in range(0, n // 2 + 1, 256):
        hi = min(lo + 256, n // 2 + 1)
        a = np.abs(shifted[lo:hi] - s)
        for p in ps:
            if p == math.inf:
                vals = a.max(axis=1)
            elif p == 1:
                vals = a.mean(axis=1)
            elif p == 1.5:
                vals = (a * np.sqrt(a)).mean(axis=1) ** (1 / 1.5)
            elif p == 4:
                sq = np.square(a)
                vals = (sq * sq).mean(axis=1) ** 0.25
            else:
                vals = np.power(a, p).mean(axis=1) ** (1.0 / p)
            scan[p][lo:hi] = vals
    ts = np.arange(n + 1) % n
    return {p: scan[p][np.minimum(ts, n - ts)] for p in ps}


@pytest.fixture(scope="module")
def scan_inputs():
    """J = 12 rows, real and complex, with their reference curves."""
    rng = np.random.default_rng(12)
    real = rng.standard_normal(2**12)
    cplx = real + 1j * rng.standard_normal(2**12)
    ps = {"real": [1, 1.5, 3, 8, math.inf], "complex": [1, 1.5, 3, 4, 8, math.inf]}
    return {k: (s, ps[k], _unblocked_scan(s, ps[k])) for k, s in (("real", real), ("complex", cplx))}


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("chunk", [1, 7, 63, 64, 65, 256, 512, 2049])
def test_shift_norm_curve_is_bit_identical_to_the_unblocked_scan(scan_inputs, kind, chunk):
    s, ps, reference = scan_inputs[kind]
    curves = mo.shift_norm_curve(s, ps, chunk=chunk)
    for p in ps:
        assert np.array_equal(curves[p], reference[p]), p


def test_more_scan_threads_than_cores_keep_every_row(monkeypatch, scan_inputs):
    # four threads on two or fewer cores, switching often: no row is lost or mixed
    monkeypatch.setattr(mo, "_SCAN_THREADS", 4)
    monkeypatch.setattr(mo.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for s, ps, reference in scan_inputs.values():
            curves = mo.shift_norm_curve(s, ps, chunk=7)
            for p in ps:
                assert np.array_equal(curves[p], reference[p]), p
    finally:
        sys.setswitchinterval(interval)


def test_scan_threads_stay_bounded_and_are_joined(monkeypatch, rng):
    opened = []

    class RecordingPool(mo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(mo, "ThreadPoolExecutor", RecordingPool)
    baseline = threading.active_count()
    for J in range(4, 15):
        mo.shift_norm_curve(rng.standard_normal(2**J), [math.inf], chunk=1)
        assert threading.active_count() == baseline
    if mo._scan_threads() == 1:
        assert opened == []
    else:
        assert len(opened) == 11 and all(w == 2 for w in opened)
    # one block (33 rows of 64 samples), or one CPU, keeps the scan in the calling thread
    opened.clear()
    mo.shift_norm_curve(rng.standard_normal(2**6), [1.5])
    monkeypatch.setattr(mo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    mo.shift_norm_curve(rng.standard_normal(2**10), [1.5], chunk=1)
    assert opened == []


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_on_threads_runs_each_block_once_with_buffers_from_the_caller(monkeypatch, threads):
    opened = []

    class RecordingPool(mo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(mo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(mo, "_SCAN_THREADS", threads)
    caller = threading.get_ident()
    baseline = threading.active_count()

    def make_buffers():
        assert threading.get_ident() == caller
        made.append([])
        return made[-1]

    def target(blocks, buffers, idents):
        buffers.extend(blocks)
        idents.add(threading.get_ident())

    for count, cpus in ((1, 4), (2, 4), (3, 4), (7, 4), (7, 1)):
        monkeypatch.setattr(mo.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        opened.clear()
        made, idents = [], set()
        mo._on_threads(target, list(range(count)), make_buffers, idents)
        width = min(threads, count, cpus)
        # worker w fills its own buffers with blocks w, w + width, ...: each block once
        assert made == [list(range(count))[w::width] for w in range(width)]
        assert opened == ([width] if width > 1 else [])
        assert idents == {caller} if width == 1 else caller not in idents
        assert threading.active_count() == baseline


def _scan_in_child(conn, s):
    conn.send(mo.shift_norm_curve(s, [1.5, math.inf], chunk=512))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")
def test_a_forked_child_scans_after_the_parent(rng):
    s = rng.standard_normal(2**12)
    parent = mo.shift_norm_curve(s, [1.5, math.inf], chunk=512)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_scan_in_child, args=(send, s))
    child.start()
    try:
        assert recv.poll(60), "the forked scan did not finish within 60 s"
        curves = recv.recv()
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    for p in (1.5, math.inf):
        assert np.array_equal(curves[p], parent[p])
