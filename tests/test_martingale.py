import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_average, random_grid
from mgale import martingale as mg
from mgale.torus import GridFunction, render, sine_series


def ramp(J=2):
    return np.arange(2**J) / 2**J


def pyramid_mean(arr, n, J):
    """E(.|F_n) on the full grid, read off the Haar pyramid."""
    return np.repeat(mg._haar_means(arr, J)[n], 2 ** (J - n), axis=-1)


def full_details(arr, J):
    """D_0 .. D_(J-1) on the full grid, read off the Haar pyramid."""
    coarse = mg._haar_details(mg._haar_means(arr, J))
    return [np.repeat(d, 2 ** (J - n - 1), axis=-1) for n, d in enumerate(coarse)]


def l2(arr):
    return float(mg._lp_norm_array(arr, 2))


# ------------------------------------------------- conditional expectation

def test_cond_exp_block_average_example():
    np.testing.assert_allclose(mg._haar_means(ramp(), 2)[1], [0.125, 0.625])


def test_cond_exp_trivial_algebra_is_mean(rng):
    g = random_grid(rng, 5, centered=False).samples
    np.testing.assert_allclose(mg._haar_means(g, 5)[0], [g.mean()])


def test_cond_exp_full_resolution_is_identity(rng):
    g = random_grid(rng, 5).samples
    np.testing.assert_array_equal(mg._haar_means(g, 5)[5], g)


def test_cond_exp_projection_identity(rng):
    g = random_grid(rng, 8).samples
    for n, m in ((3, 5), (5, 3), (4, 4)):
        lhs = pyramid_mean(pyramid_mean(g, n, 8), m, 8)
        np.testing.assert_allclose(lhs, pyramid_mean(g, min(n, m), 8), atol=1e-15)


def test_cond_exp_preserves_mean(rng):
    g = random_grid(rng, 7, centered=False).samples
    for level in mg._haar_means(g, 7):
        assert level.mean() == pytest.approx(g.mean(), abs=1e-14)


# ------------------------------------------------------------------ detail

def test_detail_of_constant_is_zero():
    for d in mg._haar_details(mg._haar_means(np.full(16, 2.5), 4)):
        np.testing.assert_array_equal(d, np.zeros_like(d))


def test_detail_ramp_level0():
    np.testing.assert_allclose(mg._haar_details(mg._haar_means(ramp(), 2))[0], [-0.25, 0.25])


def test_detail_is_conditionally_centered(rng):
    g = random_grid(rng, 9).samples
    details = full_details(g, 9)
    for n in (0, 3, 7):
        assert np.abs(mg._haar_means(details[n], 9)[n]).max() < 1e-14


# ------------------------------------------------------------ decomposition

def test_decompose_zero_function():
    assert all(np.abs(d).max() == 0 for d in full_details(np.zeros(16), 4))


def test_decompose_reconstructs_and_parseval():
    g = render(sine_series({1: 1.0}), 10).samples
    details = full_details(g, 10)
    assert np.abs(g.mean() + sum(details) - g).max() < 1e-12
    energy = sum(l2(d) ** 2 for d in details)
    assert energy == pytest.approx(l2(g) ** 2, rel=1e-12)


def test_details_constant_on_child_blocks(rng):
    # D_n is F_(n+1)-measurable: conditioning on F_(n+1) leaves it fixed
    g = random_grid(rng, 6).samples
    for n, d in enumerate(full_details(g, 6)):
        np.testing.assert_allclose(pyramid_mean(d, n + 1, 6), d, rtol=0, atol=1e-15)


def test_detail_orthogonality(rng):
    f, g = random_grid(rng, 8).samples, random_grid(rng, 8).samples
    df, dg = full_details(f, 8), full_details(g, 8)
    scale = l2(f) * l2(g)
    for n in range(8):
        for m in range(8):
            if n == m:
                continue
            ip = np.vdot(df[n], dg[m]) / 2**8
            assert abs(ip) <= 1e-12 * scale


# ------------------------------------------------------------ telescoping

def test_telescope_single_level(rng):
    # at J = 1 the chain is the one level D_0; at J = 0 there is none
    g = random_grid(rng, 1)
    [rep] = mg._telescoping_reports(g.samples[None], 1)
    assert rep.passed and rep.context == "telescoping-parseval[0,0]"
    assert rep.lhs == pytest.approx(l2(full_details(g.samples, 1)[0]) ** 2, rel=1e-12)
    with pytest.raises(ValueError, match="J >= 1"):
        mg.telescope_audit_batch(1, 0, 0)


def test_telescope_full_range_equals_centered_energy(rng):
    g = random_grid(rng, 8)
    [rep] = mg._telescoping_reports(g.samples[None], 8)
    assert rep.passed and rep.context == "telescoping-parseval[0,7]"
    assert rep.rhs == pytest.approx(l2(g.samples) ** 2, rel=1e-10)


def test_telescope_constant_zero():
    [rep] = mg._telescoping_reports(np.full((1, 16), 3.0), 4)
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


# ------------------------------------------------------------- rio / doob

def test_rio_single_detail_trivial(rng):
    d = full_details(random_grid(rng, 5).samples, 5)[0]  # centered, F_1-measurable
    (rep,) = mg._rio_reports(d[None], 5, [3.0], None)
    assert rep.passed


def test_rio_batch_p2_is_bessel():
    reports = mg.rio_audit_batch(200, [2], 10, seed=5)
    assert all(r.passed for r in reports)
    assert all(r.constant == 1.0 for r in reports)


def test_rio_sine_p4_positive_margin():
    (rep,) = mg._rio_reports(render(sine_series({1: 1.0}), 12).samples[None], 12, [4.0], None)
    assert rep.passed and rep.margin > 0


def test_doob_single_increment(rng):
    d = full_details(random_grid(rng, 6).samples, 6)[0]  # its detail martingale has the one increment d
    (rep,) = mg._doob_reports(d[None], 6, [2.0], None)
    assert rep.passed


def test_doob_detail_martingale(rng):
    g = random_grid(rng, 9)
    (rep,) = mg._doob_reports(g.samples[None], 9, [2.0], None)
    assert rep.passed and rep.constant == pytest.approx(2.0)


def test_doob_zero_increments():
    (rep,) = mg._doob_reports(np.zeros((1, 16)), 4, [1.5], None)
    assert rep.passed and rep.lhs == 0.0


def test_rio_doob_randomized_batches_all_pass():
    ps = [1.5, 2, 3, 4, 8]
    assert all(r.passed for r in mg.rio_audit_batch(500, ps, 9, seed=101))
    assert all(r.passed for r in mg.doob_audit_batch(500, ps, 9, seed=102))


@pytest.mark.parametrize("family", ["mixd", "noise", "Trig"])
def test_random_grid_functions_rejects_unknown_family(family):
    with pytest.raises(ValueError, match="unknown family"):
        mg.random_grid_functions(4, 6, np.random.default_rng(0), family)


def test_random_grid_functions_rejects_J0():
    with pytest.raises(ValueError, match="J=0"):
        mg.random_grid_functions(4, 0, np.random.default_rng(0), "trig")


def _full_spectrum_grid_functions(count, J, rng, family):
    """The construction on the full spectrum, n // 2 + 1 columns, with
    the "mixed" rows drawn into a new array: the reference for the
    library's zero-padded irfft and in-place draws."""
    n = 2**J
    deg = min(64, n // 2 - 1)
    ms = np.arange(1, deg + 1)
    spec = np.zeros((count, n // 2 + 1), dtype=np.complex128)
    spec[:, 1 : deg + 1] = (
        rng.standard_normal((count, deg)) + 1j * rng.standard_normal((count, deg))
    ) / np.sqrt(ms)
    arr = np.fft.irfft(spec, n, axis=1) * (n / 2.0)
    if family == "mixed":
        half = count // 2
        arr[:half] = rng.standard_normal((half, n))
    arr -= arr.mean(axis=1, keepdims=True)
    return arr


@pytest.mark.parametrize("J", [1, 2, 12, 18])
@pytest.mark.parametrize("family", ["trig", "mixed"])
def test_random_grid_functions_equal_the_full_spectrum_construction(J, family):
    got = mg.random_grid_functions(5, J, np.random.default_rng(7), family)
    assert np.array_equal(got, _full_spectrum_grid_functions(5, J, np.random.default_rng(7), family))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _telescope_audit_batch(cases, p_values, J, seed):
    """telescope_audit_batch under the rio and doob signature: telescoping reads no p."""
    return mg.telescope_audit_batch(cases, J, seed)


@pytest.mark.parametrize("batch, cases, J, bound", [
    pytest.param(mg.rio_audit_batch, 300, 12, 20e6, id="rio_audit_batch"),
    pytest.param(mg.doob_audit_batch, 300, 12, 20e6, id="doob_audit_batch"),
    pytest.param(mg.rio_audit_batch, 4, 18, 25e6, id="rio_audit_batch-J18"),
    pytest.param(mg.doob_audit_batch, 4, 18, 25e6, id="doob_audit_batch-J18"),
    pytest.param(_telescope_audit_batch, 300, 12, 20e6, id="telescope_audit_batch"),
    pytest.param(_telescope_audit_batch, 4, 18, 25e6, id="telescope_audit_batch-J18"),
])
def test_batch_audits_peak_below_20_mb(batch, cases, J, bound):
    # 300 cases at J = 12 are 9.4 MiB of test functions, 4 cases at J = 18
    # 8 MiB; the Haar pyramid, the details and the Doob arrays of one row
    # block at a time (16 rows at J = 12, one row at J = 18) add little
    _, peak = _traced_peak(batch, cases, [1.5, 2, 3, 4, 8], J, 3)
    assert peak <= bound


def test_mixed_grid_functions_peak_below_1_6_results():
    arr, peak = _traced_peak(mg.random_grid_functions, 300, 12, np.random.default_rng(3), "mixed")
    assert peak <= 1.6 * arr.nbytes


# ------------------------------------------------------ Haar pyramid kernels
# The full-resolution formulations the pyramid replaced stay here as the
# references: details as differences of block averages, Doob's maximum
# as the running maximum of the cumulated details, and the per-case
# batch loops.  Only the summation order differs, so the tolerances are
# a few ulps of the data.

def _reference_details(arr, J):
    return [block_average(arr, n + 1, J) - block_average(arr, n, J) for n in range(J)]


def _pyramid_input(rng, J, batch, complex_values):
    shape = (5, 2**J) if batch else (2**J,)
    arr = rng.standard_normal(shape)
    if complex_values:
        arr = arr + 1j * rng.standard_normal(shape)
    return arr


@pytest.mark.parametrize("J", [0, 1, 6])
@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("complex_values", [False, True])
def test_pyramid_details_match_block_average_differences(rng, J, batch, complex_values):
    arr = _pyramid_input(rng, J, batch, complex_values)
    atol = 64 * np.finfo(np.float64).eps * np.abs(arr).max()
    ref = _reference_details(arr, J)
    coarse = mg._haar_details(mg._haar_means(arr, J))
    assert len(coarse) == J
    for n in range(J):
        assert coarse[n].shape == arr.shape[:-1] + (2 ** (n + 1),)
        full = np.repeat(coarse[n], 2 ** (J - n - 1), axis=-1)
        np.testing.assert_allclose(full, ref[n], rtol=0, atol=atol)
        for p in (1.5, 2, 3, math.inf):
            np.testing.assert_allclose(
                mg._lp_norm_array(coarse[n], p), mg._lp_norm_array(ref[n], p), rtol=1e-13, atol=atol
            )


@pytest.mark.parametrize("J", [1, 6])
@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("complex_values", [False, True])
def test_pyramid_doob_maximum_matches_cumulated_details(rng, J, batch, complex_values):
    arr = _pyramid_input(rng, J, batch, complex_values)
    atol = 64 * np.finfo(np.float64).eps * np.abs(arr).max()
    ref = np.abs(np.cumsum(np.stack(_reference_details(arr, J)), axis=0)).max(axis=0)
    np.testing.assert_allclose(mg._doob_maximal(mg._haar_means(arr, J)), ref, rtol=0, atol=atol)


def test_pyramid_doob_maximum_at_J0_is_zero():
    np.testing.assert_array_equal(mg._doob_maximal(mg._haar_means(np.array([2.5]), 0)), [0.0])


def _reference_rio_batch(cases, p_values, J, seed):
    arr = mg.random_grid_functions(cases, J, np.random.default_rng(seed), "mixed")
    stack = _reference_details(arr, J)
    out = []
    for i in range(cases):
        p = p_values[i % len(p_values)]
        pp = min(2.0, p)
        dsum = sum(float(mg._lp_norm_array(s[i], p)) ** pp for s in stack)
        out.append((mg._lp_norm_array(arr[i], p), max(1.0, math.sqrt(p - 1.0)) * dsum ** (1.0 / pp),
                    f"rio[p={p},case={i}]"))
    return out


def _reference_doob_batch(cases, p_values, J, seed):
    arr = mg.random_grid_functions(cases, J, np.random.default_rng(seed), "mixed")
    partial = np.cumsum(np.stack(_reference_details(arr, J)), axis=0)
    smax = np.abs(partial).max(axis=0)
    out = []
    for i in range(cases):
        p = p_values[i % len(p_values)]
        out.append((mg._lp_norm_array(smax[i], p), p / (p - 1.0) * mg._lp_norm_array(partial[-1][i], p),
                    f"doob[p={p},case={i}]"))
    return out


@pytest.mark.parametrize("batch, reference", [
    (mg.rio_audit_batch, _reference_rio_batch),
    (mg.doob_audit_batch, _reference_doob_batch),
])
def test_batch_audits_match_per_case_reference(batch, reference):
    ps = [1.5, 2, 3, 8]
    reports = batch(23, ps, 7, seed=11)
    ref = reference(23, ps, 7, 11)
    assert [r.context for r in reports] == [c for _, _, c in ref]
    assert all(r.passed and r.seed == 11 for r in reports)
    np.testing.assert_allclose([r.lhs for r in reports], [l for l, _, _ in ref], rtol=1e-13)
    np.testing.assert_allclose([r.rhs for r in reports], [h for _, h, _ in ref], rtol=1e-13)


def _unblocked_rio_reports(arr, J, p_values, seed):
    """The one-pass Rio audit: one Haar pyramid over all rows."""
    cases = arr.shape[0]
    details = mg._haar_details(mg._haar_means(arr, J))
    consts = [max(1.0, math.sqrt(p - 1.0)) for p in p_values]
    lhs, rhs = np.empty(cases), np.empty(cases)
    for k, (p, const) in enumerate(zip(p_values, consts)):
        rows = slice(k, None, len(p_values))
        pp = min(2.0, p)
        lhs[rows] = mg._lp_norm_array(arr[rows], p)
        dsum = sum(mg._lp_norm_array(d[rows], p) ** pp for d in details)
        rhs[rows] = const * dsum ** (1.0 / pp)
    return [
        mg._bound_report(lhs[i], rhs[i], consts[i % len(p_values)],
                         f"rio[p={p_values[i % len(p_values)]},case={i}]", seed=seed)
        for i in range(cases)
    ]


def _unblocked_doob_reports(arr, J, p_values, seed):
    """The one-pass Doob audit: one Haar pyramid and S* over all rows."""
    cases = arr.shape[0]
    means = mg._haar_means(arr, J)
    smax = mg._doob_maximal(means)
    final = arr - means[0]
    consts = [p / (p - 1.0) for p in p_values]
    lhs, rhs = np.empty(cases), np.empty(cases)
    for k, (p, const) in enumerate(zip(p_values, consts)):
        rows = slice(k, None, len(p_values))
        lhs[rows] = mg._lp_norm_array(smax[rows], p)
        rhs[rows] = const * mg._lp_norm_array(final[rows], p)
    return [
        mg._bound_report(lhs[i], rhs[i], consts[i % len(p_values)],
                         f"doob[p={p_values[i % len(p_values)]},case={i}]", seed=seed)
        for i in range(cases)
    ]


def _per_case_telescoping_reports(arr, J, p_values, seed):
    """The per-case telescoping audit: one Haar pyramid per row, its detail
    energies summed in level order."""
    reports = []
    for f in arr:
        means = mg._haar_means(f, J)
        lhs = 0.0
        for d in mg._haar_details(means):
            lhs += mg._lp_norm_array(d, 2) ** 2
        lhs, rhs = float(lhs), float(mg._lp_norm_array(means[J] - np.repeat(means[0], 2**J), 2) ** 2)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        reports.append(mg.AuditReport(lhs, rhs, 1.0, abs(lhs - rhs) <= 1e-10 * scale, f"telescoping-parseval[0,{J - 1}]"))
    return reports


def _telescoping_reports(arr, J, p_values, seed):
    """_telescoping_reports under the rio and doob signature: no p, no seed in the rows."""
    return mg._telescoping_reports(arr, J)


@pytest.mark.parametrize("blocked, unblocked", [
    (mg._rio_reports, _unblocked_rio_reports),
    (mg._doob_reports, _unblocked_doob_reports),
    (_telescoping_reports, _per_case_telescoping_reports),
])
@pytest.mark.parametrize("cases, p_values, J", [
    (1, [2], 8),
    (301, [1.5, 2, 3, 4, 8], 8),  # blocks of 256 rows, the second from mid-cycle and of 45
    (16, [1.5, 2, 3, 8], 12),  # one block of 16 rows
    (301, [1.5, 2, 3, 4, 8], 12),  # blocks of 16 rows from mid-cycle, the last of 13
    (301, [3], 12),
    (1, [1.5, 2, 3, 8], 18),
    (16, [1.5, 2, 3, 4, 8], 18),  # blocks of 1 row
    (7, [1.5, 3, 8], 15),  # blocks of 2 rows from mid-cycle, the last of 1
    (5, [3], 18),  # blocks of 1 row with a single p
    (0, [1.5, 2], 8),
])
def test_row_blocked_audits_are_bit_identical_to_one_pass(blocked, unblocked, cases, p_values, J):
    arr = mg.random_grid_functions(cases, J, np.random.default_rng(cases + J), "mixed")
    reports = blocked(arr, J, p_values, 4)
    assert reports == unblocked(arr, J, p_values, 4)
    assert len(reports) == cases


@pytest.mark.parametrize("rows, row_cells, want", [
    (0, 2**12, 1),  # no rows: a step of 1 over an empty range
    (5, 2**12, 5),  # fewer rows than one block holds
    (3, 2**17, 1),  # a row wider than _BLOCK_CELLS
    (301, 2**12, 16),  # 18 full blocks and a ragged last one of 13
    (2**17, 1, 2**16),  # the Riesz density: a grid point is a row of one cell
])
def test_rows_per_block(rows, row_cells, want):
    assert mg._rows_per_block(rows, row_cells) == want


# ------------------------------------ rerouted functions vs block averages
# E(.|F_n), D_n, the Doob audit, detail_criteria and bounded_deltas read
# E(.|F_n) off the Haar pyramid; their old bodies on full-resolution
# block averages are the references.  The pyramid sums in a different
# order, so values agree to a few ulps of the data.

#: the identity map (None), a map with repeats and levels past J, and one
#: that starts above 0 (for J = 0, 1, 6)
LEVEL_MAPS = [None, [0, 0, 2, 2, 9], [2, 2, 3, 9, 9]]


def _ulps(arr):
    return 8 * np.finfo(np.float64).eps * max(float(np.abs(arr).max()), 1e-300)


def _grid(arr, J):
    return GridFunction(J, arr, "complex" if np.iscomplexobj(arr) else "real")


def _centered_family(rng, J, count, complex_values):
    arr = _pyramid_input(rng, J, True, complex_values)[:count]
    return arr - arr.mean(axis=-1, keepdims=True)


@pytest.mark.parametrize("J", [0, 1, 6])
@pytest.mark.parametrize("complex_values", [False, True])
def test_cond_exp_detail_decompose_match_block_averages(rng, J, complex_values):
    arr = _centered_family(rng, J, 1, complex_values)[0]
    atol = _ulps(arr)
    for n in range(J + 1):
        np.testing.assert_allclose(pyramid_mean(arr, n, J), block_average(arr, n, J), rtol=0, atol=atol)
    ref = _reference_details(arr, J)
    details = full_details(arr, J)
    assert len(details) == J
    for n in range(J):
        np.testing.assert_allclose(details[n], ref[n], rtol=0, atol=atol)
    np.testing.assert_allclose(sum(details, np.zeros_like(arr)), arr, rtol=0, atol=J * atol)


@pytest.mark.parametrize("J", [0, 1, 6])
@pytest.mark.parametrize("complex_values", [False, True])
def test_doob_maximal_audit_matches_block_average_check(rng, J, complex_values):
    arr = _centered_family(rng, J, 5, complex_values)
    # S_0 = 0, then S_m = D_0 + ... + D_(m-1) from block-average differences
    partial = np.cumsum(np.stack([np.zeros_like(arr)] + _reference_details(arr, J)), axis=0)
    lhs = mg._lp_norm_array(np.abs(partial).max(axis=0), 2.5)
    rhs = 2.5 / 1.5 * mg._lp_norm_array(partial[-1], 2.5)
    reports = mg._doob_reports(arr, J, [2.5], None)
    assert all(rep.passed for rep in reports)
    np.testing.assert_allclose([rep.lhs for rep in reports], lhs, rtol=1e-13, atol=_ulps(arr))
    np.testing.assert_allclose([rep.rhs for rep in reports], rhs, rtol=1e-13, atol=_ulps(arr))


def _reference_detail_criteria(Z, levels, p):
    J, N = Z[0].resolution_log2, len(Z)

    def lv(j):  # slot -1 starts at the trivial algebra F_0
        return 0 if j < 0 else min(levels[j], J) if j < N else J

    pp = min(2.0, p)
    samples = np.stack([z.samples for z in Z])
    cond = {m: block_average(samples, m, J) for m in range(J + 1)}

    def norm(slot, n):
        lo, hi = lv(slot), lv(slot + 1)
        return 0.0 if lo == hi else float(mg._lp_norm_array(cond[hi][n] - cond[lo][n], p))

    s1 = sum(sum(norm(n + k, n) ** pp for n in range(N) if n + k <= N) ** (1 / pp) for k in range(N + 1))
    s2 = sum(sum(norm(n, n + k) ** pp for n in range(-1, N - k)) ** (1 / pp) for k in range(1, N + 1))
    lhs = float(mg._lp_norm_array(np.abs(np.cumsum(samples, axis=0)).max(axis=0), p))
    return s1, s2, lhs


def _reference_bounded_deltas(Z, levels):
    J, N = Z[0].resolution_log2, len(Z)

    def lv(j):
        return min(levels[j] if j < N else J, J)

    samples = np.stack([z.samples for z in Z])
    cond = {m: block_average(samples, m, J) for m in range(J + 1)}
    d1 = 0.0
    for ell in range(N + J + 1):
        inner = sum(float(np.abs(samples[k] - cond[lv(ell + k)][k]).max()) ** 2 for k in range(N) if lv(ell + k) < J)
        if inner == 0.0 and lv(ell) >= J:
            break
        d1 += math.sqrt(inner)
    d2 = sum(
        math.sqrt(sum(float(np.abs(cond[lv(k + 1 - ell)][k]).max()) ** 2 for k in range(ell, N)))
        for ell in range(N)
    )
    return d1, d2


@pytest.mark.parametrize("J", [0, 1, 6])
@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("levels", LEVEL_MAPS)
def test_detail_criteria_and_bounded_deltas_match_block_averages(rng, J, complex_values, levels):
    arr = _centered_family(rng, J, 5, complex_values)
    Z = [_grid(a, J) for a in arr]
    atol = _ulps(arr)
    lv_map = list(range(len(Z))) if levels is None else levels
    for p in (1.5, 2, 3):
        res = mg.detail_criteria(Z, lv_map, p)
        s1, s2, lhs = _reference_detail_criteria(Z, lv_map, p)
        np.testing.assert_allclose([res.higher_sum, res.lower_sum], [s1, s2], rtol=0, atol=atol)
        assert res.audit.lhs == lhs and res.audit.passed
    np.testing.assert_allclose(
        mg.bounded_deltas(Z, lv_map), _reference_bounded_deltas(Z, lv_map), rtol=0, atol=atol
    )
    for bad in ([-1] + lv_map[1:], lv_map[:-1]):
        with pytest.raises(ValueError):
            mg.detail_criteria(Z, bad, 2.0)
    for bad in ([0, 0, -1, 2, 9], [0, 2, 1, 3, 4], lv_map[:-1]):
        with pytest.raises(ValueError):
            mg.bounded_deltas(Z, bad)


# ----------------------------------------------------- detail criteria

def test_k_p_value():
    assert mg.k_p(2.0) == pytest.approx(2.0)
    assert mg.k_p(4.0) == pytest.approx(4.0 / 3.0 * math.sqrt(3.0))


def test_detail_criteria_adapted_higher_details_vanish(rng):
    # Z_n measurable for A_{n+1} = F_{n+1}: only the k = 0 slot survives
    J = 8
    details = full_details(random_grid(rng, J).samples, J)
    Z = [GridFunction(J, details[n], "real") for n in range(4)]
    res = mg.detail_criteria(Z, levels=list(range(4)), p=2.0)
    k0 = sum(l2(z.samples) ** 2 for z in Z) ** 0.5
    assert res.higher_sum == pytest.approx(k0, rel=1e-10)
    assert res.audit.passed


def test_detail_criteria_single_term_reduces_to_rio(rng):
    z = render(sine_series({1: 1.0}), 9)
    res = mg.detail_criteria([z], levels=[0], p=2.0)
    assert res.lower_sum == 0.0
    assert res.audit.passed


def test_detail_criteria_randomized_families(rng):
    J = 8
    for trial in range(25):
        local = np.random.default_rng(trial)
        count = int(local.integers(2, 7))
        Z = []
        for i in range(count):
            arr = local.standard_normal(2**J)
            arr -= arr.mean()
            Z.append(GridFunction(J, arr, "real"))
        p = [1.5, 2, 3, 4, 8][trial % 5]
        res = mg.detail_criteria(Z, levels=list(range(count)), p=p)
        assert res.audit.passed, res.audit.context


def test_detail_criteria_counts_the_slot_below_the_first_level():
    # with levels[0] = J every component E(Z_n|F_J) - E(Z_n|F_0) = Z_n
    # lies in the slot F_0 -> A_0, which joins the lower-order sum
    J = 4
    arr = mg.random_grid_functions(2, J, np.random.default_rng(0), "trig")
    res = mg.detail_criteria([GridFunction(J, a, "real") for a in arr], [4, 4], 2.0)
    assert res.higher_sum == 0.0
    assert res.lower_sum == pytest.approx(l2(arr[0]) + l2(arr[1]), rel=1e-12)
    assert res.audit.lhs == pytest.approx(1.6009, abs=1e-4)
    assert res.audit.passed


# ------------------------------------------------------ bounded moments

def test_bounded_moments_zero_family():
    Z = [GridFunction(5, np.zeros(32), "real") for _ in range(4)]
    for rep in mg.bounded_moment_audits(Z, 0.0, 0.0, [2, 4, 8]):
        assert rep.passed and rep.lhs == 0.0


def test_bounded_moments_scaled_details(rng):
    J = 10
    details = full_details(random_grid(rng, J).samples, J)
    Z = [GridFunction(J, 2.0**-n * details[n], "real") for n in range(J)]
    d1, d2 = mg.bounded_deltas(Z, list(range(J)))
    reports = mg.bounded_moment_audits(Z, d1, d2, [2, 4, 8])
    assert all(r.passed for r in reports)


def test_bounded_moments_margin_grows_like_sqrt_p(rng):
    J = 9
    details = full_details(random_grid(rng, J).samples, J)
    Z = [GridFunction(J, 2.0**-n * details[n], "real") for n in range(J)]
    d1, d2 = mg.bounded_deltas(Z, list(range(J)))
    ps = [4.0, 8.0, 16.0, 32.0, 64.0]
    reps = mg.bounded_moment_audits(Z, d1, d2, ps)
    slope = np.polyfit(np.log(ps), np.log([r.margin for r in reps]), 1)[0]
    assert 0.3 < slope < 0.7  # trend check only: rhs ~ 2 K_p Delta ~ sqrt(p)


# ------------------------------------------------------------ report rows

def test_margin_is_rhs_minus_lhs():
    rep = mg.AuditReport(1.25, 3.5, 2.0, True, "row")
    assert rep.margin == 2.25
    assert mg._bound_report(4.0, 1.0, 1.0, "row").margin == -3.0


def test_tolerance_report_passes_at_the_tolerance_and_refuses_a_non_finite_side():
    rep = mg._tolerance_report(1e-6, 1e-6, "at-tol")
    assert rep.passed and (rep.lhs, rep.rhs, rep.constant, rep.margin) == (1e-6, 1e-6, 1.0, 0.0)
    assert not mg._tolerance_report(math.nextafter(1e-6, 1.0), 1e-6, "past-tol").passed  # no slack
    # a NaN error is no failed check but a broken one, and inf <= inf would pass
    for err, tol in [(math.nan, 1e-6), (math.inf, 1e-6), (math.inf, math.inf), (0.0, math.nan)]:
        with pytest.raises(ValueError, match="non-finite"):
            mg._tolerance_report(err, tol, "broken")


@pytest.mark.parametrize("lhs, rhs", [(math.inf, math.inf), (0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0)])
def test_bound_report_refuses_a_non_finite_side(lhs, rhs):
    # inf <= inf would read as a passed row
    with pytest.raises(ValueError, match="non-finite"):
        mg._bound_report(lhs, rhs, 1.0, "bound")


# ---------------------------------------------------------- paley-zygmund

def test_paley_zygmund_constant():
    # bound in lhs, exact probability in rhs (uniform lhs <= rhs layout)
    rep = mg.paley_zygmund_audit([1.0], [1.0], 0.5, 2.0)
    assert rep.passed and rep.rhs == 1.0 and rep.lhs == pytest.approx(0.25)


def test_paley_zygmund_two_point():
    rep = mg.paley_zygmund_audit([0.0, 2.0], [0.5, 0.5], 0.5, 2.0)
    assert rep.rhs == pytest.approx(0.5)
    assert rep.lhs == pytest.approx(1.0 / 8.0)
    assert rep.passed


def test_paley_zygmund_lambda_near_one():
    rep = mg.paley_zygmund_audit([0.0, 2.0], [0.5, 0.5], 0.999, 2.0)
    assert rep.passed and rep.lhs < 1e-4


def test_paley_zygmund_validation():
    with pytest.raises(ValueError):
        mg.paley_zygmund_audit([-1.0, 1.0], [0.5, 0.5], 0.5, 2.0)
    with pytest.raises(ValueError):
        mg.paley_zygmund_audit([1.0, 1.0], [0.6, 0.6], 0.5, 2.0)


@pytest.mark.parametrize("scale", [1e-16, 1.0, 1e16])
def test_paley_zygmund_tie_tolerance_is_scale_free(scale):
    # the exact probability of one law must not depend on its units
    rep = mg.paley_zygmund_audit([scale, 0.0], [0.5, 0.5], 0.9, 2.0)
    assert rep.rhs == 0.5 and rep.passed
    # a tie at lam * E Z = 1 * scale counts as reached
    rep = mg.paley_zygmund_audit([0.0, scale, 3 * scale], [1 / 3, 1 / 3, 1 / 3], 0.75, 2.0)
    assert rep.rhs == pytest.approx(2 / 3) and rep.passed


@given(st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_parseval_property(seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(2**7)
    arr -= arr.mean()
    energy = sum(l2(d) ** 2 for d in mg._haar_details(mg._haar_means(arr, 7)))
    assert energy == pytest.approx(l2(arr) ** 2, rel=1e-10)


@given(st.integers(0, 100), st.sampled_from([1.5, 2, 3, 4, 8]))
@settings(max_examples=30, deadline=None)
def test_rio_property(seed, p):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(2**6)
    arr -= arr.mean()
    (rep,) = mg._rio_reports(arr[None], 6, [p], seed)
    assert rep.passed
