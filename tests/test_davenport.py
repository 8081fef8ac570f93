import io
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import zeta

from mgale import davenport as dv
from mgale.modulus import modulus_profile, shift_norm_curve
from mgale.torus import _lp_norm_array


CATALAN = 0.9159655941772190


def sawtooth_values(x) -> np.ndarray:
    """pi * (1/2 - frac(x)) for frac(x) != 0 and 0 at the jump: the
    pointwise sum of the lambda = 1 Davenport series."""
    x = np.asarray(x, dtype=np.float64)
    fr = x - np.floor(x)
    return np.where(fr == 0.0, 0.0, np.pi * (0.5 - fr))


def test_eval_at_quarter_is_catalan():
    g = dv.eval_davenport(dv.DavenportSpec(2.0, 2**14), 16)
    assert g.samples[2**14] == pytest.approx(CATALAN, abs=1e-8)


def test_eval_at_zero_vanishes():
    for lam in (0.75, 1.0, 2.0):
        g = dv.eval_davenport(dv.DavenportSpec(lam, 256), 10)
        assert g.samples[0] == pytest.approx(0.0, abs=1e-12)


def test_lambda_one_is_pi_scaled_sawtooth():
    g = dv.eval_davenport(dv.DavenportSpec(1.0, 512), 12)
    x = np.arange(2**12) / 2**12
    mask = (x > 1 / 64) & (x < 1 - 1 / 64)
    err = np.abs(g.samples - sawtooth_values(x))[mask].max()
    assert err < 0.02


def test_l2_norm_approaches_zeta_within_tail_bound():
    for lam in (0.75, 1.0, 1.5):
        spec = dv.DavenportSpec(lam, 2048)
        g = dv.eval_davenport(spec, 13)
        target = math.sqrt(zeta(2 * lam) / 2)
        tail = math.sqrt(zeta(2 * lam, spec.truncation + 1) / 2)  # (sum_{m > M} m^(-2 lam) / 2)^(1/2)
        assert abs(_lp_norm_array(g.samples, 2) - target) <= tail + 1e-9


def test_spec_validation():
    with pytest.raises(ValueError):
        dv.DavenportSpec(0.0, 10)
    with pytest.raises(ValueError):
        dv.DavenportSpec(1.0, 0)


# ------------------------------------------------------------------- gram

def test_gram_diagonal_lambda_one():
    gm = dv.gram_matrix([1], 1.0)
    assert gm.entries[0, 0] == pytest.approx(math.pi**2 / 12, abs=1e-12)


def test_gram_pair_one_two():
    gm = dv.gram_matrix([1, 2], 1.0)
    assert gm.entries[0, 1] == pytest.approx(math.pi**2 / 24, abs=1e-12)


def test_gram_coprime_formula():
    gm = dv.gram_matrix([2, 3], 0.75)
    assert gm.entries[0, 1] == pytest.approx((1 / 6) ** 0.75 * zeta(1.5) / 2, rel=1e-12)


def test_gram_invariants():
    gm = dv.gram_matrix([1, 2, 3, 4, 6, 8], 1.0)
    np.testing.assert_array_equal(gm.entries, gm.entries.T)
    diag = gm.entries[0, 0]
    assert gm.eigen_bounds[0] <= diag <= gm.eigen_bounds[1]
    assert np.all(np.diag(gm.entries) == diag)


def test_gram_rejects_small_lambda_and_duplicates():
    with pytest.raises(ValueError):
        dv.gram_matrix([1, 2], 0.5)
    with pytest.raises(ValueError):
        dv.gram_matrix([3, 3], 1.0)


def test_gram_quadrature_oracle_small():
    freqs = [1, 2, 3, 8, 16]
    for lam in (0.75, 1.0, 1.5):
        gm = dv.gram_matrix(freqs, lam)
        quad = dv.gram_quadrature(freqs, lam, M=2048, J=14)
        assert np.abs(gm.entries - quad).max() < 1e-6


def _quadrature_per_pair(freqs, lam, M, J, tail_corrected):
    # the quadrature as one gather, dot product and Hurwitz zeta per pair,
    # with no sharing between pairs of the same reduced pair
    n_grid, limit = 2**J, 2 ** (J - 1) - 1
    k = len(freqs)
    out = np.empty((k, k))
    idx = np.arange(n_grid)
    for i in range(k):
        for j in range(i, k):
            g = math.gcd(freqs[i], freqs[j])
            a, b = freqs[i] // g, freqs[j] // g
            cap_a, cap_b = min(M, limit // a), min(M, limit // b)
            fa = dv.eval_davenport(dv.DavenportSpec(lam, cap_a), J).samples[(a * idx) % n_grid]
            fb = dv.eval_davenport(dv.DavenportSpec(lam, cap_b), J).samples[(b * idx) % n_grid]
            val = float(fa @ fb) / n_grid
            if tail_corrected:
                t_max = min(cap_a // b, cap_b // a)
                val += (a * b) ** (-lam) * float(zeta(2 * lam, t_max + 1)) / 2.0
            out[i, j] = out[j, i] = val
    return out


@pytest.mark.parametrize("freqs", [[1, 2, 3, 4, 6, 8, 12, 16], "pow:2:10", "pow:3:6", [6, 40, 96, 1000]])
def test_gram_quadrature_matches_per_pair_quadrature(freqs):
    # odd dilations keep their renders whole, mixed 2-adic valuations keep
    # every 2nd to 2^e-th sample, and M = 7 puts every dilation on one cap
    freqs = dv.freqs_from_rule(freqs)
    for M in (2048, 7):
        quad = dv.gram_quadrature(freqs, 0.75, M=M, J=14)
        np.testing.assert_array_equal(quad, _quadrature_per_pair(freqs, 0.75, M, 14, True), err_msg=f"M={M}")


def test_gram_quadrature_keeps_strided_renders():
    # pow:2:16 at J = 19 has twelve caps; only the cap of 1, ..., 32 is
    # read at every grid point, so the traced peak stays below twelve
    # whole float64 renders of 2^19 samples
    tracemalloc.start()
    try:
        dv.gram_quadrature(dv.freqs_from_rule("pow:2:16"), 0.75, M=4096, J=19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**19 * 8


def test_gram_quadrature_once_per_reduced_pair(monkeypatch):
    # pow:2:10 has 66 pairs i <= j but only the 11 reduced pairs (1, 2^d)
    calls = []

    def counting_zeta(*args):
        calls.append(args)
        return zeta(*args)

    monkeypatch.setattr(dv, "_zeta", counting_zeta)
    dv.gram_quadrature(dv.freqs_from_rule("pow:2:10"), 0.75, M=2048, J=14)
    assert len(calls) == 11


_FIRST_ZETA_CALL = """
import sys

import mgale.cli

assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "import mgale.cli loaded scipy"

from mgale import davenport as dv

gm = dv.gram_matrix([1, 2], 0.75)
assert "scipy.special" in sys.modules

from scipy.special import zeta

z = float(zeta(1.5))
off = 0.5 * z * (1 / 2) ** 0.75
assert gm.entries.tolist() == [[0.5 * z, off], [off, 0.5 * z]], gm.entries
"""


def test_scipy_loads_at_the_first_zeta_call():
    # only the zeta calls of the Davenport kind need scipy: a fresh
    # process imports the CLI without it, and the first Gram matrix
    # loads scipy.special and equals the closed form computed with it
    src = pathlib.Path(dv.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_ZETA_CALL],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_gram_quadrature_names_unrenderable_pair():
    with pytest.raises(ValueError, match=r"\(1, 16384\) unrenderable at J=14"):
        dv.gram_quadrature([1, 2**14], 0.75, M=2048, J=14)


def test_gram_quadrature_head_alone_shows_truncation():
    # without the analytic tail the quadrature sits a visible distance
    # below the closed form at rough lambda: the head is genuinely
    # sample-driven, not a restatement of the formula
    freqs = [1, 2]
    gm = dv.gram_matrix(freqs, 0.75)
    head = _quadrature_per_pair(freqs, 0.75, 2048, 14, False)
    assert np.abs(gm.entries - head).max() > 1e-3
    quad = dv.gram_quadrature(freqs, 0.75, M=2048, J=14)
    np.testing.assert_array_equal(quad, _quadrature_per_pair(freqs, 0.75, 2048, 14, True))


def test_riesz_constants_single_frequency():
    gm = dv.gram_matrix([5], 0.75)
    lo, hi = dv.riesz_constants(gm)
    assert lo == hi == pytest.approx(math.sqrt(zeta(1.5) / 2), rel=1e-12)


def test_riesz_constants_lacunary_stable():
    gm8 = dv.gram_matrix([2**k for k in range(9)], 0.75)
    gm16 = dv.gram_matrix([2**k for k in range(17)], 0.75)
    lo8, _ = dv.riesz_constants(gm8)
    lo16, _ = dv.riesz_constants(gm16)
    assert lo16 > 0
    assert abs(lo8 - lo16) / lo16 < 0.05


def test_integer_family_eigenvalue_decays():
    lo16 = dv.gram_matrix(list(range(1, 17)), 0.75).eigen_bounds[0]
    lo64 = dv.gram_matrix(list(range(1, 65)), 0.75).eigen_bounds[0]
    assert lo64 < lo16  # consistent with no Riesz basis at 1/2 < lambda <= 1


def test_riesz_constants_rejects_singular():
    gm = dv.gram_matrix(list(range(1, 9)), 0.75)
    fake = dv.GramMatrix(gm.freqs, gm.lam, gm.entries, (1e-12, gm.eigen_bounds[1]))
    with pytest.raises(ValueError):
        dv.riesz_constants(fake)


def test_gram_matrix_refuses_asymmetric_entries():
    gm = dv.gram_matrix([1, 2, 3], 0.75)
    entries = gm.entries.copy()
    entries[0, 1] = np.nextafter(entries[0, 1], 1.0)
    with pytest.raises(ValueError, match="symmetric"):
        dv.GramMatrix(gm.freqs, gm.lam, entries, gm.eigen_bounds)


# ------------------------------------------------------------- smoothness

def test_smoothness_exponents():
    assert dv.smoothness_estimate(dv.DavenportSpec(0.75, 4096), 2, 14) == pytest.approx(0.25, abs=0.05)
    assert dv.smoothness_estimate(dv.DavenportSpec(1.0, 4096), 2, 14) == pytest.approx(0.5, abs=0.05)
    assert dv.smoothness_estimate(dv.DavenportSpec(2.0, 4096), 2, 14) >= 0.95


def test_smoothness_refuses_an_overflowing_p_before_the_scan(monkeypatch):
    # at lambda = 0.75 the largest |tau_t f - f| over t <= 2^(J-9) is
    # about 21.4, so its 1e300-th power overflows: the fit window would
    # read inf, and the shift scan is not run
    calls = []

    def spy(gf, p):
        calls.append(p)
        return modulus_profile(gf, p)

    monkeypatch.setattr(dv, "modulus_profile", spy)
    spec = dv.DavenportSpec(0.75, 4096)
    with pytest.raises(ValueError, match=r"not finite on the fit window: \[inf, inf, inf, inf, inf, inf, inf\]"):
        dv.smoothness_estimate(spec, 1e300, 14)
    assert calls == []
    assert math.isfinite(dv.smoothness_estimate(spec, 3, 14))
    assert calls == [3]


def test_smoothness_refuses_a_p_th_power_underflowing_to_0_before_the_scan(monkeypatch):
    # at lambda = 1.5 the largest |tau_t f - f| over t <= 2^(J-9) is
    # about 0.375, so its 1e300-th power is 0 and the window value at
    # n = 9 would read 0: only that maximum is taken, no generic-p scan
    # runs and numpy warns of nothing
    calls = []

    def spy(samples, p_values, **kw):
        calls.append((list(p_values), kw))
        return shift_norm_curve(samples, p_values, **kw)

    def no_profile(gf, p):
        raise AssertionError(f"the shift scan ran at p={p}")

    monkeypatch.setattr(dv, "shift_norm_curve", spy)
    monkeypatch.setattr(dv, "modulus_profile", no_profile)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"not finite on the fit window: n = 9 reads 0, .* 0\.375"):
            dv.smoothness_estimate(dv.DavenportSpec(1.5, 4096), 1e300, 14)
    assert calls == [([math.inf], {"max_shift": 32})]


def test_smoothness_takes_the_shift_maximum_only_for_a_powered_p(monkeypatch):
    # p = 1, 1.5, 2, 4 and inf never reach the scan's np.power, so no
    # |tau_t f - f| maximum is taken for them; p = 3 takes it once
    calls = []

    def spy(samples, p_values, **kw):
        calls.append((list(p_values), kw))
        return shift_norm_curve(samples, p_values, **kw)

    monkeypatch.setattr(dv, "shift_norm_curve", spy)
    spec = dv.DavenportSpec(0.75, 256)
    for p in (1, 1.5, 2, 4, math.inf):
        assert math.isfinite(dv.smoothness_estimate(spec, p, 10))
    assert calls == []
    assert math.isfinite(dv.smoothness_estimate(spec, 3, 10))
    assert calls == [([math.inf], {"max_shift": 2})]


def test_freqs_from_rule():
    assert dv.freqs_from_rule("pow:2:4") == [1, 2, 4, 8, 16]
    assert dv.freqs_from_rule([3, 1, 2]) == [3, 1, 2]
    with pytest.raises(ValueError):
        dv.freqs_from_rule("geom:2:4")


def test_freqs_from_rule_bounds_pow_before_building():
    assert len(dv.freqs_from_rule("pow:2:4096")) == 4097
    for rule in ("pow:2:4097", f"pow:{2**20}:4000"):  # K > 4096; K * bits(q) = 84000 > 2^16
        with pytest.raises(ValueError, match="too large"):
            dv.freqs_from_rule(rule)


def test_gram_csv():
    text = dv.gram_matrix([1, 2], 1.0).to_csv()
    assert text.splitlines()[0] == "i,j,freq_i,freq_j,entry"
    assert len(text.splitlines()) == 5


def _csv_per_cell(gm):
    # the Gram CSV written one cell at a time
    buf = io.StringIO()
    buf.write("i,j,freq_i,freq_j,entry\n")
    k = len(gm.freqs)
    for i in range(k):
        for j in range(k):
            buf.write(f"{i},{j},{gm.freqs[i]},{gm.freqs[j]},{float(gm.entries[i, j])!r}\n")
    return buf.getvalue()


@pytest.mark.parametrize("freqs, lam", [(range(300, 364), 0.75), ([5], 0.75), (dv.freqs_from_rule("pow:3:40"), 1.5)])
def test_gram_csv_matches_per_cell_writer(freqs, lam):
    gm = dv.gram_matrix(freqs, lam)
    assert gm.to_csv() == _csv_per_cell(gm)
