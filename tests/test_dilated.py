import math

import numpy as np
import pytest

from conftest import block_average, random_trig_poly
from mgale import dilated as dl
from mgale.modulus import ModulusProfile, fourier_modulus_l2, modulus_profile
from mgale.tails import TailModel
from mgale.torus import AliasingError, FourierFunction, _lp_norm_array, dilate, lp_norm, render, sine_series


def _frac_of_multiple(x_int: int, n: int, bits: int) -> float:
    """frac(n * X / 2^bits) as float64, exact reduction first: the
    per-term reference formulation of the general exact-point path."""
    v = (n * x_int) % (1 << bits)
    if bits <= 53:
        return v / float(1 << bits)
    return float(v >> (bits - 53)) / float(1 << 53)


def sin_spec(coeffs, freqs):
    return dl.SeriesSpec(tuple(coeffs), tuple(freqs), sine_series({1: 1.0}))


# ------------------------------------------------------------- lacunarity

def test_lacunarity_examples():
    assert dl.lacunarity_ratio((1, 2, 4, 8)) == pytest.approx(2.0)
    assert dl.lacunarity_ratio((1, 3, 9, 28)) == pytest.approx(3.0)
    assert dl.lacunarity_ratio((5, 6)) == pytest.approx(1.2)
    with pytest.raises(ValueError):
        dl.lacunarity_ratio((7,))


def test_spec_validation():
    with pytest.raises(ValueError):
        sin_spec([1.0], [0])
    with pytest.raises(ValueError):
        sin_spec([1.0, 1.0], [4, 2])
    with pytest.raises(ValueError):
        dl.SeriesSpec((1.0,), (1,), FourierFunction({0: 1.0, 1: 1.0}))


# ------------------------------------------------------------ partial sums

def test_partial_sums_zero_coeffs():
    spec = sin_spec([0.0, 0.0], [1, 2])
    for s in dl.partial_sums(spec, 1, 8):
        assert np.abs(s.samples).max() == 0.0


def test_partial_sums_single_sine():
    spec = sin_spec([1.0], [1])
    s0 = dl.partial_sums(spec, 0, 10)[0]
    x = np.arange(2**10) / 2**10
    assert np.abs(s0.samples - np.sin(2 * np.pi * x)).max() < 1e-12


def test_partial_sums_pointwise_oracle():
    spec = sin_spec([1.0, 0.5], [1, 2])
    s1 = dl.partial_sums(spec, 1, 10)[1]
    x = np.arange(2**10) / 2**10
    oracle = np.sin(2 * np.pi * x) + 0.5 * np.sin(4 * np.pi * x)
    assert np.abs(s1.samples - oracle).max() < 1e-12


def test_partial_sums_strict_aliasing():
    spec = sin_spec([1.0, 1.0], [1, 2**12])
    with pytest.raises(AliasingError):
        dl.partial_sums(spec, 1, 10)


def test_partial_sums_linear_in_coeffs(rng):
    freqs = (1, 3, 7)
    a = rng.standard_normal(3)
    b = rng.standard_normal(3)
    sa = dl.partial_sums(sin_spec(a, freqs), 2, 9)[2]
    sb = dl.partial_sums(sin_spec(b, freqs), 2, 9)[2]
    sab = dl.partial_sums(sin_spec(a + b, freqs), 2, 9)[2]
    assert np.abs(sab.samples - sa.samples - sb.samples).max() < 1e-12


def test_maximal_function_dominates():
    spec = sin_spec([1.0, -0.7, 0.3], [1, 2, 4])
    sums = dl.partial_sums(spec, 2, 9)
    mx = dl.maximal_function(spec, 2, 9)
    for s in sums:
        assert np.all(mx.samples >= np.abs(s.samples) - 1e-15)
    single = dl.maximal_function(sin_spec([2.0], [3]), 0, 9)
    np.testing.assert_allclose(single.samples, np.abs(dl.partial_sums(sin_spec([2.0], [3]), 0, 9)[0].samples))


# ------------------------------------------------------- exact-point path

def test_fast_path_matches_general_path():
    gen = sine_series({1: 1.0, 2: -0.3, 8: 0.2})
    spec = dl.SeriesSpec((0.9, -0.4, 0.2), (1, 2, 4), gen)
    bitmat, ints = dl.sample_dyadic_points(11, 90, seed=8)
    fast = dl.series_values_at_points(spec, 3, bitmat, ints)
    # force the general path with a non-dyadic frequency clone
    gen2 = sine_series({1: 1.0, 2: -0.3, 8: 0.2})
    spec2 = dl.SeriesSpec((0.9, -0.4, 0.2), (1, 3, 4), gen2)
    # same first and last frequencies: compare those two columns via ints
    gen_eval = lambda y: np.sin(2 * np.pi * y) - 0.3 * np.sin(4 * np.pi * y) + 0.2 * np.sin(16 * np.pi * y)
    xs = np.array([_frac_of_multiple(v, 1, 90) for v in ints])
    np.testing.assert_allclose(fast[:, 0], 0.9 * gen_eval(xs), atol=1e-12)
    gen_path = dl.series_values_at_points(spec2, 3, bitmat, ints)
    np.testing.assert_allclose(gen_path[:, 0], 0.9 * gen_eval(xs), atol=1e-12)


@pytest.mark.parametrize("freqs", [
    [3**k for k in range(200)],                # multiply recurrence throughout
    list(range(1, 150)),                       # consecutive: add recurrence
    [5, 3, -7, 12, 0, 9, 2**70 + 1, 3, -3],    # non-monotone, signs, zero
    [2, 6, 7, 14, 28, 29, 58, 3**40, 3**41],   # mixed multiply and add steps
])
@pytest.mark.parametrize("bits", [40, 53, 54, 400])
def test_general_path_fracs_bit_identical(freqs, bits):
    _, ints = dl.sample_dyadic_points(23, bits, seed=bits)
    fast = dl._fracs_of_multiples(ints, freqs, bits)
    ref = np.array([[_frac_of_multiple(x, n, bits) for n in freqs] for x in ints])
    np.testing.assert_array_equal(fast, ref)


def test_general_path_values_match_per_term_reference():
    gen = FourierFunction({1: 0.4 - 0.2j, -1: 0.4 + 0.2j, 5: 0.1j, -5: -0.1j, 7: 0.05})
    freqs = tuple(3**k for k in range(40)) + tuple(3**39 + k for k in range(1, 9))
    spec = dl.SeriesSpec(tuple(1.0 / (k + 1) for k in range(len(freqs))), freqs, gen)
    bits = (freqs[-1] * 7).bit_length() + 64
    bitmat, ints = dl.sample_dyadic_points(31, bits, seed=6)
    got = dl.series_values_at_points(spec, len(freqs), bitmat, ints)
    ms = np.array(gen.frequencies)
    cs = np.array([gen.coeffs[m] for m in gen.frequencies])
    ref = np.empty((len(ints), len(freqs)), dtype=np.complex128)
    for k, n in enumerate(freqs):
        ys = np.array([_frac_of_multiple(x, n, bits) for x in ints])
        ref[:, k] = spec.coeffs[k] * (np.exp(2j * np.pi * np.outer(ys, ms)) @ cs)
    np.testing.assert_array_equal(got, ref)


def test_doubling_orbit_exactness():
    bitmat, ints = dl.sample_dyadic_points(5, 120, seed=2)
    fr = dl._doubling_orbit_fracs(bitmat)
    for m in (0, 7, 60):
        direct = np.array([_frac_of_multiple(v, 2**m, 120) for v in ints])
        assert np.abs(fr[:, m] - direct).max() < 1e-15


# -------------------------------------------------------- oscillation

def test_oscillation_zero_coefficients():
    spec = sin_spec([0.0] * 64, [2**k for k in range(64)])
    diag = dl.oscillation_diagnostic(spec, [4, 8, 16], 128, seed=3)
    assert diag.verdict == "converging"
    assert np.all(diag.median == 0)


def test_oscillation_geometric_converging():
    K = 256
    spec = sin_spec([2.0**-k for k in range(1, K + 1)], [2**k for k in range(1, K + 1)])
    diag = dl.oscillation_diagnostic(spec, [4, 8, 16, 32, 64, 128], 150, seed=5)
    assert diag.verdict == "converging"


def test_oscillation_csv_columns():
    spec = sin_spec([0.5, 0.25], [2, 4])
    diag = dl.oscillation_diagnostic(spec, [1], 100, seed=1)
    assert diag.to_csv().splitlines()[0] == "checkpoint,median_osc,q90_osc"


def test_verdict_rules_unit():
    cps = np.array([16, 32, 64, 128, 256, 512, 1024, 2048, 4096], dtype=float)
    falling = 1.0 / np.sqrt(cps)
    assert dl.oscillation_verdict(cps, falling)[0] == "converging"
    flat = np.ones(len(cps))
    assert dl.oscillation_verdict(cps, flat)[0] == "diverging"
    rising = np.linspace(1, 2, len(cps))
    assert dl.oscillation_verdict(cps, rising)[0] == "diverging"
    # slow decay outrunning the l2 window scale: the sharpness signature
    med = cps**-0.05
    scales = cps**-0.5
    assert dl.oscillation_verdict(cps, med, scales)[0] == "diverging"
    # the same slow decay tracking its l2 scale: inconclusive, not diverging
    assert dl.oscillation_verdict(cps, med, med)[0] == "inconclusive"


@pytest.mark.parametrize("cps, med", [([16], [0.3]), ([16, 16], [0.3, 0.2]), ([16], [0.0]), ([8, 8, 8], [1.0, 2.0, 3.0])])
def test_verdict_needs_two_distinct_checkpoints(cps, med):
    # one window has no trend: neither "monotone" nor "stagnation" applies
    assert dl.oscillation_verdict(cps, med) == ("inconclusive", 0.0)
    assert dl.oscillation_verdict(cps, med, [0.1] * len(cps)) == ("inconclusive", 0.0)


# -------------------------------------------------------- contraction

def test_contraction_sine_full_periods():
    rep = dl.contraction_audit(sine_series({1: 1.0}), 8, 1, 2, 12)
    assert rep.passed and rep.lhs < 1e-13
    assert rep.rhs == pytest.approx(2.0 / 8.0 * (1 / math.sqrt(2)), rel=1e-6)


def test_contraction_refined_exact_zero_when_divisible(rng):
    f = random_trig_poly(rng, degree=8)
    n = 3
    m = 2**n * 3  # l = 0
    rep = dl.contraction_refined_audit(f, m, n, 12)
    assert rep.passed
    assert rep.lhs < 1e-12
    assert rep.rhs == 0.0


def test_contraction_randomized(rng):
    J = 11
    for _ in range(60):
        f = random_trig_poly(rng, degree=16)
        mmax = (2 ** (J - 1) - 1) // f.max_frequency
        if mmax < 1:
            continue
        m = int(rng.integers(1, mmax + 1))
        n = int(rng.integers(0, J - 1))
        p = [1.5, 2, 4, math.inf][int(rng.integers(0, 4))]
        assert dl.contraction_audit(f, m, n, p, J).passed
        assert dl.contraction_refined_audit(f, m, n, J).passed


@pytest.mark.parametrize("J, real", [(2, True), (6, True), (6, False)])
def test_contraction_audits_match_block_average_reference(rng, J, real):
    # the left sides as computed before: the norm of the expanded E(g|F_n)
    f = sine_series({1: 1.0}) if J == 2 else random_trig_poly(rng, degree=6, real=real)
    for m in range(1, (2 ** (J - 1) - 1) // f.max_frequency + 1):
        g = render(dilate(f, m), J).samples
        for n in range(J):
            atol = 8 * np.finfo(np.float64).eps * np.abs(g).max()
            for p in (1, 1.5, 2, 4, math.inf):
                rep = dl.contraction_audit(f, m, n, p, J)
                assert rep.passed and abs(rep.lhs - _lp_norm_array(block_average(g, n, J), p)) <= atol
            rep = dl.contraction_refined_audit(f, m, n, J)
            assert rep.passed and abs(rep.lhs - _lp_norm_array(block_average(g, n, J), 2)) <= atol


def test_contraction_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        dl.contraction_audit(FourierFunction({0: 1.0, 1: 1.0}), 2, 1, 2, 8)


# ------------------------------------------------------ lacunary criteria

def test_lacunary_criteria_sine_geometric():
    spec = sin_spec([1.0 / (k + 1) for k in range(16)], [2**k for k in range(16)])
    prof = modulus_profile(render(spec.generator, 12), 2)
    tail = TailModel("geometric", prof.values[6], 0.5)
    res = dl.lacunary_criteria(spec, 2, 12, profile=prof, tail=tail)
    assert res.converges and math.isfinite(res.higher_sum + res.lower_sum)
    assert res.ratio == 2.0


def test_lacunary_criteria_slow_modulus_diverges():
    spec = sin_spec([1.0 / (k + 1) for k in range(16)], [2**k for k in range(16)])
    prof = modulus_profile(render(spec.generator, 12), 2)
    res = dl.lacunary_criteria(spec, 2, 12, profile=prof, tail=TailModel("power", 1.0, 0.4))
    # the finite sums stay finite; the infinite series diverge
    assert not res.converges and math.isfinite(res.higher_sum + res.lower_sum)


def test_lacunary_criteria_davenport_lambda():
    # f_0.75 dilated along 3^k: modulus decays at rate lambda - 1/2
    from mgale.davenport import davenport_fourier

    gen = davenport_fourier(0.75, 512)
    spec = dl.SeriesSpec(tuple(1.0 / (k + 1) for k in range(8)), tuple(3**k for k in range(8)), gen)
    prof = modulus_profile(render(gen, 13), 2)
    tail = TailModel("geometric", float(prof.values[-1]), 2.0**-0.25)
    res = dl.lacunary_criteria(spec, 2, 13, profile=prof, tail=tail)
    assert res.converges and math.isfinite(res.higher_sum + res.lower_sum)
    assert res.ratio == 3.0


def test_lacunary_criteria_default_profile_refuses_aliased_generator():
    # mode 512 = 2^(J-1) at J = 10: without a profile the generator is
    # rendered at J, which must refuse rather than fold 512 onto -512
    spec = dl.SeriesSpec((1.0, 0.5), (1, 2), sine_series({1: 1.0, 512: 0.5}))
    with pytest.raises(AliasingError):
        dl.lacunary_criteria(spec, 2, 10)
    assert dl.lacunary_criteria(spec, 2, 11).ratio == 2.0


@pytest.mark.parametrize("p, tail, converges", [
    # 2/3 + 1/3 == 1 in floating point (1 - 1/3 != 2/3): the critical
    # exponent, where log exponent 2 > 1 converges by the integral test
    (3, TailModel("power_log", 1.0, 2 / 3, 2.0), True),
    (3, TailModel("power_log", 1.0, 2 / 3, 1.0), False),
    (2, TailModel("power", 0.0, 0.1), True),  # a zero tail converges
    (2, TailModel("power", 1.0, 0.6), True),
    (2, TailModel("power", 1.0, 0.5), False),
    (2, TailModel("geometric", 1.0, 0.9), True),
])
def test_lacunary_criteria_verdict_is_the_tail_model_rule(p, tail, converges):
    spec = sin_spec([1.0 / (k + 1) for k in range(16)], [2**k for k in range(16)])
    prof = modulus_profile(render(spec.generator, 10), p)
    res = dl.lacunary_criteria(spec, p, 10, profile=prof, tail=tail)
    assert res.converges == converges == tail.series_converges(weight_exponent=1.0 / p)
    assert math.isfinite(res.higher_sum) and math.isfinite(res.lower_sum)


def test_split_per_octave():
    spec = sin_spec([1.0, 0.5, 0.25, 0.1], [4, 6, 16, 24])
    parts = dl._split_per_octave(spec)
    assert len(parts) == 2
    assert parts[0].freqs == (4, 16) and parts[1].freqs == (6, 24)


# -------------------------------------------------------- sharpness example

def test_gaposhkin_m0_coefficients():
    spec = dl.gaposhkin_example(0, 16)
    ns = np.arange(1, 17)
    np.testing.assert_allclose(spec.coeffs_real(), 1 / np.sqrt(ns), rtol=1e-12)
    amps = {m: abs(2j * c) for m, c in spec.generator.coeffs.items() if m > 0}
    np.testing.assert_allclose([amps[2**k] for k in ns], 1 / ns, rtol=1e-12)


def test_gaposhkin_m1_amplitude_readout():
    spec = dl.gaposhkin_example(1, 64)
    k = 25  # ~ e^3.2, solidly in the log regime
    amp = abs(2j * spec.generator.coeffs[2**k])
    assert amp == pytest.approx(1.0 / (k * math.log(k)), rel=1e-12)


def test_gaposhkin_square_sums():
    # m = 0: sum a_n^2 is the harmonic series, doubling from 2^8 to 2^16
    a0 = dl.gaposhkin_coefficients(0, 2**16)
    s8, s16 = (a0[: 2**8] ** 2).sum(), (a0**2).sum()
    assert s16 / s8 > 1.85
    # m = 1: square-summable by construction; growth is monotone but bounded
    a1 = dl.gaposhkin_coefficients(1, 2**16)
    partial = np.cumsum(a1**2)
    assert np.all(np.diff(partial) > 0)
    assert partial[-1] / partial[2**8 - 1] < 1.1
    # the spec'd op agrees with the cheap path on a materializable range
    np.testing.assert_allclose(dl.gaposhkin_example(1, 64).coeffs_real(), a1[:64], rtol=1e-12)


def test_gaposhkin_modulus_fit_m1():
    _, _, slope, resid = dl.gaposhkin_modulus_fit(1, range(6, 13))
    assert resid < 0.1
    assert slope > 1.0  # preasymptotic steepening, reported not asserted


def test_iterated_log():
    assert dl.iterated_log(0, 5.0) == pytest.approx(1.0)
    assert dl.iterated_log(1, math.e**2) == pytest.approx(2.0)
    assert dl.iterated_log(2, math.e**math.e) == pytest.approx(1.0)
    assert dl.iterated_log(1, 2.0) == pytest.approx(1.0)  # clamps at 1


# ------------------------------------------------------------ NSC probe

def test_nsc_probe_on_divergent_davenport():
    from mgale.davenport import davenport_fourier, gram_matrix, riesz_constants

    gen = davenport_fourier(0.75, 256)
    K = 256
    spec = dl.SeriesSpec(tuple(1 / math.sqrt(k) for k in range(1, K + 1)), tuple(2**k for k in range(1, K + 1)), gen)
    lo, _ = riesz_constants(gram_matrix([2**k for k in range(1, 17)], 0.75))
    res = dl.divergence_probe(spec, 4.0, lo, [8, 16, 32, 64, 128], seed=12)
    assert res.verdict == "diverging"
    assert np.all(res.probability > 0)


def test_nsc_probe_rejects_square_summable():
    spec = sin_spec([2.0**-k for k in range(1, 65)], [2**k for k in range(1, 65)])
    with pytest.raises(ValueError):
        dl.divergence_probe(spec, 4.0, 0.5, [8, 16, 32], seed=1)


def test_nsc_probe_rejects_bad_bound():
    spec = sin_spec([1 / math.sqrt(k) for k in range(1, 65)], [2**k for k in range(1, 65)])
    with pytest.raises(ValueError):
        dl.divergence_probe(spec, 4.0, 0.0, [8, 16, 32], seed=1)


def test_maximal_function_refinement_stability():
    # K = 64 terms of a rough Davenport generator with square-summable
    # weights: ||S*||_2 must be grid-converged within 5% from J=12 to 14
    from mgale.davenport import davenport_fourier
    from mgale.torus import lp_norm

    gen = davenport_fourier(0.75, 16)  # 64 * 16 stays under 2^11, alias-free at J=12
    spec = dl.SeriesSpec(
        tuple(1.0 / (k + 1) for k in range(64)), tuple(range(1, 65)), gen
    )
    n12 = lp_norm(dl.maximal_function(spec, 63, 12), 2)
    n14 = lp_norm(dl.maximal_function(spec, 63, 14), 2)
    assert math.isfinite(n14) and n14 > 0
    assert abs(n12 - n14) / n14 < 0.05


# ------------------------------------------- window oscillation equivalence
# oscillation_diagnostic and divergence_probe as they were written before
# the sampling prologue and the window aggregation became shared helpers.

def _sampled_sums_ref(spec, K, sample_size, seed):
    max_gen = max((abs(m) for m in spec.generator.coeffs), default=1)
    bits = (spec.freqs[K - 1] * max_gen).bit_length() + 64
    bitmat, ints = dl.sample_dyadic_points(sample_size, bits, seed)
    return np.cumsum(dl.series_values_at_points(spec, K, bitmat, ints), axis=1)


def _oscillation_ref(spec, checkpoints, sample_size, seed):
    checkpoints = sorted(int(c) for c in checkpoints)
    K = min(2 * checkpoints[-1], spec.length)
    sums = _sampled_sums_ref(spec, K, sample_size, seed)
    amps = np.array([abs(a) for a in spec.coeffs[:K]])
    med, q90, scales = [], [], []
    for cp in checkpoints:
        hi = min(2 * cp, K)
        window = sums[:, cp - 1 : hi]
        if np.isrealobj(window):
            osc = window.max(axis=1) - window.min(axis=1)
        else:
            center = window.mean(axis=1, keepdims=True)
            osc = 2.0 * np.abs(window - center).max(axis=1)
        med.append(float(np.median(osc)))
        q90.append(float(np.quantile(osc, 0.9)))
        scales.append(float(np.sqrt((amps[cp - 1 : hi] ** 2).sum())))
    verdict, slope = dl.oscillation_verdict(checkpoints, med, scales)
    return np.array(med), np.array(q90), verdict, slope


def _probe_ref(spec, p, riesz_lower, checkpoints, seed, sample_size=200):
    checkpoints = sorted(int(c) for c in checkpoints)
    amps = np.array([abs(a) for a in spec.coeffs])
    sums = _sampled_sums_ref(spec, checkpoints[-1], sample_size, seed)
    running_max = np.maximum.accumulate(np.abs(sums), axis=1)
    lam, d, q = 0.5, riesz_lower**2, p / 2.0
    probs, floors = [], []
    for cp in checkpoints:
        z = running_max[:, cp - 1] ** 2
        probs.append(float((z >= lam * d * float((amps[:cp] ** 2).sum())).mean()))
        ez = float(z.mean())
        znorm = float((z**q).mean() ** (1 / q))
        floors.append(((1 - lam) * ez / znorm) ** (q / (q - 1)) if znorm > 0 else 0.0)
    return np.array(probs), np.array(floors)


def _complex_spec(K):
    gen = FourierFunction({1: 0.5 - 0.5j, -1: 0.2j, 3: 0.25})
    return dl.SeriesSpec(tuple((1 + 1j) / k for k in range(1, K + 1)), tuple(range(1, K + 1)), gen)


@pytest.mark.parametrize("spec, checkpoints, sample_size, seed", [
    (sin_spec([0.0] * 64, [2**k for k in range(64)]), [4, 8, 16], 128, 3),
    (sin_spec([2.0**-k for k in range(1, 257)], [2**k for k in range(1, 257)]), [4, 8, 16, 32, 64, 128], 150, 5),
    (sin_spec([0.5, 0.25], [2, 4]), [1], 100, 1),
    (dl.gaposhkin_example(1, 512), [16, 32, 64, 128, 256], 200, 7),
    (sin_spec([1 / math.sqrt(k) for k in range(1, 97)], [3**k for k in range(1, 97)]), [4, 16, 48], 100, 5),
    (_complex_spec(64), [4, 8, 16, 32], 100, 3),
])
def test_oscillation_matches_reference(spec, checkpoints, sample_size, seed):
    diag = dl.oscillation_diagnostic(spec, checkpoints, sample_size, seed, label="x")
    med, q90, verdict, slope = _oscillation_ref(spec, checkpoints, sample_size, seed)
    np.testing.assert_array_equal(diag.median, med)
    np.testing.assert_array_equal(diag.q90, q90)
    assert (diag.verdict, diag.fitted_slope) == (verdict, slope)
    assert (diag.checkpoints, diag.sample_size, diag.seed, diag.label) == (tuple(sorted(checkpoints)), sample_size, seed, "x")


def test_divergence_probe_matches_reference():
    from mgale.davenport import davenport_fourier, gram_matrix, riesz_constants

    K = 256
    spec = dl.SeriesSpec(
        tuple(1 / math.sqrt(k) for k in range(1, K + 1)), tuple(2**k for k in range(1, K + 1)), davenport_fourier(0.75, 256)
    )
    lo, _ = riesz_constants(gram_matrix([2**k for k in range(1, 17)], 0.75))
    cps = [8, 16, 32, 64, 128]
    res = dl.divergence_probe(spec, 4.0, lo, cps, seed=12)
    probs, floors = _probe_ref(spec, 4.0, lo, cps, seed=12)
    np.testing.assert_array_equal(res.probability, probs)
    np.testing.assert_array_equal(res.pz_floor, floors)
    assert (res.checkpoints, res.sample_size, res.seed) == (tuple(cps), 200, 12)
