"""Dilated series sum_k a_k f(n_k x): oscillation diagnostics and
contraction audits.

Partial sums are evaluated at exact points: the sample points are random
dyadic rationals X/2^R with R large enough that frac(n_k x) is exact for
every frequency in play.  float64 points would be useless here: a 53-bit
x collapses to 0 under x -> 2x mod 1 after 53 steps, so any diagnostic
sampled at machine floats sees lacunary tails that are identically zero.
Sampling at R ~ log2(max n_k * deg f) + 64 bits is uniform sampling on a
grid fine enough that the orbit never degenerates.

Divergence is never declared: the strongest verdict an oscillation
diagnostic emits is a "diverging" trend, and the exact decision rule is
documented at :func:`oscillation_verdict`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .martingale import AuditReport, _bound_report, _haar_means, _rows_per_block
from .modulus import _on_threads, fourier_modulus_l2
from .torus import FourierFunction, _lp_norm_array, dilate, render, sine_series

__all__ = [
    "GENERAL_PATH_MAX_MODE",
    "OscillationDiagnostic",
    "SeriesSpec",
    "contraction_audit",
    "contraction_audits",
    "contraction_refined_audit",
    "gaposhkin_coefficients",
    "gaposhkin_example",
    "gaposhkin_modulus_fit",
    "iterated_log",
    "loglog_model_fit",
    "oscillation_diagnostic",
    "oscillation_verdict",
    "sample_dyadic_points",
    "series_values_at_points",
]


# --------------------------------------------------------------------------
# series specification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesSpec:
    """A dilated series: coefficients a_k, frequencies n_k, generator f.

    Frequencies are python ints (they overflow any fixed width for the
    lacunary examples); the generator must have zero mean.
    """

    coeffs: tuple
    freqs: tuple
    generator: FourierFunction

    def __post_init__(self):
        coeffs = tuple(complex(a) for a in self.coeffs)
        freqs = tuple(int(n) for n in self.freqs)
        if len(coeffs) != len(freqs):
            raise ValueError("coeffs and freqs must have equal length")
        if any(n <= 0 for n in freqs):
            raise ValueError("frequencies must be positive")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")
        if not self.generator.has_zero_mean():
            raise ValueError("generator must have zero mean")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "freqs", freqs)

    @property
    def length(self) -> int:
        return len(self.coeffs)


# --------------------------------------------------------------------------
# exact-point evaluation
# --------------------------------------------------------------------------

def sample_dyadic_points(count: int, bits: int, seed: int):
    """Random points X/2^bits as (bit matrix, python ints).

    The bit matrix (count, bits), uint8, drives the fast doubling-orbit
    evaluation; the ints drive exact frac(n*x) for arbitrary integer n.
    """
    rng = np.random.default_rng(seed)
    bitmat = rng.integers(0, 2, size=(count, bits), dtype=np.uint8)
    pad = (-bits) % 8  # packbits zero-pads the low end of the last byte
    ints = []
    for row in bitmat:
        v = int.from_bytes(np.packbits(row).tobytes(), "big") >> pad
        ints.append(v)
    return bitmat, ints


def _doubling_orbit_fracs(bitmat: np.ndarray) -> np.ndarray:
    """fracs[i, m] = frac(2^m * x_i) for the dyadic points, within one ulp.

    Right-to-left recurrence y_m = (bit_m + y_{m+1}) / 2 reads the full
    remaining bit tail; each step rounds once, so a value can sit one
    ulp off the exact dyadic rational, never further.  The recurrence
    runs over the rows of a C-contiguous (bits, count) array, and the
    (count, bits) result is that array's transposed view.
    """
    count, bits = bitmat.shape
    rows = np.ascontiguousarray(bitmat.T)
    out = np.empty((bits, count), dtype=np.float64)
    y = np.zeros(count)
    for m in range(bits - 1, -1, -1):
        y = np.multiply(np.add(rows[m], y, out=out[m]), 0.5, out=out[m])
    return out.T


def _fracs_of_multiples(ints: list, freqs, bits: int) -> np.ndarray:
    """(len(ints), len(freqs)) float64 matrix of frac(n_k * X_i / 2^bits).

    Each residue v_k = n_k X mod 2^bits is carried per point from the
    previous term: v_k = (r v_(k-1)) & mask when r = n_k / n_(k-1) is an
    integer, else v_k = (v_(k-1) + (n_k - n_(k-1)) X) & mask, which is
    exact for any order and sign of the frequencies.  The top 53 bits of
    v_k then give the float64 value (exact for bits <= 53).
    """
    mask = (1 << bits) - 1
    out = np.empty((len(ints), len(freqs)), dtype=np.float64)
    shift = max(bits - 53, 0)
    scale = float(1 << (bits - shift))
    vs = [0] * len(ints)
    prev = 0
    for k, n in enumerate(freqs):
        if prev != 0 and n % prev == 0:
            r = n // prev
            vs = [(r * v) & mask for v in vs]
        else:
            d = n - prev
            vs = [(v + d * x) & mask for v, x in zip(vs, ints)]
        out[:, k] = np.array([v >> shift for v in vs], dtype=np.float64) / scale
        prev = n
    return out


#: the largest generator mode of the general path: frac(n_k x) is reduced
#: exactly, but the generator phases m * frac(...) are float64 products
GENERAL_PATH_MAX_MODE = 2**20

#: sample bits past those of n_K times the top generator mode
_SPARE_BITS = 64


def _sample_bits(n: int, top: int, shift: int) -> int:
    """B = bits(2^shift n x the top generator mode) + _SPARE_BITS; a ladder's 2^shift stays unbuilt."""
    return (n * max(top, 1)).bit_length() + shift + _SPARE_BITS


def _pow2_ladder(first: int, count: int) -> tuple:
    """The exact integers 2^first, ..., 2^(first + count - 1)."""
    return tuple(1 << k for k in range(first, first + count))


def _ladder_words(first: int, count: int) -> int:
    """64-bit words of _pow2_ladder(first, count): 2^k spans k // 64 + 1."""
    def words(n):  # of 2^0, ..., 2^(n - 1): 64 each of 1, ..., n // 64 words, the rest n // 64 + 1
        return 32 * (n // 64) * (n // 64 + 1) + n % 64 * (n // 64 + 1)
    return words(first + count) - words(first)


def _dyadic_path(freqs, generator: FourierFunction) -> bool:
    """Whether series_values_at_points takes its dyadic FFT path for these
    frequencies: every one of them and every positive generator mode a
    power of two, and a real-valued generator with no cosine part."""
    return (
        all(n > 0 and not n & (n - 1) for n in freqs)
        and all(not m & (m - 1) and c.real == 0 for m, c in generator.coeffs.items() if m > 0)
        and generator.is_real_valued()
    )


def _octaves(generator: FourierFunction) -> range:
    """The octaves of the positive generator modes, least to top: the dyadic path's kernel."""
    pos = [m for m in generator.frequencies if m > 0] or [1]
    return range(pos[0].bit_length() - 1, pos[-1].bit_length())


def _fft_size(bits: int, kernel: int) -> int:
    """Length of the dyadic path's FFTs: the least power of two holding an
    orbit of ``bits`` points and a generator kernel ``kernel`` wide."""
    return 1 << (bits + kernel - 1).bit_length()


def _general_cells(sample_size: int, bits: int, terms: int, modes: int) -> int:
    """The general path's largest block: sample bits, term values or samples x generator modes."""
    return sample_size * max(bits, terms, modes)


def _check_phase_precision(generator: FourierFunction) -> None:
    if generator.max_frequency > GENERAL_PATH_MAX_MODE:
        raise ValueError(f"a general-path generator mode {generator.max_frequency} > 2^20 loses phase "
                         "precision; use dyadic frequencies or a truncated generator")


def _series_cells(generator, freqs, length: int, checkpoints, sample_size: int) -> dict:
    """The cells of each array a run of oscillation_diagnostic builds, before any is built: ``length``
    terms of ``generator`` at ``freqs`` (None: the ladder from 2^0), or of the pair (K, first), the
    generator of gaposhkin_example(m, K) on the ladder from 2^first.  A general path past
    GENERAL_PATH_MAX_MODE raises ValueError."""
    terms, arrays = min(2 * max(checkpoints), length), {}
    if isinstance(generator, tuple):  # sine modes +-2^1, ..., +-2^K: the top one 2^K, a kernel K wide
        K, first = generator
        top, shift, kernel, dyadic = 1, K, K, True
        arrays["generator modes"] = 2 * _ladder_words(1, K)
    else:
        first, top, shift, kernel = 0, generator.max_frequency, 0, len(_octaves(generator))
        dyadic = _dyadic_path(() if freqs is None else freqs[:terms], generator)
    if freqs is None:
        arrays["frequency ladder"] = _ladder_words(first, length)
        bits = _sample_bits(1, top, shift + first + terms - 1)
    else:
        bits = _sample_bits(freqs[terms - 1], top, shift)
    if dyadic:
        arrays["dyadic-path FFT block"] = sample_size * _fft_size(bits, kernel)
    else:
        _check_phase_precision(generator)
        arrays["general-path term block"] = _general_cells(sample_size, bits, terms, len(generator.coeffs))
    return arrays


def _dyadic_blocks(blocks, buffers, orbit, kf, cols, coeffs, out) -> None:
    """out[lo:hi] = coeffs * corr[:, cols] for each (lo, hi) block of sample rows, where corr is
    the circular correlation of sin(2 pi orbit[lo:hi]) with the generator kernel, whose
    zero-padded spectrum is ``kf``.

    A block goes through the (phase, spectrum, correlation, gather) ``buffers`` in place.  FFTs
    transform each row on its own, so a value does not depend on the blocking.  This runs on
    the threads of modulus's block kernel: it calls numpy only.
    """
    phase, spec, corr, vals = buffers
    size = corr.shape[1]
    for lo, hi in blocks:
        ph, sf, co, va = phase[: hi - lo], spec[: hi - lo], corr[: hi - lo], vals[: hi - lo]
        np.multiply(orbit[lo:hi], 2 * np.pi, out=ph)
        np.sin(ph, out=ph)
        np.fft.rfft(ph, size, axis=1, out=sf)
        sf *= kf
        np.fft.irfft(sf, size, axis=1, out=co)
        np.take(co, cols, axis=1, out=va)
        np.multiply(va, coeffs, out=out[lo:hi])


def series_values_at_points(
    spec: SeriesSpec, K: int, bitmat: np.ndarray, ints: list
) -> np.ndarray:
    """(samples, K) matrix of the term values a_k f(n_k x_i).

    Fast path when every frequency (series and generator) is a power of
    two: a sin table over the doubling orbit plus an FFT correlation
    with the generator's sine amplitudes.  The orbit is built once, all
    samples x bits of it; the sin table and the FFTs go in blocks of
    max(1, 2^16 // FFT size) samples through preallocated buffers, the
    blocks round-robin on the threads of modulus's block kernel (up to
    two).  Each row is transformed on its own, so the values are
    bit-identical to one pass over the whole sample.
    The general path reduces n_k * X mod 2^bits exactly, carrying the
    residue from term to term by a multiply (n_(k-1) | n_k) or an add
    recurrence (see _fracs_of_multiples).
    """
    if K > spec.length:
        raise ValueError("K exceeds spec length")
    freqs = spec.freqs[:K]
    gen = spec.generator
    gen_ms = gen.frequencies
    coeffs = np.array(spec.coeffs[:K])
    if _dyadic_path(freqs, gen):
        # f(2^e x) = sum_j b_j sin(2 pi frac(2^(e+j) x)) for sine amplitudes b_j
        octaves = _octaves(gen)
        kern = np.array([(2j * gen.coeffs.get(1 << j, 0)).real for j in octaves])
        exps = np.array([n.bit_length() - 1 for n in freqs])
        count, bits = bitmat.shape
        need = exps.max() + octaves[-1] + 1
        if need > bits:
            raise ValueError(f"need at least {need} sample bits, have {bits}")
        # correlation over the orbit: f_at[e] = sum_j kern[j] * sins[:, e + octaves[j]],
        # read at column e + octaves[0] + kern.size - 1 of the full correlation
        size = _fft_size(bits, kern.size)
        kf = np.fft.rfft(kern[::-1], size)
        cols = exps + octaves[0] + kern.size - 1
        if np.all(coeffs.imag == 0):
            coeffs = coeffs.real
        out = np.empty((count, K), coeffs.dtype)
        rows = _rows_per_block(count, size)
        _on_threads(_dyadic_blocks, [(lo, min(lo + rows, count)) for lo in range(0, count, rows)],
                    lambda: (np.empty((rows, bits)), np.empty((rows, size // 2 + 1), np.complex128),
                             np.empty((rows, size)), np.empty((rows, K))),
                    _doubling_orbit_fracs(bitmat), kf, cols, coeffs, out)
        return out
    _check_phase_precision(gen)
    ys = _fracs_of_multiples(ints, freqs, bitmat.shape[1])
    out = np.zeros((len(ints), K), dtype=np.complex128)
    ms = np.array(gen_ms)
    cs = np.array([gen.coeffs[m] for m in gen_ms])
    for k in range(K):
        out[:, k] = coeffs[k] * (np.exp(2j * np.pi * np.outer(ys[:, k], ms)) @ cs)
    if gen.is_real_valued() and np.all(coeffs.imag == 0):
        return out.real
    return out


# --------------------------------------------------------------------------
# oscillation diagnostics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OscillationDiagnostic:
    """Per-checkpoint window oscillations of the sampled partial sums.

    statistic[i] aggregates osc(N') = max_{N'<=p,q<=min(2N',K)}
    |S_p(x) - S_q(x)| over the sample points (median and 0.9 quantile).
    """

    checkpoints: tuple
    median: np.ndarray
    q90: np.ndarray
    verdict: str
    fitted_slope: float
    sample_size: int
    seed: int
    label: str

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("checkpoint,median_osc,q90_osc\n")
        for c, m, q in zip(self.checkpoints, self.median, self.q90):
            buf.write(f"{c},{float(m)!r},{float(q)!r}\n")
        return buf.getvalue()


def oscillation_verdict(checkpoints, medians, scales) -> tuple[str, float]:
    """Deterministic trend rule shared by every diagnostic.

    Let r = med[last] / med[ref], ref being the largest checkpoint at
    most last/100 (two decades down; the first checkpoint if none), and
    slope the least-squares slope of log median vs log N'.  Against the
    window l2 scales s(N') = sqrt(sum_{window} |a_k|^2),
    rho(N') = med(N') / s(N') measures the oscillation against the size
    a convergent series would exhibit: any convergence system keeps rho
    bounded (the maximal inequality is uniform over windows), so rho
    growing across the checkpoint range is the quantitative signature
    of the sharpness examples.

      converging   iff r <= 1/2
      diverging    iff medians increase monotonically,
                   or  r >= 0.9 and slope >= -0.05      (stagnation),
                   or  rho[last] >= 1.5 * rho[first] and the fitted
                       slope of log rho is >= +0.05     (outruns l2)
      inconclusive otherwise, slope reported for inspection,
                   and always (with slope 0.0) when fewer than two
                   distinct checkpoints leave no trend to read

    The rule is one-sided by design: it produces divergence *evidence*,
    never a divergence claim.
    """
    med = np.asarray(medians, dtype=np.float64)
    cps = np.asarray(checkpoints, dtype=np.float64)
    if np.unique(cps).size < 2:
        return "inconclusive", 0.0
    if np.all(med <= 0):
        return "converging", -math.inf
    ref_idx = 0
    for i, c in enumerate(cps):
        if c <= cps[-1] / 100.0:
            ref_idx = i
    ref = med[ref_idx] if med[ref_idx] > 0 else med.max()
    r = med[-1] / ref
    pos = med > 0
    slope = 0.0
    if pos.sum() >= 2:
        slope = float(np.polyfit(np.log(cps[pos]), np.log(med[pos]), 1)[0])
    if r <= 0.5:
        return "converging", slope
    if np.all(np.diff(med) >= 0):
        return "diverging", slope
    if r >= 0.9 and slope >= -0.05:
        return "diverging", slope
    s = np.asarray(scales, dtype=np.float64)
    good = (s > 0) & (med > 0)
    if good.sum() >= 2:
        rho = med[good] / s[good]
        rho_slope = float(np.polyfit(np.log(cps[good]), np.log(rho), 1)[0])
        if rho[-1] >= 1.5 * rho[0] and rho_slope >= 0.05:
            return "diverging", slope
    return "inconclusive", slope


def oscillation_diagnostic(
    spec: SeriesSpec,
    checkpoints,
    sample_size: int,
    seed: int,
) -> OscillationDiagnostic:
    """Empirical probe of the Cauchy property of the partial sums.

    For each sampled x and each checkpoint N', computes
    osc(N') = max_{N'<=p,q<=min(2N',K)} |S_p(x) - S_q(x)| and aggregates
    the median and 0.9 quantile over the sample.  K is the largest
    index needed, min(2*max(checkpoints), spec.length).
    """
    checkpoints = sorted(int(c) for c in checkpoints)
    if sample_size < 100:
        raise ValueError("sample_size must be >= 100")
    if checkpoints[-1] > spec.length:
        raise ValueError("checkpoints exceed the spec length")
    K = min(2 * checkpoints[-1], spec.length)
    sums = _sampled_partial_sums(spec, K, sample_size, seed)
    amps = np.array([abs(a) for a in spec.coeffs[:K]])
    return _window_oscillation(sums, amps, checkpoints, seed, "")


def _sampled_partial_sums(spec: SeriesSpec, K: int, sample_size: int, seed: int) -> np.ndarray:
    """(sample_size, K) partial sums S_1..S_K at seeded exact dyadic points
    of _sample_bits bits."""
    bits = _sample_bits(spec.freqs[K - 1], spec.generator.max_frequency, 0)
    bitmat, ints = sample_dyadic_points(sample_size, bits, seed)
    return np.cumsum(series_values_at_points(spec, K, bitmat, ints), axis=1)


def _l2_scale(amps) -> float:
    """sqrt(sum |a_k|^2).  When the squares of finite |a_k| overflow
    (|a_k| > about 1.3e154 squares to inf), the sum is taken relative to
    max |a_k|, so the scale is inf only past the float range."""
    with np.errstate(over="ignore"):
        scale = float(np.sqrt((amps**2).sum()))
        if math.isinf(scale) and np.isfinite(amps).all():
            top = amps.max()
            scale = float(top * np.sqrt(((amps / top) ** 2).sum()))
    return scale


def _window_oscillation(sums, amps, checkpoints, seed: int, label: str) -> OscillationDiagnostic:
    """The diagnostic of sampled partial sums, sums[:, k - 1] = S_k(x).

    For each checkpoint N', osc(N') = max_{N'<=p,q<=min(2N',K)} |S_p - S_q|
    (K the number of columns) is aggregated to its median and 0.9
    quantile over the sample, and the verdict weighs the medians against
    the window l2 scales sqrt(sum_{window} |a_k|^2) of ``amps``.
    """
    K = sums.shape[1]
    med, q90, scales = [], [], []
    for cp in checkpoints:
        hi = min(2 * cp, K)
        window = sums[:, cp - 1 : hi]
        if np.isrealobj(window):
            osc = window.max(axis=1) - window.min(axis=1)
        else:
            # complex sums: diameter bounded by twice the circumradius
            center = window.mean(axis=1, keepdims=True)
            osc = 2.0 * np.abs(window - center).max(axis=1)
        med.append(float(np.median(osc)))
        q90.append(float(np.quantile(osc, 0.9)))
        scales.append(_l2_scale(amps[cp - 1 : hi]))
    verdict, slope = oscillation_verdict(checkpoints, med, scales)
    return OscillationDiagnostic(
        tuple(checkpoints), np.array(med), np.array(q90), verdict, slope, sums.shape[0], seed, label
    )


# --------------------------------------------------------------------------
# contraction audits
# --------------------------------------------------------------------------

def contraction_audits(f: FourierFunction, m: int, n: int, p, J: int) -> tuple[AuditReport, AuditReport]:
    """Audit ||E(f(m.)|F_n)||_p <= (2^n / m) ||f||_p for zero-mean f, and
    its p=2 refinement ||E(f(m.)|F_n)||_2 <= sqrt(l 2^n)/m ||f||_2 with
    l = m mod 2^n (at l = 0 the left side vanishes identically), from one
    render of f, one of f(m.) and one Haar pyramid.

    f and its dilate render alias-free or raise AliasingError, which is
    exactly the regime where the grid inequality inherits the continuum
    proof.
    """
    if not f.has_zero_mean():
        raise ValueError("f must have zero mean")
    if m < 1:
        raise ValueError("m must be >= 1")
    # E(g|F_n) is constant on level-n blocks: its norm is that of the means
    means = _haar_means(render(dilate(f, m), J).samples, J)[n]
    fs = render(f, J).samples
    ell = m % 2**n
    main, refined = 2.0**n / m, math.sqrt(ell * 2.0**n) / m
    return (
        _bound_report(_lp_norm_array(means, p), main * _lp_norm_array(fs, p), main, f"contraction[m={m},n={n},p={p}]"),
        _bound_report(_lp_norm_array(means, 2), refined * _lp_norm_array(fs, 2), refined,
                      f"contraction-refined[m={m},n={n}]", tol=1e-11 if ell == 0 else 1e-12),
    )


def contraction_audit(f: FourierFunction, m: int, n: int, p, J: int) -> AuditReport:
    """The main row of :func:`contraction_audits`."""
    return contraction_audits(f, m, n, p, J)[0]


def contraction_refined_audit(f: FourierFunction, m: int, n: int, J: int) -> AuditReport:
    """The p=2 refinement row of :func:`contraction_audits`."""
    return contraction_audits(f, m, n, 2, J)[1]


# --------------------------------------------------------------------------
# sharpness example
# --------------------------------------------------------------------------

def loglog_model_fit(values, model) -> tuple[float, float]:
    """Affine fit log(values) = a + s * log(model); returns (s, max |resid|).

    The slope s is left free: near-critical constructions approach their
    asymptotic model through slowly varying corrections, so the model is
    validated by the residual after the affine log-log fit, with the
    fitted slope reported alongside.
    """
    values = np.asarray(values, dtype=np.float64)
    model = np.asarray(model, dtype=np.float64)
    if np.any(values <= 0) or np.any(model <= 0):
        raise ValueError("log-log fit needs positive data")
    x = np.stack([np.ones_like(model), np.log(model)], axis=1)
    coef, *_ = np.linalg.lstsq(x, np.log(values), rcond=None)
    resid = np.log(values) - x @ coef
    return float(coef[1]), float(np.abs(resid).max())


def gaposhkin_modulus_fit(m: int, ns) -> tuple[np.ndarray, np.ndarray, float, float]:
    """omega_2(2^-n) of the sharpness generator vs c/(sqrt(n) L_m(n)).

    Returns (omega values, model values, fitted log-log slope, max
    residual).  The generator is truncated at 50 modes, so the removed
    tail is negligible on the requested octaves but the top frequency
    2^50 still fits in a float (the modulus is evaluated in mode space,
    with the default h grid of fourier_modulus_l2).
    """
    ns = np.asarray(list(ns), dtype=np.int64)
    gen = gaposhkin_example(m, 50).generator
    omegas = fourier_modulus_l2(gen, 2.0 ** -ns.astype(np.float64))
    model = 1.0 / (np.sqrt(ns) * iterated_log(m, ns))
    slope, resid = loglog_model_fit(omegas, model)
    return omegas, model, slope, resid


def iterated_log(i: int, x) -> np.ndarray:
    """L_0 = 1, L_1(x) = max(1, log x), L_i = L_1 of L_{i-1}."""
    x = np.asarray(x, dtype=np.float64)
    if i == 0:
        return np.ones_like(x)
    out = np.maximum(1.0, np.log(np.maximum(x, 1.0)))
    for _ in range(i - 1):
        out = np.maximum(1.0, np.log(out))
    return out


def gaposhkin_coefficients(m: int, K: int) -> np.ndarray:
    """Just the weights a_n = 1/(sqrt(n prod_{i<m} L_i(n)) L_m(n)), n <= K.

    Cheap companion to gaposhkin_example for growth checks at K values
    where materializing the frequencies 2^n would be absurd.
    """
    ks = np.arange(1, K + 1, dtype=np.float64)
    inner = ks.copy()
    for i in range(m):
        inner *= iterated_log(i, ks)
    return 1.0 / (np.sqrt(inner) * iterated_log(m, ks))


def gaposhkin_example(m: int, K: int) -> SeriesSpec:
    """The sharpness series: lacunary generator and near-critical weights.

    generator amplitude at frequency 2^k:  1 / (k * prod_{i<=m} L_i(k))
    coefficient a_n = 1 / (sqrt(n * prod_{i<m} L_i(n)) * L_m(n)),
    frequencies n_k = 2^k, k = 1..K.  The coefficients are square
    summable for m >= 1 (that is the whole point of the example); at
    m = 0 they reduce to 1/sqrt(n), which is not.
    """
    if m < 0 or K < 2:
        raise ValueError("need m >= 0 and K >= 2")
    ks = np.arange(1, K + 1, dtype=np.float64)
    denom_gen = ks.copy()
    for i in range(m + 1):
        denom_gen *= iterated_log(i, ks)
    ladder = _pow2_ladder(1, K)
    amps = dict(zip(ladder, 1.0 / denom_gen))
    return SeriesSpec(tuple(gaposhkin_coefficients(m, K)), ladder, sine_series(amps))
