"""Dilated series sum_k a_k f(n_k x): partial sums, maximal functions,
oscillation diagnostics, contraction audits and the lacunary criteria.

Two evaluation paths coexist:

  * grid path (partial_sums / maximal_function): renders every dilate on
    the 2^J grid; exact but limited to n_k * deg(f) below the aliasing
    threshold 2^(J-1), past which the render raises AliasingError.

  * exact-point path (oscillation_diagnostic, divergence probes): the
    sample points are random dyadic rationals X/2^R with R large enough
    that frac(n_k x) is exact for every frequency in play.  float64
    points would be useless here: a 53-bit x collapses to 0 under
    x -> 2x mod 1 after 53 steps, so any diagnostic sampled at machine
    floats sees lacunary tails that are identically zero.  Sampling at
    R ~ log2(max n_k * deg f) + 64 bits is uniform sampling on a grid
    fine enough that the orbit never degenerates.

Divergence is never declared: the strongest verdict an oscillation
diagnostic emits is a "diverging" trend, and the exact decision rule is
documented at :func:`oscillation_verdict`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .martingale import AuditReport, _bound_report, _haar_means
from .modulus import ModulusProfile, modulus_profile
from .tails import TailModel
from .torus import (
    FourierFunction,
    GridFunction,
    _lp_norm_array,
    dilate,
    render,
    sine_series,
)

__all__ = [
    "DivergenceProbeResult",
    "GENERAL_PATH_MAX_MODE",
    "LacunaryCriteriaResult",
    "OscillationDiagnostic",
    "SeriesSpec",
    "contraction_audit",
    "contraction_refined_audit",
    "gaposhkin_coefficients",
    "gaposhkin_example",
    "gaposhkin_modulus_fit",
    "iterated_log",
    "lacunarity_ratio",
    "loglog_model_fit",
    "maximal_function",
    "divergence_probe",
    "oscillation_diagnostic",
    "oscillation_verdict",
    "partial_sums",
    "sample_dyadic_points",
    "series_values_at_points",
    "lacunary_criteria",
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

    def coeffs_real(self) -> np.ndarray:
        return np.array([a.real for a in self.coeffs])


def lacunarity_ratio(freqs) -> float:
    """inf_k n_{k+1} / n_k; Hadamard lacunary means ratio > 1."""
    freqs = list(freqs)
    if len(freqs) < 2:
        raise ValueError("need at least two frequencies")
    return min(b / a for a, b in zip(freqs, freqs[1:]))


# --------------------------------------------------------------------------
# grid path
# --------------------------------------------------------------------------

def partial_sums(spec: SeriesSpec, N: int, J: int) -> list[GridFunction]:
    """S_0..S_N on the 2^J grid, S_n = sum_{k<=n} a_k f(n_k x).

    Any dilated frequency at or beyond 2^(J-1) raises AliasingError.
    """
    if N >= spec.length:
        raise ValueError(f"N={N} exceeds the spec length {spec.length}")
    out = []
    running = np.zeros(2**J, dtype=np.complex128)
    real = spec.generator.is_real_valued() and all(
        abs(a.imag) == 0.0 for a in spec.coeffs[: N + 1]
    )
    for k in range(N + 1):
        g = render(dilate(spec.generator, spec.freqs[k]), J)
        running = running + spec.coeffs[k] * g.samples.astype(np.complex128)
        samples = running.real if real else running
        out.append(GridFunction(J, samples, "real" if real else "complex"))
    return out


def maximal_function(spec: SeriesSpec, N: int, J: int) -> GridFunction:
    """Pointwise max_{0<=n<=N} |S_n| on the grid."""
    best = None
    for s in partial_sums(spec, N, J):
        a = np.abs(s.samples)
        best = a if best is None else np.maximum(best, a)
    return GridFunction(J, best, "real")


# --------------------------------------------------------------------------
# exact-point path
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
    """fracs[i, m] = frac(2^m * x_i) for the dyadic points, exact.

    Right-to-left recurrence y_m = (bit_m + y_{m+1}) / 2 reads the full
    remaining bit tail, so each value is the correctly rounded float64
    of the exact dyadic rational.
    """
    count, bits = bitmat.shape
    out = np.empty((count, bits), dtype=np.float64)
    y = np.zeros(count)
    cols = bitmat.astype(np.float64)
    for m in range(bits - 1, -1, -1):
        y = 0.5 * (cols[:, m] + y)
        out[:, m] = y
    return out


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


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def series_values_at_points(
    spec: SeriesSpec, K: int, bitmat: np.ndarray, ints: list
) -> np.ndarray:
    """(samples, K) matrix of the term values a_k f(n_k x_i).

    Fast path when every frequency (series and generator) is a power of
    two: one sin table over the doubling orbit plus an FFT correlation.
    The general path reduces n_k * X mod 2^bits exactly, carrying the
    residue from term to term by a multiply (n_(k-1) | n_k) or an add
    recurrence (see _fracs_of_multiples).
    """
    if K > spec.length:
        raise ValueError("K exceeds spec length")
    freqs = spec.freqs[:K]
    gen = spec.generator
    gen_ms = gen.frequencies
    pos_ms = [m for m in gen_ms if m > 0]
    dyadic = all(_is_pow2(n) for n in freqs) and all(_is_pow2(m) for m in pos_ms)
    coeffs = np.array(spec.coeffs[:K])
    if dyadic and gen.is_real_valued():
        # f(2^e x) = sum_j b_j sin(2 pi frac(2^(e+j) x)) for sine amplitudes b_j
        amps = {m.bit_length() - 1: (2j * gen.coeffs[m]).real for m in pos_ms}
        jmin, jmax = min(amps), max(amps)
        kern = np.array([amps.get(j, 0.0) for j in range(jmin, jmax + 1)])
        exps = np.array([n.bit_length() - 1 for n in freqs])
        need = exps.max() + jmax + 1
        if need > bitmat.shape[1]:
            raise ValueError(f"need at least {need} sample bits, have {bitmat.shape[1]}")
        sins = np.sin(2 * np.pi * _doubling_orbit_fracs(bitmat))
        # correlation over the orbit: f_at[e] = sum_j kern[j] * sins[:, e + jmin + j]
        m = sins.shape[1]
        size = int(2 ** math.ceil(math.log2(m + kern.size)))
        sf = np.fft.rfft(sins, size, axis=1)
        kf = np.fft.rfft(kern[::-1], size)
        corr = np.fft.irfft(sf * kf[None, :], size, axis=1)[:, kern.size - 1 : m]
        vals = corr[:, exps + jmin]
        return vals * coeffs.real[None, :] if np.all(coeffs.imag == 0) else vals * coeffs[None, :]
    if gen.max_frequency > GENERAL_PATH_MAX_MODE:
        raise ValueError(
            "general-path generator modes above 2^20 lose phase precision; "
            "use dyadic frequencies or a truncated generator"
        )
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
    label: str = ""

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("checkpoint,median_osc,q90_osc\n")
        for c, m, q in zip(self.checkpoints, self.median, self.q90):
            buf.write(f"{c},{float(m)!r},{float(q)!r}\n")
        return buf.getvalue()


def oscillation_verdict(checkpoints, medians, scales=None) -> tuple[str, float]:
    """Deterministic trend rule shared by every diagnostic.

    Let r = med[last] / med[ref], ref being the largest checkpoint at
    most last/100 (two decades down; the first checkpoint if none), and
    slope the least-squares slope of log median vs log N'.  When the
    window l2 scales s(N') = sqrt(sum_{window} |a_k|^2) are supplied,
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
    if scales is not None:
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
    label: str = "",
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
    return _window_oscillation(sums, amps, checkpoints, seed, label)


def _sampled_partial_sums(spec: SeriesSpec, K: int, sample_size: int, seed: int) -> np.ndarray:
    """(sample_size, K) partial sums S_1..S_K at seeded exact dyadic points
    with 64 bits to spare past n_K times the top generator mode."""
    max_gen = max((abs(m) for m in spec.generator.coeffs), default=1)
    bits = (spec.freqs[K - 1] * max_gen).bit_length() + 64
    bitmat, ints = sample_dyadic_points(sample_size, bits, seed)
    return np.cumsum(series_values_at_points(spec, K, bitmat, ints), axis=1)


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
        scales.append(float(np.sqrt((amps[cp - 1 : hi] ** 2).sum())))
    verdict, slope = oscillation_verdict(checkpoints, med, scales)
    return OscillationDiagnostic(
        tuple(checkpoints), np.array(med), np.array(q90), verdict, slope, sums.shape[0], seed, label
    )


# --------------------------------------------------------------------------
# contraction audits
# --------------------------------------------------------------------------

def contraction_audit(f: FourierFunction, m: int, n: int, p, J: int) -> AuditReport:
    """Audit ||E(f(m.)|F_n)||_p <= (2^n / m) ||f||_p for zero-mean f.

    f and its dilate render alias-free or raise AliasingError, which is
    exactly the regime where the grid inequality inherits the continuum
    proof.
    """
    if not f.has_zero_mean():
        raise ValueError("f must have zero mean")
    if m < 1:
        raise ValueError("m must be >= 1")
    g = render(dilate(f, m), J)
    # E(g|F_n) is constant on level-n blocks: its norm is that of the means
    lhs = _lp_norm_array(_haar_means(g.samples, J)[n], p)
    fn = render(f, J)
    rhs = (2.0**n / m) * _lp_norm_array(fn.samples, p)
    return _bound_report(lhs, rhs, 2.0**n / m, f"contraction[m={m},n={n},p={p}]")


def contraction_refined_audit(f: FourierFunction, m: int, n: int, J: int) -> AuditReport:
    """The p=2 refinement: ||E(f(m.)|F_n)||_2 <= sqrt(l 2^n)/m ||f||_2
    with l = m mod 2^n; at l = 0 the left side vanishes identically."""
    if not f.has_zero_mean():
        raise ValueError("f must have zero mean")
    ell = m % 2**n
    g = render(dilate(f, m), J)
    lhs = _lp_norm_array(_haar_means(g.samples, J)[n], 2)
    rhs = math.sqrt(ell * 2.0**n) / m * _lp_norm_array(render(f, J).samples, 2)
    tol = 1e-11 if ell == 0 else 1e-12
    return _bound_report(lhs, rhs, math.sqrt(ell * 2.0**n) / m, f"contraction-refined[m={m},n={n}]", tol=tol)


# --------------------------------------------------------------------------
# lacunary criteria
# --------------------------------------------------------------------------

def _split_per_octave(spec: SeriesSpec) -> list[SeriesSpec]:
    """Split a spec so each sub-spec has at most one term per octave.

    Mirrors the standard reduction for lacunarity ratios below 2: the
    j-th sub-spec collects the terms that are j-th within their octave.
    """
    slot: dict[int, int] = {}
    buckets: dict[int, list[int]] = {}
    for k, nk in enumerate(spec.freqs):
        octave = nk.bit_length() - 1
        j = slot.get(octave, 0)
        slot[octave] = j + 1
        buckets.setdefault(j, []).append(k)
    out = []
    for j in sorted(buckets):
        idx = buckets[j]
        out.append(
            SeriesSpec(
                tuple(spec.coeffs[k] for k in idx),
                tuple(spec.freqs[k] for k in idx),
                spec.generator,
            )
        )
    return out


@dataclass(frozen=True)
class LacunaryCriteriaResult:
    """The two lacunary-criteria sums over the finite family (higher and
    lower order details), the lacunarity ratio inf n_{k+1}/n_k, and
    whether both infinite series converge under the declared tail model."""

    higher_sum: float
    lower_sum: float
    ratio: float
    converges: bool


def lacunary_criteria(
    spec: SeriesSpec,
    p: float,
    J: int,
    profile: ModulusProfile | None = None,
    tail: TailModel | None = None,
) -> LacunaryCriteriaResult:
    """Evaluate the two lacunary-criteria sums for a dilated series.

    With m_k = floor(log2 n_k), the higher-detail sum weighs
    omega_p(n_k / 2^(m_{k + 2^l}), f) and the lower-detail sum the
    contraction bound 2^(m_{k+1-2^l}) / n_k; the modulus values come
    from ``profile``, with ``tail`` extending it past the grid.  Without
    a profile it is computed at resolution J, which raises AliasingError
    when the generator has a mode at or past 2^(J-1).  Both sums are
    finite; converges is decided from the tail model, not from the
    finite prefix.
    """
    if p <= 1:
        raise ValueError("p must be > 1")
    ratio = lacunarity_ratio(spec.freqs)
    if ratio <= 1:
        raise ValueError("frequencies are not lacunary (ratio <= 1)")
    parts = [spec] if ratio >= 2 else _split_per_octave(spec)
    if profile is None:
        profile = modulus_profile(render(spec.generator, J), p)
    pp = min(2.0, p)

    def omega_octave(n: float) -> float:
        """omega_p at scale 2^-n: profile lookup, tail model past the grid."""
        n = max(0, int(math.floor(n)))
        if n <= profile.source_resolution:
            return float(profile.values[n])
        if tail is not None:
            return min(float(profile.values[-1]), float(tail.value(n)))
        return float(profile.values[-1])

    # generator scale for the lower-detail sum: exact Parseval at p = 2,
    # else the norm of the alias-free truncation (a scale factor only)
    if p == 2:
        fnorm = math.sqrt(sum(abs(c) ** 2 for c in spec.generator.coeffs.values()))
    else:
        band = FourierFunction(
            {m: c for m, c in spec.generator.coeffs.items() if 2 * abs(m) < 2**J}
        )
        fnorm = float(_lp_norm_array(render(band, J).samples, p))

    def log2_int(n: int) -> float:
        s = max(0, n.bit_length() - 53)
        return math.log2(n >> s) + s

    s1 = s2 = 0.0
    for part in parts:
        K = part.length
        mks = np.array([n.bit_length() - 1 for n in part.freqs], dtype=np.float64)
        log2n = np.array([log2_int(n) for n in part.freqs])
        amps = np.array([abs(a) for a in part.coeffs])
        ell = 0
        while 2**ell <= K:
            step = 2**ell
            if step < K:
                idx = np.arange(0, K - step)
                # delta = n_k / 2^(m_{k+step}) handled in log2 space so
                # astronomically large dyadic frequencies stay finite
                dlog = log2n[idx] - mks[idx + step]
                om = np.array([omega_octave(-d) for d in dlog])
                inner = float(np.sum(amps[idx] ** pp * om**pp))
                if inner > 0:
                    s1 += 2.0 ** (ell * (1 - 1 / p)) * inner ** (1 / pp)
            idx2 = np.arange(step, K)
            blog = mks[idx2 + 1 - step] - log2n[idx2]
            bound = np.exp2(np.minimum(blog, 0.0))
            inner2 = float(np.sum(amps[idx2] ** pp * bound**pp))
            if inner2 > 0:
                s2 += 2.0 ** (ell * (1 - 1 / p)) * inner2 ** (1 / pp) * fnorm
            ell += 1
    # infinite-family verdict from the declared tail shape: the ell-sums
    # converge iff sum_n omega(2^-n) n^(-1/p) does (no model: the finite
    # family is exhausted)
    converges = tail is None or tail.series_converges(weight_exponent=1.0 / p)
    return LacunaryCriteriaResult(s1, s2, ratio, converges)


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
    from .modulus import fourier_modulus_l2

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
    amps = {2**k: 1.0 / denom_gen[k - 1] for k in range(1, K + 1)}
    a = gaposhkin_coefficients(m, K)
    return SeriesSpec(tuple(a), tuple(2**k for k in range(1, K + 1)), sine_series(amps))


# --------------------------------------------------------------------------
# anti-concentration probe
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceProbeResult:
    """Per checkpoint N, the estimated probability
    P((S*_N)^2 >= D/2 sum_{k<=N} |a_k|^2) and its Paley-Zygmund floor,
    with the verdict drawn from them."""

    checkpoints: tuple
    probability: np.ndarray
    pz_floor: np.ndarray
    verdict: str
    sample_size: int
    seed: int
    label: str


def divergence_probe(
    spec: SeriesSpec,
    p: float,
    riesz_lower: float,
    checkpoints,
    seed: int,
) -> DivergenceProbeResult:
    """Monte Carlo non-convergence evidence for non-square-summable a.

    Estimates P( (S*_N)^2 >= lam * D * sum_{k<=N} |a_k|^2 ) at lam = 1/2
    with D = riesz_lower^2 from 200 seeded sample points, per checkpoint
    N, beside the Paley-Zygmund floor computed from the empirical q-norm
    with q = p/2.  Verdict "diverging" when the probability never drops
    below half its floor and stays positive.
    """
    if p <= 2:
        raise ValueError("the probe needs p > 2")
    if riesz_lower <= 0:
        raise ValueError("riesz_lower must be positive")
    checkpoints = sorted(int(c) for c in checkpoints)
    amps = np.array([abs(a) for a in spec.coeffs])
    tail_growth = (amps[: checkpoints[-1]] ** 2).sum() / max((amps[: checkpoints[0]] ** 2).sum(), 1e-300)
    if tail_growth < 1.5:
        raise ValueError("sum |a_k|^2 must keep growing over the checkpoint range")
    sums = _sampled_partial_sums(spec, checkpoints[-1], 200, seed)
    running_max = np.maximum.accumulate(np.abs(sums), axis=1)
    lam = 0.5
    d = riesz_lower**2
    q = p / 2.0
    probs, floors = [], []
    for cp in checkpoints:
        z = running_max[:, cp - 1] ** 2
        threshold = lam * d * float((amps[:cp] ** 2).sum())
        probs.append(float((z >= threshold).mean()))
        ez = float(z.mean())
        znorm = float((z**q).mean() ** (1 / q))
        floors.append(((1 - lam) * ez / znorm) ** (q / (q - 1)) if znorm > 0 else 0.0)
    probs_arr, floors_arr = np.array(probs), np.array(floors)
    ok = bool(np.all(probs_arr >= 0.5 * floors_arr) and np.all(probs_arr > 0))
    return DivergenceProbeResult(
        tuple(checkpoints),
        probs_arr,
        floors_arr,
        "diverging" if ok else "inconclusive",
        sums.shape[0],
        seed,
        f"divergence-probe[p={p},D={d:.4g}]",
    )
