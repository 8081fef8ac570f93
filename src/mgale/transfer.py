"""Doubling-map dynamics Tx = 2x mod 1: transfer operator, decay of
L^n f, and ergodic series runs.

The transfer operator (pre-adjoint of composition by T) acts on Fourier
coefficients by frequency halving,

    (Lf)^(m) = f^(2m),

and pointwise by Lf(x) = (f(x/2) + f((x+1)/2)) / 2.  Both forms are
implemented and cross-checked on every test run; the coefficient form
makes ||L^n f||_2 an exact sub-sum of Parseval, hence non-increasing
in n with no numerics involved.

Conditioning on T^(-m)B is realized exactly in coefficient space via
E(f | T^(-m)B) = (L^m f) o T^m, never by grid block averaging: the
dyadic grid is compatible with the algebras F_n, not with T^(-m)B
beyond its resolution.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .dilated import OscillationDiagnostic, SeriesSpec, oscillation_diagnostic
from .martingale import AuditReport
from .modulus import modulus_profile
from .tails import TailModel
from .torus import FourierFunction, GridFunction, _lp_norm_array, render

__all__ = [
    "TransferDecay",
    "decreasing_criteria",
    "duality_audit",
    "ergodic_series_run",
    "l2_norm_exact",
    "lnorm_vs_modulus",
    "transfer_apply",
    "transfer_decay",
    "transfer_pointwise_check",
    "transfer_power",
]


def transfer_power(f: FourierFunction, k: int) -> FourierFunction:
    """L^k f in coefficient form: (L^k f)^(m) = f^(2^k m), so the modes
    with 2-adic valuation v_2(m) >= k survive as m >> k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return f
    low = (1 << k) - 1
    return FourierFunction({m >> k: c for m, c in f.coeffs.items() if m & low == 0})


def transfer_apply(f: FourierFunction) -> FourierFunction:
    """Coefficient form: keep the even frequencies, halved."""
    return transfer_power(f, 1)


def transfer_pointwise(f_fine: GridFunction) -> GridFunction:
    """Pointwise form on the grid: needs f at resolution J+1, returns
    Lf at resolution J via (f(x/2) + f((x+1)/2)) / 2."""
    J1 = f_fine.resolution_log2
    if J1 < 1:
        raise ValueError("need resolution >= 1")
    half = 2 ** (J1 - 1)
    samples = 0.5 * (f_fine.samples[:half] + f_fine.samples[half:])
    return GridFunction(J1 - 1, samples, f_fine.value_kind)


def transfer_pointwise_check(f: FourierFunction, J: int) -> AuditReport:
    """Cross-check the two implementations of L on the grid, to 1e-12
    of max(sup |Lf|, 1)."""
    via_coeff = render(transfer_apply(f), J).samples
    via_point = transfer_pointwise(render(f, J + 1)).samples
    err = float(np.abs(via_coeff.astype(np.complex128) - via_point.astype(np.complex128)).max())
    scale = max(float(np.abs(via_coeff).max()), 1.0)
    return AuditReport(err, 1e-12 * scale, 1.0, 1e-12 * scale - err, err <= 1e-12 * scale, f"transfer-two-forms[J={J}]")


def duality_audit(f: FourierFunction, g: FourierFunction, J: int) -> AuditReport:
    """Audit the defining duality: int g(Tx) f(x) dx = int g(x) Lf(x) dx."""
    fg = render(f, J).samples.astype(np.complex128)
    gg = render(g, J).samples.astype(np.complex128)
    n = 2**J
    g_of_T = gg[(2 * np.arange(n)) % n]
    lhs = complex(np.mean(g_of_T * fg))
    lf = render(transfer_apply(f), J).samples.astype(np.complex128)
    rhs = complex(np.mean(gg * lf))
    err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return AuditReport(
        err, 1e-10 * scale, 1.0, 1e-10 * scale - err, err <= 1e-10 * scale,
        f"perron-frobenius-duality[J={J}]",
    )


def l2_norm_exact(f: FourierFunction) -> float:
    """Parseval norm (sum |c_m|^2)^(1/2), exact in coefficient space."""
    return math.sqrt(sum(abs(c) ** 2 for c in f.coeffs.values()))


@dataclass(frozen=True)
class TransferDecay:
    """||L^n f||_2 for n = 0..N with the summability criterion values.

    criterion_value  = sum_{n>=1} ||L^n f||_2 / sqrt(n)   (+ tail)
    condensed_value  = sum_{l>=0} 2^(l/2) ||L^(2^l) f||_2 (+ tail)

    The two are condensation-equivalent; both are reported.
    """

    norms: np.ndarray
    criterion_value: float
    condensed_value: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,norm,criterion_partial\n")
        partial = 0.0
        for n, v in enumerate(self.norms):
            if n >= 1:
                partial += v / math.sqrt(n)
            buf.write(f"{n},{float(v)!r},{float(partial)!r}\n")
        return buf.getvalue()


def transfer_decay(f: FourierFunction, N: int, tail: TailModel | None = None) -> TransferDecay:
    """Exact decay ||L^n f||_2 = (sum_m |f^(2^n m)|^2)^(1/2), n = 0..N.

    By Parseval and (L^n f)^(m) = f^(2^n m), ||L^n f||_2^2 is the sum of
    |c_m|^2 over the modes m of f with 2-adic valuation v_2(m) >= n.  One
    valuation pass v = v_2(m), clipped at N + 1, a bincount weighted by
    |c_m|^2 and a reverse cumulative sum give every norm at once; the
    norms vanish past N exactly when the N + 1 bin is empty.

    Requires zero mean.  The criterion sums use the declared tail model
    past N (infinite when it diverges under weight 1/sqrt(n)); with no
    model the norms must vanish identically beyond N, which happens
    exactly when 2^N exceeds every frequency of f.  The condensed sum
    is extended by sum_{2^l > N} 2^(l/2) u(2^l) under the model.
    """
    if not f.has_zero_mean():
        raise ValueError("f must have zero mean")
    vals = np.array([min((m & -m).bit_length() - 1, N + 1) for m in f.coeffs], dtype=np.int64)
    weights = np.abs(np.array(list(f.coeffs.values()), dtype=np.complex128)) ** 2
    energy = np.bincount(vals, weights=weights, minlength=N + 2)[::-1].cumsum()[::-1]
    norms = np.sqrt(energy[: N + 1])
    vanished = energy[N + 1] == 0.0
    if tail is None and not vanished:
        raise ValueError("norms have not vanished by N; pass an explicit tail model")
    crit = float(sum(norms[1:] / np.sqrt(np.arange(1, N + 1))))
    cond = 0.0
    ell = 0
    while 2**ell <= N:
        cond += 2.0 ** (ell / 2.0) * norms[2**ell]
        ell += 1
    if tail is not None:
        if not tail.series_converges(weight_exponent=0.5):
            return TransferDecay(norms, math.inf, math.inf)
        crit += tail.tail_sum(N + 1, weight_exponent=0.5)
        cond += tail.condensed_tail_sum(ell, weight_exponent=0.5)
    return TransferDecay(norms, crit, cond)


def lnorm_vs_modulus(f: FourierFunction, N: int, J: int) -> np.ndarray:
    """Ratios ||L^n f||_2 / omega_2(2^-n, f) for n = 1..N (grid omega).

    Rejects functions whose grid modulus vanishes (constants), and
    raises AliasingError for a mode at or past 2^(J-1).  The two-sided
    comparability of the two quantities is recorded by the caller,
    never asserted as equality.
    """
    if J < N + 2:
        raise ValueError("need J >= N + 2 for a meaningful comparison")
    prof = modulus_profile(render(f, J), 2)
    out = np.empty(N)
    for n in range(1, N + 1):
        om = prof.values[n]
        if om == 0:
            raise ValueError("modulus vanishes; f is constant on the grid")
        out[n - 1] = l2_norm_exact(transfer_power(f, n)) / om
    return out


def ergodic_series_run(
    f: FourierFunction,
    coeffs,
    checkpoints,
    sample_size: int,
    seed: int,
    tail: TailModel | None = None,
) -> tuple[OscillationDiagnostic, TransferDecay]:
    """Oscillation diagnostic for sum_k a_k f(T^k x), T the doubling map.

    f(T^k x) = f(2^k x mod 1), so the run delegates to the dilated
    engine with n_k = 2^k (exact dyadic sampling); the transfer-decay
    criterion report is attached.
    """
    coeffs = tuple(coeffs)
    spec = SeriesSpec(coeffs, tuple(2**k for k in range(len(coeffs))), f)
    diag = oscillation_diagnostic(spec, checkpoints, sample_size, seed, label="ergodic-doubling")
    # enough L-steps to exhaust the spectrum, capped so lacunary
    # generators with astronomically high modes need a tail model
    n_dec = max(8, min(40, f.max_frequency.bit_length() + 1))
    decay = transfer_decay(f, n_dec, tail)
    return diag, decay


def gaposhkin_decay_fit(m: int, n_range) -> tuple[np.ndarray, np.ndarray, float, float]:
    """||L^(2^n) f||_2 of the sharpness generator (4096 modes) vs
    2^(-n/2)/L_m(2^n).

    Exact coefficient-space norms (no rendering); returns (norms, model,
    fitted log-log slope, max residual) as in loglog_model_fit.
    """
    from .dilated import gaposhkin_example, iterated_log, loglog_model_fit

    gen = gaposhkin_example(m, 4096).generator
    amps = {mm.bit_length() - 1: abs(2j * c) for mm, c in gen.coeffs.items() if mm > 0}
    ks = np.array(sorted(amps))
    b = np.array([amps[k] for k in ks])
    n_range = np.asarray(list(n_range), dtype=np.int64)
    norms = np.array(
        [math.sqrt(float((b[ks >= 2**n] ** 2).sum()) / 2.0) for n in n_range]
    )
    model = 2.0 ** (-n_range / 2.0) / iterated_log(m, 2.0**n_range)
    slope, resid = loglog_model_fit(norms, model)
    return norms, model, slope, resid


def decreasing_criteria(
    Z: list[FourierFunction],
    p: float,
    J: int | None = None,
    tail: TailModel | None = None,
) -> tuple[float, float]:
    """Criteria sums for the decreasing filtration B_m = T^(-m) B.

    Z_n is the (coefficient-space) function whose n-th series term is
    Z_n o T^n; the family is adapted, so the higher-order-detail sum is
    identically zero and only

        sum_l 2^(l(1-1/p)) ( sum_n ||L^(2^l - 1) Z_n||_p^p' )^(1/p')

    remains (|| . ||_p via exact coefficients at p = 2, via a J-grid
    render otherwise, which raises AliasingError for a mode at or past
    2^(J-1); p' = min(2, p)).  Finite Fourier support makes
    every L-power vanish eventually, so the l-sum terminates exactly;
    the declared tail model extends the l-sum for the idealized
    infinite family (returns inf when it diverges under weight
    1 - 1/p in condensed form).
    """
    if p <= 1:
        raise ValueError("p must be > 1")
    for z in Z:
        if not z.has_zero_mean():
            raise ValueError("every Z_n must have zero mean (E_infty Z = 0)")
    pp = min(2.0, p)

    def norm_p(g: FourierFunction) -> float:
        if p == 2:
            return l2_norm_exact(g)
        if J is None:
            raise ValueError("p != 2 requires a grid resolution J")
        return float(_lp_norm_array(render(g, J).samples, p))

    s2 = 0.0
    ell = 0
    while True:
        power = 2**ell - 1
        inner = sum(norm_p(transfer_power(z, power)) ** pp for z in Z)
        if inner == 0.0:
            break
        s2 += 2.0 ** (ell * (1 - 1 / p)) * inner ** (1 / pp)
        ell += 1
        if 2**ell - 1 > max(max((z.max_frequency for z in Z), default=1).bit_length() + 1, 4):
            break
    # by condensation the modeled l-sum converges iff sum_n u_n / n^(1/p) does
    if tail is not None and not tail.series_converges(weight_exponent=1.0 / p):
        s2 = math.inf
    return 0.0, s2
