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

from .dilated import OscillationDiagnostic, SeriesSpec, _pow2_ladder, oscillation_diagnostic
from .martingale import AuditReport, _tolerance_report
from .torus import FourierFunction, GridFunction, render

__all__ = [
    "TransferDecay",
    "duality_audit",
    "ergodic_series_run",
    "l2_norm_exact",
    "transfer_apply",
    "transfer_decay",
    "transfer_pointwise",
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
    return _tolerance_report(err, 1e-12 * scale, f"transfer-two-forms[J={J}]")


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
    return _tolerance_report(err, 1e-10 * scale, f"perron-frobenius-duality[J={J}]")


def l2_norm_exact(f: FourierFunction) -> float:
    """Parseval norm (sum |c_m|^2)^(1/2), exact in coefficient space."""
    return math.sqrt(sum(abs(c) ** 2 for c in f.coeffs.values()))


@dataclass(frozen=True)
class TransferDecay:
    """||L^n f||_2 for n = 0..N; the report adds the partial sums of
    the criterion sum_{n>=1} ||L^n f||_2 / sqrt(n)."""

    norms: np.ndarray

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,norm,criterion_partial\n")
        partial = 0.0
        for n, v in enumerate(self.norms):
            if n >= 1:
                partial += v / math.sqrt(n)
            buf.write(f"{n},{float(v)!r},{float(partial)!r}\n")
        return buf.getvalue()


def transfer_decay(f: FourierFunction, N: int) -> TransferDecay:
    """Exact decay ||L^n f||_2 = (sum_m |f^(2^n m)|^2)^(1/2), n = 0..N.

    By Parseval and (L^n f)^(m) = f^(2^n m), ||L^n f||_2^2 is the sum of
    |c_m|^2 over the modes m of f with 2-adic valuation v_2(m) >= n.  One
    valuation pass v = v_2(m), clipped at N + 1, a bincount weighted by
    |c_m|^2 and a reverse cumulative sum give every norm at once.  The
    modes that outlive L^N keep their own bin N + 1, so each norm adds
    the same terms in the same order whatever N is.

    Requires zero mean.  Every norm is exact whether or not the norms
    have vanished by N; nothing past N is computed or extrapolated.
    When the energies of finite |c_m| overflow (|c_m| > about 1.3e154),
    they are taken relative to max |c_m|, as dilated._l2_scale does, so
    a norm is inf only past the float range.
    """
    if not f.has_zero_mean():
        raise ValueError("f must have zero mean")
    vals = np.array([min((m & -m).bit_length() - 1, N + 1) for m in f.coeffs], dtype=np.int64)
    amps = np.abs(np.array(list(f.coeffs.values()), dtype=np.complex128))

    def norms(weights):
        return np.sqrt(np.bincount(vals, weights=weights, minlength=N + 2)[::-1].cumsum()[::-1][: N + 1])

    with np.errstate(over="ignore"):
        out = norms(amps**2)
        if np.isinf(out).any() and np.isfinite(amps).all():
            top = amps.max()
            out = top * norms((amps / top) ** 2)
    return TransferDecay(out)


def ergodic_series_run(
    f: FourierFunction,
    coeffs,
    checkpoints,
    sample_size: int,
    seed: int,
) -> tuple[OscillationDiagnostic, TransferDecay]:
    """Oscillation diagnostic for sum_k a_k f(T^k x), T the doubling map.

    f(T^k x) = f(2^k x mod 1), so the run delegates to the dilated
    engine with n_k = 2^k (exact dyadic sampling); the exact transfer
    decay is attached.
    """
    coeffs = tuple(coeffs)
    spec = SeriesSpec(coeffs, _pow2_ladder(0, len(coeffs)), f)
    diag = oscillation_diagnostic(spec, checkpoints, sample_size, seed)
    # enough L-steps to exhaust the spectrum, capped at 40 for lacunary
    # generators with astronomically high modes
    n_dec = max(8, min(40, f.max_frequency.bit_length() + 1))
    return diag, transfer_decay(f, n_dec)

