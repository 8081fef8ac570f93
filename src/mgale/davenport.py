"""Davenport generators sum_m sin(2 pi m x) / m^lambda and their Gram
structure under integer dilation.

The closed-form inner products follow from Parseval and the lattice
m * n_j = m' * n_k of coinciding dilated frequencies:

    <f_lam(n_j .), f_lam(n_k .)> = (zeta(2 lam)/2) * (gcd^2 / (n_j n_k))^lam

valid for lam > 1/2.  gram_quadrature cross-checks this from actual
grid samples: each dilate is rendered alias-free (per-dilate mode cap
min(M, (2^(J-1)-1)/n)), the grid product is then an exact lattice head
sum, and the truncated lattice tail is restored analytically with a
Hurwitz zeta.  A wrong exponent or constant in the closed form would
show up at the O(1) scale of the head, far above the audit tolerance.

Frame bounds for finite families come from the Gram eigenvalues; they
are the numeric stand-in for the Riesz-sequence hypotheses of the
equivalence theorems for lacunary Davenport series.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import zeta as _zeta

from .modulus import modulus_profile
from .torus import FourierFunction, GridFunction, render, sine_series

__all__ = [
    "DavenportSpec",
    "GramMatrix",
    "SINGULAR_EIG",
    "davenport_fourier",
    "eval_davenport",
    "freqs_from_rule",
    "gram_matrix",
    "gram_quadrature",
    "riesz_constants",
    "sawtooth_values",
    "smoothness_estimate",
]


@dataclass(frozen=True)
class DavenportSpec:
    """Truncated Davenport function: lambda exponent and mode cutoff M."""

    lam: float
    truncation: int

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")

    def l2_tail_bound(self) -> float:
        """(sum_{m > M} m^(-2 lam) / 2)^(1/2); needs lam > 1/2."""
        if self.lam <= 0.5:
            raise ValueError("the L2 tail is not square-summable for lambda <= 1/2")
        return math.sqrt(float(_zeta(2 * self.lam, self.truncation + 1)) / 2.0)


def davenport_fourier(lam: float, M: int) -> FourierFunction:
    """The truncated generator as a sine series with amplitudes m^(-lam)."""
    ms = np.arange(1, M + 1, dtype=np.float64)
    return sine_series({int(m): float(m**-lam) for m in ms})


def eval_davenport(spec: DavenportSpec, J: int) -> GridFunction:
    """Render the truncated generator on the 2^J grid.

    A truncation at or past the aliasing threshold 2^(J-1) raises
    AliasingError (see torus.render).
    """
    return render(davenport_fourier(spec.lam, spec.truncation), J)


def sawtooth_values(x) -> np.ndarray:
    """pi * (1/2 - frac(x)) for frac(x) != 0 and 0 at the jump: the
    pointwise sum of the lambda = 1 Davenport series."""
    x = np.asarray(x, dtype=np.float64)
    fr = x - np.floor(x)
    out = np.pi * (0.5 - fr)
    return np.where(fr == 0.0, 0.0, out)


def smoothness_estimate(spec: DavenportSpec, p, J: int) -> float:
    """Fitted log-log decay exponent of omega_p(2^-n, f_lambda).

    Least squares over octaves n in [3, 9]; for p = 2 the expected
    exponent is lambda - 1/2 in the rough regime 1/2 < lambda < 3/2 and
    1 (the L2-Lipschitz ceiling) beyond.
    """
    gf = eval_davenport(spec, J)
    prof = modulus_profile(gf, p)
    ns = np.arange(3, 10)
    vals = prof.values[ns]
    if np.any(vals <= 0):
        raise ValueError("profile vanishes on the fit window")
    slope = np.polyfit(ns * math.log(2.0), np.log(vals), 1)[0]
    return float(-slope)


# --------------------------------------------------------------------------
# Gram matrices and frame bounds
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GramMatrix:
    """Pairwise inner products of the dilates f_lambda(n_k .)."""

    freqs: tuple
    lam: float
    entries: np.ndarray
    eigen_bounds: tuple

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("i,j,freq_i,freq_j,entry\n")
        k = len(self.freqs)
        for i in range(k):
            for j in range(k):
                buf.write(f"{i},{j},{self.freqs[i]},{self.freqs[j]},{float(self.entries[i, j])!r}\n")
        return buf.getvalue()


def gram_matrix(freqs, lam: float) -> GramMatrix:
    """Closed-form Gram matrix (zeta(2 lam)/2) (gcd^2/(n_j n_k))^lam.

    Entries are finite only for lam > 1/2; frequencies must be distinct
    positive integers.
    """
    if lam <= 0.5:
        raise ValueError("Gram entries are infinite for lambda <= 1/2")
    freqs = tuple(int(n) for n in freqs)
    if any(n <= 0 for n in freqs) or len(set(freqs)) != len(freqs):
        raise ValueError("frequencies must be distinct positive integers")
    k = len(freqs)
    z = float(_zeta(2 * lam))
    entries = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            g = math.gcd(freqs[i], freqs[j])
            entries[i, j] = entries[j, i] = (
                0.5 * z * (g * g / (freqs[i] * freqs[j])) ** lam
            )
    eigs = np.linalg.eigvalsh(entries)
    return GramMatrix(freqs, lam, entries, (float(eigs[0]), float(eigs[-1])))


def gram_quadrature(
    freqs, lam: float, M: int = 4096, J: int = 16, tail_corrected: bool = True
) -> np.ndarray:
    """Grid-quadrature oracle for the Gram matrix.

    For each pair, reduced to coprime (a, b) by the gcd substitution
    u = g x, the generator is rendered once per mode cap
    cap = min(M, (2^(J-1)-1)//a); sampling the render at a*t mod 2^J is
    then exact and the product spectrum stays below 2^J, so the grid
    mean has no aliasing term at all.  The removed lattice tail
    (ab)^(-lam) * zeta(2 lam, t_max + 1) / 2 is restored analytically
    when tail_corrected (the head, which is what actually validates the
    gcd-lattice closed form, always comes from samples).
    """
    freqs = tuple(int(n) for n in freqs)
    n_grid = 2**J
    limit = 2 ** (J - 1) - 1

    @lru_cache(maxsize=None)
    def rendered(cap: int) -> np.ndarray:
        return render(davenport_fourier(lam, cap), J).samples

    k = len(freqs)
    out = np.empty((k, k))
    idx = np.arange(n_grid)
    for i in range(k):
        for j in range(i, k):
            g = math.gcd(freqs[i], freqs[j])
            a, b = freqs[i] // g, freqs[j] // g
            cap_a, cap_b = min(M, limit // a), min(M, limit // b)
            if cap_a < 1 or cap_b < 1:
                raise ValueError(f"pair {(freqs[i], freqs[j])} unrenderable at J={J}")
            fa = rendered(cap_a)[(a * idx) % n_grid]
            fb = rendered(cap_b)[(b * idx) % n_grid]
            val = float(fa @ fb) / n_grid
            if tail_corrected:
                t_max = min(cap_a // b, cap_b // a)
                val += (a * b) ** (-lam) * float(_zeta(2 * lam, t_max + 1)) / 2.0
            out[i, j] = out[j, i] = val
    return out


#: a Gram matrix whose least eigenvalue is at most this is numerically singular
SINGULAR_EIG = 1e-10


def riesz_constants(gram: GramMatrix) -> tuple[float, float]:
    """Finite-section frame bounds (sqrt(min eig), sqrt(max eig)); a
    least eigenvalue at most SINGULAR_EIG raises."""
    lo, hi = gram.eigen_bounds
    if lo <= SINGULAR_EIG:
        raise ValueError(f"Gram matrix numerically singular (min eig {lo:.3e})")
    return math.sqrt(lo), math.sqrt(hi)


def freqs_from_rule(rule) -> list[int]:
    """Frequencies from "pow:q:K" (q^0, ..., q^K; integers q >= 2 and
    0 <= K <= 4096 with K * bits(q) <= 2^16, checked before any power is
    formed) or a non-empty list of distinct positive integers."""
    if isinstance(rule, str):
        name, *args = rule.split(":")
        if name == "pow" and len(args) == 2 and all(a.isdecimal() for a in args) and int(args[0]) >= 2:
            q, K = int(args[0]), int(args[1])
            if K > 4096 or K * q.bit_length() > 2**16:
                raise ValueError(f"frequency rule {rule!r} too large; \"pow:q:K\" needs K <= 4096 and K * bits(q) <= 2^16")
            return [q**k for k in range(K + 1)]
    elif isinstance(rule, (list, tuple)) and rule and all(type(n) is int and n >= 1 for n in rule) and len(set(rule)) == len(rule):
        return list(rule)
    raise ValueError(f"unrecognized frequency rule {rule!r}; use \"pow:q:K\" or a list of distinct positive integers")
