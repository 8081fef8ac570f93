"""Davenport generators sum_m sin(2 pi m x) / m^lambda and their Gram
structure under integer dilation.

The closed-form inner products follow from Parseval and the lattice
m * n_j = m' * n_k of coinciding dilated frequencies:

    <f_lam(n_j .), f_lam(n_k .)> = (zeta(2 lam)/2) * (gcd^2 / (n_j n_k))^lam

valid for lam > 1/2.  gram_quadrature cross-checks this from actual
grid samples.  An entry depends only on the coprime reduced pair
(a, b) = (n_j/g, n_k/g), so it computes each distinct (a, b) once:
each dilate is rendered alias-free (per-dilate mode cap
min(M, (2^(J-1)-1)/n)), the grid product is then an exact lattice head
sum, and the truncated lattice tail is restored analytically with a
Hurwitz zeta.  A wrong exponent or constant in the closed form would
show up at the O(1) scale of the head, far above the audit tolerance.
Each render keeps only the samples its dilations read, and the
dilation 1 reads it with no gather.

Frame bounds for finite families come from the Gram eigenvalues; they
are the numeric stand-in for the Riesz-sequence hypotheses of the
equivalence theorems for lacunary Davenport series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modulus import _fft_path, modulus_profile, shift_norm_curve
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
    "smoothness_estimate",
]


def _zeta(*args):
    """scipy.special.zeta, imported at the first call: only the Davenport
    kind needs it, so no other mgale process pays for importing scipy."""
    from scipy.special import zeta

    return zeta(*args)


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


def smoothness_estimate(spec: DavenportSpec, p, J: int) -> float:
    """Fitted log-log decay exponent of omega_p(2^-n, f_lambda).

    Least squares over octaves n in [3, 9]; for p = 2 the expected
    exponent is lambda - 1/2 in the rough regime 1/2 < lambda < 3/2 and
    1 (the L2-Lipschitz ceiling) beyond.  Each window value is a running
    max over the shifts t <= 2^(J-9) at least, so where the scan takes
    np.power (every p but 1, 1.5, 2, 4 and inf), a p-th power of their
    largest |tau_t f - f| that overflows or underflows to 0 is refused
    before the scan.
    """
    gf = eval_davenport(spec, J)
    ns = np.arange(3, 10)
    overflows = False
    if p not in (1, 1.5, math.inf) and not _fft_path(p, True):
        d = shift_norm_curve(gf.samples, [math.inf], max_shift=2 ** (J - 9))[math.inf].max()
        with np.errstate(over="ignore", under="ignore"):
            power = np.power(d, p)
        if power == 0:  # no |tau_t f - f|^p over those shifts exceeds it: n = 9 would read 0
            raise ValueError(f"profile vanishes or is not finite on the fit window: n = 9 reads 0, the largest "
                             f"|tau_t f - f| over t <= 2^(J-9), {float(d)!r}, underflows to 0 at its p-th power")
        overflows = power == math.inf  # the scan would read inf at every window value
    vals = np.full(ns.size, math.inf) if overflows else modulus_profile(gf, p).values[ns]
    if not np.all(np.isfinite(vals) & (vals > 0)):  # an overflowing p^th power reads inf
        raise ValueError(f"profile vanishes or is not finite on the fit window: {vals.tolist()}")
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

    def __post_init__(self):
        if not np.array_equal(self.entries, self.entries.T):
            raise ValueError("Gram entries must be symmetric")

    def to_csv(self) -> str:
        # one join per row: the text of a 4096-frequency matrix is built
        # without holding all of its k^2 cell strings at once.  Each entry
        # is repr'd once, right of the diagonal; row i takes its cells left
        # of the diagonal from the rows above, each kept last column first
        # and popped as it is used
        cols = [f",{j},{{}},{n}," for j, n in enumerate(self.freqs)]
        rows = ["i,j,freq_i,freq_j,entry\n"]
        above = []
        for i, n in enumerate(self.freqs):
            right = [repr(e) for e in self.entries[i, i:].tolist()]
            cells = [row.pop() for row in above] + right
            above.append(right[:0:-1])
            rows.append("".join([f"{i}{col.format(n)}{e}\n" for col, e in zip(cols, cells)]))
        return "".join(rows)


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


def _dilated(a: int, samples: np.ndarray, shift: int, ts: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """f(a t / 2^J) for each grid point t of ``ts``, read from every
    2^shift-th sample of f's render at (a t mod 2^J) >> shift: gathered
    into ``out`` through the index buffer ``idx``, or ``samples`` itself
    when a = 1."""
    if a == 1:
        return samples
    np.multiply(ts, a, out=idx)
    np.bitwise_and(idx, ts.shape[0] - 1, out=idx)
    np.right_shift(idx, shift, out=idx)
    return np.take(samples, idx, out=out, mode="clip")  # mode="raise" would buffer out


def gram_quadrature(freqs, lam: float, M: int, J: int) -> np.ndarray:
    """Grid-quadrature oracle for the Gram matrix.

    Each pair is reduced to coprime (a, b) by the gcd substitution
    u = g x; its entry depends on (a, b) alone, so the quadrature runs
    once per distinct reduced pair.  The generator is rendered once per
    mode cap cap = min(M, (2^(J-1)-1)//a); sampling the render at
    a*t mod 2^J is then exact and the product spectrum stays below 2^J,
    so the grid mean has no aliasing term at all.  The removed lattice tail
    (ab)^(-lam) * zeta(2 lam, t_max + 1) / 2 is restored analytically
    (the head, which is what actually validates the gcd-lattice closed
    form, comes from samples).

    A render is read only at a*t mod 2^J for the dilations a of its cap,
    so it is kept only at every 2^e-th point, 2^e the largest power of
    two dividing all of them, and a = 1 reads it with no gather.  Each
    head is the same dot product of the same samples as with whole
    renders, so the entries do not depend on the strides.
    """
    freqs = tuple(int(n) for n in freqs)
    n_grid = 2**J
    limit = 2 ** (J - 1) - 1
    k = len(freqs)
    caps = {}  # cap -> e: the shift that keeps what its dilations read
    pairs = {}  # (a, b) -> (head index, cap_a, cap_b): pairs with the same reduced pair share it
    tails = []
    where = np.empty((k, k), dtype=np.intp)
    for i in range(k):
        for j in range(i, k):
            g = math.gcd(freqs[i], freqs[j])
            a, b = freqs[i] // g, freqs[j] // g
            if (a, b) not in pairs:
                cap_a, cap_b = min(M, limit // a), min(M, limit // b)
                if cap_a < 1 or cap_b < 1:
                    raise ValueError(f"pair {(freqs[i], freqs[j])} unrenderable at J={J}")
                for cap, d in ((cap_a, a), (cap_b, b)):
                    caps[cap] = min(caps.get(cap, J), (d & -d).bit_length() - 1)
                pairs[a, b] = (len(pairs), cap_a, cap_b)
                t_max = min(cap_a // b, cap_b // a)
                tails.append((a * b) ** (-lam) * float(_zeta(2 * lam, t_max + 1)) / 2.0)
            where[i, j] = where[j, i] = pairs[a, b][0]
    rendered = {
        cap: np.ascontiguousarray(render(davenport_fourier(lam, cap), J).samples[:: 2**shift])
        for cap, shift in caps.items()
    }
    ts, idx = np.arange(n_grid, dtype=np.int64), np.empty(n_grid, np.int64)
    gather_a, gather_b = np.empty(n_grid), np.empty(n_grid)
    heads = np.empty(len(pairs))
    for (a, b), (p, cap_a, cap_b) in pairs.items():
        fa = _dilated(a, rendered[cap_a], caps[cap_a], ts, idx, gather_a)
        fb = _dilated(b, rendered[cap_b], caps[cap_b], ts, idx, gather_b)
        heads[p] = fa @ fb
    values = heads / n_grid
    values += tails
    return values[where]


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
