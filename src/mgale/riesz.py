"""Classical Riesz products on the torus.

mu_c is the weak-* limit of the positive trigonometric polynomials

    P_N(x) = prod_{n<=N} (1 + Re c_n e^{2 pi i lambda_n x}),

for positive integers lambda with lambda_{n+1} / lambda_n an integer
>= 3 and |c_n| <= 1.  The frequency sums sum eps_n lambda_n over
eps in {-1, 0, 1} are then pairwise distinct (dissociate), so every
Fourier coefficient of P_N has exactly one product representation:
coefficient c_n/2 enters at +lambda_n and conj(c_n)/2 at -lambda_n.
The sign convention is pinned by the quadrature cross-check in the
test suite.

Everything at depth N is exact: densities are sampled pointwise,
coefficients come from the greedy dissociate representation, and
sampling from the depth-N density uses the piecewise-constant inverse
CDF on the grid, so sampled moments converge to the exact coefficients
at the Monte Carlo rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dilated import OscillationDiagnostic, _window_oscillation
from .martingale import _rows_per_block
from .modulus import _on_threads, modulus_profile
from .torus import FourierFunction, GridFunction, render

__all__ = [
    "RieszProductSpec",
    "grid_inf_modulus",
    "partial_density_coeffs",
    "riesz_fourier_coeff",
    "riesz_partial_density",
    "riesz_series_run",
    "sample_mu",
    "series_resolution",
]


@dataclass(frozen=True)
class RieszProductSpec:
    """Frequencies (divisible, ratio >= 3) and amplitudes |c_n| <= 1."""

    lambdas: tuple
    cs: tuple

    def __post_init__(self):
        lambdas = tuple(int(v) for v in self.lambdas)
        cs = tuple(complex(c) for c in self.cs)
        if len(lambdas) != len(cs):
            raise ValueError("lambdas and cs must have equal length")
        if not lambdas or lambdas[0] < 1:
            raise ValueError("need at least one positive frequency")
        for a, b in zip(lambdas, lambdas[1:]):
            if b % a != 0 or b < 3 * a:
                raise ValueError("need lambda_{n+1} divisible by lambda_n with ratio >= 3")
        if any(abs(c) > 1 + 1e-12 for c in cs):
            raise ValueError("|c_n| <= 1 required")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "cs", cs)

    @property
    def depth(self) -> int:
        return len(self.lambdas)


def _density_blocks(starts, buffers, levels, n_grid, offsets, dens) -> None:
    """dens[lo:lo + block] = P_N at each block start lo, clipped at 0.

    Every level goes through the (phase, theta, factor) ``buffers`` in
    place, by the same per-point operations in the same order as one
    pass over the whole grid, so a value does not depend on the blocking.
    This runs on density threads: it calls numpy only.
    """
    phase, theta, factor = buffers
    size = phase.shape[0]
    step = 2.0 * np.pi / n_grid
    for lo in starts:
        hi = min(lo + size, n_grid)
        ph, th, fa, d = phase[: hi - lo], theta[: hi - lo], factor[: hi - lo], dens[lo:hi]
        d.fill(1.0)
        for lam, c in levels:
            np.add(offsets[: hi - lo], lo, out=ph)
            np.multiply(ph, lam % n_grid, out=ph)
            np.bitwise_and(ph, n_grid - 1, out=ph)
            np.copyto(th, ph)  # a mixed-type ufunc would malloc a cast buffer on the thread
            np.multiply(th, step, out=th)
            np.cos(th, out=fa)
            np.multiply(fa, c.real, out=fa)
            if c.imag != 0.0:
                np.sin(th, out=th)
                np.multiply(th, c.imag, out=th)
                np.subtract(fa, th, out=fa)
            np.add(fa, 1.0, out=fa)
            np.multiply(d, fa, out=d)
        np.maximum(d, 0.0, out=d)  # clip -0.0 roundoff at zeros


def riesz_partial_density(spec: RieszProductSpec, N: int, J: int) -> GridFunction:
    """P_N on the 2^J grid; nonnegative with grid mean exactly 1.

    Requires sum_{n<=N} lambda_n < 2^(J-1) so that the product spectrum
    sits strictly inside the grid band: the grid mean then reads the
    frequency-0 coefficient exactly and no coefficient wraps.

    Each level's phase at the grid point k/2^J is taken from the exact
    integer phase, theta = (2 pi / 2^J) * ((lambda mod 2^J) * k mod 2^J),
    and the factor is the real form 1 + Re(c e^(i theta)) =
    1 + c.real cos(theta) - c.imag sin(theta) (sin skipped for real c).

    The grid is split into blocks of 2^16 points, each taken through
    all levels in three preallocated buffers, and the blocks go
    round-robin to the threads of modulus's block kernel (up to two; one
    when the process may use one CPU or there is one block).  Every
    point is computed on its own, so P_N is bit-identical to the
    one-pass product over the whole grid, whatever the blocking.
    """
    if not 0 <= N < spec.depth:
        raise ValueError(f"N={N} outside the spec depth {spec.depth}")
    if sum(spec.lambdas[: N + 1]) >= 2 ** (J - 1):
        raise ValueError(f"partial product at depth {N} aliases at J={J}")
    n_grid = 2**J
    levels = list(zip(spec.lambdas[: N + 1], spec.cs[: N + 1]))
    dens = np.empty(n_grid)
    size = _rows_per_block(n_grid, 1)
    offsets = np.arange(size, dtype=np.int64)
    _on_threads(_density_blocks, range(0, n_grid, size),
                lambda: (np.empty(size, np.int64), np.empty(size), np.empty(size)), levels, n_grid, offsets, dens)
    return GridFunction(J, dens, "real")


def riesz_fourier_coeff(spec: RieszProductSpec, N: int, k: int):
    """Exact coefficient of P_N at integer frequency k.

    Greedy dissociate representation: at each level n = N..0, the tail
    sum of lower frequencies is < lambda_n / 2, so eps_n is forced to
    sign(k) whenever |k| exceeds that tail bound, else 0.  Returns 0
    when no representation exists.
    """
    if not 0 <= N < spec.depth:
        raise ValueError(f"N={N} outside the spec depth {spec.depth}")
    lambdas = spec.lambdas[: N + 1]
    prefix = [0]
    for lam in lambdas:
        prefix.append(prefix[-1] + lam)
    coeff = 1.0 + 0.0j
    rem = int(k)
    for n in range(N, -1, -1):
        if abs(rem) > prefix[n]:
            c = spec.cs[n]
            if rem > 0:
                coeff *= c / 2.0
                rem -= lambdas[n]
            else:
                coeff *= c.conjugate() / 2.0
                rem += lambdas[n]
    return coeff if rem == 0 else 0.0j


def partial_density_coeffs(spec: RieszProductSpec, N: int) -> dict:
    """All nonzero coefficients of P_N by product expansion (exact)."""
    coeffs = {0: 1.0 + 0.0j}
    for lam, c in zip(spec.lambdas[: N + 1], spec.cs[: N + 1]):
        nxt: dict = {}
        for s, v in coeffs.items():
            for eps, factor in ((0, 1.0), (1, c / 2.0), (-1, c.conjugate() / 2.0)):
                if factor == 0.0:
                    continue
                key = s + eps * lam
                nxt[key] = nxt.get(key, 0.0j) + v * factor
        coeffs = nxt
    return {s: v for s, v in coeffs.items() if v != 0.0}


def sample_mu(spec: RieszProductSpec, N: int, J: int, count: int, seed: int) -> np.ndarray:
    """i.i.d. draws from the depth-N density via the grid inverse CDF.

    Returns grid points k/2^J; the discrete law puts mass P_N(k/2^J)/2^J
    on each point, so sampled exponential moments match the exact
    coefficients up to Monte Carlo error.
    """
    dens = riesz_partial_density(spec, N, J).samples
    if count == 0:
        return np.empty(0)
    cdf = dens / dens.sum()  # one new grid array, accumulated in place
    del dens
    np.cumsum(cdf, out=cdf)
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    idx = np.searchsorted(cdf, u, side="right")
    return idx / 2.0**J


def grid_inf_modulus(f: FourierFunction, octaves: int, J: int) -> np.ndarray:
    """omega_inf(2^-n, f) on a 2^J grid for n = 0..octaves (n > J reads n = J)."""
    values = modulus_profile(render(f, J), math.inf).values
    return values[np.minimum(np.arange(octaves + 1), J)]


def series_resolution(spec: RieszProductSpec, N: int) -> int:
    """J = max(12, ceil(log2 sum_{n<=N} lambda_n) + 2), the sampling grid
    2^J of :func:`riesz_series_run` for a depth-N series."""
    return max(12, int(math.ceil(math.log2(sum(spec.lambdas[: N + 1])))) + 2)


def _hypothesis_resolution(fn: FourierFunction) -> int:
    """J' = max(12, bits(max mode) + 1), the least grid that renders fn
    alias-free, on which riesz_series_run reads fn's sup-modulus."""
    return max(12, fn.max_frequency.bit_length() + 1)


def riesz_series_run(
    spec: RieszProductSpec,
    fn_family,
    coeffs,
    checkpoints,
    sample_count: int,
    seed: int,
) -> OscillationDiagnostic:
    """Oscillation diagnostic for sum_n a_n (f_n(lambda_n x) - E_mu f_n)
    at points sampled from the depth-N partial density, f_n = fn_family(n).

    The points are drawn on the 2^J grid, J = series_resolution(spec, N).
    The means are the exact depth-N coefficients at -m lambda_n paired
    with the modes m of f_n, each looked up by the greedy dissociate
    representation, so the terms are exactly centered for the sampled
    measure.
    The sup-modulus hypothesis sup_n omega_inf(t, f_n) |log t|^(1/2+eps)
    at eps = 1/4 is evaluated on the 2^J' grid with J' = max(12,
    bits(max mode of f_n) + 1), the least that renders f_n alias-free;
    a violation does not stop the run, it relabels it out-of-hypothesis.
    """
    coeffs = tuple(complex(a) for a in coeffs)
    checkpoints = sorted(int(c) for c in checkpoints)
    N = len(coeffs) - 1
    if N >= spec.depth:
        raise ValueError("more coefficients than Riesz levels")
    if checkpoints[-1] > N + 1:
        raise ValueError("checkpoints exceed the series length")
    J = series_resolution(spec, N)
    xs = sample_mu(spec, N, J, sample_count, seed)
    n_grid = 2**J
    ks = np.round(xs * n_grid).astype(np.int64)

    # the hypothesis sup_n omega(t, f_n) <= C |log t|^-(1/2+1/4) is
    # checked per distinct generator, on the octaves where the finite
    # sum is faithful to its ideal parent (above the truncation scale)
    hyp_cache: dict = {}

    def hyp_violated(fn: FourierFunction) -> bool:
        key = tuple(sorted(fn.coeffs.items()))
        if key not in hyp_cache:
            octs = min(10, max(4, fn.max_frequency.bit_length() - 1))
            om = grid_inf_modulus(fn, octs, _hypothesis_resolution(fn))
            ts = 2.0 ** -np.arange(1, octs + 1)
            prod = om[1:] * np.abs(np.log(ts)) ** 0.75
            hyp_cache[key] = bool(np.ptp(prod) > 0 and prod[-1] > 2.0 * prod[0] + 1e-12)
        return hyp_cache[key]

    hyp_ok = True
    terms = np.zeros((sample_count, N + 1), dtype=np.complex128)
    for n in range(N + 1):
        fn = fn_family(n)
        lam = spec.lambdas[n]
        mean = sum(c * riesz_fourier_coeff(spec, N, -m * lam) for m, c in fn.coeffs.items())
        vals = np.zeros(sample_count, dtype=np.complex128)
        for m, c in fn.coeffs.items():
            # exact phase on the grid: (m lam k) mod 2^J in integers
            ph = (int(m) * lam % n_grid) * ks % n_grid
            vals += c * np.exp(2j * np.pi * ph / n_grid)
        terms[:, n] = coeffs[n] * (vals - mean)
        if hyp_violated(fn):
            hyp_ok = False
    if np.abs(terms.imag).max() < 1e-13 * max(np.abs(terms).max(), 1.0):
        terms = terms.real
    label = "riesz-series" + ("" if hyp_ok else "[out-of-hypothesis]")
    return _window_oscillation(np.cumsum(terms, axis=1), np.abs(np.array(coeffs)), checkpoints, label)
