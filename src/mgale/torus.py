"""Function carriers on the torus R/Z.

Two representations are used everywhere in the package:

  GridFunction    -- samples on the dyadic grid {k/2^J : 0 <= k < 2^J},
                     the universal carrier for norms, conditional
                     expectations and audits.
  FourierFunction -- a finitely supported map frequency -> amplitude,
                     the exact carrier for lacunary series, Davenport
                     generators and the transfer operator.

Conventions fixed here and used by every other module:

  * sin(2*pi*m*x) is stored as the coefficient pair {m: -i/2, -m: +i/2}
    (see :func:`sine_series`).
  * translating by t ticks, x -> f(x + t/2^J), is the cyclic shift
    samples[(k + t) mod 2^J]; translations are grid exact, no
    interpolation ever happens.
  * rendering a frequency m on a 2^J grid is alias free only when
    |m| < 2^(J-1); :func:`render` refuses anything else with
    :class:`AliasingError`, so every GridFunction made from a Fourier
    sum holds samples of that sum's own modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AliasingError",
    "FourierFunction",
    "GridFunction",
    "dilate",
    "render",
    "sine_series",
]


class AliasingError(ValueError):
    """A frequency at or beyond the Nyquist limit 2^(J-1) was asked to render."""


@dataclass(frozen=True)
class GridFunction:
    """A function sampled at the 2^J equispaced points k/2^J.

    ``samples[k] = f(k / 2**resolution_log2)``.  Storage is float64 when
    ``value_kind == "real"`` and complex128 otherwise; the flag is the
    semantic marker, not the dtype.
    """

    resolution_log2: int
    samples: np.ndarray
    value_kind: str = "real"

    def __post_init__(self):
        if self.resolution_log2 < 0:
            raise ValueError("resolution_log2 must be >= 0")
        arr = np.asarray(self.samples)
        if self.value_kind not in ("real", "complex"):
            raise ValueError(f"unknown value_kind {self.value_kind!r}")
        dtype = np.float64 if self.value_kind == "real" else np.complex128
        arr = arr.astype(dtype, copy=False)
        if isinstance(self.samples, np.ndarray) and np.may_share_memory(arr, self.samples):
            arr = arr.copy()  # freeze a private copy, never the caller's buffer
        if arr.shape != (2**self.resolution_log2,):
            raise ValueError(
                f"expected {2**self.resolution_log2} samples, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(np.float64) if arr.dtype == np.complex128 else arr)):
            raise ValueError("samples contain NaN or Inf")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def mean(self) -> complex | float:
        return self.samples.mean()


@dataclass(frozen=True)
class FourierFunction:
    """A finite Fourier sum  x -> sum_m coeffs[m] * exp(2*pi*i*m*x).

    Zero amplitudes are dropped on construction, so ``m in f.coeffs``
    means the mode is genuinely present.
    """

    coeffs: dict

    def __post_init__(self):
        clean = {}
        for m, c in self.coeffs.items():
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite amplitude at frequency {m}")
            if c != 0:
                clean[int(m)] = c
        object.__setattr__(self, "coeffs", clean)

    @property
    def frequencies(self) -> list[int]:
        return sorted(self.coeffs)

    @property
    def max_frequency(self) -> int:
        return max((abs(m) for m in self.coeffs), default=0)

    def is_real_valued(self) -> bool:
        """True when the coefficient map is conjugate symmetric, up to
        1e-12 of the largest amplitude."""
        scale = max((abs(c) for c in self.coeffs.values()), default=1.0)
        for m, c in self.coeffs.items():
            if abs(c - self.coeffs.get(-m, 0j).conjugate()) > 1e-12 * scale:
                return False
        return True

    def has_zero_mean(self) -> bool:
        return 0 not in self.coeffs

    def __call__(self, x):
        """Pointwise evaluation, vectorized over x.  Used as the oracle
        against which :func:`render` is checked."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(x.shape, dtype=np.complex128)
        for m, c in self.coeffs.items():
            out += c * np.exp(2j * np.pi * m * x)
        return out


def sine_series(amplitudes: dict) -> FourierFunction:
    """Build sum_m b_m sin(2*pi*m*x) as a FourierFunction.

    The package-wide convention: sin(2*pi*m*x) <-> {m: -i/2, -m: +i/2}.
    """
    coeffs: dict = {}
    for m, b in amplitudes.items():
        m = int(m)
        if m == 0:
            continue
        b = complex(b)
        coeffs[m] = coeffs.get(m, 0j) - 0.5j * b
        coeffs[-m] = coeffs.get(-m, 0j) + 0.5j * b
    return FourierFunction(coeffs)


def render(f: FourierFunction, J: int) -> GridFunction:
    """Sample a Fourier sum on the 2^J grid via an inverse FFT.

    Raises AliasingError when some mode has |m| >= 2^(J-1): the samples
    would then be those of a different sum, with that mode folded onto
    m mod 2^J.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    n = 2**J
    if 2 * f.max_frequency >= n:
        raise AliasingError(
            f"frequencies beyond 2^{J - 1} cannot be rendered alias-free at J={J}"
        )
    samples = np.zeros(n, dtype=np.complex128)
    for m, c in f.coeffs.items():
        samples[m % n] += c
    np.fft.ifft(samples, out=samples)  # in place: one 2^J complex buffer
    samples *= n
    if f.is_real_valued():
        return GridFunction(J, samples.real, "real")
    return GridFunction(J, samples, "complex")


def _lp_norm_array(samples: np.ndarray, p) -> float | np.ndarray:
    """(2^-J * sum |f_k|^p)^(1/p) along the last axis: the exact L^p norm
    of the piecewise-constant extension; for p = inf the grid maximum."""
    if p != math.inf and p < 1:
        raise ValueError("p must satisfy p >= 1 or p == inf")
    a = np.abs(samples)
    if p == math.inf:
        return a.max(axis=-1)
    if p == 2:
        return np.sqrt(np.square(a).mean(axis=-1))
    if p == 1:
        return a.mean(axis=-1)
    return (np.power(a, p).mean(axis=-1)) ** (1.0 / p)


def dilate(f: FourierFunction, m: int) -> FourierFunction:
    """Coefficients of x -> f(m*x): every frequency j moves to j*m."""
    if m < 1:
        raise ValueError("dilation factor must be a positive integer")
    if m == 1:
        return f
    return FourierFunction({j * m: c for j, c in f.coeffs.items()})
