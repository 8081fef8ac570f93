"""L^p modulus of continuity on the dyadic grid.

omega_p(delta, f) = sup_{0 <= h <= delta} ||f(. + h) - f||_p, with the
sup taken over grid shifts h = t/2^J only (translations are grid exact,
see torus).  The computed values are therefore certified lower bounds
of the continuum modulus that converge as J grows; this keeps
interpolation error out of every inequality audit built on top.

The factor-2 dyadic approximation bound

    ||f - E(f|F_n)||_p <= 2 * omega_p(2^-n, f)

holds verbatim for the grid modulus (the block-average proof only ever
compares f against its translates by 0 <= t < 2^(J-n) ticks), so
:func:`dyadic_approx_audit_all` is a universal audit: a failure is a bug.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .martingale import AuditReport, _bound_report, _haar_means
from .torus import FourierFunction, GridFunction, _lp_norm_array

__all__ = [
    "ModulusProfile",
    "dyadic_approx_audit_all",
    "fourier_modulus_l2",
    "modulus_profile",
    "shift_norm_curve",
]


@dataclass(frozen=True)
class ModulusProfile:
    """omega_p(2^-n, f) for n = 0..J, computed at grid resolution J."""

    p: float
    values: np.ndarray
    source_resolution: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.shape != (self.source_resolution + 1,):
            raise ValueError("profile must hold one value per n = 0..J")


def _circular_corr(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """c[t] = sum_k g[(k + t) mod N] h[k] for real g, h, via one FFT."""
    return np.fft.irfft(np.fft.rfft(g) * np.conj(np.fft.rfft(h)), g.shape[-1])


#: shift rows per task of the generic-p scan; the size rule counts a task
#: as chunk x n cells, though it is scanned in smaller buffered blocks
_SCAN_CHUNK = 256
#: a block holds at most 64 rows and 2^16 cells (512 KiB of float64), so a
#: block's three buffers stay within a per-core L2 cache
_SCAN_BLOCK_ROWS, _SCAN_BLOCK_CELLS = 64, 2**16
#: the most threads one scan runs on, whatever the input size
_SCAN_THREADS = 2


def _fft_path(p, real: bool) -> bool:
    """Whether shift_norm_curve reads the curve of p off FFT correlations
    (p = 2, and p = 4 on real data) rather than scanning the shifts."""
    return p == 2 or (p == 4 and real)


def _curve_cells(n: int, p_values) -> int:
    """Cells the size rule counts for shift_norm_curve's full curve of n
    real samples: one scan task of the default chunk x n when some p needs
    the scan, else a curve of n + 1 values."""
    scan = not all(_fft_path(p, True) for p in p_values)
    return max(n + 1, min(_SCAN_CHUNK, n // 2 + 1) * n if scan else 0)


def _scan_threads() -> int:
    """Threads for the generic-p scan: at most _SCAN_THREADS, and no more
    than the CPUs this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    return min(_SCAN_THREADS, cpus)


def _scan_tasks(shifted, s, ps, tasks, buffers, scan) -> None:
    """scan[p][lo:hi] = ||tau_t f - f||_p for t in each (lo, hi) task.

    Each task is scanned in blocks of as many rows as the (difference,
    abs, work) ``buffers`` hold, in place.  Every row keeps its own
    reduction, so a value does not depend on the blocking.  This runs on
    scan threads: it calls numpy only.
    """
    diff, absd, work = buffers
    rows = diff.shape[0]
    for task_lo, task_hi in tasks:
        for lo in range(task_lo, task_hi, rows):
            hi = min(lo + rows, task_hi)
            d, a, w = diff[: hi - lo], absd[: hi - lo], work[: hi - lo]
            np.subtract(shifted[lo:hi], s, out=d)
            np.abs(d, out=a)
            for p in ps:
                if p == math.inf:
                    vals = a.max(axis=1)
                elif p == 1:
                    vals = a.mean(axis=1)
                elif p == 1.5:
                    np.multiply(a, np.sqrt(a, out=w), out=w)
                    vals = w.mean(axis=1) ** (1 / 1.5)
                elif p == 4:
                    np.square(a, out=w)
                    np.multiply(w, w, out=w)
                    vals = w.mean(axis=1) ** 0.25
                else:
                    vals = np.power(a, p, out=w).mean(axis=1) ** (1.0 / p)
                scan[p][lo:hi] = vals


def shift_norm_curve(
    samples: np.ndarray, p_values, max_shift: int | None = None, chunk: int = _SCAN_CHUNK
) -> dict:
    """||tau_t f - f||_p for every shift t = 0..max_shift, per p.

    p = 2 always, and p = 4 for real data, go through O(N log N)
    circular correlations (the fourth power expands into correlations
    of f, f^2, f^3).  Remaining p values share one pass over the
    (shift, sample) difference matrix.  That pass uses the symmetry
    ||tau_t f - f||_p = ||tau_(N-t) f - f||_p (substitute k -> k + t in
    the sum over grid points), so it scans only t <= N/2 and reads the
    other shifts off as N - t.

    The pass splits the rows t into tasks of ``chunk`` rows and scans a
    task in blocks of at most 64 rows (and 2^16 cells) through
    preallocated buffers.  Tasks go round-robin to up to two threads (one when the process may
    use one CPU or there is one task).  Each row is reduced on its own,
    so the curve is bit-identical whatever the chunk and thread count.
    """
    s = np.asarray(samples)
    n = s.shape[-1]
    if max_shift is None:
        max_shift = n
    p_values = list(p_values)
    curves = {p: np.zeros(max_shift + 1) for p in p_values}
    ts_all = np.arange(max_shift + 1) % n
    remaining = []
    for p in p_values:
        if not _fft_path(p, not np.iscomplexobj(s)):
            remaining.append(p)
        elif p == 2:
            spec = np.fft.fft(s)
            acorr = np.fft.ifft(np.abs(spec) ** 2).real / n
            sq = 2.0 * acorr[0] - 2.0 * acorr
            curves[2] = np.sqrt(np.maximum(sq[ts_all], 0.0))
        else:  # p == 4 on real data
            s2, s3 = s * s, s * s * s
            m4 = float((s2 * s2).sum())
            c31 = _circular_corr(s3, s)
            c13 = _circular_corr(s, s3)
            c22 = _circular_corr(s2, s2)
            fourth = (2.0 * m4 - 4.0 * (c31 + c13) + 6.0 * c22) / n
            curves[4] = np.maximum(fourth[ts_all], 0.0) ** 0.25
    if not remaining:
        return curves
    last = min(max_shift, n // 2)
    # shifted[t] = tau_t f as a contiguous view of one period-doubled copy
    shifted = np.lib.stride_tricks.sliding_window_view(np.concatenate([s, s]), n)
    scan = {p: np.empty(last + 1) for p in remaining}
    tasks = [(lo, min(lo + chunk, last + 1)) for lo in range(0, last + 1, chunk)]
    threads = min(_scan_threads(), len(tasks))
    # the buffers are made here, not on the threads, whose malloc arenas
    # would keep the freed blocks
    rows = min(_SCAN_BLOCK_ROWS, max(1, _SCAN_BLOCK_CELLS // n), chunk, last + 1)
    buffers = [(np.empty((rows, n), s.dtype), np.empty((rows, n)), np.empty((rows, n))) for _ in range(threads)]
    if threads == 1:
        _scan_tasks(shifted, s, remaining, tasks, buffers[0], scan)
    else:
        # a pool per call: threads inherited across a fork would hang the child
        with ThreadPoolExecutor(threads) as pool:
            jobs = [
                pool.submit(_scan_tasks, shifted, s, remaining, tasks[w::threads], buffers[w], scan)
                for w in range(threads)
            ]
            for job in jobs:
                job.result()
    folded = np.minimum(ts_all, n - ts_all)
    for p in remaining:
        curves[p] = scan[p][folded]
    return curves


def modulus_profile(f: GridFunction, p) -> ModulusProfile:
    """Grid modulus omega_p(2^-n, f) for every octave n = 0..J.

    values[n] = max over shifts 0 <= t <= 2^(J-n) of ||tau_t f - f||_p;
    the full shift scan is done once and shared across octaves via a
    running maximum, so the profile is exact for the grid and
    non-increasing in n by construction.
    """
    if p != math.inf and p < 1:
        raise ValueError("p must satisfy p >= 1 or p == inf")
    J = f.resolution_log2
    curve = shift_norm_curve(f.samples, [p])[p]
    cummax = np.maximum.accumulate(curve)
    values = np.array([cummax[2 ** (J - n)] for n in range(J + 1)])
    return ModulusProfile(p, values, J)


def dyadic_approx_audit_all(f: GridFunction, p) -> list[AuditReport]:
    """Audit ||f - E(f|F_n)||_p <= 2 * omega_p(2^-n, f) for every level
    n = 0..J from one shift scan and one Haar pyramid."""
    J = f.resolution_log2
    omega = modulus_profile(f, p).values
    means = _haar_means(f.samples, J)
    reports = []
    for n in range(J + 1):
        lhs = _lp_norm_array(f.samples - np.repeat(means[n], 2 ** (J - n)), p)
        rhs = 2.0 * omega[n]
        reports.append(_bound_report(lhs, rhs, 2.0, f"dyadic-approx[p={p},n={n}]"))
    return reports


def fourier_modulus_l2(
    f: FourierFunction, deltas, h_points: int = 4096
) -> np.ndarray:
    """Exact-in-modes L2 modulus of a finite Fourier sum.

    ||tau_h f - f||_2^2 = sum_m 4 |c_m|^2 sin^2(pi m h) by Parseval, so
    the modulus only needs a sup over h, taken here on an h_points grid
    of each [0, delta].  No spatial rendering is involved, which keeps
    high-frequency (lacunary) modes honest where a 2^J grid would alias
    them away.
    """
    if f.max_frequency >= 2**52:
        raise ValueError("frequencies beyond float range; compute the modulus on a truncated generator")
    ms = np.array(f.frequencies, dtype=np.float64)
    w = np.array([4.0 * abs(f.coeffs[int(m)]) ** 2 for m in ms])
    deltas = np.asarray(list(deltas), dtype=np.float64)
    out = np.empty(deltas.shape)
    for i, d in enumerate(deltas):
        hs = np.linspace(0.0, d, h_points + 1)
        sq = np.zeros_like(hs)
        for lo in range(0, ms.size, 512):
            hi = lo + 512
            sq += (w[lo:hi] * np.square(np.sin(np.pi * np.outer(hs, ms[lo:hi])))).sum(axis=1)
        out[i] = math.sqrt(sq.max())
    return out
