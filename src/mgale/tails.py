"""Explicit tail models for octave-indexed sequences.

A finite grid can only exhibit finitely many octaves of any quantity
(modulus values, transfer-operator norms, detail norms).  Every
criterion in this package that asks whether an infinite series
converges therefore takes an explicit :class:`TailModel` describing how
the sequence is assumed to continue, and the verdict is read from that
model, never from a finite prefix.  A model gives its value at an index
and its convergence verdicts; it sums nothing numerically.

Supported shapes for u_n (n the octave or term index):

  geometric :  u_n ~ C * r**n
  power     :  u_n ~ C * n**(-s)
  power_log :  u_n ~ C * n**(-s) * (log n)**(-t)

The decision rules are the standard integral / condensation tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TailModel"]

_KINDS = ("geometric", "power", "power_log")


@dataclass(frozen=True)
class TailModel:
    """Declared asymptotic shape of a positive sequence."""

    kind: str
    amplitude: float
    exponent: float
    log_exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")

    def value(self, n):
        """Model value at index n (vectorized)."""
        n = np.asarray(n, dtype=np.float64)
        if self.kind == "geometric":
            return self.amplitude * self.exponent**n
        ln = np.log(np.maximum(n, math.e))
        out = self.amplitude * n ** (-self.exponent)
        if self.kind == "power_log":
            out = out * ln ** (-self.log_exponent)
        return out

    def series_converges(self, weight_exponent: float = 0.0) -> bool:
        """Does sum_n u_n * n**(-weight_exponent) converge under the model?"""
        if self.amplitude == 0.0:
            return True
        if self.kind == "geometric":
            return self.exponent < 1.0
        s = self.exponent + weight_exponent
        if s > 1.0:
            return True
        if s < 1.0:
            return False
        t = self.log_exponent if self.kind == "power_log" else 0.0
        return t > 1.0

    def condensed_converges(self) -> bool:
        """Does sum_l 2**l * u_{2**l} converge under the model?

        For every supported shape this agrees with series_converges(),
        which is exactly the Cauchy condensation equivalence.
        """
        if self.amplitude == 0.0:
            return True
        if self.kind == "geometric":
            return self.exponent < 1.0
        # 2**l * (2**l)**(-s) * (l log 2)**(-t)
        s, t = self.exponent, (self.log_exponent if self.kind == "power_log" else 0.0)
        if s != 1.0:
            return s > 1.0
        return t > 1.0
