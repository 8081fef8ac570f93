"""Explicit tail models for octave-indexed sequences.

A finite grid can only exhibit finitely many octaves of any quantity
(modulus values, transfer-operator norms, detail norms).  Every
criterion in this package that asks about an infinite series therefore
takes an explicit :class:`TailModel` describing how the sequence is
assumed to continue, and the convergence decision is made from that
model, never implicitly.

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

    def tail_sum(self, start: int, weight_exponent: float = 0.0) -> float:
        """Numeric value of sum_{n >= start} u_n * n**(-weight_exponent).

        Returns math.inf when the model diverges.  With s the exponent
        plus the weight:

          geometric :  summed in blocks until the geometric remainder
                       bound falls below 1e-12 of the total;
          power     :  C * zeta(s, max(start, 1)), the Hurwitz zeta;
          power_log :  g(n) = u_n n^(-w) is summed explicitly for
                       n < n1 = max(start, 2^16), and the remainder
                       sum_{n >= n1} g(n) lies between the integrals
                       I(n1) and I(n1 - 1) of g from n1 and from n1 - 1
                       to infinity.  That bracket is at most g(n1 - 1)
                       wide (when s = 1, a fraction (t - 1) / (n1 log n1)
                       of the remainder); the value returned is the
                       trapezoid estimate I(n1) + g(n1) / 2, inside it.
        """
        if not self.series_converges(weight_exponent):
            return math.inf
        if self.amplitude == 0.0:
            return 0.0
        n0 = max(start, 1)
        if self.kind == "power":
            from scipy.special import zeta

            return self.amplitude * float(zeta(self.exponent + weight_exponent, n0))
        if self.kind == "power_log":
            n1 = max(n0, _EXPLICIT_TERMS)
            ns = np.arange(n0, n1 + 1, dtype=np.float64)
            g = self.value(ns) * ns ** (-weight_exponent)
            remainder = self._power_log_integral(math.log(n1), weight_exponent) + 0.5 * float(g[-1])
            return float(g[:-1].sum()) + remainder
        if weight_exponent == 0.0:
            r = self.exponent
            return self.amplitude * r**start / (1.0 - r)
        total = 0.0
        block = 1024
        while True:
            ns = np.arange(n0, n0 + block, dtype=np.float64)
            vals = self.value(ns) * ns ** (-weight_exponent)
            total += float(vals.sum())
            # the weighted terms fall at least as fast as r^n
            if float(vals[-1]) / (1.0 - self.exponent) <= 1e-12 * max(total, 1e-300):
                return total
            n0 += block
            block = min(2 * block, 1 << 22)
            if n0 > 1 << 40:  # defensive; unreachable for sane models
                return total

    def condensed_tail_sum(self, start_level: int, weight_exponent: float = 0.0) -> float:
        """Numeric value of sum_{l >= start_level} 2^(l(1-w)) u_(2^l), w the
        weight exponent: the Cauchy-condensed form of tail_sum(2^start_level, w).

        Returns math.inf when the model diverges.  Terms are formed in log
        space so that 2^l never overflows.  A geometric model is summed
        over l < 1100 (u_(2^l) underflows long before); a power model is
        the geometric series C 2^(-a l) with a = s + w - 1 > 0; a
        power_log model is summed explicitly for l < start_level + 2^12
        and extended by the same integral bracket as tail_sum, at most
        one term wide.
        """
        if not self.series_converges(weight_exponent):
            return math.inf
        if self.amplitude == 0.0:
            return 0.0
        ln2 = math.log(2.0)
        if self.kind == "geometric":
            if self.exponent == 0.0:
                return 0.0
            ls = np.arange(start_level, max(start_level, 1100), dtype=np.float64)
            with np.errstate(over="ignore"):
                logs = ls * (1.0 - weight_exponent) * ln2 + np.exp2(ls) * math.log(self.exponent)
            return self.amplitude * float(np.exp(logs).sum())
        a = self.exponent + weight_exponent - 1.0
        if self.kind == "power":
            return self.amplitude * 2.0 ** (-a * start_level) / (1.0 - 2.0 ** (-a))
        l1 = start_level + _EXPLICIT_LEVELS
        ls = np.arange(start_level, l1 + 1, dtype=np.float64)
        logs = -a * ls * ln2 - self.log_exponent * np.log(np.maximum(ls * ln2, 1.0))
        g = self.amplitude * np.exp(logs)
        # sum_{l >= l1} g(l) ~ int_{l1}^inf g(l) dl, v = l ln 2
        remainder = self._power_log_integral(l1 * ln2, weight_exponent) / ln2 + 0.5 * float(g[-1])
        return float(g[:-1].sum()) + remainder

    def _power_log_integral(self, lo: float, weight_exponent: float) -> float:
        """C * int_lo^inf e^(-a v) v^(-t) dv with a = s + w - 1 >= 0, lo >= 1.

        With v = log x this is int_(e^lo)^inf u(x) x^(-w) dx for the
        power_log shape; it is the closed form lo^(1-t) / (t-1) when a = 0.
        """
        a = self.exponent + weight_exponent - 1.0
        t = self.log_exponent
        if a == 0.0:
            return self.amplitude * lo ** (1.0 - t) / (t - 1.0)
        from scipy.integrate import quad

        # scaled by e^(a lo) so the integrand is O(1) at the lower limit
        val, _ = quad(lambda v: math.exp(-a * (v - lo)) * v ** (-t), lo, math.inf, epsrel=1e-13, epsabs=0.0)
        return self.amplitude * math.exp(-a * lo) * val


#: explicit terms of tail_sum and condensed_tail_sum before the integral bracket
_EXPLICIT_TERMS = 1 << 16
_EXPLICIT_LEVELS = 1 << 12

