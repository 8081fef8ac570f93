import math
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import zeta

from mgale.tails import TailModel


@contextmanager
def wall_time_guard(seconds: float):
    """Fail (instead of hanging) when the body runs past ``seconds``."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("no interval timer on this platform")

    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < seconds


def explicit_tail(model: TailModel, start: int, weight: float, stop: int) -> float:
    """sum_{start <= n < stop} of the weighted model terms."""
    total = 0.0
    for lo in range(start, stop, 1 << 22):
        ns = np.arange(lo, min(lo + (1 << 22), stop), dtype=np.float64)
        total += float((model.value(ns) * ns**-weight).sum())
    return total


@pytest.mark.parametrize("s", [2.5, 2.0, 1.5, 3.0])
def test_power_tail_sum_is_hurwitz_zeta_and_fast(s):
    model = TailModel("power", 1.5, s)
    with wall_time_guard(5.0):
        got = model.tail_sum(10)
    assert got == pytest.approx(1.5 * float(zeta(s, 10)), rel=1e-14)
    # weighted: s_eff = s + w
    with wall_time_guard(5.0):
        got = model.tail_sum(4, weight_exponent=0.5)
    assert got == pytest.approx(1.5 * float(zeta(s + 0.5, 4)), rel=1e-14)


def test_power_log_tail_sum_critical_exponent():
    # sum_{n >= 10} 1 / (n log^2 n): explicit to 2^24, then the closed
    # remainder 1/log(N) + g(N)/2, independent of the 2^16 split inside
    model = TailModel("power_log", 1.0, 1.0, 2.0)
    with wall_time_guard(5.0):
        got = model.tail_sum(10)
    stop = 1 << 24
    ref = explicit_tail(model, 10, 0.0, stop) + 1.0 / math.log(stop) + 0.5 / (stop * math.log(stop) ** 2)
    assert got == pytest.approx(ref, rel=1e-11)


@pytest.mark.parametrize("s, t, w", [(3.0, 1.0, 0.0), (1.5, 0.5, 0.5), (0.5, 2.0, 1.0)])
def test_power_log_tail_sum_supercritical(s, t, w):
    model = TailModel("power_log", 2.0, s, t)
    with wall_time_guard(5.0):
        got = model.tail_sum(20, weight_exponent=w)
    # the terms past 2^22 sum to at most C zeta(s + w, 2^22) log(2^22)^-t,
    # a few 1e-6 of the total at worst
    stop = 1 << 22
    ref = explicit_tail(model, 20, w, stop)
    rem_bound = 2.0 * float(zeta(s + w, stop)) * math.log(stop) ** -t
    assert ref <= got <= ref + rem_bound


def test_geometric_tail_sum_unchanged():
    model = TailModel("geometric", 2.0, 0.9)
    assert model.tail_sum(5) == pytest.approx(2.0 * 0.9**5 / 0.1, rel=1e-15)
    ns = np.arange(5, 2000, dtype=np.float64)
    assert model.tail_sum(5, 0.5) == pytest.approx(float((2.0 * 0.9**ns / np.sqrt(ns)).sum()), rel=1e-12)


def test_divergent_tails_are_infinite():
    assert TailModel("power", 1.0, 1.0).tail_sum(3) == math.inf
    assert TailModel("power_log", 1.0, 0.5, 1.0).tail_sum(3, 0.5) == math.inf
    assert TailModel("power_log", 1.0, 0.5, 1.0).condensed_tail_sum(3, 0.5) == math.inf


@pytest.mark.parametrize("model", [
    TailModel("power", 1.0, 2.0),
    TailModel("power", 0.3, 0.75),
    TailModel("power_log", 1.0, 0.5, 2.0),
    TailModel("power_log", 1.0, 1.25, -0.5),
    TailModel("geometric", 1.0, 0.97),
])
def test_condensed_tail_sum_against_explicit_levels(model):
    # sum_{l >= 3} 2^(l/2) u(2^l), summed level by level to l = 2^20
    with wall_time_guard(5.0):
        got = model.condensed_tail_sum(3, weight_exponent=0.5)
    ls = np.arange(3, 1 << 20, dtype=np.float64)
    a = model.exponent - 0.5
    if model.kind == "geometric":
        ls = ls[:1000]
        terms = np.exp(ls * 0.5 * math.log(2) + np.exp2(ls) * math.log(model.exponent))
    else:
        terms = np.exp2(-a * ls) * np.maximum(ls * math.log(2), 1.0) ** -model.log_exponent
    ref = model.amplitude * float(terms.sum())
    if model.kind == "power_log" and a == 0.0:
        top = ls[-1] + 1  # closed remainder of sum_{l >= top} (l log 2)^-t
        ref += model.amplitude * (top * math.log(2)) ** (1 - model.log_exponent) / (
            (model.log_exponent - 1) * math.log(2)
        )
    assert got == pytest.approx(ref, rel=1e-9)
