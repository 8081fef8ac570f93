import math

import numpy as np
import pytest

from mgale.tails import TailModel


def test_value_follows_the_declared_shape():
    ns = np.arange(1, 40, dtype=np.float64)
    np.testing.assert_array_equal(TailModel("geometric", 2.0, 0.9).value(ns), 2.0 * 0.9**ns)
    np.testing.assert_array_equal(TailModel("power", 1.5, 2.5).value(ns), 1.5 * ns**-2.5)
    # the log factor is held at log e = 1 below n = e
    logs = np.log(np.maximum(ns, math.e))
    np.testing.assert_array_equal(TailModel("power_log", 1.0, 0.5, 2.0).value(ns), ns**-0.5 * logs**-2.0)


@pytest.mark.parametrize("model, weight, converges", [
    (TailModel("geometric", 1.0, 0.97), 0.0, True),
    (TailModel("geometric", 1.0, 1.0), 0.5, False),
    (TailModel("power", 1.0, 2.0), 0.0, True),
    (TailModel("power", 1.0, 1.0), 0.0, False),
    (TailModel("power", 1.0, 0.5), 0.5, False),  # s + w = 1 with no log factor
    (TailModel("power", 1.0, 0.6), 0.5, True),
    (TailModel("power", 0.0, 0.1), 0.0, True),  # a zero tail converges
    (TailModel("power_log", 1.0, 0.5, 2.0), 0.5, True),  # 1 / (n log^2 n)
    (TailModel("power_log", 1.0, 0.5, 1.0), 0.5, False),  # 1 / (n log n)
    (TailModel("power_log", 1.0, 1.25, -0.5), 0.0, True),
])
def test_series_verdict_is_the_integral_test(model, weight, converges):
    assert model.series_converges(weight_exponent=weight) == converges


@pytest.mark.parametrize("model", [
    TailModel("geometric", 1.0, 0.5),
    TailModel("geometric", 1.0, 1.5),
    TailModel("power", 1.0, 0.9),
    TailModel("power", 1.0, 1.0),
    TailModel("power", 1.0, 1.1),
    TailModel("power_log", 1.0, 1.0, 1.0),
    TailModel("power_log", 1.0, 1.0, 1.5),
    TailModel("power_log", 1.0, 0.8, 3.0),
    TailModel("power", 0.0, 0.5),
])
def test_condensed_verdict_agrees_with_the_series_verdict(model):
    # Cauchy condensation: sum u_n and sum 2^l u_(2^l) converge together
    assert model.condensed_converges() == model.series_converges()


@pytest.mark.parametrize("kind, amplitude", [("cubic", 1.0), ("power", -1.0)])
def test_unknown_kind_and_negative_amplitude_are_refused(kind, amplitude):
    with pytest.raises(ValueError):
        TailModel(kind, amplitude, 2.0)
