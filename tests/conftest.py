import numpy as np
import pytest

from mgale.torus import FourierFunction, GridFunction, sine_series


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_trig_poly(rng, degree=32, real=True) -> FourierFunction:
    """Random zero-mean trig polynomial with 1/sqrt(m)-weighted modes."""
    deg = int(rng.integers(1, degree + 1))
    if real:
        amps = {int(m): float(a) for m, a in zip(rng.integers(1, degree + 1, deg), rng.standard_normal(deg) / 2)}
        return sine_series(amps)
    coeffs = {}
    for m, re, im in zip(rng.integers(1, degree + 1, deg), rng.standard_normal(deg), rng.standard_normal(deg)):
        coeffs[int(m)] = complex(re, im)
        coeffs[-int(m)] = complex(re, -im) / 2  # deliberately non-symmetric
    return FourierFunction(coeffs)


def random_grid(rng, J, centered=True) -> GridFunction:
    arr = rng.standard_normal(2**J)
    if centered:
        arr -= arr.mean()
    return GridFunction(J, arr, "real")


def block_average(arr, n, J):
    """E(.|F_n) on the last axis of an (..., 2^J) array as expanded block
    means: the formulation the library's Haar pyramid replaced, kept as
    the reference for its equivalence tests."""
    if not 0 <= n <= J:
        raise ValueError(f"filtration level {n} outside [0, {J}]")
    if n == J:
        return arr
    shape = arr.shape[:-1]
    blocks = arr.reshape(*shape, 2**n, 2 ** (J - n))
    means = blocks.mean(axis=-1, keepdims=True)
    return np.broadcast_to(means, blocks.shape).reshape(*shape, 2**J)
