"""Acceptance gate: every criterion below runs at its stated tolerance
and prints one [PASS]/[FAIL] line.  Run with `pytest tests/test_acceptance.py -v`
(add -s to see the lines inline).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import zeta

from mgale import cli
from mgale import martingale as mg
from mgale import modulus as mo
from mgale import symbolic as sy
from mgale.davenport import DavenportSpec, gram_matrix, gram_quadrature, riesz_constants, smoothness_estimate
from mgale.dilated import (
    SeriesSpec,
    contraction_audit,
    contraction_refined_audit,
    gaposhkin_example,
    gaposhkin_modulus_fit,
    oscillation_diagnostic,
)
from mgale.martingale import _haar_details, _haar_means, random_grid_functions
from mgale.riesz import RieszProductSpec, riesz_fourier_coeff, riesz_partial_density
from mgale.torus import GridFunction, _lp_norm_array, render, sine_series
from mgale.transfer import l2_norm_exact, transfer_apply, transfer_pointwise_check, duality_audit

SEED = 20240817


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# -------------------------------------------------------------------------
def test_c01_telescoping_parseval():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    J, total = 12, 1000
    worst = 0.0
    for lo in range(0, total, 250):
        arr = random_grid_functions(250, J, rng, "mixed")
        details = _haar_details(_haar_means(arr, J))
        energy = sum(np.square(d).mean(axis=1) for d in details)
        target = np.square(arr).mean(axis=1)
        worst = max(worst, float(np.abs(energy / target - 1.0).max()))
    elapsed = time.time() - t0
    report(1, worst < 1e-10 and elapsed < 10.0,
           f"1000 functions at J=12, worst relative gap {worst:.2e}, {elapsed:.1f}s")


def test_c02_rio_and_doob_randomized():
    t0 = time.time()
    ps = [1.5, 2, 3, 4, 8]
    rio = mg.rio_audit_batch(10_000, ps, 8, seed=SEED)
    doob = mg.doob_audit_batch(10_000, ps, 8, seed=SEED + 1)
    failures = sum(not r.passed for r in rio) + sum(not r.passed for r in doob)
    elapsed = time.time() - t0
    report(2, failures == 0 and elapsed < 60.0,
           f"2 x 10^4 cases over p in {ps}: {failures} failures, {elapsed:.1f}s")


def test_c03_dyadic_approximation_factor_two():
    rng = np.random.default_rng(SEED)
    J, count = 12, 500
    ps = [1.5, 2, 4, math.inf]
    arr = random_grid_functions(count, J, rng, "trig", degree=64)
    failures = 0
    for i in range(count):
        curves = mo.shift_norm_curve(arr[i], ps, chunk=512)
        cms = {p: np.maximum.accumulate(curves[p]) for p in ps}
        means = _haar_means(arr[i], J)
        for n in range(J + 1):
            resid = arr[i] - np.repeat(means[n], 2 ** (J - n))
            for p in ps:
                lhs = _lp_norm_array(resid, p)
                rhs = 2.0 * cms[p][2 ** (J - n)]
                if lhs > rhs + 1e-12 * max(rhs, 1.0):
                    failures += 1
    report(3, failures == 0,
           f"500 trig polynomials x 4 norms x 13 levels at J=12: {failures} failures")


def test_c04_contraction_bounds():
    rng = np.random.default_rng(SEED)
    J, count = 12, 500
    failures, zero_cases = 0, 0
    for i in range(count):
        deg = int(rng.integers(1, 33))
        amps = {int(m): float(a) for m, a in zip(rng.integers(1, 65, deg), rng.standard_normal(deg))}
        f = sine_series(amps)
        mmax = max(1, (2 ** (J - 1) - 1) // f.max_frequency)
        n = int(rng.integers(0, J))
        if i % 10 == 0:
            # force the divisible case l = 0 regularly
            m = 2**n * max(1, int(rng.integers(1, max(2, mmax // 2**n + 1)))) if 2**n <= mmax else 1
            m = min(m, mmax)
        else:
            m = int(rng.integers(1, mmax + 1))
        p = [1.5, 2, 4, math.inf][i % 4]
        main = contraction_audit(f, m, n, p, J)
        refined = contraction_refined_audit(f, m, n, J)
        failures += (not main.passed) + (not refined.passed)
        if m % 2**n == 0:
            zero_cases += 1
            if refined.lhs > 1e-12:
                failures += 1
    report(4, failures == 0 and zero_cases >= 40,
           f"500 randomized (f, m, n): {failures} failures, {zero_cases} exact l=0 cases")


def test_c05_davenport_gram_oracle():
    t0 = time.time()
    freqs = sorted(set(list(range(1, 9)) + [2**k for k in range(9)]))
    worst = 0.0
    for lam in (0.75, 1.0, 1.5):
        gm = gram_matrix(freqs, lam)
        quad = gram_quadrature(freqs, lam, M=4096, J=16)
        worst = max(worst, float(np.abs(gm.entries - quad).max()))
    diag_err = abs(gram_matrix([1], 1.0).entries[0, 0] - math.pi**2 / 12)
    elapsed = time.time() - t0
    report(5, worst < 1e-6 and diag_err < 1e-6 and elapsed < 120.0,
           f"max |closed-form - quadrature| {worst:.2e}, diagonal gap {diag_err:.2e}, {elapsed:.1f}s")


def test_c06_riesz_sequence_evidence():
    gm8 = gram_matrix([2**k for k in range(9)], 0.75)
    gm16 = gram_matrix([2**k for k in range(17)], 0.75)
    lo8, lo16 = gm8.eigen_bounds[0], gm16.eigen_bounds[0]
    floor = 0.1 * zeta(1.5) / 2
    stable = abs(lo8 - lo16) / lo16 < 0.05
    report(6, lo16 > floor and stable,
           f"min eigenvalue {lo16:.4f} > {floor:.4f}, K=8 vs K=16 drift {abs(lo8-lo16)/lo16:.2%}")


def test_c07_smoothness_exponents():
    est75 = smoothness_estimate(DavenportSpec(0.75, 4096), 2, 14)
    est90 = smoothness_estimate(DavenportSpec(0.9, 4096), 2, 14)
    J = 14
    x = np.arange(2**J) / 2**J
    saw = GridFunction(J, np.pi * (0.5 - x) * (x > 0), "real")
    prof = mo.modulus_profile(saw, 2)
    ns = np.arange(3, 10)
    saw_slope = -np.polyfit(ns * math.log(2), np.log(prof.values[ns]), 1)[0]
    ok = abs(est75 - 0.25) <= 0.05 and abs(est90 - 0.40) <= 0.05 and abs(saw_slope - 0.5) <= 0.05
    report(7, ok, f"slopes: lam=0.75 -> {est75:.3f}, lam=0.9 -> {est90:.3f}, sawtooth -> {saw_slope:.3f}")


def test_c08_transfer_operator():
    rng = np.random.default_rng(SEED)
    ok = True
    # coefficient vs pointwise form
    for _ in range(20):
        deg = int(rng.integers(1, 33))
        f = sine_series({int(m): float(a) for m, a in zip(rng.integers(1, 64, deg), rng.standard_normal(deg))})
        ok &= transfer_pointwise_check(f, 10).passed
    # duality on 100 random pairs
    from conftest import random_trig_poly

    for _ in range(100):
        fa = random_trig_poly(rng, degree=48)
        ga = random_trig_poly(rng, degree=48)
        ok &= duality_audit(fa, ga, 12).passed
    # L(sin 2 pi x) = 0 exactly
    ok &= transfer_apply(sine_series({1: 1.0})).coeffs == {}
    # norm decay monotone on every test function
    for _ in range(20):
        f = random_trig_poly(rng, degree=64)
        norms = []
        cur = f
        for _ in range(9):
            norms.append(l2_norm_exact(cur))
            cur = transfer_apply(cur)
        ok &= bool(np.all(np.diff(norms) <= 1e-14))
    report(8, ok, "two forms 1e-12, duality 1e-10 x 100, L sin = 0, ||L^n f||_2 monotone")


def test_c09_gaposhkin_sharpness():
    t0 = time.time()
    _, _, slope, resid = gaposhkin_modulus_fit(1, range(6, 13))
    cps = [2**j for j in range(4, 13)]
    spec = gaposhkin_example(1, 2**13)
    diag_div = oscillation_diagnostic(spec, cps, 200, seed=SEED)
    conv_spec = SeriesSpec(tuple(2.0**-k for k in range(1, 2**13 + 1)), spec.freqs, spec.generator)
    diag_conv = oscillation_diagnostic(conv_spec, cps, 200, seed=SEED)
    elapsed = time.time() - t0
    ok = resid < 0.1 and diag_div.verdict == "diverging" and diag_conv.verdict == "converging" and elapsed < 300
    report(9, ok,
           f"modulus-fit residual {resid:.3f} (slope {slope:.2f}); verdicts: near-critical "
           f"{diag_div.verdict}, geometric {diag_conv.verdict}; {elapsed:.1f}s")


def test_c10_riesz_products():
    spec = RieszProductSpec(tuple(3**k for k in range(7)), tuple([0.6] * 7))
    J, N = 14, 6
    dens = riesz_partial_density(spec, N, J)
    x = np.arange(2**J) / 2**J
    quad = (dens.samples * np.exp(-2j * np.pi * spec.lambdas[0] * x)).mean()
    coeff_err = abs(complex(riesz_fourier_coeff(spec, N, spec.lambdas[0])) - quad)
    mean_err = abs(dens.samples.mean() - 1.0)
    min_ok = dens.samples.min() >= np.prod([1 - 0.6] * 7) - 1e-12
    # symbolic side
    spec_sym = RieszProductSpec((1, 3, 9), (0.6, 0.4, 0.0))
    space, pots = sy.riesz_potentials(spec_sym, 10)
    ones = sy.pn_apply(space, pots, sy.CylinderFunction(4, np.ones(space.sizes[3:4])), 3)
    pn_one_err = float(np.abs(ones.values - 1.0).max())
    w = sy.equilibrium_weights(space, pots)
    ints = sy.riesz_cylinder_integrals(spec_sym, 1, 6)
    mu6 = w.sum(axis=tuple(range(6, 10)))
    cyl_err = float(np.abs(ints - mu6).max())
    ok = coeff_err < 1e-10 and mean_err < 1e-12 and min_ok and pn_one_err < 1e-12 and cyl_err < 1e-6
    report(10, ok,
           f"coeff vs quadrature {coeff_err:.1e}, mean gap {mean_err:.1e}, density floor ok, "
           f"P_n 1 gap {pn_one_err:.1e}, cylinder cross-check {cyl_err:.1e}")


def test_c11_est_pn_decay():
    lambdas = tuple(3**k for k in range(8))
    spec = RieszProductSpec(lambdas, tuple([0.8] * 8))
    space, pots = sy.riesz_potentials(spec, 8)
    w = sy.equilibrium_weights(space, pots)
    lad = [3**k for k in range(9)]
    fns = []
    for n in range(1, 5):
        shape = space.sizes[n:8]
        vals = np.empty(shape)
        for idx in np.ndindex(*shape):
            xx = 0.5 / lad[8] + sum(idx[i] / lad[n + 1 + i] for i in range(len(idx)))
            vals[idx] = math.cos(2 * math.pi * lad[n] * xx)
        fns.append(sy.CylinderFunction(n + 1, vals))
    rep, decay = sy.averaging_decay_audit(space, pots, fns, 1.0, 8.0, weights=w)
    fin1 = sy.decreasing_criterion_symbolic([1.0, 0.5, 0.25], 1.0)
    inf04 = sy.decreasing_criterion_symbolic([1.0, 0.5, 0.25], 0.4)
    ok = rep.passed and math.isfinite(fin1) and inf04 == math.inf
    detail = "exact collapse (slope -inf)" if rep.lhs == -math.inf else f"slope {rep.lhs:.2f}"
    report(11, ok, f"averaging-decay decay {detail} <= {rep.rhs}; criterion finite at alpha=1, inf at alpha=0.4")


def test_c12_determinism(tmp_path):
    def run_twice(raw, fname):
        bodies = []
        for sub in ("a", "b"):
            raw["output"] = {"path": str(tmp_path / sub), "format": raw.get("output", {}).get("format", "csv")}
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(raw))
            assert cli.main(["run", str(cfg)]) in (0,)
            lines = (tmp_path / sub / fname).read_text().splitlines()
            bodies.append("\n".join(lines[1:]))
        return bodies[0] == bodies[1]

    ok = run_twice({"kind": "audit", "parameters": {"suite": "rio", "cases": 40}, "seed": 5, "resolution": 7}, "audit_rio.csv")
    ok &= run_twice(
        {"kind": "dilated", "parameters": {"generator": "sin", "coeffs": "geom:0.5", "freqs": "pow:2:31", "K": 32,
                                            "checkpoints": [4, 8, 16], "sample_size": 100}, "seed": 5},
        "dilated_oscillation.csv",
    )
    ok &= run_twice({"kind": "davenport", "parameters": {"lambda": 0.75, "freqs": "pow:2:8"}, "seed": 5}, "davenport_gram.csv")
    report(12, ok, "audit, dilated and davenport report bodies byte-identical across reruns")
