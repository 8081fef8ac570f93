import math
import tracemalloc

import numpy as np
import pytest

from mgale import symbolic as sy
from mgale.riesz import RieszProductSpec, partial_density_coeffs


def riesz_setup(depth=8, c=0.8, levels=None):
    levels = depth if levels is None else levels
    lambdas = tuple(3**k for k in range(levels))
    spec = RieszProductSpec(lambdas, tuple([c] * levels))
    space, pots = sy.riesz_potentials(spec, depth)
    return spec, space, pots


def _g_box_ref(space, pots, upto):
    """G_n = prod_{j<=n} g_j broadcast over the box, rebuilt from g_1."""
    out = np.ones(space.sizes)
    for j in range(1, upto + 1):
        out = out * pots[j].to_box(space).real
    return out


def osc_fn(space, n, lam_ladder, mult=1, depth=None):
    depth = depth or space.depth
    lam = mult * lam_ladder[n]
    shape = space.sizes[n:depth]
    vals = np.empty(shape)
    for idx in np.ndindex(*shape):
        x = 0.5 / lam_ladder[depth] + sum(idx[i] / lam_ladder[n + 1 + i] for i in range(len(idx)))
        vals[idx] = math.cos(2 * math.pi * lam * x)
    return sy.CylinderFunction(n + 1, vals)


# ----------------------------------------------------------------- spaces

def test_space_validation():
    with pytest.raises(ValueError):
        sy.SymbolicSpace((1, 3))  # alphabet too small
    sp = sy.SymbolicSpace([2, 3, 2])
    assert sp.sizes == (2, 3, 2) and sp.depth == 3


# -------------------------------------------------------------- potentials

def test_riesz_potentials_normalized_and_positive():
    _, space, pots = riesz_setup(6, 0.8, 6)
    assert pots.check_normalized(space) < 1e-12
    # floor (1 - |c|) / alphabet size
    assert pots.positivity_floor() >= (1 - 0.8) / 3 - 1e-12


def test_potentials_require_matching_start():
    g = sy.CylinderFunction(2, np.full((3,), 1 / 3))
    with pytest.raises(ValueError):
        sy.PotentialSeq((g,))


def test_riesz_potentials_require_unit_lambda0():
    spec = RieszProductSpec((3, 9), (0.5, 0.5))
    with pytest.raises(ValueError):
        sy.riesz_potentials(spec, 4)


@pytest.mark.parametrize("values", [
    np.array([0.25, 0.75]),  # float64 kept as float64
    np.array([0.25 + 0.5j, 0.75]),  # complex128 kept as complex128
    np.array([0.25 + 0j, 0.75]),  # complex128 with no imaginary part, stored real
    np.array([1, 3]),  # int64, stored as float64
])
def test_cylinder_function_leaves_caller_array_writeable(values):
    kept = values.copy()
    f = sy.CylinderFunction(1, values)
    assert values.flags.writeable and not f.values.flags.writeable
    assert not np.shares_memory(values, f.values)
    assert f.values.dtype == (np.complex128 if np.iscomplexobj(values) and kept.imag.any() else np.float64)
    values[:] = 0
    np.testing.assert_array_equal(f.values, kept)


# ------------------------------------------------------------------ var_m

def test_var_depends_only_on_prefix():
    sp = sy.SymbolicSpace((2, 2, 2))
    f = sy.CylinderFunction(1, np.array([0.0, 1.0]))
    assert sy.var_m(sp, f, 1) == 0.0
    assert sy.var_m(sp, f, 0) == 1.0


def test_var_indicator_of_deep_cylinder():
    sp = sy.SymbolicSpace((2, 2, 2))
    vals = np.zeros((2, 2, 2))
    vals[1, 0, 1] = 1.0
    f = sy.CylinderFunction(1, vals)
    assert sy.var_m(sp, f, 2) == 1.0
    assert sy.var_m(sp, f, 3) == 0.0


def test_var_metric_lipschitz_bound():
    # f(x) = x interpreted through the digit metric d = 1/(l_1 ... l_n)
    sp = sy.SymbolicSpace((3, 3, 3, 3))
    lad = [3**k for k in range(5)]
    vals = np.empty((3, 3, 3, 3))
    for idx in np.ndindex(*vals.shape):
        vals[idx] = sum(idx[i] / lad[i + 1] for i in range(4))
    f = sy.CylinderFunction(1, vals)
    for m in range(0, 4):
        assert sy.var_m(sp, f, m) <= 1.0 / lad[m] + 1e-12


# --------------------------------------------------------------- pn_apply

def test_pn_one_is_one():
    _, space, pots = riesz_setup(7, 0.7, 7)
    one = sy.CylinderFunction(3, np.ones(space.sizes[2:3]))
    out = sy.pn_apply(space, pots, sy.CylinderFunction(3, np.ones(space.sizes[2:3]) * 0 + 1.0), 2)
    np.testing.assert_allclose(out.values, 1.0, atol=1e-13)


def test_p1_uniform_average():
    sp = sy.SymbolicSpace((4, 4))
    g1 = sy.CylinderFunction(1, np.full((4,), 0.25))
    g2 = sy.CylinderFunction(2, np.full((4,), 0.25))
    pots = sy.PotentialSeq((g1, g2))
    f = sy.CylinderFunction(1, np.arange(4.0))
    out = sy.pn_apply(sp, pots, f, 1)
    np.testing.assert_allclose(out.values, 1.5)


def test_pn_positivity_and_projection(rng):
    _, space, pots = riesz_setup(6, 0.6, 6)
    vals = np.abs(rng.standard_normal(space.sizes[4:6]))
    f = sy.CylinderFunction(5, vals)
    p4 = sy.pn_apply(space, pots, f, 4)
    assert p4.values.min() >= 0
    again = sy.pn_apply(space, pots, p4, 2)
    np.testing.assert_allclose(again.to_box(space), p4.to_box(space), atol=1e-14)


# ------------------------------------------------------------- equilibrium

def test_equilibrium_is_product_weights():
    _, space, pots = riesz_setup(6, 0.7, 6)
    w = sy.equilibrium_weights(space, pots)
    expected = _g_box_ref(space, pots, 6)
    np.testing.assert_allclose(w, expected, atol=1e-14)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_without_potentials_is_uniform():
    w = sy.equilibrium_weights(sy.SymbolicSpace((2, 3)), sy.PotentialSeq(()))
    assert w.shape == (2, 3) and np.ptp(w) == 0.0
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_equilibrium_holds_under_four_boxes():
    # the two mass boxes, the generator's G_n and a marginal of at most
    # a third of a box; a whole-box temporary per product or per
    # stationarity check would pass four boxes (3^10 cells)
    _, space, pots = riesz_setup(10, 0.8, 8)
    box = math.prod(space.sizes) * 8
    tracemalloc.start()
    try:
        sy.equilibrium_weights(space, pots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * box


def test_equilibrium_torus_crosscheck():
    spec = RieszProductSpec((1, 3, 9), (0.6, 0.4, 0.0))
    space, pots = sy.riesz_potentials(spec, 10)
    w = sy.equilibrium_weights(space, pots)
    ints = sy.riesz_cylinder_integrals(spec, 1, 6)
    mu6 = w.sum(axis=tuple(range(6, 10)))
    assert np.abs(ints - mu6).max() < 1e-6


# ------------------------------------------------------------------ audits

def test_cond_gn_depends_on_own_coordinate_only():
    sp = sy.SymbolicSpace((3,) * 6)
    pots = sy.PotentialSeq(tuple(sy.CylinderFunction(j, np.full((3,), 1 / 3)) for j in range(1, 7)))
    rep = sy.potential_variation_check(sp, pots, 1.0, 1e-9)
    assert rep.passed and rep.lhs == 0.0


def test_cond_gn_riesz_geometric():
    _, space, pots = riesz_setup(8, 0.8, 8)
    rep = sy.potential_variation_check(space, pots, 1.0, 8.0)
    assert rep.passed
    assert rep.lhs < 2.0


def test_cond_gn_violation_witness():
    sp = sy.SymbolicSpace((2,) * 5)
    pots = []
    for j in range(1, 6):
        if j == 2:
            # g_2(y_2 | x_5): the conditional split over y_2 swings with
            # coordinate 5, three steps past j, keeping normalization
            vals = np.full((2, 2, 2, 2), 0.5)
            vals[0, :, :, 0] = 0.55
            vals[1, :, :, 0] = 0.45
            vals[0, :, :, 1] = 0.25
            vals[1, :, :, 1] = 0.75
            pots.append(sy.CylinderFunction(2, vals))
        else:
            shape = (2,) * (5 - j + 1)
            pots.append(sy.CylinderFunction(j, np.full(shape, 0.5)))
    pots = sy.PotentialSeq(tuple(pots))
    assert pots.check_normalized(sp) < 1e-12
    rep = sy.potential_variation_check(sp, pots, 2.0, 1e-6)
    assert not rep.passed
    # var_3 = var_4 but the (m - n)^alpha weight singles out m = 4
    assert "witness=(2, 4)" in rep.context


def test_cond_gn_rejects_zero_potentials():
    sp = sy.SymbolicSpace((2, 2, 2))
    g = sy.CylinderFunction(1, np.array([1.0, 0.0]))
    pots = sy.PotentialSeq((g, sy.CylinderFunction(2, np.array([0.5, 0.5])), sy.CylinderFunction(3, np.array([0.5, 0.5]))))
    with pytest.raises(ValueError):
        sy.potential_variation_check(sp, pots, 1.0, 1.0)


def test_est_pn_uniform_potentials_exact_averaging():
    sp = sy.SymbolicSpace((3,) * 6)
    pots = sy.PotentialSeq(tuple(sy.CylinderFunction(j, np.full((3,), 1 / 3)) for j in range(1, 7)))
    w = sy.equilibrium_weights(sp, pots)
    # f_1 depends on coordinate 2 only and is centered
    f1 = sy.CylinderFunction(2, np.array([-1.0, 0.0, 1.0]))
    rep, decay = sy.averaging_decay_audit(sp, pots, [f1], 1.0, 2.0, weights=w)
    assert rep.passed
    assert all(v < 1e-13 for (n, m), v in decay.items() if m >= 2)


def test_est_pn_resonant_riesz_collapses():
    spec, space, pots = riesz_setup(8, 0.8, 8)
    w = sy.equilibrium_weights(space, pots)
    lad = [3**k for k in range(9)]
    fns = [osc_fn(space, n, lad) for n in range(1, 5)]
    rep, decay = sy.averaging_decay_audit(space, pots, fns, 1.0, 8.0, weights=w)
    assert rep.passed and rep.lhs == -math.inf
    assert all(v < 1e-12 for (n, m), v in decay.items() if m - n >= 1)


def test_est_pn_one_gap_family_refuses_a_fit():
    # cos(2 pi lambda_n x) cos(2 pi lambda_(n+2) x) at the cylinder
    # midpoints survives at gap m - n = 2 only and collapses past it: one
    # abscissa gives no slope (np.polyfit would warn RankWarning)
    depth, lambdas = 9, tuple(3**k for k in range(7))
    space, pots = sy.riesz_potentials(RieszProductSpec(lambdas, (0.8,) * 7), depth)
    w = sy.equilibrium_weights(space, pots)
    ladder = sy._digit_ladder(lambdas, depth)
    fns = []
    for n in range(1, 6):
        x = sy._digit_points(ladder, n + 1, depth, 0.5 / ladder[depth])
        fns.append(sy.CylinderFunction(n + 1, np.cos(2 * math.pi * ladder[n] * x) * np.cos(2 * math.pi * ladder[n + 2] * x)))
    with pytest.raises(ValueError, match="not enough decay points to fit a slope"):
        sy.averaging_decay_audit(space, pots, fns, 1.0, 8.0, weights=w)


def test_est_pn_polynomial_family_genuine_fit():
    # potentials with polynomially decaying dependence: a real slope fit
    D = 8
    sp = sy.SymbolicSpace((2,) * D)
    alpha = 1.5
    pots = []
    for j in range(1, D + 1):
        d = D - j + 1
        shape = (2,) * d
        eps = np.zeros(shape)
        for i in range(1, d):
            axis_vals = (np.arange(2) - 0.5) / (i + 1) ** (alpha + 1)
            eps += axis_vals.reshape((1,) * i + (2,) + (1,) * (d - i - 1)) * 0.5
        sign = np.array([-1.0, 1.0]).reshape((2,) + (1,) * (d - 1))
        vals = (1.0 + sign * eps) / 2.0
        pots.append(sy.CylinderFunction(j, vals))
    pots = sy.PotentialSeq(tuple(pots))
    assert pots.check_normalized(sp) < 1e-12
    w = sy.equilibrium_weights(sp, pots)
    fns = []
    for n in range(1, 4):
        d = D - n
        vals = np.zeros((2,) * d)
        for i in range(d):
            axis_vals = (np.arange(2) - 0.5) / (i + 1) ** alpha
            vals += axis_vals.reshape((1,) * i + (2,) + (1,) * (d - i - 1))
        fns.append(sy.CylinderFunction(n + 1, vals))
    rep, decay = sy.averaging_decay_audit(sp, pots, fns, alpha, 4.0, weights=w)
    assert math.isfinite(rep.lhs)
    assert rep.passed, (rep.lhs, rep.rhs)


def test_est_pn_hypothesis_violation_raises():
    _, space, pots = riesz_setup(6, 0.5, 6)
    lad = [3**k for k in range(7)]
    big = sy.CylinderFunction(2, 10.0 * osc_fn(space, 1, lad).values)
    w = sy.equilibrium_weights(space, pots)
    with pytest.raises(sy.DecayHypothesisError):
        sy.averaging_decay_audit(space, pots, [big], 1.0, 1.0, w)


def test_decreasing_criterion_values():
    assert math.isfinite(sy.decreasing_criterion_symbolic([1, 0.5], 1.0))
    assert sy.decreasing_criterion_symbolic([1, 0.5], 0.4) == math.inf
    assert sy.decreasing_criterion_symbolic([0, 0], 1.0) == 0.0
    with pytest.raises(ValueError):
        sy.decreasing_criterion_symbolic([1.0], -1.0)


def test_mu_integral_matches_manual():
    _, space, pots = riesz_setup(5, 0.6, 5)
    w = sy.equilibrium_weights(space, pots)
    f = sy.CylinderFunction(2, np.arange(3.0))
    manual = float((w * f.to_box(space)).sum())
    assert sy.mu_integral(space, w, f) == pytest.approx(manual)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(0, 10**6), st.floats(0.1, 0.9))
@settings(max_examples=20, deadline=None)
def test_equilibrium_product_identity_property(seed, c):
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(3, 6))
    spec = RieszProductSpec(tuple(3**k for k in range(depth)), tuple([c] * depth))
    space, pots = sy.riesz_potentials(spec, depth)
    w = sy.equilibrium_weights(space, pots)
    np.testing.assert_allclose(w, _g_box_ref(space, pots, depth), atol=1e-13)


# ------------------------------------------------------ kernel equivalence
# The per-cell ndindex loops that tabulated digit points before the
# broadcast helper, kept here as references.

def _ladder_ref(lambdas, depth):
    ladder = list(lambdas)
    while len(ladder) <= depth:
        ladder.append(3 * ladder[-1])
    return ladder


def _riesz_potentials_ref(spec, depth):
    lambdas = _ladder_ref(spec.lambdas, depth)
    sizes = tuple(lambdas[j] // lambdas[j - 1] for j in range(1, depth + 1))
    offset = 0.5 / lambdas[depth]
    out = []
    for j in range(1, depth + 1):
        ell = sizes[j - 1]
        if j - 1 < len(spec.cs) and spec.cs[j - 1] != 0:
            c, lam, shape = spec.cs[j - 1], lambdas[j - 1], sizes[j - 1 : depth]
            vals = np.empty(shape)
            for idx in np.ndindex(*shape):
                x = offset + sum(idx[i] / lambdas[j + i] for i in range(len(idx)))
                vals[idx] = (1.0 + (c * np.exp(2j * np.pi * lam * x)).real) / ell
            out.append(vals)
        else:
            out.append(np.full((ell,), 1.0 / ell))
    return out


def _cylinder_integrals_ref(spec, N, digits_depth):
    lambdas = _ladder_ref(spec.lambdas, digits_depth)
    sizes = tuple(lambdas[j] // lambdas[j - 1] for j in range(1, digits_depth + 1))
    coeffs = partial_density_coeffs(spec, N)
    out = np.empty(sizes)
    width = 1.0 / lambdas[digits_depth]
    for idx in np.ndindex(*sizes):
        a = sum(idx[i] / lambdas[i + 1] for i in range(len(idx)))
        total = 0.0
        for s, v in coeffs.items():
            if s == 0:
                total += v.real * width
            else:
                total += (
                    v * (np.exp(2j * np.pi * s * (a + width)) - np.exp(2j * np.pi * s * a))
                    / (2j * np.pi * s)
                ).real
        out[idx] = total
    return out


EQUIVALENCE_SPECS = [
    # ratio-3 ladder; the same cut short so the ladder extends past it
    (tuple(3**k for k in range(6)), (0.8,) * 6, 8),
    ((1, 3, 9, 27), (0.6, 0.0, 0.9, 0.3), 7),
    # mixed ratios and complex amplitudes
    ((1, 3, 15, 45), (0.5 + 0.3j, -0.4j, 0.7, 0.2 - 0.6j), 6),
    ((1, 4, 16), (0.6, 0.0, 1.0), 5),


    # ratio 10 (sums of eight or more digits), and all amplitudes zero: P_N = 1
    ((1, 10, 100), (0.6, 0.5j, 0.9), 5),
    ((1, 3, 9), (0.0, 0.0, 0.0), 5),
]


@pytest.mark.parametrize("lambdas, cs, depth", EQUIVALENCE_SPECS)
def test_riesz_potentials_match_ndindex_loop(lambdas, cs, depth):
    spec = RieszProductSpec(lambdas, cs)
    space, pots = sy.riesz_potentials(spec, depth)
    ref = _riesz_potentials_ref(spec, depth)
    assert len(pots) == len(ref) == depth
    for g, r in zip(pots.potentials, ref):
        assert g.values.shape == r.shape
        np.testing.assert_array_equal(g.values, r)
    assert space.sizes == tuple(r.shape[0] for r in ref)


@pytest.mark.parametrize("lambdas, cs, depth", EQUIVALENCE_SPECS)
def test_cylinder_integrals_match_ndindex_loop(lambdas, cs, depth):
    spec = RieszProductSpec(lambdas, cs)
    for N in range(spec.depth):
        for digits_depth in (1, 3, min(5, depth - 1)):
            got = sy.riesz_cylinder_integrals(spec, N, digits_depth)
            ref = _cylinder_integrals_ref(spec, N, digits_depth)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-14


@pytest.mark.parametrize("params", [
    {},  # the default family: 3^k, depth 8
    {"lambdas": [1, 3, 9, 27], "cs": [0.7] * 4, "depth": 7},
    {"lambdas": [1, 5, 15, 45, 135], "cs": [0.5] * 5, "depth": 6},
])
def test_cli_symbolic_family_matches_ndindex_loop(tmp_path, monkeypatch, params):
    from mgale import cli

    seen = []

    def spy(space, pots, fns, *args, **kwargs):
        seen.append(fns)
        return sy.averaging_decay_audit(space, pots, fns, *args, **kwargs)

    monkeypatch.setattr(cli, "averaging_decay_audit", spy)
    raw = {"kind": "symbolic", "parameters": params, "output": {"path": str(tmp_path)}}
    cli.run(cli.validate_config(raw))
    depth = params.get("depth", 8)
    lad = _ladder_ref(params.get("lambdas", [3**k for k in range(8)]), depth)
    (fns,) = seen
    assert len(fns) == min(5, depth - 2)
    for n, f in enumerate(fns, start=1):
        shape = tuple(lad[c] // lad[c - 1] for c in range(n + 1, depth + 1))
        vals = np.empty(shape)
        for idx in np.ndindex(*shape):
            x = 0.5 / lad[depth] + sum(idx[i] / lad[n + 1 + i] for i in range(len(idx)))
            vals[idx] = math.cos(2 * math.pi * lad[n] * x)
        assert f.start == n + 1
        np.testing.assert_array_equal(f.values, vals)


# ---------------------------------------------------- running prefix product
# The box-broadcast forms that rebuilt G_n = g_1 ... g_n from g_1 for
# every n, kept here as references: the running product G_(n-1) g_n and
# the reductions on each function's own values must match them bit for bit.

def _equilibrium_ref(space, pots):
    n_max = min(len(pots), space.depth)
    nu = np.full(space.sizes, 1.0 / math.prod(space.sizes))
    for _ in range(64):
        prev = nu
        for n in range(1, n_max + 1):
            marg = nu.sum(axis=tuple(range(n)))
            nu = _g_box_ref(space, pots, n) * np.broadcast_to(marg, space.sizes)
        if float(np.abs(nu - prev).max()) <= 1e-12:
            break
    return nu / nu.sum()


def _pn_apply_ref(space, pots, f, n):
    box = _g_box_ref(space, pots, n) * f.to_box(space)
    return sy.CylinderFunction(n + 1, box.sum(axis=tuple(range(n))))


def _sup_norm_ref(space, f):
    return float(np.abs(f.to_box(space)).max())


def _var_m_ref(space, f, m):
    if m >= f.end:
        return 0.0
    box = f.to_box(space).real
    axes = tuple(range(max(m, 0), space.depth))
    return float((box.max(axis=axes) - box.min(axis=axes)).max())


def _check_normalized_ref(space, pots):
    return max(float(np.abs(pots[n].to_box(space).sum(axis=n - 1) - 1.0).max()) for n in range(1, len(pots) + 1))


def _decay_audit_ref(space, pots, fns, alpha, B, weights):
    """The (n, m) loop of one pn_apply per pair, and the fit after it."""
    floor = 1e-12 * max(B, 1.0)
    pairs, decay = [], {}
    for n, f in enumerate(fns, start=1):
        centered = sy.CylinderFunction(f.start, f.values - sy.mu_integral(space, weights, f))
        for m in range(n + 1, min(space.depth - 1, len(pots)) + 1):
            val = _sup_norm_ref(space, _pn_apply_ref(space, pots, centered, m))
            decay[(n, m)] = val
            if m - n >= 2 and val > floor:
                pairs.append((m - n, val))
    if len(pairs) >= 2:
        slope = float(np.polyfit(np.log([g for g, _ in pairs]), np.log([v for _, v in pairs]), 1)[0])
    else:
        slope = -math.inf
    positive = [v * (m - n) ** alpha / math.log(1 + m - n) ** (1 + alpha)
                for (n, m), v in decay.items() if v > floor and m > n]
    c_fit = max(positive) if positive else 0.0
    return (slope, -alpha + 0.2, f"averaging-decay[alpha={alpha},C_fit={c_fit:.4g}]"), decay


PREFIX_SPECS = [
    (tuple(3**k for k in range(4)), (0.8,) * 4),
    (tuple(3**k for k in range(4)), (0.5 + 0.3j, -0.4j, 0.7, 0.2 - 0.6j)),
    ((1, 3, 15, 45), (0.5 + 0.3j, -0.4j, 0.7, 0.2 - 0.6j)),
    ((1, 3, 15, 45), (0.6, 0.0, 0.9, 0.3)),
]


@pytest.mark.parametrize("depth", range(5, 11))
@pytest.mark.parametrize("lambdas, cs", PREFIX_SPECS)
def test_running_prefix_product_matches_the_box_rebuild(lambdas, cs, depth):
    spec = RieszProductSpec(lambdas, cs)
    space, pots = sy.riesz_potentials(spec, depth)
    assert pots.check_normalized(space) == _check_normalized_ref(space, pots)
    weights = sy.equilibrium_weights(space, pots)
    assert np.array_equal(weights, _equilibrium_ref(space, pots))
    ladder = sy._digit_ladder(lambdas, depth)
    # the CLI's audit family, one complex function and the potentials' logs
    fns = [
        sy.CylinderFunction(n + 1, np.cos(2 * math.pi * ladder[n] * sy._digit_points(ladder, n + 1, depth, 0.5 / ladder[depth])))
        for n in range(1, min(5, depth - 2) + 1)
    ]
    rng = np.random.default_rng(depth)
    shape = space.sizes[2:depth]
    wild = sy.CylinderFunction(3, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    logs = [sy.CylinderFunction(n, np.log(pots[n].values.real)) for n in range(1, depth + 1)]
    for f in [*fns, wild, *logs]:
        assert sy.sup_norm(space, f) == _sup_norm_ref(space, f)
        for m in range(-1, depth + 1):
            assert sy.var_m(space, f, m) == _var_m_ref(space, f, m)
    for f in [*fns, wild]:
        for n in range(1, f.start):
            got, ref = sy.pn_apply(space, pots, f, n), _pn_apply_ref(space, pots, f, n)
            assert got.start == ref.start and np.array_equal(got.values, ref.values)
    rep, decay = sy.averaging_decay_audit(space, pots, fns, 1.0, 8.0, weights)
    ref_rep, ref_decay = _decay_audit_ref(space, pots, fns, 1.0, 8.0, weights)
    assert list(decay.items()) == list(ref_decay.items())
    assert (rep.lhs, rep.rhs, rep.context) == ref_rep


def test_averages_past_the_space_depth_raise():
    _, space, pots = riesz_setup(5, 0.6, 5)
    # coordinates 4..6 of a depth-5 box, normalized: only the depth is wrong
    deep = sy.CylinderFunction(4, np.full((3, 3, 3), 1 / 3))
    for check in (lambda: sy.sup_norm(space, deep), lambda: sy.var_m(space, deep, 4),
                  lambda: sy.pn_apply(space, pots, deep, 2),
                  lambda: sy.PotentialSeq((*pots.potentials[:3], deep)).check_normalized(space)):
        with pytest.raises(ValueError):
            check()
