"""Non-homogeneous full shifts, normalized potentials, averaging
operators P_n and equilibrium states, truncated to a finite depth.

Representation: a cylinder function of coordinates start..start+d-1
is a d-dimensional numpy array indexed by those digits, and is reduced
on its own values.  Only the potentials' running product G_n = g_1 ...
g_n and the integrals against the cylinder weights touch the dense
digit box S_1 x ... x S_D (depth D), by exact enumeration.

Key structural fact used throughout: for exactly normalized potentials
the operators satisfy P_n(P_m f) = P_m f for n <= m, hence the adjoint
fixed-point iteration contracts in a single sweep onto the product
weights nu(w) = G_D(w), which is the unique common fixed point of the
truncated system.  The iteration is still run and its stationarity
asserted; it is the cheapest full-machinery self-check available.

Riesz products embed via the digit expansion x = sum_n x_n / lambda_n
(lambda_0 = 1), the potential g_{n+1} being 1 + Re c_n e^{2 pi i lambda_n x}
divided by the alphabet size (see riesz_potentials), evaluated at
cylinder midpoints: the digit-sum truncation error is then second
order, and the y-sum of the oscillating factor cancels exactly, so the
truncated potentials stay exactly normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .martingale import AuditReport, _bound_report
from .riesz import RieszProductSpec, partial_density_coeffs

__all__ = [
    "CylinderFunction",
    "DecayHypothesisError",
    "PotentialSeq",
    "SymbolicSpace",
    "potential_variation_check",
    "decreasing_criterion_symbolic",
    "equilibrium_weights",
    "averaging_decay_audit",
    "mu_integral",
    "pn_apply",
    "riesz_cylinder_integrals",
    "riesz_potentials",
    "sup_norm",
    "var_m",
]


@dataclass(frozen=True)
class SymbolicSpace:
    """The full digit box S_1 x ... x S_D, |S_n| = sizes[n - 1]."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if any(s < 2 for s in sizes):
            raise ValueError("alphabet sizes must be >= 2")
        object.__setattr__(self, "sizes", sizes)

    @property
    def depth(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class CylinderFunction:
    """A function of the coordinates start..start+values.ndim-1 (1-based)."""

    start: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        real = np.isrealobj(v) or np.abs(v.imag).max(initial=0.0) == 0.0
        v = v.real.astype(np.float64) if real else v.astype(np.complex128)  # never the caller's buffer
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.start < 1:
            raise ValueError("coordinates are 1-based")

    @property
    def end(self) -> int:
        return self.start + self.values.ndim - 1

    def _values_within(self, space: SymbolicSpace) -> np.ndarray:
        if self.end > space.depth:
            raise ValueError("cylinder function exceeds the space depth")
        return self.values

    def to_box(self, space: SymbolicSpace) -> np.ndarray:
        """Broadcast into the full digit box."""
        shape = [1] * space.depth
        shape[self.start - 1 : self.end] = self.values.shape
        return np.broadcast_to(self._values_within(space).reshape(shape), space.sizes)


@dataclass(frozen=True)
class PotentialSeq:
    """g_n, n = 1..len, with g_n depending on coordinates n..n+d_n-1."""

    potentials: tuple

    def __post_init__(self):
        pots = tuple(self.potentials)
        for n, g in enumerate(pots, start=1):
            if g.start != n:
                raise ValueError(f"potential {n} must start at coordinate {n}")
        object.__setattr__(self, "potentials", pots)

    def __len__(self) -> int:
        return len(self.potentials)

    def __getitem__(self, n: int) -> CylinderFunction:
        """1-based access g_n."""
        return self.potentials[n - 1]

    def check_normalized(self, space: SymbolicSpace) -> float:
        """max_n max over tails |sum_{y_n} g_n - 1|; raises past 1e-12."""
        worst = 0.0
        for n in range(1, len(self) + 1):
            sums = self[n]._values_within(space).sum(axis=0)
            worst = max(worst, float(np.abs(sums - 1.0).max()))
        if worst > 1e-12:
            raise ValueError(f"potentials not normalized (deviation {worst:.3e})")
        return worst

    def positivity_floor(self) -> float:
        return min(float(np.min(g.values.real)) for g in self.potentials)


def _prefix_products(space: SymbolicSpace, pots: PotentialSeq, upto: int):
    """G_n = G_(n-1) g_n over the box, n = 1..upto: one box, updated in place."""
    g = np.ones(space.sizes)
    for n in range(1, upto + 1):
        g *= pots[n].to_box(space).real
        yield g


def _average(space: SymbolicSpace, g: np.ndarray, f: CylinderFunction, n: int) -> CylinderFunction:
    """P_n f from the prefix product g = G_n: the sum of G_n f over digits 1..n."""
    return CylinderFunction(n + 1, (g * f.to_box(space)).sum(axis=tuple(range(n))))


def pn_apply(space: SymbolicSpace, pots: PotentialSeq, f: CylinderFunction, n: int) -> CylinderFunction:
    """P_n f by exact prefix enumeration; the result depends only on
    coordinates n+1..depth (trailing dependence may be trivial)."""
    if n < 1 or n > len(pots) or n >= space.depth:
        raise ValueError(f"need 1 <= n <= {min(len(pots), space.depth - 1)}")
    *_, g = _prefix_products(space, pots, n)  # each item is the one box, G_n at the end
    return _average(space, g, f, n)


def sup_norm(space: SymbolicSpace, f: CylinderFunction) -> float:
    """sup |f| over the box, read off f's own values."""
    return float(np.abs(f._values_within(space)).max())


def var_m(space: SymbolicSpace, f: CylinderFunction, m: int) -> float:
    """sup{ |f(x) - f(y)| : x_1 = y_1, ..., x_m = y_m }, exact, on f's own values."""
    if m >= f.end:
        return 0.0
    vals = f._values_within(space).real
    axes = tuple(range(max(m - f.start + 1, 0), vals.ndim))
    return float((vals.max(axis=axes) - vals.min(axis=axes)).max())


def equilibrium_weights(space: SymbolicSpace, pots: PotentialSeq) -> np.ndarray:
    """Common fixed point of the adjoints P_n* on depth-D cylinder mass.

    Starts from the uniform measure and sweeps n = 1..n_max until
    stationary below 1e-12, at most 64 sweeps; for normalized
    potentials the sweep is a projection, so stationarity is reached
    immediately and the loop doubles as a machinery self-check.
    """
    pots.check_normalized(space)
    # n runs to the full depth: the boundary adjoint P_depth* replaces
    # the whole mass profile by G_depth, pinning the last digit's law
    n_max = min(len(pots), space.depth)
    nu = np.full(space.sizes, 1.0 / math.prod(space.sizes))
    if n_max == 0:  # no adjoint to apply: the uniform start is the fixed point
        return nu / nu.sum()
    # two mass boxes and the generator's G_n, no whole-box temporary: a
    # sweep's first product goes to the spare box, the rest overwrite it
    spare = np.empty_like(nu)
    for _ in range(64):
        prev = nu
        for n, g in enumerate(_prefix_products(space, pots, n_max), start=1):
            marg = nu.sum(axis=tuple(range(n)))
            nu = np.multiply(g, np.broadcast_to(marg, space.sizes), out=spare if n == 1 else nu)
        del g  # the spent generator's box
        # |nu - prev| in prev's dead buffer, the next sweep's spare box
        np.subtract(nu, prev, out=prev)
        delta = float(np.abs(prev, out=prev).max())
        spare = prev
        if delta <= 1e-12:
            break
    else:
        raise RuntimeError("fixed point not stationary after 64 sweeps")
    total = nu.sum()
    if not math.isclose(total, 1.0, rel_tol=1e-9):
        raise RuntimeError(f"fixed point mass drifted to {total}")
    nu /= total
    return nu


def mu_integral(space: SymbolicSpace, weights: np.ndarray, f: CylinderFunction):
    """integral of f against the cylinder-weight measure."""
    box = f.to_box(space)
    val = (weights * box).sum()
    return float(val.real) if np.isrealobj(box) else complex(val)


# --------------------------------------------------------------------------
# audits
# --------------------------------------------------------------------------

class DecayHypothesisError(ValueError):
    """An averaged-decay family breaks ||f_n||_inf <= B or
    var_m(f_n) <= B/(m-n)^alpha."""


def potential_variation_check(
    space: SymbolicSpace, pots: PotentialSeq, alpha: float, A: float
) -> AuditReport:
    """Smallest feasible A* for var_m(log g_n) <= A / (m - n)^alpha over
    1 < n < m <= depth; passes when A* <= A.  Witness pair in context."""
    if pots.positivity_floor() <= 0:
        raise ValueError("log g_n undefined: potentials touch zero")
    a_star, witness = 0.0, (0, 0)
    for n in range(2, min(space.depth, len(pots) + 1)):
        logg = CylinderFunction(n, np.log(pots[n].values.real))
        for m in range(n + 1, space.depth + 1):
            v = var_m(space, logg, m)
            need = v * (m - n) ** alpha
            if need > a_star:
                a_star, witness = need, (n, m)
    return _bound_report(a_star, A, alpha, f"potential-variation[alpha={alpha},witness={witness}]", tol=0.0)


def _check_decay_hypothesis(space: SymbolicSpace, fns: list[CylinderFunction], alpha: float, B: float) -> None:
    """Raise unless each f_n depends only on coordinates > n, with
    ||f_n||_inf <= B and var_m(f_n) <= B/(m-n)^alpha (DecayHypothesisError
    for a broken bound).  It reads the digit box only, not the potentials."""
    for n, f in enumerate(fns, start=1):
        if f.start <= n:
            raise ValueError(f"f_{n} must depend only on coordinates > {n}")
        sup = sup_norm(space, f)
        if sup > B + 1e-12:
            raise DecayHypothesisError(f"hypothesis violated: ||f_{n}||_inf = {sup:.6g} > B = {B:g}")
        for m in range(n + 1, space.depth + 1):
            var, bound = var_m(space, f, m), B / (m - n) ** alpha
            if var > bound + 1e-12:
                raise DecayHypothesisError(
                    f"hypothesis violated: var_{m}(f_{n}) = {var:.6g} > B/(m-n)^alpha = {bound:.6g}"
                )


def averaging_decay_audit(
    space: SymbolicSpace,
    pots: PotentialSeq,
    fns: list[CylinderFunction],
    alpha: float,
    B: float,
    weights: np.ndarray,
) -> tuple[AuditReport, dict]:
    """Decay audit for ||P_m f_n||_inf over m - n, with f_n depending
    only on coordinates > n and centered against the equilibrium state
    whose cylinder ``weights`` ``equilibrium_weights`` returns.

    The hypothesis ||f_n||_inf <= B, var_m(f_n) <= B/(m-n)^alpha is
    verified first and a violation raises DecayHypothesisError.  The
    report asserts the fitted log-log decay slope <= -alpha + 0.2 (the
    theorem's constant is existential, so no fixed C is asserted); the
    fitted C and the decay table ride along for inspection.  The fit needs
    values above roundoff at two or more gaps m - n >= 2; none at all is an
    exact collapse (slope -inf), and one gap raises ValueError.
    """
    _check_decay_hypothesis(space, fns, alpha, B)
    floor = 1e-12 * max(B, 1.0)  # below this, P_m f_n has decayed to roundoff
    centered = [CylinderFunction(f.start, f.values - mu_integral(space, weights, f)) for f in fns]
    by_m = {}  # one walk of G_m; each centered f_n averaged at every m > n
    for m, g in enumerate(_prefix_products(space, pots, min(space.depth - 1, len(pots))), start=1):
        for n, f in enumerate(centered[: m - 1], start=1):
            by_m[(n, m)] = sup_norm(space, _average(space, g, f, m))
    decay = dict(sorted(by_m.items()))
    pairs = [(m - n, val) for (n, m), val in decay.items() if m - n >= 2 and val > floor]
    if len({gap for gap, _ in pairs}) >= 2:  # a slope needs two abscissae
        xs = np.log([g for g, _ in pairs])
        ys = np.log([v for _, v in pairs])
        slope = float(np.polyfit(xs, ys, 1)[0])
    elif all(v <= floor for (n, m), v in decay.items() if m - n >= 2):
        # exact collapse: every averaged value is zero to roundoff (this
        # really happens, e.g. f_n matching the frequency its own
        # potential level oscillates at); any decay rate is witnessed
        slope = -math.inf
    else:
        raise ValueError("not enough decay points to fit a slope")
    positive = [
        v * (m - n) ** alpha / math.log(1 + m - n) ** (1 + alpha)
        for (n, m), v in decay.items()
        if v > floor and m > n
    ]
    c_fit = max(positive) if positive else 0.0
    bound = -alpha + 0.2
    rep = AuditReport(slope, bound, alpha, slope <= bound, f"averaging-decay[alpha={alpha},C_fit={c_fit:.4g}]")
    return rep, decay


def decreasing_criterion_symbolic(a, alpha: float) -> float:
    """The majorant ||a||_2 * (1 + sum_l l^(1+alpha) 2^(-l(alpha-1/2))).

    Finite exactly when alpha > 1/2; +inf otherwise (the geometric
    factor stops contracting).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a2 = float(np.sqrt(np.sum(np.abs(np.asarray(a, dtype=np.complex128)) ** 2)))
    if a2 == 0.0:
        return 0.0
    if alpha <= 0.5:
        return math.inf
    total, ell = 1.0, 1
    while True:
        term = ell ** (1.0 + alpha) * 2.0 ** (-ell * (alpha - 0.5))
        total += term
        if term < 1e-16 * total:
            break
        ell += 1
    return a2 * total


# --------------------------------------------------------------------------
# Riesz-product embedding
# --------------------------------------------------------------------------

def _digit_ladder(lambdas, depth: int) -> list:
    """lambda_0..lambda_depth: the given frequencies, extended uniformly
    (ratio 3) past their end."""
    ladder = list(lambdas)
    while len(ladder) <= depth:
        ladder.append(3 * ladder[-1])
    return ladder


def _digit_space(ladder, depth: int) -> SymbolicSpace:
    """The digit box of coordinates 1..depth, |S_j| = lambda_j / lambda_(j-1)."""
    return SymbolicSpace(tuple(ladder[j] // ladder[j - 1] for j in range(1, depth + 1)))


def _digit_points(ladder, first: int, depth: int, offset: float) -> np.ndarray:
    """x = offset + sum_{c=first..depth} d_c / lambda_c over the digit box
    of coordinates first..depth, d_c in range(lambda_c / lambda_(c-1)).

    The digit terms are added coordinate by coordinate from the first
    and the offset last, the order of the scalar sum
    ``offset + sum(d_c / lambda_c ...)``, so every cell is bit-identical
    to it.
    """
    ndim = depth - first + 1
    x = 0.0
    for axis, c in enumerate(range(first, depth + 1)):
        shape = [1] * ndim
        shape[axis] = ladder[c] // ladder[c - 1]
        x = x + (np.arange(shape[axis]) / ladder[c]).reshape(shape)
    return offset + x


def riesz_potentials(spec: RieszProductSpec, depth: int) -> tuple[SymbolicSpace, PotentialSeq]:
    """Full-shift space and normalized potentials realizing the Riesz
    product under the digit expansion x = sum_n x_n / lambda_n.

    Requires lambda_0 = 1 so the expansion covers [0, 1).  Potential
    g_{n+1} evaluates 1 + Re c_n e^{2 pi i lambda_n x} at the cylinder
    midpoint, scaled by the alphabet size; the digit sum over the
    leading coordinate cancels the oscillating factor exactly, so
    normalization survives the truncation exactly.
    """
    if spec.lambdas[0] != 1:
        raise ValueError("the digit expansion needs lambda_0 = 1")
    if depth < spec.depth:
        raise ValueError("depth must cover every nontrivial potential")
    ladder = _digit_ladder(spec.lambdas, depth)
    space = _digit_space(ladder, depth)
    offset = 0.5 / ladder[depth]
    pots = []
    for j in range(1, depth + 1):
        ell = space.sizes[j - 1]
        if j - 1 < len(spec.cs) and spec.cs[j - 1] != 0:
            c = spec.cs[j - 1]
            # x restricted to digits j..depth plus the midpoint offset
            e = np.exp(2j * np.pi * ladder[j - 1] * _digit_points(ladder, j, depth, offset))
            # Re(c e) written out: rounds like the scalar product (no FMA)
            vals = (1.0 + (c.real * e.real - c.imag * e.imag)) / ell
            pots.append(CylinderFunction(j, vals))
        else:
            pots.append(CylinderFunction(j, np.full((ell,), 1.0 / ell)))
    return space, PotentialSeq(tuple(pots))


def riesz_cylinder_integrals(spec: RieszProductSpec, N: int, digits_depth: int) -> np.ndarray:
    """Exact integral of P_N over every depth-n cylinder image.

    The cylinder of digits (w_1..w_n) maps to [k, k + 1) / lambda_n with
    k = sum w_j lambda_n / lambda_j; its integral, in closed form from
    the coefficient expansion of P_N, is

        c_0 / lambda_n + Re(F((k + 1) / lambda_n) - F(k / lambda_n)),
        F(x) = sum_{s != 0} c_s e^{2 pi i s x} / (2 pi i s).

    On the 1/lambda_n grid e^{2 pi i s x} depends on s mod lambda_n only,
    so F there is one inverse FFT of the terms folded into lambda_n bins.
    """
    if spec.lambdas[0] != 1:
        raise ValueError("the digit expansion needs lambda_0 = 1")
    ladder = _digit_ladder(spec.lambdas, digits_depth)
    lam = ladder[digits_depth]
    coeffs = partial_density_coeffs(spec, N)
    s = [k for k in coeffs if k != 0]
    bins = np.zeros(lam, dtype=np.complex128)  # the terms c_s / (2 pi i s) of F, folded mod lambda_n
    np.add.at(bins, np.array([k % lam for k in s], dtype=np.int64),
              np.array([coeffs[k] for k in s], dtype=np.complex128) / (2j * np.pi * np.array(s, dtype=np.float64)))
    F = np.fft.ifft(bins, norm="forward")  # F(k / lambda_n), k = 0..lambda_n - 1
    return (coeffs.get(0, 0.0).real / lam + (np.roll(F, -1) - F).real).reshape(_digit_space(ladder, digits_depth).sizes)
