"""Non-homogeneous symbolic spaces, normalized potentials, averaging
operators P_n and equilibrium states, truncated to a finite depth.

Representation: everything lives on the dense digit box
S_1 x ... x S_D (depth D), as numpy arrays indexed by the digits, with
an admissibility mask from the incidence matrices.  A cylinder function
depending on coordinates start..start+d-1 is stored as a d-dimensional
array and broadcast into the box on demand.  At the depths used here
(alphabets <= 4, depth <= 10) the box has at most ~10^5 cells, so every
operation is exact enumeration.

Key structural fact used throughout: for exactly normalized potentials
the operators satisfy P_n(P_m f) = P_m f for n <= m, hence the adjoint
fixed-point iteration contracts in a single sweep onto the product
weights nu(w) = G_D(w), which is the unique common fixed point of the
truncated system.  The iteration is still run and its stationarity
asserted; it is the cheapest full-machinery self-check available.

Riesz products embed via the digit expansion x = sum_n x_n / lambda_n
(lambda_0 = 1), with potentials

    g_{n+1}(x) = (lambda_n / lambda_{n+1})^(-1)... see riesz_potentials

evaluated at cylinder midpoints: the digit-sum truncation error is then
second order, and the y-sum of the oscillating factor cancels exactly,
so the truncated potentials stay exactly normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .martingale import AuditReport
from .riesz import RieszProductSpec, partial_density_coeffs

__all__ = [
    "CylinderFunction",
    "DecayHypothesisError",
    "PotentialSeq",
    "SymbolicSpace",
    "potential_variation_check",
    "cylinder_sandwich",
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
    """Digit box with incidence constraints A_n between levels n, n+1."""

    sizes: tuple
    incidence: tuple | None = None
    window: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if any(s < 2 for s in sizes):
            raise ValueError("alphabet sizes must be >= 2")
        object.__setattr__(self, "sizes", sizes)
        if self.incidence is not None:
            inc = tuple(np.asarray(a, dtype=np.int8) for a in self.incidence)
            if len(inc) != self.depth - 1:
                raise ValueError("need one incidence matrix per adjacent pair")
            for n, a in enumerate(inc):
                if a.shape != (sizes[n], sizes[n + 1]):
                    raise ValueError(f"incidence {n} has wrong shape")
                if np.any((a != 0) & (a != 1)):
                    raise ValueError("incidence entries must be 0/1")
                if np.any(a.sum(axis=1) == 0):
                    raise ValueError(f"incidence {n} has an all-zero row")
            object.__setattr__(self, "incidence", inc)
            # transitivity: the window-product of consecutive matrices
            # must be strictly positive wherever it fits
            m = self.window
            for n in range(0, self.depth - 1 - m):
                prod = inc[n].astype(np.int64)
                for j in range(n + 1, n + 1 + m):
                    if j >= len(inc):
                        break
                    prod = prod @ inc[j]
                if np.any(prod == 0):
                    raise ValueError(f"transitivity fails in window starting at {n + 1}")

    @classmethod
    def full_shift(cls, sizes) -> "SymbolicSpace":
        return cls(tuple(sizes), None, 0)

    @property
    def depth(self) -> int:
        return len(self.sizes)

    @property
    def is_full_shift(self) -> bool:
        return self.incidence is None

    def mask(self) -> np.ndarray:
        """Admissibility indicator over the whole box."""
        out = np.ones(self.sizes, dtype=bool)
        if self.incidence is None:
            return out
        for n, a in enumerate(self.incidence):
            shape = [1] * self.depth
            shape[n], shape[n + 1] = self.sizes[n], self.sizes[n + 1]
            out &= a.astype(bool).reshape(shape)
        return out


@dataclass(frozen=True)
class CylinderFunction:
    """A function of the coordinates start..start+values.ndim-1 (1-based)."""

    start: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if np.isrealobj(self.values) or np.abs(v.imag).max(initial=0.0) == 0.0:
            v = v.real.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.start < 1:
            raise ValueError("coordinates are 1-based")

    @property
    def end(self) -> int:
        return self.start + self.values.ndim - 1

    def to_box(self, space: SymbolicSpace) -> np.ndarray:
        """Broadcast into the full digit box."""
        if self.end > space.depth:
            raise ValueError("cylinder function exceeds the space depth")
        shape = [1] * space.depth
        shape[self.start - 1 : self.end] = self.values.shape
        return np.broadcast_to(self.values.reshape(shape), space.sizes)


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
        """max_n max over admissible tails |sum_{y_n} g_n - 1|; raises past 1e-12."""
        worst = 0.0
        mask = space.mask()
        for n in range(1, len(self) + 1):
            sums = (self[n].to_box(space) * self._pair_mask(space, n)).sum(axis=n - 1)
            tails = mask.any(axis=n - 1)
            worst = max(worst, float(np.abs(np.where(tails, sums, 1.0) - 1.0).max()))
        if worst > 1e-12:
            raise ValueError(f"potentials not normalized (deviation {worst:.3e})")
        return worst

    @staticmethod
    def _pair_mask(space: SymbolicSpace, n: int) -> np.ndarray:
        if space.is_full_shift or n >= space.depth:
            return np.ones(space.sizes, dtype=bool)
        shape = [1] * space.depth
        shape[n - 1], shape[n] = space.sizes[n - 1], space.sizes[n]
        return space.incidence[n - 1].astype(bool).reshape(shape)

    def positivity_floor(self) -> float:
        return min(float(np.nanmin(g.values.real)) for g in self.potentials)


def _g_box(space: SymbolicSpace, pots: PotentialSeq, upto: int) -> np.ndarray:
    """G_n = prod_{j<=n} g_j broadcast over the box."""
    out = np.ones(space.sizes)
    for j in range(1, upto + 1):
        out = out * pots[j].to_box(space).real
    return out


def pn_apply(space: SymbolicSpace, pots: PotentialSeq, f: CylinderFunction, n: int) -> CylinderFunction:
    """P_n f by exact prefix enumeration; the result depends only on
    coordinates n+1..depth (trailing dependence may be trivial).

    Inadmissible suffixes carry NaN so downstream sups skip them."""
    if n < 1 or n > len(pots) or n >= space.depth:
        raise ValueError(f"need 1 <= n <= {min(len(pots), space.depth - 1)}")
    if f.end > space.depth:
        raise ValueError("depth exceeded by the argument function")
    box = _g_box(space, pots, n) * f.to_box(space)
    axes = tuple(range(n))
    mask = space.mask()
    vals = np.where(mask, box, 0.0).sum(axis=axes)
    return CylinderFunction(n + 1, np.where(mask.any(axis=axes), vals, np.nan))


def sup_norm(space: SymbolicSpace, f: CylinderFunction) -> float:
    """sup |f| over admissible points."""
    return float(np.abs(f.to_box(space))[space.mask()].max())


def var_m(space: SymbolicSpace, f: CylinderFunction, m: int) -> float:
    """sup{ |f(x) - f(y)| : x_1 = y_1, ..., x_m = y_m }, exact."""
    if m >= f.end:
        return 0.0
    box = np.where(space.mask(), f.to_box(space).real, np.nan)
    axes = tuple(range(max(m, 0), space.depth))
    hi = np.nanmax(box, axis=axes) if axes else box
    lo = np.nanmin(box, axis=axes) if axes else box
    spread = hi - lo
    return float(np.nanmax(spread))


def equilibrium_weights(space: SymbolicSpace, pots: PotentialSeq) -> np.ndarray:
    """Common fixed point of the adjoints P_n* on depth-D cylinder mass.

    Starts from the uniform admissible measure and sweeps n = 1..n_max
    until stationary below 1e-12, at most 64 sweeps; for normalized
    potentials the sweep is a projection, so stationarity is reached
    immediately and the loop doubles as a machinery self-check.
    """
    pots.check_normalized(space)
    # n runs to the full depth: the boundary adjoint P_depth* replaces
    # the whole mass profile by G_depth, pinning the last digit's law
    n_max = min(len(pots), space.depth)
    mask = space.mask().astype(np.float64)
    nu = mask / mask.sum()
    for _ in range(64):
        prev = nu
        for n in range(1, n_max + 1):
            g = _g_box(space, pots, n)
            marg = nu.sum(axis=tuple(range(n)))
            nu = g * np.broadcast_to(marg, space.sizes) * mask
        delta = float(np.abs(nu - prev).max())
        if delta <= 1e-12:
            break
    else:
        raise RuntimeError("fixed point not stationary after 64 sweeps")
    total = nu.sum()
    if not math.isclose(total, 1.0, rel_tol=1e-9):
        raise RuntimeError(f"fixed point mass drifted to {total}")
    return nu / total


def mu_integral(space: SymbolicSpace, weights: np.ndarray, f: CylinderFunction):
    """integral of f against the cylinder-weight measure."""
    box = f.to_box(space)
    val = (weights * box).sum()
    return float(val.real) if np.isrealobj(box) else complex(val)


def cylinder_sandwich(
    space: SymbolicSpace, pots: PotentialSeq, weights: np.ndarray, n: int
) -> tuple[float, float]:
    """Fitted constants (D1, D2) with D1 G_n(w) <= mu(I_n(w)) <= D2 G_n(w)
    over depth-n cylinders, G_n evaluated on the box and cell-maximized /
    minimized (the sandwich constants of the uniqueness theorem)."""
    g = _g_box(space, pots, n)
    tail_axes = tuple(range(n, space.depth))
    mu_n = weights.sum(axis=tail_axes)
    g_hi = g.max(axis=tail_axes)
    g_lo = g.min(axis=tail_axes)
    good = mu_n > 0
    d1 = float((mu_n[good] / g_hi[good]).min())
    d2 = float((mu_n[good] / g_lo[good]).max())
    return d1, d2


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
    for n in range(2, space.depth):
        g = pots[n] if n <= len(pots) else None
        if g is None:
            continue
        logg = CylinderFunction(g.start, np.log(g.values.real))
        for m in range(n + 1, space.depth + 1):
            v = var_m(space, logg, m)
            need = v * (m - n) ** alpha
            if need > a_star:
                a_star, witness = need, (n, m)
    return AuditReport(
        a_star, float(A), alpha, float(A) - a_star, a_star <= A,
        f"potential-variation[alpha={alpha},witness={witness}]",
    )


def averaging_decay_audit(
    space: SymbolicSpace,
    pots: PotentialSeq,
    fns: list[CylinderFunction],
    alpha: float,
    B: float,
    weights: np.ndarray | None = None,
) -> tuple[AuditReport, dict]:
    """Decay audit for ||P_m f_n||_inf over m - n, with f_n depending
    only on coordinates > n and centered against the equilibrium state.

    The hypothesis ||f_n||_inf <= B, var_m(f_n) <= B/(m-n)^alpha is
    verified first and a violation raises DecayHypothesisError.  The
    report asserts the fitted log-log decay slope <= -alpha + 0.2 (the
    theorem's constant is existential, so no fixed C is asserted); the
    fitted C and the decay table ride along for inspection.
    """
    if weights is None:
        weights = equilibrium_weights(space, pots)
    floor = 1e-12 * max(B, 1.0)  # below this, P_m f_n has decayed to roundoff
    pairs = []
    decay: dict = {}
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
        centered = CylinderFunction(f.start, f.values - mu_integral(space, weights, f))
        for m in range(n + 1, min(space.depth - 1, len(pots)) + 1):
            val = sup_norm(space, pn_apply(space, pots, centered, m))
            decay[(n, m)] = val
            if m - n >= 2 and val > floor:
                pairs.append((m - n, val))
    if len(pairs) >= 2:
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
    rep = AuditReport(
        slope, bound, alpha, bound - slope, slope <= bound,
        f"averaging-decay[alpha={alpha},C_fit={c_fit:.4g}]",
    )
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


def _digit_points(ladder, first: int, depth: int, offset: float = 0.0) -> np.ndarray:
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
    sizes = tuple(ladder[j] // ladder[j - 1] for j in range(1, depth + 1))
    space = SymbolicSpace.full_shift(sizes)
    offset = 0.5 / ladder[depth]
    pots = []
    for j in range(1, depth + 1):
        ell = sizes[j - 1]
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

    The cylinder of digits (w_1..w_n) maps to [a, a + w) with
    a = sum w_j / lambda_j and w = 1/lambda_n; the integral is evaluated
    in closed form from the coefficient expansion of P_N,

        w c_0 + sum_{s != 0} Re c_s (e^{2 pi i s (a + w)} - e^{2 pi i s a}) / (2 pi i s),

    as one product of the cells x frequencies phase tables with the
    vector c_s / (2 pi i s).
    """
    if spec.lambdas[0] != 1:
        raise ValueError("the digit expansion needs lambda_0 = 1")
    ladder = _digit_ladder(spec.lambdas, digits_depth)
    width = 1.0 / ladder[digits_depth]
    a = _digit_points(ladder, 1, digits_depth)
    coeffs = partial_density_coeffs(spec, N)
    s = np.array([k for k in coeffs if k != 0], dtype=np.float64)
    v = np.array([coeffs[k] for k in coeffs if k != 0], dtype=np.complex128)
    phases = np.exp(2j * np.pi * np.multiply.outer(a + width, s)) - np.exp(2j * np.pi * np.multiply.outer(a, s))
    return coeffs.get(0, 0.0).real * width + (phases @ (v / (2j * np.pi * s))).real
