"""Dyadic martingale engine: filtration, details, and inequality audits.

The probability space is the 2^J-point grid with uniform measure.  The
filtration F_n, 0 <= n <= J, is generated by the dyadic intervals
[k/2^n, (k+1)/2^n); conditional expectation is block averaging, so
E(.|F_J) is the identity and E(.|F_0) is the mean.  The detail operator
at level n is

    D_n = E(.|F_{n+1}) - E(.|F_n),

and every zero-mean grid function telescopes exactly into its J details.

All inequalities audited here (orthogonality, telescoping Parseval, the
von Bahr-Esseen-Rio bound with constant max(1, sqrt(p-1)), Doob's
maximal bound with constant p/(p-1), the two-sided detail criteria with
K_p = p/(p-1) * max(1, sqrt(p-1)), the Paley-Zygmund lower bound) hold
verbatim on this finite filtered space, so an audit failure is a bug,
never a discretization artifact.  Audits therefore reject rather than
repair bad inputs (non-centered data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .torus import GridFunction, _lp_norm_array

__all__ = [
    "AuditReport",
    "CENTERING_TOL",
    "bounded_deltas",
    "doob_audit_batch",
    "k_p",
    "paley_zygmund_audit",
    "random_grid_functions",
    "rio_audit_batch",
    "telescope_check",
    "bounded_moment_audits",
    "detail_criteria",
    "DetailCriteriaResult",
]

#: absolute tolerance below which a grid function counts as centered
CENTERING_TOL = 1e-12


# --------------------------------------------------------------------------
# report container
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    """Outcome of a single inequality audit.

    ``passed`` means lhs <= rhs up to the audit's stated numerical
    tolerance (for equality-type audits, |lhs - rhs| within tolerance);
    ``margin`` = rhs - lhs is the slack of the bound.
    """

    lhs: float
    rhs: float
    constant: float
    passed: bool
    context: str
    seed: int | None = None

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def _bound_report(lhs, rhs, constant, context, seed=None, tol=1e-12) -> AuditReport:
    lhs, rhs = float(lhs), float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):  # inf <= inf would pass
        raise ValueError(f"{context}: a non-finite side, lhs={lhs!r}, rhs={rhs!r}")
    scale = max(abs(lhs), abs(rhs), 1.0)
    return AuditReport(lhs, rhs, float(constant), lhs <= rhs + tol * scale, context, seed)


def _tolerance_report(err, tol, context) -> AuditReport:
    """The row of an err <= tol check: lhs err, rhs tol, no slack; a non-finite side raises."""
    return _bound_report(err, tol, 1.0, context, tol=0.0)


def k_p(p: float) -> float:
    """The maximal-inequality constant K_p = p/(p-1) * max(1, sqrt(p-1))."""
    if p <= 1:
        raise ValueError("K_p needs p > 1")
    return p / (p - 1.0) * max(1.0, math.sqrt(p - 1.0))


def _p_prime(p: float) -> float:
    return min(2.0, p)


# --------------------------------------------------------------------------
# conditional expectation and details (array core)
# --------------------------------------------------------------------------

def _haar_means(arr: np.ndarray, J: int) -> list[np.ndarray]:
    """Level means [m_0, ..., m_J] of the last axis; m_n has shape (..., 2^n).

    m_n holds the value of E(.|F_n) on each level-n block, built by
    pairwise averaging from m_J = arr (the fast Haar transform), so the
    whole pyramid costs about two copies of arr.  The full-grid
    E(.|F_n) is np.repeat(m_n, 2^(J-n), axis=-1).
    """
    means = [arr]
    for _ in range(J):
        fine = means[-1]
        means.append(0.5 * (fine[..., 0::2] + fine[..., 1::2]))
    return means[::-1]


def _haar_details(means: list[np.ndarray]) -> list[np.ndarray]:
    """Details D_n f at their own resolution: shape (..., 2^(n+1)).

    D_n f is constant on level-(n+1) blocks, so any L^p norm of the
    coarse array equals the norm of the full-grid detail exactly.
    """
    return [means[n + 1] - np.repeat(means[n], 2, axis=-1) for n in range(len(means) - 1)]


def _doob_maximal(means: list[np.ndarray]) -> np.ndarray:
    """S* = max_{1<=m<=J} |E(.|F_m) - E(.|F_0)| on the full grid.

    The partial sums S_m = D_0 + ... + D_{m-1} = E_m - E_0 are constant on
    level-m blocks, so the running maximum is built coarse to fine.
    """
    run = np.zeros(means[0].shape)
    for m in range(1, len(means)):
        run = np.maximum(np.repeat(run, 2, axis=-1), np.abs(means[m] - means[0]))
    return run


def telescope_check(f: GridFunction, N1: int, N2: int) -> AuditReport:
    """Audit sum_{n=N1}^{N2} ||D_n f||_2^2 == ||E^{N2+1} f - E^{N1} f||_2^2
    to relative tolerance 1e-10."""
    J = f.resolution_log2
    if not 0 <= N1 <= N2 <= J - 1:
        raise ValueError(f"need 0 <= N1 <= N2 <= {J - 1}")
    means = _haar_means(f.samples, J)
    details = _haar_details(means)
    lhs = 0.0
    for n in range(N1, N2 + 1):
        lhs += _lp_norm_array(details[n], 2) ** 2
    diff = means[N2 + 1] - np.repeat(means[N1], 2 ** (N2 + 1 - N1))
    lhs, rhs = float(lhs), float(_lp_norm_array(diff, 2) ** 2)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return AuditReport(lhs, rhs, 1.0, abs(lhs - rhs) <= 1e-10 * scale, f"telescoping-parseval[{N1},{N2}]")


# --------------------------------------------------------------------------
# two-sided detail criteria (general series)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DetailCriteriaResult:
    """The two criteria sums (over higher and lower order details) plus
    the maximal-inequality audit ||S*_N||_p <= K_p (sum1 + sum2)."""

    higher_sum: float
    lower_sum: float
    audit: AuditReport


def _family(Z: list[GridFunction], levels) -> tuple[np.ndarray, list[int] | None]:
    """Stack a non-empty family Z_0..Z_{N-1} into an (N, 2^J) array and
    build its level map lv[0..N].

    lv[j] = min(levels[j], J) for j < N and lv[N] = J, so the analysis
    filtration A_j = F_{lv[j]} ends at F_J, past which every detail
    vanishes.  ``levels`` must cover the family and be nonnegative and
    nondecreasing; ``None`` skips the map.
    """
    if not Z:
        raise ValueError("empty family")
    stack = np.stack([z.samples for z in Z])
    if levels is None:
        return stack, None
    N, J = stack.shape[0], Z[0].resolution_log2
    if len(levels) < N:
        raise ValueError(f"levels has {len(levels)} entries for a family of {N}")
    raw = [int(levels[j]) for j in range(N)]
    if raw[0] < 0 or any(b < a for a, b in zip(raw, raw[1:])):
        raise ValueError("levels must be nonnegative and nondecreasing")
    return stack, [min(m, J) for m in raw] + [J]


def _partial_sum_maximal(stack: np.ndarray) -> np.ndarray:
    """S* = max_N |Z_0 + ... + Z_N| on the grid, for a stacked family."""
    return np.abs(np.cumsum(stack, axis=0)).max(axis=0)


def detail_criteria(Z: list[GridFunction], levels, p: float) -> DetailCriteriaResult:
    """Evaluate the two detail-criteria sums for a finite family Z.

    ``levels`` maps each series index n to its filtration level (the
    analysis filtration is A_n = F_{levels[n]}, nondecreasing); indices
    beyond the family are clamped to the grid resolution J, where all
    further details vanish identically, so both sums are finite exactly.
    The slot F_0 -> A_0 below the filtration joins the lower-order sum
    (offset group n + 1 for Z_n); it is empty when levels[0] = 0.
    """
    if p <= 1:
        raise ValueError("detail_criteria needs p > 1")
    stack, lv = _family(Z, levels)
    for z in Z:
        if abs(z.mean()) > CENTERING_TOL:
            raise ValueError("every Z_n must be centered")
    N, J = len(Z), lv[-1]

    pp = _p_prime(p)
    means = _haar_means(stack, J)
    # norms[t][n] = ||E(Z_n|F_hi) - E(Z_n|F_lo)||_p over slot t: F_0 -> A_0
    # at t = 0, A_(t-1) -> A_t after; taken at resolution 2^hi, where
    # both sides are constant on blocks
    bounds = [0] + lv
    norms = np.zeros((N + 1, N))
    for t in range(N + 1):
        lo, hi = bounds[t], bounds[t + 1]
        if lo < hi:
            norms[t] = _lp_norm_array(means[hi] - np.repeat(means[lo], 2 ** (hi - lo), axis=-1), p)
    norms = norms.tolist()

    def group(j: int) -> float:
        # (sum_n ||slot n + j of Z_n||_p^p')^(1/p')
        inner = sum(norms[n + j][n] ** pp for n in range(max(0, -j), min(N, N + 1 - j)))
        return inner ** (1.0 / pp) if inner > 0 else 0.0

    s1 = 0.0
    for j in range(1, N + 1):
        s1 += group(j)
    s2 = 0.0
    for j in range(0, -N, -1):
        s2 += group(j)

    lhs = float(_lp_norm_array(_partial_sum_maximal(stack), p))
    rhs = k_p(p) * (s1 + s2)
    audit = _bound_report(lhs, rhs, k_p(p), f"detail-criteria-maximal[p={p}]")
    return DetailCriteriaResult(s1, s2, audit)


def bounded_deltas(Z: list[GridFunction], levels) -> tuple[float, float]:
    """Sup-norm criteria constants for uniformly bounded families.

    Delta_1 = sum_l ( sum_k ||Z_k - E^{l+k} Z_k||_inf^2 )^(1/2)
    Delta_2 = sum_l ( sum_{k>=l} ||E^{k+1-l} Z_k||_inf^2 )^(1/2)

    with E^j conditioning on F_{levels[j]} (identity once past J, which
    truncates both sums exactly).
    """
    stack, lv = _family(Z, levels)
    N, J = len(Z), lv[-1]
    means = _haar_means(stack, J)
    # per level m and index k: ||Z_k - E(Z_k|F_m)||_inf (m < J) and ||E(Z_k|F_m)||_inf
    resid = [
        np.abs(means[J] - np.repeat(means[m], 2 ** (J - m), axis=-1)).max(axis=-1).tolist()
        for m in range(J)
    ]
    sup = [np.abs(means[m]).max(axis=-1).tolist() for m in range(J + 1)]

    d1 = 0.0
    for ell in range(0, N + J + 1):
        inner = 0.0
        for k in range(N):
            m = lv[min(ell + k, N)]
            if m >= J:
                continue
            inner += resid[m][k] ** 2
        if inner == 0.0 and lv[min(ell, N)] >= J:
            break
        d1 += math.sqrt(inner)
    d2 = 0.0
    for ell in range(0, N):
        inner = 0.0
        for k in range(ell, N):
            inner += sup[lv[k + 1 - ell]][k] ** 2
        d2 += math.sqrt(inner)
    return d1, d2


def bounded_moment_audits(
    Z: list[GridFunction], delta1: float, delta2: float, p_list: list[float]
) -> list[AuditReport]:
    """Audit the moment chain ||S*||_p <= 2 K_p (Delta_1 + Delta_2).

    Only the p-th moment bounds are asserted; the exponential moment
    they imply is an infinite-dimensional statement and is reported by
    callers as a Monte Carlo figure, never asserted.
    """
    stack, _ = _family(Z, None)
    smax = _partial_sum_maximal(stack)
    delta = delta1 + delta2
    reports = []
    for p in p_list:
        if p < 2:
            raise ValueError("bounded_moment_audits needs p >= 2")
        lhs = float(_lp_norm_array(smax, p))
        rhs = 2.0 * k_p(p) * delta
        reports.append(_bound_report(lhs, rhs, 2.0 * k_p(p), f"bounded-moments[p={p}]"))
    return reports


# --------------------------------------------------------------------------
# Paley-Zygmund
# --------------------------------------------------------------------------

def paley_zygmund_audit(values, probabilities, lam: float, q: float) -> AuditReport:
    """Exact check of P(Z >= lam * E Z) >= ((1-lam) E Z / ||Z||_q)^(q/(q-1)).

    Z is the finite nonnegative distribution given by (values, probs);
    the probabilities must sum to 1 within 1e-12.
    The report keeps the uniform orientation lhs <= rhs: lhs is the
    anti-concentration bound, rhs the exact probability it must stay
    under.
    """
    v = np.asarray(values, dtype=np.float64)
    pr = np.asarray(probabilities, dtype=np.float64)
    if np.any(v < 0):
        raise ValueError("Z must be nonnegative")
    if abs(pr.sum() - 1.0) > 1e-12 or np.any(pr < 0):
        raise ValueError("probabilities must be nonnegative and sum to 1")
    if not 0 < lam < 1:
        raise ValueError("lambda must lie in (0, 1)")
    if q <= 1:
        raise ValueError("q must be > 1")
    ez = float(v @ pr)
    prob = float(pr[v >= lam * ez * (1.0 - 1e-15)].sum())  # ties to a relative 1e-15
    znorm = float((pr @ v**q) ** (1.0 / q))
    bound = 0.0 if znorm == 0 else ((1.0 - lam) * ez / znorm) ** (q / (q - 1.0))
    return _bound_report(bound, prob, q / (q - 1.0), f"paley-zygmund[lam={lam},q={q}]")


# --------------------------------------------------------------------------
# randomized audit batches (vectorized; used by the CLI suites and the
# acceptance gate)
# --------------------------------------------------------------------------

def random_grid_functions(
    count: int, J: int, rng: np.random.Generator, family: str = "mixed", degree: int = 64
) -> np.ndarray:
    """(count, 2^J) array of centered real test functions.

    family = "trig" | "mixed".  Trig members are random real
    trigonometric polynomials of degree <= ``degree``; "mixed" replaces
    the first count // 2 rows by iid normals.  All rows are exactly
    centered.
    """
    if family not in ("trig", "mixed"):
        raise ValueError(f"unknown family {family!r}; expected 'trig' or 'mixed'")
    n = 2**J
    deg = min(degree, n // 2 - 1)
    ms = np.arange(1, deg + 1)
    spec = np.zeros((count, n // 2 + 1), dtype=np.complex128)
    spec[:, 1 : deg + 1] = (
        rng.standard_normal((count, deg)) + 1j * rng.standard_normal((count, deg))
    ) / np.sqrt(ms)
    arr = np.fft.irfft(spec, n, axis=1) * (n / 2.0)
    if family == "mixed":
        half = count // 2
        arr[:half] = rng.standard_normal((half, n))
    arr -= arr.mean(axis=1, keepdims=True)
    return arr


def rio_audit_batch(cases: int, p_values, J: int, seed: int) -> list[AuditReport]:
    """Randomized Rio audits; one report per case, all expected to pass."""
    arr = random_grid_functions(cases, J, np.random.default_rng(seed))
    return _rio_reports(arr, J, list(p_values), seed)


def _rio_reports(arr: np.ndarray, J: int, p_values: list, seed) -> list[AuditReport]:
    """Audit ||f||_p <= max(1, sqrt(p-1)) * (sum_n ||D_n f||_p^p')^(1/p'),
    p' = min(2, p), for each centered row f of a (cases, 2^J) array.

    Row i uses p_values[i % len(p_values)]; the norms of all rows that
    share a p are taken in one vectorized pass over the Haar pyramid.
    """
    cases = arr.shape[0]
    details = _haar_details(_haar_means(arr, J))
    consts = [max(1.0, math.sqrt(p - 1.0)) for p in p_values]
    lhs, rhs = np.empty(cases), np.empty(cases)
    for k, (p, const) in enumerate(zip(p_values, consts)):
        rows = slice(k, None, len(p_values))
        pp = _p_prime(p)
        lhs[rows] = _lp_norm_array(arr[rows], p)
        dsum = sum(_lp_norm_array(d[rows], p) ** pp for d in details)
        rhs[rows] = const * dsum ** (1.0 / pp)
    return [
        _bound_report(lhs[i], rhs[i], consts[i % len(p_values)],
                      f"rio[p={p_values[i % len(p_values)]},case={i}]", seed=seed)
        for i in range(cases)
    ]


def doob_audit_batch(cases: int, p_values, J: int, seed: int) -> list[AuditReport]:
    """Randomized Doob audits on the detail martingale of random f."""
    arr = random_grid_functions(cases, J, np.random.default_rng(seed))
    return _doob_reports(arr, J, list(p_values), seed)


def _doob_reports(arr: np.ndarray, J: int, p_values: list, seed) -> list[AuditReport]:
    """Audit Doob: ||max_m |S_m|||_p <= p/(p-1) * ||S_J||_p for the detail
    martingale S_m = E(f|F_m) - E(f|F_0) of each row f of a (cases, 2^J)
    array; row i uses p_values[i % len(p_values)]."""
    cases = arr.shape[0]
    means = _haar_means(arr, J)
    smax = _doob_maximal(means)
    final = arr - means[0]
    consts = [p / (p - 1.0) for p in p_values]
    lhs, rhs = np.empty(cases), np.empty(cases)
    for k, (p, const) in enumerate(zip(p_values, consts)):
        rows = slice(k, None, len(p_values))
        lhs[rows] = _lp_norm_array(smax[rows], p)
        rhs[rows] = const * _lp_norm_array(final[rows], p)
    return [
        _bound_report(lhs[i], rhs[i], consts[i % len(p_values)],
                      f"doob[p={p_values[i % len(p_values)]},case={i}]", seed=seed)
        for i in range(cases)
    ]
