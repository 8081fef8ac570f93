"""Batch experiment front door.

``mgale run config.json`` executes one experiment described by a JSON
config and writes CSV/JSON reports; ``mgale suites`` lists the suites
of the ``audit`` kind, one ``name  description`` line each.

Config schema (version 1):

    {
      "version": 1,
      "kind": "audit" | "dilated" | "davenport" | "ergodic"
              | "riesz" | "symbolic",
      "parameters": { ... kind specific ... },
      "output": {"path": "out_dir", "format": "csv" | "json"},
      "seed": 7,
      "resolution": 12
    }

``validate_config`` parses every key through its object's schema
(``_CONFIG``, ``_OUTPUT``, ``SCHEMAS[kind]``); handlers read typed values.
Each handler is a generator of ``(file name, body, passed)`` reports, and
``run`` writes each one, header first, as soon as it is yielded: the
only code that writes a file.

Reports start with one header line carrying the config hash, seed,
library version and a timestamp; everything after that line is
byte-identical across reruns with the same config and seed (the
timestamp is confined to the header precisely so report bodies diff
clean).

Exit codes: 0 success, 1 a report did not pass (a universal-inequality
audit or the Davenport quadrature check failed) or the run raised (the
reports already written stay, beside a failure marker recording the
error, its type and traceback), 2 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import __version__
from . import martingale as mg
from .davenport import (
    SINGULAR_EIG,
    DavenportSpec,
    davenport_fourier,
    freqs_from_rule,
    gram_matrix,
    gram_quadrature,
    riesz_constants,
    smoothness_estimate,
)
from .dilated import (
    GENERAL_PATH_MAX_MODE,
    SeriesSpec,
    contraction_audit,
    contraction_refined_audit,
    gaposhkin_example,
    oscillation_diagnostic,
)
from .modulus import dyadic_approx_audit_all
from .riesz import RieszProductSpec, riesz_fourier_coeff, riesz_series_run, sample_mu, series_resolution
from .symbolic import (
    CylinderFunction,
    DecayHypothesisError,
    _digit_ladder,
    _digit_points,
    potential_variation_check,
    equilibrium_weights,
    averaging_decay_audit,
    riesz_cylinder_integrals,
    riesz_potentials,
)
from .torus import FourierFunction, GridFunction, sine_series
from .transfer import ergodic_series_run

__all__ = ["ExperimentConfig", "ConfigError", "main", "run", "validate_config"]


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    parameters: dict
    out_path: Path
    out_format: str
    seed: int
    resolution: int
    raw: dict

    @property
    def sha(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()[:16]


# --------------------------------------------------------------------------
# report text
# --------------------------------------------------------------------------

def _header(config: ExperimentConfig) -> str:
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return (
        f"# mgale-report kind={config.kind} config_sha={config.sha} "
        f"seed={config.seed} version={__version__} generated={stamp}\n"
    )


def _audit_table(config: ExperimentConfig, name: str, reports) -> tuple[str, str, bool]:
    """The report of audit rows in the configured format, and whether every row passed."""
    if config.out_format == "json":
        body = "[\n" + ",\n".join(r.to_json() for r in reports) + "\n]\n"
    else:
        body = "lhs,rhs,constant,margin,passed,context\n" + "".join(
            f"{r.lhs!r},{r.rhs!r},{r.constant!r},{r.margin!r},{int(r.passed)},{r.context}\n" for r in reports
        )
    return f"{name}.{config.out_format}", body, all(r.passed for r in reports)


# --------------------------------------------------------------------------
# parameter parsing: each schema maps key -> (parser, default); a default
# of None means absent (the handler derives it from other keys)
# --------------------------------------------------------------------------

_REQUIRED = object()  # a schema default: the key must be given


def _is_int(v) -> bool:
    """A JSON integer (true/false are not numbers here)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite JSON number."""
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _check(test, want: str, convert=lambda v: v):
    """A parser passing the values ``test`` accepts through ``convert``."""
    def parse(v):
        if not test(v):
            raise ConfigError(f"must be {want}, got {v!r}")
        return convert(v)
    return parse


def _int(least: int, most: float = math.inf):
    return _check(lambda v: _is_int(v) and least <= v <= most, f"an integer in [{least}, {most}]")


def _choice(*options):
    return _check(lambda v: isinstance(v, str) and v in options, f"one of {list(options)}")


def _list(item):
    """A non-empty list of values ``item`` parses."""
    outer = _check(lambda v: isinstance(v, list) and v != [], "a non-empty list")
    return lambda v: [item(x) for x in outer(v)]


def _parse(schema: dict, raw, where: str) -> dict:
    """The typed value of each ``schema`` key in the object ``raw`` (absent: its parsed default or None)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {unknown}; {where} takes {sorted(schema)}")
    typed = dict.fromkeys(schema)
    for key, (parse, default) in schema.items():
        if key not in raw and default is _REQUIRED:
            raise ConfigError(f"{where} needs {key!r}")
        if key in raw or default is not None:
            try:  # each of these is a parser rejecting a malformed value
                typed[key] = parse(raw.get(key, default))
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
                raise ConfigError(f"{where}.{key}: {exc}") from None
    return typed


_FLOAT = _check(_is_number, "a finite number", float)
_STRING = _check(lambda v: isinstance(v, str), "a string")
_COMPLEX = _check(lambda v: _is_number(v) or (isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))),
                  "a number or a [re, im] pair", lambda v: complex(*v) if isinstance(v, list) else complex(v))
_EXPONENT = _check(lambda v: v == "inf" or _is_int(v) or (isinstance(v, float) and not math.isnan(v)),
                   "a number or \"inf\"", lambda v: math.inf if v == "inf" else v)


def _checkpoints(v) -> list:
    """A non-empty list of distinct integers >= 1: a repeated checkpoint
    is one window twice, not a second point of the trend."""
    cps = _list(_int(1))(v)
    if len(set(cps)) < len(cps):
        raise ConfigError(f"must not repeat a checkpoint, got {v!r}")
    return cps


def _generator(g) -> FourierFunction:
    """"sin", "davenport:lambda:M" (lambda > 0, 1 <= M <= 2^20) or a mode object {"m": c}.

    M past 2^20 is refused before the M modes are built: the series
    evaluation refuses such a generator anyway (GENERAL_PATH_MAX_MODE).
    """
    if g == "sin":
        return sine_series({1: 1.0})
    if isinstance(g, dict):
        return FourierFunction({int(m): _COMPLEX(c) for m, c in g.items()})
    if isinstance(g, str) and g.startswith("davenport:"):
        _, lam, M = g.split(":")
        if int(M) > GENERAL_PATH_MAX_MODE:
            raise ConfigError(f"davenport generator M={int(M)} > 2^20, the series evaluation's mode cap")
        if math.isfinite(float(lam)) and float(lam) > 0 and int(M) >= 1:
            return davenport_fourier(float(lam), int(M))
    raise ConfigError(f"must be \"sin\", \"davenport:lambda:M\" or a mode object, got {g!r}")


def _coeffs(rule):
    """A non-empty list of numbers (as a tuple), or "geom:r" (r^k), "invsqrt" (k^-1/2)
    or "invpow:s" (k^-s) as a function of the term count K, k = 1..K."""
    if isinstance(rule, list) and rule and all(_is_number(a) for a in rule):
        return tuple(rule)
    name, _, arg = rule.partition(":") if isinstance(rule, str) else ("", "", "")
    if name == "invsqrt" and not arg:
        return lambda K: tuple(1.0 / np.sqrt(np.arange(1.0, K + 1)))
    x = float(arg) if name in ("geom", "invpow") else math.nan
    if math.isfinite(x) and name == "geom":
        return lambda K: tuple(x**k for k in np.arange(1.0, K + 1))
    if math.isfinite(x):
        return lambda K: tuple(np.arange(1.0, K + 1) ** -x)
    raise ConfigError(f"must be a list of numbers, \"geom:r\", \"invsqrt\" or \"invpow:s\", got {rule!r}")


def _coeffs_for(rule, K: int) -> tuple:
    """The first K coefficients of a parsed rule; a list must hold K."""
    if callable(rule):
        return rule(K)
    if len(rule) < K:
        raise ConfigError(f"coefficient list must hold at least {K} numbers, got {len(rule)}")
    return rule[:K]


def _checkpoints_for(cps, length: int) -> list:
    """Parsed checkpoints for ``length`` terms; by default 2^4, ..., 2^j <= length."""
    if cps is None:
        cps = [2**j for j in range(4, length.bit_length())]
        if not cps:
            raise ConfigError(f"no default checkpoints for a series of length {length} < 16")
    if max(cps) > length:
        raise ConfigError(f"checkpoints exceed the series length {length}")
    return cps


def _gaposhkin(p: dict) -> SeriesSpec:
    """The sharpness example of ``gaposhkin_m`` with K (default 4096) terms."""
    K = 4096 if p["K"] is None else p["K"]
    if K < 2:
        raise ConfigError(f"gaposhkin_m needs K >= 2, got {K}")
    return gaposhkin_example(p["gaposhkin_m"], K)


# the batch audits are looked up on ``mg`` at call time, so a patched or
# instrumented martingale module is honoured
def _audit_rio(cases, p_values, J, seed):
    return mg.rio_audit_batch(cases, p_values, J, seed)


def _audit_doob(cases, p_values, J, seed):
    return mg.doob_audit_batch(cases, p_values, J, seed)


def _audit_dyadic_approx(cases, p_values, J, seed):
    rng = np.random.default_rng(seed)
    arr = mg.random_grid_functions(cases, J, rng, "trig")
    reports = []
    for i in range(cases):
        gf = GridFunction(J, arr[i], "real")
        reports.extend(dyadic_approx_audit_all(gf, p_values[i % len(p_values)]))
    return reports


def _audit_contraction(cases, p_values, J, seed):
    rng = np.random.default_rng(seed)
    reports = []
    for i in range(cases):
        deg = int(rng.integers(1, 33))
        amp = {int(m): float(a) for m, a in zip(rng.integers(1, 64, deg), rng.standard_normal(deg))}
        f = sine_series(amp)
        mmax = max(1, (2 ** (J - 1) - 1) // max(f.max_frequency, 1))
        m = int(rng.integers(1, mmax + 1))
        n = int(rng.integers(0, J - 1))
        reports.append(contraction_audit(f, m, n, p_values[i % len(p_values)], J))
        reports.append(contraction_refined_audit(f, m, n, J))
    return reports


def _audit_telescoping(cases, p_values, J, seed):
    rng = np.random.default_rng(seed)
    arr = mg.random_grid_functions(cases, J, rng, "mixed")
    return [mg.telescope_check(GridFunction(J, arr[i], "real"), 0, J - 1) for i in range(cases)]


def _moment_p(p) -> bool:
    return 1 < p < math.inf


def _norm_p(p) -> bool:
    return p >= 1


@dataclass(frozen=True)
class _Suite:
    """An audit suite: its runner, the rule its exponents p must pass
    (None: p is unused) and its least resolution J."""

    description: str
    runner: Callable
    p_rule: Callable | None = None
    min_resolution: int = 1


#: the suites the audit kind runs.  The contraction generators reach
#: frequency 63, which renders alias-free from J = 7.
SUITES = {
    "telescoping": _Suite("detail energies sum to the centered L2 energy", _audit_telescoping),
    "rio": _Suite("moment bound with constant max(1, sqrt(p-1))", _audit_rio, _moment_p),
    "doob": _Suite("maximal inequality with constant p/(p-1)", _audit_doob, _moment_p),
    "dyadic_approx": _Suite("factor-2 block-average approximation bound", _audit_dyadic_approx, _norm_p),
    "contraction": _Suite("dilation averaging bound 2^n/m", _audit_contraction, _norm_p, 7),
}


# --------------------------------------------------------------------------
# kind handlers, each under its parameter schema
# --------------------------------------------------------------------------

SCHEMAS: dict = {}  # kind -> {key: (parser, default)}
_HANDLERS: dict = {}  # kind -> handler, looked up at run time
_Reports = Iterator[tuple[str, str, bool]]  # (file name, body, passed) per report


def _kind(name: str, schema: dict):
    """Register the decorated handler of kind ``name`` and its schema."""
    def register(handler):
        SCHEMAS[name], _HANDLERS[name] = schema, handler
        return handler
    return register


@_kind("audit", {
    "suite": (_choice(*sorted(SUITES)), _REQUIRED),
    "cases": (_int(0), 100),
    "p": (_list(_EXPONENT), [1.5, 2, 3, 4, 8]),
})
def _run_audit(config: ExperimentConfig) -> _Reports:
    p = config.parameters
    name = p["suite"]
    suite = SUITES[name]
    if config.resolution < suite.min_resolution:
        raise ConfigError(f"audit {name} needs resolution >= {suite.min_resolution}, got {config.resolution}")
    if suite.p_rule is not None and not all(map(suite.p_rule, p["p"])):
        raise ConfigError(f"audit p={p['p']!r} outside the range suite {name} admits")
    yield _audit_table(config, f"audit_{name}", suite.runner(p["cases"], p["p"], config.resolution, config.seed))


@_kind("dilated", {
    "gaposhkin_m": (_int(0), None),
    "K": (_int(1), None),
    "generator": (_generator, "sin"),
    "freqs": (freqs_from_rule, None),
    "coeffs": (_coeffs, "geom:0.5"),
    "checkpoints": (_checkpoints, None),
    "sample_size": (_int(100), 200),
})
def _run_dilated(config: ExperimentConfig) -> _Reports:
    p = config.parameters
    if p["gaposhkin_m"] is not None:
        spec = _gaposhkin(p)
    else:
        K = 64 if p["K"] is None else p["K"]
        freqs = tuple([2**k for k in range(K)] if p["freqs"] is None else p["freqs"])[:K]
        if p["K"] is not None and len(freqs) < K:
            raise ConfigError(f"dilated K={K} exceeds the {len(freqs)} frequencies of freqs")
        try:
            spec = SeriesSpec(_coeffs_for(p["coeffs"], len(freqs)), freqs, p["generator"])
        except ValueError as exc:
            raise ConfigError(f"bad dilated series: {exc}") from None
    checkpoints = _checkpoints_for(p["checkpoints"], spec.length)
    diag = oscillation_diagnostic(spec, checkpoints, p["sample_size"], config.seed)
    yield "dilated_oscillation.csv", diag.to_csv() + f"# verdict={diag.verdict} slope={diag.fitted_slope!r}\n", True


@_kind("davenport", {
    "lambda": (_check(lambda v: _is_number(v) and v > 0.5, "a number > 1/2 (finite Gram entries)", float), 0.75),
    "freqs": (freqs_from_rule, "pow:2:16"),
    "quadrature_check": (_check(lambda v: isinstance(v, bool), "true or false"), False),
    "M": (_int(1), 4096),
    "smoothness_p": (_check(lambda v: (_is_int(v) or isinstance(v, float)) and v >= 1, "a number >= 1"), None),
})
def _run_davenport(config: ExperimentConfig) -> _Reports:
    p = config.parameters
    lam, freqs = p["lambda"], p["freqs"]
    if len(freqs) > 4096:
        raise ConfigError(f"davenport freqs: {len(freqs)} frequencies > 4096 (a Gram matrix past 2^24 entries)")
    # the quadrature grid must leave alias-free room for the largest dilate
    quad_J = max(config.resolution, 16, max(freqs).bit_length() + 2)
    if p["quadrature_check"] and quad_J > 24:
        raise ConfigError(f"davenport quadrature_check at freqs up to {max(freqs)} needs J={quad_J} > 24")
    smooth_J = max(config.resolution, 14)
    if p["smoothness_p"] is not None and p["M"] >= 2 ** (smooth_J - 1):
        raise ConfigError(f"davenport smoothness_p: M={p['M']} aliases at J={smooth_J} (needs M < 2^{smooth_J - 1})")
    gm = gram_matrix(freqs, lam)
    yield "davenport_gram.csv", gm.to_csv(), True
    lines = [f"lambda,{lam!r}", f"min_eig,{gm.eigen_bounds[0]!r}", f"max_eig,{gm.eigen_bounds[1]!r}"]
    passed = True
    if gm.eigen_bounds[0] > SINGULAR_EIG:
        lo, hi = riesz_constants(gm)
        lines += [f"riesz_lower,{lo!r}", f"riesz_upper,{hi!r}"]
    if p["quadrature_check"]:
        quad = gram_quadrature(freqs, lam, M=p["M"], J=quad_J)
        err = float(np.abs(gm.entries - quad).max())
        lines.append(f"quadrature_max_err,{err!r}")
        passed = err <= 1e-6
    if p["smoothness_p"] is not None:
        est = smoothness_estimate(DavenportSpec(lam, p["M"]), p["smoothness_p"], smooth_J)
        lines.append(f"smoothness_exponent,{est!r}")
    yield "davenport_summary.csv", "\n".join(lines) + "\n", passed


@_kind("ergodic", {
    "gaposhkin_m": (_int(0), None),
    "K": (_int(1), None),
    "f": (_generator, "sin"),
    "coeffs": (_coeffs, "geom:0.5"),
    "checkpoints": (_checkpoints, None),
    "sample_size": (_int(100), 200),
})
def _run_ergodic(config: ExperimentConfig) -> _Reports:
    p = config.parameters
    if p["gaposhkin_m"] is not None:
        base = _gaposhkin(p)
        f, coeffs = base.generator, base.coeffs
    else:
        f, rule = p["f"], p["coeffs"]
        if not f.has_zero_mean():
            raise ConfigError("ergodic f: generator must have zero mean")
        K = p["K"] if p["K"] is not None else (len(rule) if isinstance(rule, tuple) else 256)
        coeffs = _coeffs_for(rule, K)
    checkpoints = _checkpoints_for(p["checkpoints"], len(coeffs))
    diag, decay = ergodic_series_run(f, coeffs, checkpoints, p["sample_size"], config.seed)
    yield "ergodic_decay.csv", decay.to_csv(), True
    yield "ergodic_oscillation.csv", diag.to_csv() + f"# verdict={diag.verdict}\n", True


@_kind("riesz", {
    "lambdas": (freqs_from_rule, _REQUIRED),
    "cs": (_list(_COMPLEX), _REQUIRED),
    "action": (_choice("coeff", "sample", "series"), "coeff"),
    "N": (_int(0), None),
    "J": (_int(0, 24), None),
    "k": (lambda v: _list(_check(_is_int, "an integer"))(v if isinstance(v, list) else [v]), None),
    "count": (_int(0, 2**24), 1000),
    "fn": (_generator, "sin"),
    "coeffs": (_coeffs, "geom:0.5"),
    "checkpoints": (_checkpoints, [1, 2, 4]),
    "sample_size": (_int(1), 500),
})
def _run_riesz(config: ExperimentConfig) -> _Reports:
    p = config.parameters
    try:
        spec = RieszProductSpec(p["lambdas"], p["cs"])
    except ValueError as exc:
        raise ConfigError(f"bad riesz product: {exc}") from None
    N = spec.depth - 1 if p["N"] is None else p["N"]
    J = config.resolution if p["J"] is None else p["J"]
    if N >= spec.depth:
        raise ConfigError(f"riesz N={N} outside the spec depth {spec.depth}")
    if p["action"] == "coeff":
        lines = ["k,re,im"]
        for k in [spec.lambdas[0]] if p["k"] is None else p["k"]:
            c = complex(riesz_fourier_coeff(spec, N, k))
            lines.append(f"{k},{c.real!r},{c.imag!r}")
        yield "riesz_coeff.csv", "\n".join(lines) + "\n", True
    elif p["action"] == "sample":
        if sum(spec.lambdas[: N + 1]) >= 2 ** (J - 1):
            raise ConfigError(f"riesz partial product at depth {N} aliases at J={J}")
        xs = sample_mu(spec, N, J, p["count"], config.seed)
        yield "riesz_sample.csv", "x\n" + "\n".join(repr(float(x)) for x in xs) + "\n", True
    else:
        # the hypothesis modulus is read alias-free at J = bits(max mode) + 1,
        # a shift scan of O(4^J): 2^16 grid points at most
        if p["fn"].max_frequency >= 2**15:
            raise ConfigError(f"riesz fn: mode {p['fn'].max_frequency} needs a hypothesis grid past 2^16 points")
        series_J = series_resolution(spec, N)
        if series_J > 24:
            raise ConfigError(f"riesz series at depth {N} samples on 2^{series_J} grid points > 2^24")
        coeffs = _coeffs_for(p["coeffs"], N + 1)
        checkpoints = _checkpoints_for(p["checkpoints"], N + 1)
        diag = riesz_series_run(spec, lambda n: p["fn"], coeffs, checkpoints, p["sample_size"], config.seed)
        yield "riesz_series.csv", diag.to_csv() + f"# verdict={diag.verdict} label={diag.label}\n", True


@_kind("symbolic", {
    "lambdas": (freqs_from_rule, "pow:3:7"),
    "cs": (_list(_COMPLEX), None),
    "depth": (_int(1), 8),
    "alpha": (_FLOAT, 1.0),
    "A": (_FLOAT, 8.0),
    "B": (_FLOAT, 8.0),
})
def _run_symbolic(config: ExperimentConfig) -> _Reports:
    p = config.parameters
    lambdas, depth, alpha = p["lambdas"], p["depth"], p["alpha"]
    cs = (0.8,) * len(lambdas) if p["cs"] is None else p["cs"]
    try:
        spec = RieszProductSpec(lambdas, cs)
    except ValueError as exc:
        raise ConfigError(f"bad symbolic riesz product: {exc}") from None
    if lambdas[0] != 1 or depth < len(lambdas):
        raise ConfigError(f"symbolic needs lambda_0 = 1 and depth >= {len(lambdas)} (one level per lambda), "
                          f"got lambda_0 = {lambdas[0]} and depth {depth}")
    ladder = _digit_ladder(lambdas, depth)
    if ladder[depth] > 2**24:  # the digit box of coordinates 1..depth
        raise ConfigError(f"symbolic depth {depth}: the digit box has {ladder[depth]} cells > 2^24")
    space, pots = riesz_potentials(spec, depth)
    weights = equilibrium_weights(space, pots)
    reports = [potential_variation_check(space, pots, alpha, p["A"])]
    # default audit family: depth-truncated oscillations above each level,
    # cos(2 pi lambda_n x) at the cylinder midpoints of coordinates n+1..depth
    fns = [
        CylinderFunction(n + 1, np.cos(2 * math.pi * ladder[n] * _digit_points(ladder, n + 1, depth, 0.5 / ladder[depth])))
        for n in range(1, min(5, depth - 2) + 1)
    ]
    try:
        rep, _ = averaging_decay_audit(space, pots, fns, alpha, p["B"], weights=weights)
    except DecayHypothesisError as exc:
        raise ConfigError(f"symbolic B={p['B']:g} does not bound the audit family: {exc}") from None
    reports.append(rep)
    # cylinder cross-check against the torus density: the deepest
    # oscillating level needs >= 4 digit levels of padding below it for
    # the midpoint truncation to sit well under the 1e-6 tolerance
    levels_check = max(1, depth - 4)
    spec_check = RieszProductSpec(lambdas[:levels_check], cs[:levels_check])
    space_c, pots_c = riesz_potentials(spec_check, depth)
    w_c = equilibrium_weights(space_c, pots_c)
    n_check = min(6, depth - 1)
    ints = riesz_cylinder_integrals(spec_check, levels_check - 1, n_check)
    mu_n = w_c.sum(axis=tuple(range(n_check, depth)))
    err = float(np.abs(ints - mu_n).max())
    reports.append(
        mg.AuditReport(err, 1e-6, 1.0, 1e-6 - err, err <= 1e-6, f"cylinder-crosscheck[n={n_check}]")
    )
    yield _audit_table(config, "symbolic_audit", reports)


_OUTPUT = {
    "path": (_STRING, "."),
    "format": (_choice("csv", "json"), "csv"),
}

_CONFIG = {
    "version": (_check(lambda v: _is_int(v) and v == 1, "1"), 1),
    "kind": (_choice(*_HANDLERS), _REQUIRED),
    "parameters": (_check(lambda v: isinstance(v, dict), "an object"), {}),
    "output": (lambda v: _parse(_OUTPUT, v, "output"), {}),
    "seed": (_int(0), 0),
    "resolution": (_int(0, 24), 12),
}


def validate_config(raw: dict) -> ExperimentConfig:
    top = _parse(_CONFIG, raw, "config")
    kind, out = top["kind"], top["output"]
    params = _parse(SCHEMAS[kind], top["parameters"], kind)
    return ExperimentConfig(kind, params, Path(out["path"]), out["format"], top["seed"], top["resolution"], raw)


def run(config: ExperimentConfig) -> int:
    """Execute one experiment, writing each report as its handler yields
    it; returns the process exit code."""
    def write(name: str, body: str) -> None:
        config.out_path.mkdir(parents=True, exist_ok=True)
        (config.out_path / name).write_text(_header(config) + body)

    failed = False
    try:
        for name, body, passed in _HANDLERS[config.kind](config):
            write(name, body)
            failed = failed or not passed
    except ConfigError:
        raise
    except Exception as exc:  # a marker beside the reports already written
        write(f"{config.kind}_FAILED.txt", f"error: {exc}\ntype: {type(exc).__name__}\n" + traceback.format_exc())
        return 1
    return 1 if failed else 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mgale", description="martingale convergence laboratory")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", type=Path, default=None)
    run_p.add_argument("--resolution", type=int, default=None)

    sub.add_parser("suites", help="list the audit kind's suites")

    args = parser.parse_args(argv)
    if args.command == "suites":
        for name, suite in SUITES.items():
            print(f"{name:14s} {suite.description}")
        return 0
    if args.command is None:
        parser.print_help()
        return 2

    try:
        raw = json.loads(args.config.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if isinstance(raw, dict):  # the flags override a config object only
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.resolution is not None:
            raw["resolution"] = args.resolution
        if args.out is not None and isinstance(raw.setdefault("output", {}), dict):
            raw["output"]["path"] = str(args.out)
    try:
        return run(validate_config(raw))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
