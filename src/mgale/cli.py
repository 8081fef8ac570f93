"""Batch experiment front door.

``mgale run config.json`` executes one experiment described by a JSON
config and writes CSV/JSON reports; ``mgale suites`` lists the audit
catalog.  Convenience subcommands (``davenport``, ``riesz``,
``symbolic``) build the equivalent config from flags and run it.

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

Reports start with one header line carrying the config hash, seed,
library version and a timestamp; everything after that line is
byte-identical across reruns with the same config and seed (the
timestamp is confined to the header precisely so report bodies diff
clean).

Exit codes: 0 success, 1 at least one universal-inequality audit
failed or the run raised (partial results are flushed with a failure
marker recording the error, its type and traceback), 2 config error.
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
from typing import Callable

import numpy as np

from . import __version__
from . import martingale as mg
from .davenport import (
    DavenportSpec,
    davenport_fourier,
    freqs_from_rule,
    gram_matrix,
    gram_quadrature,
    riesz_constants,
    smoothness_estimate,
)
from .dilated import (
    SeriesSpec,
    contraction_audit,
    contraction_refined_audit,
    gaposhkin_example,
    oscillation_diagnostic,
)
from .modulus import dyadic_approx_audit_all
from .riesz import RieszProductSpec, riesz_fourier_coeff, riesz_series_run, sample_mu
from .symbolic import (
    CylinderFunction,
    _digit_ladder,
    _digit_points,
    potential_variation_check,
    equilibrium_weights,
    averaging_decay_audit,
    riesz_cylinder_integrals,
    riesz_potentials,
)
from .tails import TailModel
from .torus import FourierFunction, GridFunction, sine_series
from .transfer import ergodic_series_run

__all__ = ["ExperimentConfig", "ConfigError", "list_suites", "run", "main"]


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


def validate_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("version", 1) != 1:
        raise ConfigError("unsupported config version")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    params = raw.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("parameters must be an object")
    output = raw.get("output", {})
    out_path = Path(output.get("path", "."))
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError("output.format must be csv or json")
    seed = int(raw.get("seed", 0))
    resolution = int(raw.get("resolution", 12))
    if not 0 <= resolution <= 24:
        raise ConfigError("resolution out of range [0, 24]")
    return ExperimentConfig(kind, params, out_path, out_format, seed, resolution, raw)


def list_suites() -> list[tuple[str, str, str, bool]]:
    """(name, module, description, runnable) for every audit/diagnostic
    suite; a runnable name runs as the audit kind's ``suite``."""
    return [(name, s.module, s.description, s.runner is not None) for name, s in sorted(SUITES.items())]


# --------------------------------------------------------------------------
# report writing
# --------------------------------------------------------------------------

def _header(config: ExperimentConfig) -> str:
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return (
        f"# mgale-report kind={config.kind} config_sha={config.sha} "
        f"seed={config.seed} version={__version__} generated={stamp}\n"
    )


def _write(config: ExperimentConfig, name: str, body: str, ext: str = "csv") -> Path:
    config.out_path.mkdir(parents=True, exist_ok=True)
    path = config.out_path / f"{name}.{ext}"
    path.write_text(_header(config) + body)
    return path


def _reports_json(reports) -> str:
    return "[\n" + ",\n".join(r.to_json() for r in reports) + "\n]\n"


def _reports_csv(reports) -> str:
    lines = ["lhs,rhs,constant,margin,passed,context"]
    for r in reports:
        lines.append(f"{r.lhs!r},{r.rhs!r},{r.constant!r},{r.margin!r},{int(r.passed)},{r.context}")
    return "\n".join(lines) + "\n"


def _emit_reports(config: ExperimentConfig, name: str, reports) -> tuple[Path, bool]:
    if config.out_format == "json":
        path = _write(config, name, _reports_json(reports), "json")
    else:
        path = _write(config, name, _reports_csv(reports), "csv")
    return path, all(r.passed for r in reports)


# --------------------------------------------------------------------------
# kind handlers
# --------------------------------------------------------------------------

def _generator_from(params: dict, key: str = "generator") -> FourierFunction:
    g = params.get(key, "sin")
    if g == "sin":
        return sine_series({1: 1.0})
    try:
        if isinstance(g, str) and g.startswith("davenport:"):
            _, lam, M = g.split(":")
            return davenport_fourier(float(lam), int(M))
        if isinstance(g, dict):
            return FourierFunction({int(m): complex(*c) if isinstance(c, list) else complex(c) for m, c in g.items()})
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"unrecognized generator {g!r}; use \"sin\", \"davenport:lambda:M\" or a mode object")


def _is_int(v) -> bool:
    """A JSON integer (true/false are not numbers here)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite JSON number."""
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _int_param(params: dict, key: str, default: int, least: int = 1) -> int:
    """An integer parameter >= least, ``default`` when absent."""
    v = params.get(key, default)
    if not _is_int(v) or v < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {v!r}")
    return v


def _freqs_from(rule) -> list:
    try:
        return freqs_from_rule(rule)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _coeffs_from(rule, K: int) -> tuple:
    """The first K coefficients of a rule: a list of at least K numbers,
    "geom:r" (r^k), "invsqrt" (k^-1/2) or "invpow:s" (k^-s), k = 1..K."""
    if isinstance(rule, list):
        if len(rule) >= K and all(_is_number(a) for a in rule):
            return tuple(rule[:K])
        raise ConfigError(f"coefficient list must hold at least {K} numbers, got {rule!r}")
    if isinstance(rule, str):
        name, _, arg = rule.partition(":")
        ks = np.arange(1, K + 1, dtype=np.float64)
        if name == "invsqrt" and not arg:
            return tuple(1.0 / np.sqrt(ks))
        if name in ("geom", "invpow"):
            try:
                x = float(arg)
            except ValueError:
                x = math.nan
            if math.isfinite(x):
                return tuple(x**k for k in ks) if name == "geom" else tuple(ks**-x)
    raise ConfigError(f"unrecognized coefficient rule {rule!r}; use a list, \"geom:r\", \"invsqrt\" or \"invpow:s\"")


def _tail_from(raw) -> TailModel:
    """A declared tail {"kind", "exponent", "amplitude" = 1, "log_exponent" = 0}."""
    if not isinstance(raw, dict) or "exponent" not in raw:
        raise ConfigError(f"tail must be an object with a kind and an exponent, got {raw!r}")
    values = (raw.get("amplitude", 1.0), raw["exponent"], raw.get("log_exponent", 0.0))
    if not all(_is_number(v) for v in values):
        raise ConfigError(f"tail amplitude, exponent and log_exponent must be numbers, got {raw!r}")
    try:
        return TailModel(raw.get("kind"), *values)
    except ValueError as exc:
        raise ConfigError(f"bad tail {raw!r}: {exc}") from None


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
    """A catalog entry.  A runnable suite (one the audit kind runs) carries
    its runner, the rule its exponents p must pass (None: p is unused)
    and its least resolution J."""

    module: str
    description: str
    runner: Callable | None = None
    p_rule: Callable | None = None
    min_resolution: int = 1


#: the audit/diagnostic catalog.  The contraction generators reach
#: frequency 63, which renders alias-free from J = 7.
SUITES = {
    "telescoping": _Suite("martingale", "detail energies sum to the centered L2 energy", _audit_telescoping),
    "rio": _Suite("martingale", "moment bound with constant max(1, sqrt(p-1))", _audit_rio, _moment_p),
    "doob": _Suite("martingale", "maximal inequality with constant p/(p-1)", _audit_doob, _moment_p),
    "detail-criteria-maximal": _Suite("martingale", "two-sided detail criteria, maximal constant K_p"),
    "bounded-moments": _Suite("martingale", "sup-norm criteria moment chain 2 K_p (D1+D2)"),
    "condensation": _Suite("martingale", "dyadic condensation equivalence of series"),
    "paley-zygmund": _Suite("martingale", "anti-concentration lower bound"),
    "dyadic_approx": _Suite("modulus", "factor-2 block-average approximation bound", _audit_dyadic_approx, _norm_p),
    "modulus-criterion": _Suite("modulus", "summability of omega_p(2^-n)/n^(1/p)"),
    "contraction": _Suite("dilated", "dilation averaging bound 2^n/m", _audit_contraction, _norm_p, 7),
    "contraction-refined": _Suite("dilated", "refined bound sqrt(l 2^n)/m at p=2"),
    "lacunary-criteria": _Suite("dilated", "lacunary dilated-series criteria"),
    "gaposhkin-sharpness": _Suite("dilated", "near-critical modulus example and trends"),
    "oscillation": _Suite("dilated", "window oscillation diagnostics of partial sums"),
    "davenport-gram": _Suite("davenport", "closed-form Gram entries vs grid quadrature"),
    "riesz-frame": _Suite("davenport", "finite-section frame bounds from Gram eigenvalues"),
    "transfer-two-forms": _Suite("transfer", "coefficient vs pointwise transfer operator"),
    "transfer-duality": _Suite("transfer", "adjoint identity of the transfer operator"),
    "transfer-decay": _Suite("transfer", "L^n decay and its weighted summability"),
    "riesz-coefficient": _Suite("riesz", "product-expansion coefficients vs quadrature"),
    "riesz-density": _Suite("riesz", "partial densities: positivity and unit mass"),
    "symbolic-normalization": _Suite("symbolic", "potential normalization identities"),
    "symbolic-equilibrium": _Suite("symbolic", "fixed-point weights vs torus cylinder integrals"),
    "potential-variation": _Suite("symbolic", "log-potential variation decay constants"),
    "averaging-decay": _Suite("symbolic", "averaged sup-norm decay slope audit"),
}


def _audit_p_values(raw, admissible) -> list:
    """The config's exponent list with "inf" read as math.inf; a value the
    suite cannot take is a ConfigError, not an audit failure."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"audit p must be a non-empty list, got {raw!r}")
    values = [math.inf if v == "inf" else v for v in raw]
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or math.isnan(v):
            raise ConfigError(f"audit p values must be numbers or \"inf\", got {v!r}")
        if admissible is not None and not admissible(v):
            raise ConfigError(f"audit p={v!r} outside the range this suite admits")
    return values


def _run_audit(config: ExperimentConfig) -> bool:
    p = config.parameters
    name = p.get("suite")
    suite = SUITES.get(name) if isinstance(name, str) else None
    if suite is None or suite.runner is None:
        runnable = sorted(n for n, s in SUITES.items() if s.runner is not None)
        raise ConfigError(f"unknown audit suite {name!r}; the audit kind runs {runnable}")
    if config.resolution < suite.min_resolution:
        raise ConfigError(f"audit {name} needs resolution >= {suite.min_resolution}, got {config.resolution}")
    cases = p.get("cases", 100)
    if not _is_int(cases) or cases < 0:
        raise ConfigError(f"audit cases must be a nonnegative integer, got {cases!r}")
    p_values = _audit_p_values(p.get("p", [1.5, 2, 3, 4, 8]), suite.p_rule)
    reports = suite.runner(cases, p_values, config.resolution, config.seed)
    _, ok = _emit_reports(config, f"audit_{name}", reports)
    return ok


def _checkpoints_for(params: dict, length: int, default: list | None = None) -> list:
    """The config's checkpoints for a series of ``length`` terms; by default
    ``default``, else the powers 2^4, ..., 2^j <= length."""
    if default is None:
        default = [2**j for j in range(4, length.bit_length())]
        if "checkpoints" not in params and not default:
            raise ConfigError(f"no default checkpoints for a series of length {length} < 16")
    cps = params.get("checkpoints", default)
    if not isinstance(cps, list) or not cps or any(not _is_int(c) or c < 1 for c in cps):
        raise ConfigError(f"checkpoints must be a non-empty list of positive integers, got {cps!r}")
    if max(cps) > length:
        raise ConfigError(f"checkpoints exceed the series length {length}")
    return cps


def _run_dilated(config: ExperimentConfig) -> bool:
    p = config.parameters
    if "gaposhkin_m" in p:
        spec = gaposhkin_example(_int_param(p, "gaposhkin_m", 1, 0), _int_param(p, "K", 4096, 2))
    elif "spec" in p:
        spec = SeriesSpec.from_json(json.dumps(p["spec"]))
    else:
        K = _int_param(p, "K", 64)
        gen = _generator_from(p)
        freqs = tuple(_freqs_from(p.get("freqs", f"pow:2:{K - 1}")))[:K]
        coeffs = _coeffs_from(p.get("coeffs", "geom:0.5"), len(freqs))
        try:
            spec = SeriesSpec(coeffs, freqs, gen)
        except ValueError as exc:
            raise ConfigError(f"bad dilated series: {exc}") from None
    checkpoints = _checkpoints_for(p, spec.length)
    diag = oscillation_diagnostic(spec, checkpoints, _int_param(p, "sample_size", 200, 100), config.seed)
    _write(config, "dilated_oscillation", diag.to_csv() + f"# verdict={diag.verdict} slope={diag.fitted_slope!r}\n")
    return True


def _run_davenport(config: ExperimentConfig) -> bool:
    p = config.parameters
    lam = p.get("lambda", 0.75)
    if not _is_number(lam) or lam <= 0.5:
        raise ConfigError(f"davenport lambda must be a number > 1/2 (finite Gram entries), got {lam!r}")
    lam = float(lam)
    freqs = _freqs_from(p.get("freqs", "pow:2:16"))
    gm = gram_matrix(freqs, lam)
    _write(config, "davenport_gram", gm.to_csv())
    lines = [f"lambda,{lam!r}", f"min_eig,{gm.eigen_bounds[0]!r}", f"max_eig,{gm.eigen_bounds[1]!r}"]
    ok = True
    if gm.eigen_bounds[0] > 1e-10:
        lo, hi = riesz_constants(gm)
        lines += [f"riesz_lower,{lo!r}", f"riesz_upper,{hi!r}"]
    if p.get("quadrature_check", False):
        # the grid must leave alias-free room for the largest dilate
        J = max(config.resolution, 16, max(freqs).bit_length() + 2)
        quad = gram_quadrature(freqs, lam, M=_int_param(p, "M", 4096), J=J)
        err = float(np.abs(gm.entries - quad).max())
        lines.append(f"quadrature_max_err,{err!r}")
        ok = err <= 1e-6
    if "smoothness_p" in p:
        est = smoothness_estimate(DavenportSpec(lam, _int_param(p, "M", 4096)), p["smoothness_p"], max(config.resolution, 14))
        lines.append(f"smoothness_exponent,{est!r}")
    _write(config, "davenport_summary", "\n".join(lines) + "\n")
    return ok


def _run_ergodic(config: ExperimentConfig) -> bool:
    p = config.parameters
    tail = None
    if "gaposhkin_m" in p:
        m = _int_param(p, "gaposhkin_m", 1, 0)
        base = gaposhkin_example(m, _int_param(p, "K", 4096, 2))
        f, coeffs = base.generator, base.coeffs
        # the known decay shape of this construction, unless overridden
        tail = TailModel("power_log", 1.0, 0.5, float(m))
    else:
        f = _generator_from(p, "f")
        rule = p.get("coeffs", "geom:0.5")
        coeffs = _coeffs_from(rule, _int_param(p, "K", len(rule) if isinstance(rule, list) else 256))
    checkpoints = _checkpoints_for(p, len(coeffs))
    if "tail" in p:
        tail = _tail_from(p["tail"])
    diag, decay = ergodic_series_run(f, coeffs, checkpoints, _int_param(p, "sample_size", 200, 100), config.seed, tail)
    _write(config, "ergodic_decay", decay.to_csv())
    _write(config, "ergodic_oscillation", diag.to_csv() + f"# verdict={diag.verdict}\n")
    return True


def _run_riesz(config: ExperimentConfig) -> bool:
    p = config.parameters
    try:
        spec = RieszProductSpec(tuple(p["lambdas"]), tuple(complex(*c) if isinstance(c, list) else complex(c) for c in p["cs"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad riesz product: {exc!r}") from None
    action = p.get("action", "coeff")
    N = _int_param(p, "N", spec.depth - 1, 0)
    J = _int_param(p, "J", config.resolution, 0)
    if N >= spec.depth:
        raise ConfigError(f"riesz N={N} outside the spec depth {spec.depth}")
    if action == "coeff":
        ks = p.get("k", [spec.lambdas[0]])
        ks = ks if isinstance(ks, list) else [ks]
        if not all(_is_int(k) for k in ks):
            raise ConfigError(f"riesz k must be an integer or a list of integers, got {p['k']!r}")
        lines = ["k,re,im"]
        for k in ks:
            c = complex(riesz_fourier_coeff(spec, N, k))
            lines.append(f"{k},{c.real!r},{c.imag!r}")
        _write(config, "riesz_coeff", "\n".join(lines) + "\n")
        return True
    if action == "sample":
        if sum(spec.lambdas[: N + 1]) >= 2 ** (J - 1):
            raise ConfigError(f"riesz partial product at depth {N} aliases at J={J}")
        xs = sample_mu(spec, N, J, _int_param(p, "count", 1000, 0), config.seed)
        body = "x\n" + "\n".join(repr(float(x)) for x in xs) + "\n"
        _write(config, "riesz_sample", body)
        return True
    if action == "series":
        fam = _generator_from(p, "fn")
        coeffs = _coeffs_from(p.get("coeffs", "geom:0.5"), N + 1)
        checkpoints = _checkpoints_for(p, N + 1, default=[1, 2, 4])
        diag = riesz_series_run(spec, lambda n: fam, coeffs, checkpoints, _int_param(p, "sample_size", 500), config.seed)
        _write(config, "riesz_series", diag.to_csv() + f"# verdict={diag.verdict} label={diag.label}\n")
        return True
    raise ConfigError(f"unknown riesz action {action!r}")


def _run_symbolic(config: ExperimentConfig) -> bool:
    p = config.parameters
    lambdas = tuple(p.get("lambdas", [3**k for k in range(8)]))
    cs = tuple(p.get("cs", [0.8] * len(lambdas)))
    depth = int(p.get("depth", 8))
    spec = RieszProductSpec(lambdas, cs)
    space, pots = riesz_potentials(spec, depth)
    weights = equilibrium_weights(space, pots)
    alpha = float(p.get("alpha", 1.0))
    reports = [potential_variation_check(space, pots, alpha, float(p.get("A", 8.0)))]
    # default audit family: depth-truncated oscillations above each level,
    # cos(2 pi lambda_n x) at the cylinder midpoints of coordinates n+1..depth
    ladder = _digit_ladder(lambdas, depth)
    fns = [
        CylinderFunction(n + 1, np.cos(2 * math.pi * ladder[n] * _digit_points(ladder, n + 1, depth, 0.5 / ladder[depth])))
        for n in range(1, min(5, depth - 2) + 1)
    ]
    rep, _ = averaging_decay_audit(space, pots, fns, alpha, float(p.get("B", 8.0)), weights=weights)
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
    _, ok = _emit_reports(config, "symbolic_audit", reports)
    return ok


_HANDLERS = {
    "audit": _run_audit,
    "dilated": _run_dilated,
    "davenport": _run_davenport,
    "ergodic": _run_ergodic,
    "riesz": _run_riesz,
    "symbolic": _run_symbolic,
}

KINDS = tuple(_HANDLERS)


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        ok = _HANDLERS[config.kind](config)
    except ConfigError:
        raise
    except Exception as exc:  # flush a marker so partial output is labeled
        config.out_path.mkdir(parents=True, exist_ok=True)
        marker = config.out_path / f"{config.kind}_FAILED.txt"
        marker.write_text(
            _header(config) + f"error: {exc}\ntype: {type(exc).__name__}\n" + traceback.format_exc()
        )
        return 1
    return 0 if ok else 1


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

    sub.add_parser("suites", help="list audit/diagnostic suites")

    dav_p = sub.add_parser("davenport", help="Gram matrix and frame bounds")
    dav_p.add_argument("--lambda", dest="lam", type=float, required=True)
    dav_p.add_argument("--freqs", type=str, default="pow:2:16")
    dav_p.add_argument("--quadrature-check", action="store_true")
    dav_p.add_argument("--seed", type=int, default=0)
    dav_p.add_argument("--out", type=Path, default=Path("."))
    dav_p.add_argument("--resolution", type=int, default=16)

    riesz_p = sub.add_parser("riesz", help="Riesz product operations")
    riesz_p.add_argument("action", choices=["coeff", "sample", "series"])
    riesz_p.add_argument("--lambdas", type=str, default="pow:3:8")
    riesz_p.add_argument("--cs", type=float, nargs="+", default=[0.6])
    riesz_p.add_argument("--k", type=int, nargs="*", default=None)
    riesz_p.add_argument("--count", type=int, default=1000)
    riesz_p.add_argument("--seed", type=int, default=0)
    riesz_p.add_argument("--out", type=Path, default=Path("."))
    riesz_p.add_argument("--resolution", type=int, default=14)

    sym_p = sub.add_parser("symbolic", help="symbolic-space audits")
    sym_p.add_argument("action", choices=["audit"])
    sym_p.add_argument("--depth", type=int, default=8)
    sym_p.add_argument("--alpha", type=float, default=1.0)
    sym_p.add_argument("--sup-c", type=float, default=0.8)
    sym_p.add_argument("--seed", type=int, default=0)
    sym_p.add_argument("--out", type=Path, default=Path("."))

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2

    try:
        if args.command == "run":
            try:
                raw = json.loads(args.config.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 2
            if args.seed is not None:
                raw["seed"] = args.seed
            if args.out is not None:
                raw.setdefault("output", {})["path"] = str(args.out)
            if args.resolution is not None:
                raw["resolution"] = args.resolution
            config = validate_config(raw)
            return run(config)
        if args.command == "suites":
            for name, mod, desc, runnable in list_suites():
                print(f"{name:24s} {mod:10s} {'run' if runnable else '':4s} {desc}")
            return 0
        if args.command == "davenport":
            raw = {
                "kind": "davenport",
                "parameters": {
                    "lambda": args.lam,
                    "freqs": args.freqs,
                    "quadrature_check": args.quadrature_check,
                },
                "output": {"path": str(args.out), "format": "csv"},
                "seed": args.seed,
                "resolution": args.resolution,
            }
            return run(validate_config(raw))
        if args.command == "riesz":
            lambdas = _freqs_from(args.lambdas)
            cs = list(args.cs)
            cs = (cs * len(lambdas))[: len(lambdas)]
            params = {"lambdas": lambdas, "cs": cs, "action": args.action, "count": args.count}
            if args.k:
                params["k"] = args.k
            raw = {
                "kind": "riesz",
                "parameters": params,
                "output": {"path": str(args.out), "format": "csv"},
                "seed": args.seed,
                "resolution": args.resolution,
            }
            return run(validate_config(raw))
        if args.command == "symbolic":
            lambdas = [3**k for k in range(args.depth)]
            raw = {
                "kind": "symbolic",
                "parameters": {
                    "lambdas": lambdas,
                    "cs": [args.sup_c] * len(lambdas),
                    "depth": args.depth,
                    "alpha": args.alpha,
                },
                "output": {"path": str(args.out), "format": "json"},
                "seed": args.seed,
            }
            return run(validate_config(raw))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
