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
Each handler is a generator of ``(file name, body, audits)`` reports,
``audits`` being the tuple of ``AuditReport`` rows that decide the
report's verdict (empty for a diagnostic), and ``run`` writes each one,
header first, as soon as it is yielded: the only code that writes a file.

Reports start with one header line carrying the config hash, seed,
library version and a timestamp; everything after that line is
byte-identical across reruns with the same config and seed (the
timestamp is confined to the header precisely so report bodies diff
clean).

Size rule: before any work, each handler states the cell count (entries,
whatever the dtype) of the largest array its run will build, and
``_check_size`` refuses a run past ``MAX_CELLS`` = 2^24 cells.  The
dilated and ergodic kinds read their series through one reader,
``_series``: the ergodic series sum a_k f(T^k x) of the doubling map is
the dilated series with n_k = 2^k.  It reads the counts from
``mgale.dilated._series_cells``, beside the code that builds the arrays.

Exit codes: 0 success, 1 an audit row failed (a universal-inequality
audit, or the Davenport quadrature check, which is one such row) or the
run raised (the reports already written stay, beside a failure marker
recording the error, its type and traceback), 2 config error, raised
before any work is done: no report and no marker is written.
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
    SeriesSpec,
    _general_cells,
    _pow2_ladder,
    _series_cells,
    contraction_audits,
    gaposhkin_example,
    oscillation_diagnostic,
)
from .modulus import _curve_cells, dyadic_approx_audit_all
from .riesz import (
    RieszProductSpec,
    _hypothesis_resolution,
    riesz_fourier_coeff,
    riesz_series_run,
    sample_mu,
    series_resolution,
)
from .symbolic import (
    CylinderFunction,
    DecayHypothesisError,
    _check_decay_hypothesis,
    _digit_ladder,
    _digit_points,
    _digit_space,
    potential_variation_check,
    equilibrium_weights,
    averaging_decay_audit,
    riesz_cylinder_integrals,
    riesz_potentials,
)
from .torus import FourierFunction, GridFunction, sine_series
from .transfer import ergodic_series_run

__all__ = ["MAX_CELLS", "ExperimentConfig", "ConfigError", "main", "run", "validate_config"]


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


#: the most cells one array of a run may hold: entries, whatever the dtype;
#: an exact integer the run builds counts one cell per 64-bit word
MAX_CELLS = 2**24


def _check_size(arrays: dict) -> None:
    """Refuse a run whose largest array holds more than MAX_CELLS cells;
    ``arrays`` maps a name to the cell count of each array it will build."""
    name, cells = max(arrays.items(), key=lambda item: item[1])
    if cells > MAX_CELLS:
        raise ConfigError(f"the {name} would hold {cells} cells > 2^24, the size limit")


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


def _audit_table(config: ExperimentConfig, name: str, reports) -> tuple[str, str, tuple]:
    """The report of audit rows in the configured format, with the rows.

    One line or JSON object per row: lhs, rhs, constant, margin = rhs - lhs,
    passed, context (and, in JSON, the seed).
    """
    reports = tuple(reports)
    if config.out_format == "json":
        body = "[\n" + ",\n".join(
            json.dumps({"lhs": r.lhs, "rhs": r.rhs, "constant": r.constant, "margin": r.margin,
                        "passed": bool(r.passed), "context": r.context, "seed": r.seed})
            for r in reports
        ) + "\n]\n"
    else:
        body = "lhs,rhs,constant,margin,passed,context\n" + "".join(
            f"{r.lhs!r},{r.rhs!r},{r.constant!r},{r.margin!r},{int(r.passed)},{r.context}\n" for r in reports
        )
    return f"{name}.{config.out_format}", body, reports


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
    """"sin", "davenport:lambda:M" (lambda > 0, 1 <= M <= 83886) or a mode object {"m": c}.

    M past 83886 is refused (exit 2) before the M modes are built: with
    M >= 3 a series takes the general path, whose block of at least 100
    samples by 2M modes would pass the size limit.
    """
    if g == "sin":
        return sine_series({1: 1.0})
    if isinstance(g, dict):
        return FourierFunction({int(m): _COMPLEX(c) for m, c in g.items()})
    if isinstance(g, str) and g.startswith("davenport:"):
        _, lam, M = g.split(":")
        _check_size({"general-path term block": _general_cells(100, 0, 0, 2 * int(M))})
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


def _coeffs_for(rule, K: int, generator: FourierFunction, checkpoints) -> tuple:
    """The first K coefficients of a parsed rule, all finite; a list must hold K.

    Their series must stay finite too.  A run sums the terms a_k g(n_k x)
    (riesz centres them: a_k (g - E g)) up to k = min(2 x the largest
    checkpoint, K), each at most 2 |a_k| sum_m |c_m| in modulus, c_m the
    modes of g.  A window oscillation, a difference of two partial sums,
    is then at most 4 sum_k |a_k| sum_m |c_m|.  Coefficients that make
    this bound overflow are refused: their sums would read NaN.
    """
    if callable(rule):
        with np.errstate(over="ignore"):  # an overflow is refused below, not warned about
            rule = rule(K)
        if not all(map(math.isfinite, rule)):
            raise ConfigError(f"the coefficient rule overflows within {K} terms")
    if len(rule) < K:
        raise ConfigError(f"coefficient list must hold at least {K} numbers, got {len(rule)}")
    terms = min(2 * max(checkpoints), K)
    bound = 4.0 * sum(abs(a) for a in rule[:terms]) * sum(abs(c) for c in generator.coeffs.values())
    if not math.isfinite(bound):
        raise ConfigError(f"the partial sums overflow: 4 sum|a_k| sum|c_m| over {terms} terms is {bound!r}")
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


def _series(p: dict, generator_key: str, first: int, default_K: int) -> tuple[SeriesSpec, list]:
    """The series of a ``dilated`` or ``ergodic`` run, and the checkpoints of its run.

    With ``gaposhkin_m``: the sharpness example with K (default 4096, at
    least 2) terms on the ladder from 2^first, ``first`` 1 (the example's
    own) or 0; a series key beside it is a config error rather than a value
    silently ignored.  Otherwise sum_k a_k g(n_k x): g the ``generator_key``
    generator (default "sin"), a_k the ``coeffs`` rule ("geom:0.5"), n_k the
    first K (``default_K``) frequencies of ``freqs`` (2^0, ..., 2^(K-1)), an
    explicit K past them a config error.  The size of the run is checked
    before anything of length K is built.
    """
    m, K = p["gaposhkin_m"], p["K"]
    if m is not None:
        given = [key for key in (generator_key, "freqs", "coeffs") if p.get(key) is not None]
        if given:
            raise ConfigError(f"gaposhkin_m fixes the series; it takes none of {given}")
        K = 4096 if K is None else K
        if K < 2:
            raise ConfigError(f"gaposhkin_m needs K >= 2, got {K}")
        generator, freqs, length = (K, first), None, K  # the example's cells: see _series_cells
    else:
        K = default_K if K is None else K
        freqs = None if p.get("freqs") is None else p["freqs"][:K]
        if p["K"] is not None and freqs is not None and len(freqs) < K:
            raise ConfigError(f"K={K} exceeds the {len(freqs)} frequencies of freqs")
        length = K if freqs is None else len(freqs)
        generator = _generator("sin") if p[generator_key] is None else p[generator_key]
    checkpoints = _checkpoints_for(p["checkpoints"], length)
    try:  # past the size limit or losing phase precision; a generator with non-zero mean, freqs not increasing
        _check_size(_series_cells(generator, freqs, length, checkpoints, p["sample_size"]))
        if m is not None:
            spec = gaposhkin_example(m, K)  # on the ladder 2^1, ..., 2^K
            if first == 0:  # 2^0, then the example's own integers: no second ladder is built
                spec = SeriesSpec(spec.coeffs, (1,) + spec.freqs[:-1], spec.generator)
        else:
            rule = _coeffs("geom:0.5") if p["coeffs"] is None else p["coeffs"]
            coeffs = _coeffs_for(rule, length, generator, checkpoints)
            spec = SeriesSpec(coeffs, _pow2_ladder(0, K) if freqs is None else freqs, generator)
    except ValueError as exc:  # a ConfigError among them
        raise ConfigError(str(exc)) from None
    return spec, checkpoints


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
        reports.extend(contraction_audits(f, m, n, p_values[i % len(p_values)], J))
    return reports


def _audit_telescoping(cases, p_values, J, seed):
    rng = np.random.default_rng(seed)
    arr = mg.random_grid_functions(cases, J, rng, "mixed")
    return [mg.telescope_check(GridFunction(J, arr[i], "real"), 0, J - 1) for i in range(cases)]


def _grid_cells(cases, p_values, J) -> dict:
    """The arrays of a batch of ``cases`` test functions on the 2^J grid."""
    return {"test-function batch": cases * 2**J}


def _scan_cells(cases, p_values, J) -> dict:
    """The batch, and the shift scan of the p values the cases use."""
    scan = _curve_cells(2**J, p_values[:cases]) if cases else 0
    return {**_grid_cells(cases, p_values, J), "shift-scan block": scan}


def _render_cells(cases, p_values, J) -> dict:
    """One render on the 2^J grid at a time."""
    return {"render": 2**J}


def _moment_p(p) -> bool:
    return 1 < p < math.inf


def _norm_p(p) -> bool:
    return p >= 1


@dataclass(frozen=True)
class _Suite:
    """An audit suite: its runner, the arrays a run of it builds (a map
    of name to cells, from cases, p values and J), the rule its exponents
    p must pass (None: p is unused) and its least resolution J."""

    description: str
    runner: Callable
    cells: Callable
    p_rule: Callable | None = None
    min_resolution: int = 1


#: the suites the audit kind runs.  The contraction generators reach
#: frequency 63, which renders alias-free from J = 7.
SUITES = {
    "telescoping": _Suite("detail energies sum to the centered L2 energy", _audit_telescoping, _grid_cells),
    "rio": _Suite("moment bound with constant max(1, sqrt(p-1))", _audit_rio, _grid_cells, _moment_p),
    "doob": _Suite("maximal inequality with constant p/(p-1)", _audit_doob, _grid_cells, _moment_p),
    "dyadic_approx": _Suite("factor-2 block-average approximation bound", _audit_dyadic_approx, _scan_cells,
                            _norm_p),
    "contraction": _Suite("dilation averaging bound 2^n/m", _audit_contraction, _render_cells, _norm_p, 7),
}


# --------------------------------------------------------------------------
# kind handlers, each under its parameter schema
# --------------------------------------------------------------------------

SCHEMAS: dict = {}  # kind -> {key: (parser, default)}
_HANDLERS: dict = {}  # kind -> handler, looked up at run time
_Reports = Iterator[tuple[str, str, tuple]]  # (file name, body, audit rows) per report


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
    _check_size(suite.cells(p["cases"], p["p"], config.resolution))
    yield _audit_table(config, f"audit_{name}", suite.runner(p["cases"], p["p"], config.resolution, config.seed))


@_kind("dilated", {
    "gaposhkin_m": (_int(0), None),
    "K": (_int(1), None),
    "generator": (_generator, None),
    "freqs": (freqs_from_rule, None),
    "coeffs": (_coeffs, None),
    "checkpoints": (_checkpoints, None),
    "sample_size": (_int(100), 200),
})
def _run_dilated(config: ExperimentConfig) -> _Reports:
    p = config.parameters
    spec, checkpoints = _series(p, "generator", 1, 64)
    diag = oscillation_diagnostic(spec, checkpoints, p["sample_size"], config.seed)
    yield "dilated_oscillation.csv", diag.to_csv() + f"# verdict={diag.verdict} slope={diag.fitted_slope!r}\n", ()


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
    # the quadrature grid must leave alias-free room for the largest dilate
    quad_J = max(config.resolution, 16, max(freqs).bit_length() + 2)
    smooth_J = max(config.resolution, 14)
    if p["smoothness_p"] is not None and p["M"] >= 2 ** (smooth_J - 1):
        raise ConfigError(f"davenport smoothness_p: M={p['M']} aliases at J={smooth_J} (needs M < 2^{smooth_J - 1})")
    _check_size({
        "Gram matrix": len(freqs) ** 2,
        "quadrature grid": 2**quad_J if p["quadrature_check"] else 0,
        "smoothness shift scan": 0 if p["smoothness_p"] is None else _curve_cells(2**smooth_J, [p["smoothness_p"]]),
    })
    gm = gram_matrix(freqs, lam)
    yield "davenport_gram.csv", gm.to_csv(), ()
    lines = [f"lambda,{lam!r}", f"min_eig,{gm.eigen_bounds[0]!r}", f"max_eig,{gm.eigen_bounds[1]!r}"]
    audits = ()
    if gm.eigen_bounds[0] > SINGULAR_EIG:
        lo, hi = riesz_constants(gm)
        lines += [f"riesz_lower,{lo!r}", f"riesz_upper,{hi!r}"]
    if p["quadrature_check"]:
        quad = gram_quadrature(freqs, lam, M=p["M"], J=quad_J)
        err = float(np.abs(gm.entries - quad).max())
        lines.append(f"quadrature_max_err,{err!r}")
        audits = (mg._tolerance_report(err, 1e-6, "davenport-quadrature"),)
    if p["smoothness_p"] is not None:
        est = smoothness_estimate(DavenportSpec(lam, p["M"]), p["smoothness_p"], smooth_J)
        lines.append(f"smoothness_exponent,{est!r}")
    yield "davenport_summary.csv", "\n".join(lines) + "\n", audits


@_kind("ergodic", {
    "gaposhkin_m": (_int(0), None),
    "K": (_int(1), None),
    "f": (_generator, None),
    "coeffs": (_coeffs, None),
    "checkpoints": (_checkpoints, None),
    "sample_size": (_int(100), 200),
})
def _run_ergodic(config: ExperimentConfig) -> _Reports:
    p = config.parameters
    # f(T^k x) = f(2^k x mod 1): the series on the ladder from 2^0
    spec, checkpoints = _series(p, "f", 0, len(p["coeffs"]) if isinstance(p["coeffs"], tuple) else 256)
    diag, decay = ergodic_series_run(spec, checkpoints, p["sample_size"], config.seed)
    yield "ergodic_decay.csv", decay.to_csv(), ()
    yield "ergodic_oscillation.csv", diag.to_csv() + f"# verdict={diag.verdict}\n", ()


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
        _check_size({"prefix sums": N + 2})
        lines = ["k,re,im"]
        for k in [spec.lambdas[0]] if p["k"] is None else p["k"]:
            c = complex(riesz_fourier_coeff(spec, N, k))
            lines.append(f"{k},{c.real!r},{c.imag!r}")
        yield "riesz_coeff.csv", "\n".join(lines) + "\n", ()
    elif p["action"] == "sample":
        if sum(spec.lambdas[: N + 1]) >= 2 ** (J - 1):
            raise ConfigError(f"riesz partial product at depth {N} aliases at J={J}")
        _check_size({"density grid": 2**J, "sample": p["count"]})
        xs = sample_mu(spec, N, J, p["count"], config.seed)
        yield "riesz_sample.csv", "x\n" + "\n".join(repr(float(x)) for x in xs) + "\n", ()
    else:
        _check_size({
            "sampling grid": 2 ** series_resolution(spec, N),
            "term matrix": p["sample_size"] * (N + 1),
            "hypothesis shift scan": _curve_cells(2 ** _hypothesis_resolution(p["fn"]), [math.inf]),
        })
        checkpoints = _checkpoints_for(p["checkpoints"], N + 1)
        coeffs = _coeffs_for(p["coeffs"], N + 1, p["fn"], checkpoints)
        diag = riesz_series_run(spec, lambda n: p["fn"], coeffs, checkpoints, p["sample_size"], config.seed)
        yield "riesz_series.csv", diag.to_csv() + f"# verdict={diag.verdict} label={diag.label}\n", ()


@_kind("symbolic", {
    "lambdas": (freqs_from_rule, "pow:3:7"),
    "cs": (_list(_COMPLEX), None),
    "depth": (_int(5), 8),
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
    # cylinder cross-check against the torus density: the deepest
    # oscillating level needs >= 4 digit levels of padding below it for
    # the midpoint truncation to sit well under the 1e-6 tolerance
    levels_check, n_check = depth - 4, min(6, depth - 1)
    _check_size({"digit box": ladder[depth]})
    # default audit family: depth-truncated oscillations above each level,
    # cos(2 pi lambda_n x) at the cylinder midpoints of coordinates n+1..depth
    fns = [
        CylinderFunction(n + 1, np.cos(2 * math.pi * ladder[n] * _digit_points(ladder, n + 1, depth, 0.5 / ladder[depth])))
        for n in range(1, min(5, depth - 2) + 1)
    ]
    try:  # the family is checked on the digit box, before the potentials are built
        _check_decay_hypothesis(_digit_space(ladder, depth), fns, alpha, p["B"])
    except DecayHypothesisError as exc:
        raise ConfigError(f"symbolic B={p['B']:g} does not bound the audit family: {exc}") from None
    except (OverflowError, ZeroDivisionError):  # (m - n)^alpha overflows or underflows to 0
        raise ConfigError(f"symbolic alpha={alpha:g} gives no finite bound B/(m-n)^alpha") from None
    space, pots = riesz_potentials(spec, depth)
    if pots.positivity_floor() <= 0:  # a factor 1 + Re(c_n e(lambda_n x)) with |c_n| = 1 reaches 0
        raise ConfigError("symbolic potentials touch zero, so log g_n is undefined: take every |c_n| < 1")
    weights = equilibrium_weights(space, pots)
    reports = [potential_variation_check(space, pots, alpha, p["A"]),
               averaging_decay_audit(space, pots, fns, alpha, p["B"], weights=weights)[0]]
    spec_check = RieszProductSpec(lambdas[:levels_check], cs[:levels_check])
    w_c = weights if spec_check == spec else equilibrium_weights(*riesz_potentials(spec_check, depth))
    ints = riesz_cylinder_integrals(spec_check, levels_check - 1, n_check)
    mu_n = w_c.sum(axis=tuple(range(n_check, depth)))
    err = float(np.abs(ints - mu_n).max())
    reports.append(mg._tolerance_report(err, 1e-6, f"cylinder-crosscheck[n={n_check}]"))
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
        for name, body, audits in _HANDLERS[config.kind](config):
            write(name, body)
            failed = failed or not all(r.passed for r in audits)
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
