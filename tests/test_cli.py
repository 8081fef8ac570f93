import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mgale import cli
from mgale import dilated as dl
from mgale.martingale import AuditReport
from mgale.transfer import l2_norm_exact, transfer_power


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def body_of(path: Path) -> str:
    """Report content with the timestamped header line stripped."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# mgale-report")
    return "\n".join(lines[1:])


def test_suites_catalog(tmp_path, capsys):
    names = ["contraction", "doob", "dyadic_approx", "rio", "telescoping"]
    assert sorted(cli.SUITES) == names
    assert all(callable(suite.runner) for suite in cli.SUITES.values())
    # `mgale suites` prints one line per suite
    assert cli.main(["suites"]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()]
    assert sorted(row[0] for row in rows) == names
    # every suite runs; a former catalog name and names outside the
    # catalog are config errors
    for suite in names + ["detail-criteria-maximal", "telescoping-parseval"]:
        out = tmp_path / suite
        raw = {
            "kind": "audit",
            "parameters": {"suite": suite, "cases": 2},
            "output": {"path": str(out)},
            "resolution": 8,
        }
        rc = cli.main(["run", str(write_config(tmp_path, raw))])
        if suite in names:
            assert rc == 0, suite
            assert sorted(p.name for p in out.iterdir()) == [f"audit_{suite}.csv"]
        else:
            assert rc == 2, suite
            assert not out.exists()


@pytest.mark.parametrize("suite, p_values", [
    ("rio", ["inf"]),
    ("doob", ["inf"]),
    ("rio", [0.5]),
    ("doob", [2, 0.5]),
    ("rio", [1]),
    ("dyadic_approx", [0.5]),
    ("contraction", [0.5]),
    ("contraction", ["two"]),
    ("rio", []),
    ("rio", 3),
])
def test_audit_inadmissible_p_is_config_error(tmp_path, suite, p_values):
    raw = {
        "kind": "audit",
        "parameters": {"suite": suite, "cases": 3, "p": p_values},
        "output": {"path": str(tmp_path / "out")},
        "resolution": 5,
    }
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == 2
    assert not (tmp_path / "out" / "audit_FAILED.txt").exists()


def test_audit_inf_p_runs_where_admissible(tmp_path):
    raw = {
        "kind": "audit",
        "parameters": {"suite": "dyadic_approx", "cases": 2, "p": ["inf", 1]},
        "output": {"path": str(tmp_path)},
        "resolution": 5,
    }
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == 0
    body = body_of(tmp_path / "audit_dyadic_approx.csv")
    assert "dyadic-approx[p=inf,n=0]" in body and "dyadic-approx[p=1,n=0]" in body


RIO = {"kind": "audit", "parameters": {"suite": "rio", "cases": 2}}

# malformed top-level fields of an otherwise good config
BAD_TOP_LEVEL = [
    {"seed": "x"},
    {"resolution": "x"},
    {"output": [1]},
    {"seed": -1},
    {"seed": 1.7},
    {"resolution": 6.9},
    {"resolution": True},
    {"sead": 3},
    {"version": True},
    {"output": {"path": "o", "fmt": "csv"}},
    {"output": {"path": 5}},
]


def test_validate_rejects_bad_configs():
    with pytest.raises(cli.ConfigError):
        cli.validate_config({})
    with pytest.raises(cli.ConfigError):
        cli.validate_config({"kind": "nope"})
    with pytest.raises(cli.ConfigError):
        cli.validate_config({"kind": "audit", "output": {"format": "xml"}})
    with pytest.raises(cli.ConfigError):
        cli.validate_config({"kind": "audit", "resolution": 99})
    for fields in BAD_TOP_LEVEL:
        with pytest.raises(cli.ConfigError):
            cli.validate_config(dict(RIO, **fields))


@pytest.mark.parametrize("raw, flags", [
    pytest.param(dict(RIO, **fields), [], id=json.dumps(fields)) for fields in BAD_TOP_LEVEL
] + [
    pytest.param([RIO], ["--seed", "3"], id="list-config-with-seed-flag"),
    pytest.param(dict(RIO, output="dir"), ["--out", "dir"], id="string-output-with-out-flag"),
])
def test_bad_top_level_fields_exit_2_without_reports(tmp_path, monkeypatch, raw, flags):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, raw)
    assert cli.main(["run", str(path), *flags]) == 2
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]


def test_run_audit_writes_passing_json(tmp_path):
    raw = {
        "kind": "audit",
        "parameters": {"suite": "rio", "cases": 50},
        "output": {"path": str(tmp_path / "out"), "format": "json"},
        "seed": 7,
        "resolution": 8,
    }
    rc = cli.main(["run", str(write_config(tmp_path, raw))])
    assert rc == 0
    reports = json.loads(body_of(tmp_path / "out" / "audit_rio.json"))
    assert len(reports) == 50
    assert all(r["passed"] for r in reports)
    assert all(r["seed"] == 7 for r in reports)


def test_run_is_deterministic_given_seed(tmp_path):
    raw = {
        "kind": "audit",
        "parameters": {"suite": "doob", "cases": 30},
        "output": {"path": str(tmp_path / "a"), "format": "csv"},
        "seed": 13,
        "resolution": 7,
    }
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == 0
    raw["output"]["path"] = str(tmp_path / "b")
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == 0
    assert body_of(tmp_path / "a" / "audit_doob.csv") == body_of(tmp_path / "b" / "audit_doob.csv")


def test_missing_config_exits_2(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cli.main(["run", str(bad)]) == 2


def test_davenport_quadrature_run(tmp_path):
    raw = {
        "kind": "davenport",
        "parameters": {"lambda": 0.75, "freqs": "pow:2:8", "quadrature_check": True},
        "output": {"path": str(tmp_path)},
        "resolution": 16,
    }
    rc = cli.main(["run", str(write_config(tmp_path, raw))])
    assert rc == 0
    gram = body_of(tmp_path / "davenport_gram.csv")
    assert gram.splitlines()[0] == "i,j,freq_i,freq_j,entry"
    summary = body_of(tmp_path / "davenport_summary.csv")
    assert "quadrature_max_err" in summary
    err = float([l for l in summary.splitlines() if l.startswith("quadrature_max_err")][0].split(",")[1])
    assert err < 1e-6


def test_davenport_quadrature_error_past_1e_6_exits_1(tmp_path, monkeypatch):
    # an oracle off by 1e-3 fails the quadrature row; the summary keeps its lines
    monkeypatch.setattr(cli, "gram_quadrature", lambda freqs, lam, M, J: cli.gram_matrix(freqs, lam).entries + 1e-3)
    raw = {"kind": "davenport", "parameters": {"lambda": 0.75, "freqs": "pow:2:8", "quadrature_check": True},
           "resolution": 16}
    assert run_raw(tmp_path, raw) == 1
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["davenport_gram.csv", "davenport_summary.csv"]
    rows = dict(line.split(",") for line in body_of(out / "davenport_summary.csv").splitlines())
    assert list(rows) == ["lambda", "min_eig", "max_eig", "riesz_lower", "riesz_upper", "quadrature_max_err"]
    assert float(rows["quadrature_max_err"]) == pytest.approx(1e-3, rel=1e-3)


def test_davenport_quadrature_error_of_nan_raises(tmp_path):
    # zeta(2e300, q) reads NaN for q > 1: a NaN error is a broken check, not a failed audit
    raw = {"kind": "davenport", "parameters": {"lambda": 1e300, "quadrature_check": True}}
    assert run_raw(tmp_path, raw) == 1
    out = tmp_path / "out"
    assert "davenport-quadrature: a non-finite side, lhs=nan" in (out / "davenport_FAILED.txt").read_text()
    assert not any("nan" in body_of(path) for path in out.glob("*.csv"))


def test_a_smoothness_profile_overflowing_to_inf_raises(tmp_path):
    # |tau_t f - f|^p overflows at p = 1e300: the fit would read slope nan.
    # It is refused before the shift scan, with no numpy warning
    raw = {"kind": "davenport", "parameters": {"smoothness_p": 1e300}}
    assert run_raw(tmp_path, raw) == 1
    out = tmp_path / "out"
    assert "not finite on the fit window" in (out / "davenport_FAILED.txt").read_text()
    assert not any("nan" in body_of(path) for path in out.glob("*.csv"))


def test_a_smoothness_profile_underflowing_to_0_raises(tmp_path):
    # at lambda = 1.5, |tau_t f - f|^p underflows to 0 at p = 1e300: the
    # fit window would read 0 from n = 9 on; refused before the shift scan
    raw = {"kind": "davenport", "parameters": {"lambda": 1.5, "smoothness_p": 1e300}}
    assert run_raw(tmp_path, raw) == 1
    out = tmp_path / "out"
    assert "not finite on the fit window: n = 9 reads 0" in (out / "davenport_FAILED.txt").read_text()
    assert not any("nan" in body_of(path) for path in out.glob("*.csv"))


def test_riesz_coeff_and_sample_runs(tmp_path):
    raw = {
        "kind": "riesz",
        "parameters": {"action": "coeff", "lambdas": "pow:3:6", "cs": [0.6] * 7, "k": [1, 4]},
        "output": {"path": str(tmp_path)},
        "resolution": 14,
    }
    rc = cli.main(["run", str(write_config(tmp_path, raw))])
    assert rc == 0
    lines = body_of(tmp_path / "riesz_coeff.csv").splitlines()
    assert lines[0] == "k,re,im"
    assert float(lines[1].split(",")[1]) == pytest.approx(0.3)
    raw["parameters"] = {"action": "sample", "lambdas": "pow:3:5", "cs": [0.5] * 6, "count": 64}
    rc = cli.main(["run", str(write_config(tmp_path, raw))])
    assert rc == 0
    assert len(body_of(tmp_path / "riesz_sample.csv").splitlines()) == 65


def test_symbolic_run_and_failure_exit(tmp_path, capsys):
    raw = {
        "kind": "symbolic",
        "parameters": {"lambdas": "pow:3:5", "cs": [0.8] * 6, "depth": 6, "alpha": 1.0},
        "output": {"path": str(tmp_path / "ok"), "format": "json"},
    }
    rc = cli.main(["run", str(write_config(tmp_path, raw))])
    assert rc == 0
    reports = json.loads(body_of(tmp_path / "ok" / "symbolic_audit.json"))
    assert all(r["passed"] for r in reports)
    # a budget A at exactly A* passes; one below A* is a hypothesis the
    # potentials break, a config error (exit 2, nothing written) as a B
    # below the audit family is
    a_star = reports[0]["lhs"]
    for A, rc, out in [(a_star, 0, "exact"), (1e-9, 2, "fail")]:
        raw = {
            "kind": "symbolic",
            "parameters": {
                "lambdas": [3**k for k in range(6)],
                "cs": [0.8] * 6,
                "depth": 6,
                "alpha": 1.0,
                "A": A,
            },
            "output": {"path": str(tmp_path / out), "format": "json"},
            "seed": 0,
        }
        assert cli.main(["run", str(write_config(tmp_path, raw))]) == rc
        assert (tmp_path / out).exists() == (rc == 0)
    exact = json.loads(body_of(tmp_path / "exact" / "symbolic_audit.json"))
    assert exact[0]["lhs"] == exact[0]["rhs"] == a_star and all(r["passed"] for r in exact)
    err = capsys.readouterr().err
    assert f"symbolic A=1e-09 is below A* = {a_star:.6g} (potential-variation[alpha=1.0,witness=(2, 3)])" in err


@pytest.mark.parametrize("B, rc", [(1.0, 2), (8.0, 0)])
def test_symbolic_budget_below_the_audit_family_is_config_error(tmp_path, monkeypatch, capsys, B, rc):
    # the default family has var_2(f_1) = 1.49875 > B/(2-1)^1 at B = 1,
    # refused before the potentials are built
    if rc == 2:
        monkeypatch.setattr(cli, "riesz_potentials", lambda *args: pytest.fail("riesz_potentials was called"))
    raw = {"kind": "symbolic", "parameters": {"depth": 8, "B": B}}
    assert run_raw(tmp_path, raw) == rc
    assert (tmp_path / "out").exists() == (rc == 0)
    if rc == 2:
        assert "var_2(f_1) = 1.49875 > B/(m-n)^alpha = 1" in capsys.readouterr().err


def test_symbolic_potentials_touching_zero_are_config_error(tmp_path, capsys):
    # |c_0| = 1: the factor 1 + cos(2 pi x) reaches 0, so log g_n is undefined
    raw = {"kind": "symbolic", "parameters": {"lambdas": [1], "cs": [1.0]}}
    assert run_raw(tmp_path, raw) == 2
    assert not (tmp_path / "out").exists()
    assert "potentials touch zero" in capsys.readouterr().err


@pytest.mark.parametrize("lambdas, builds", [("pow:3:3", 1), ("pow:3:5", 2)])
def test_symbolic_cross_check_reuses_the_potentials_of_its_spec(tmp_path, monkeypatch, lambdas, builds):
    # at depth 8 the cross-check keeps depth - 4 = 4 levels: all of pow:3:3,
    # whose potentials and weights it then reads from the audit
    calls = []
    potentials = cli.riesz_potentials
    monkeypatch.setattr(cli, "riesz_potentials", lambda *args: calls.append(args) or potentials(*args))
    assert run_raw(tmp_path, {"kind": "symbolic", "parameters": {"lambdas": lambdas, "depth": 8}}) == 0
    assert len(calls) == builds


def test_dilated_and_ergodic_kinds(tmp_path):
    raw = {
        "kind": "dilated",
        "parameters": {"generator": "sin", "coeffs": "geom:0.5", "freqs": "pow:2:63", "K": 64,
                        "checkpoints": [4, 8, 16, 32], "sample_size": 100},
        "output": {"path": str(tmp_path), "format": "csv"},
        "seed": 3,
    }
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == 0
    osc = body_of(tmp_path / "dilated_oscillation.csv")
    assert osc.splitlines()[0] == "checkpoint,median_osc,q90_osc"
    assert "verdict=converging" in osc
    raw2 = {
        "kind": "ergodic",
        "parameters": {"f": "sin", "coeffs": "geom:0.5", "K": 64, "checkpoints": [4, 8, 16], "sample_size": 100},
        "output": {"path": str(tmp_path), "format": "csv"},
        "seed": 3,
    }
    assert cli.main(["run", str(write_config(tmp_path, raw2))]) == 0
    assert (tmp_path / "ergodic_decay.csv").exists()


@pytest.mark.parametrize("generator, coeffs", [
    ("sin", "geom:0.5"),  # the dyadic path
    ("davenport:0.75:16", "invsqrt"),  # the general path
    ({"1": [1.0, 0.5], "3": 0.25}, [1.0 / k for k in range(1, 41)]),  # complex partial sums
])
def test_an_ergodic_run_is_the_dilated_run_on_the_doubling_ladder(tmp_path, generator, coeffs):
    # f(T^k x) = f(2^k x): with the default freqs 2^0, ..., 2^(K-1) the two
    # kinds run one series, so their oscillation rows agree to the byte
    params = {"K": 40, "coeffs": coeffs, "checkpoints": [4, 8, 16], "sample_size": 100}
    rows = {}
    for kind, key in [("dilated", "generator"), ("ergodic", "f")]:
        out = tmp_path / kind
        raw = {"kind": kind, "parameters": dict(params, **{key: generator}), "seed": 5, "output": {"path": str(out)}}
        assert run_raw(tmp_path, raw) == 0
        rows[kind] = body_of(out / f"{kind}_oscillation.csv").splitlines()[:-1]  # the trailers differ
    assert len(rows["dilated"]) == 4 and rows["ergodic"] == rows["dilated"]


def test_an_ergodic_gaposhkin_run_reuses_the_example_integers(tmp_path, monkeypatch):
    # its ladder 2^0, ..., 2^(K-1) is 1, then the example's own 2^1, ..., 2^(K-1):
    # no second ladder of K exact integers is built
    seen, run = [], cli.ergodic_series_run
    monkeypatch.setattr(cli, "ergodic_series_run", lambda spec, *args: seen.append(spec) or run(spec, *args))
    assert run_raw(tmp_path, {"kind": "ergodic", "parameters": {"gaposhkin_m": 1, "K": 64, "sample_size": 100}}) == 0
    (spec,) = seen
    modes = {m: m for m in spec.generator.coeffs}
    assert spec.freqs == tuple(1 << k for k in range(64))
    assert all(n is modes[n] for n in spec.freqs[1:])


def run_raw(tmp_path, raw) -> int:
    raw.setdefault("output", {"path": str(tmp_path / "out")})
    return cli.main(["run", str(write_config(tmp_path, raw))])


@pytest.mark.parametrize("J, rc", [(5, 2), (6, 2), (7, 0)])
def test_audit_contraction_resolution_is_config_error(tmp_path, J, rc):
    # the random generators reach frequency 63: alias-free from J = 7
    raw = {"kind": "audit", "parameters": {"suite": "contraction", "cases": 3}, "resolution": J}
    assert run_raw(tmp_path, raw) == rc
    assert not (tmp_path / "out" / "audit_FAILED.txt").exists()


@pytest.mark.parametrize("cases", [-1, "x", 2.5, True])
def test_audit_bad_cases_is_config_error(tmp_path, cases):
    raw = {"kind": "audit", "parameters": {"suite": "rio", "cases": cases}, "resolution": 6}
    assert run_raw(tmp_path, raw) == 2
    assert not (tmp_path / "out" / "audit_FAILED.txt").exists()


def test_dilated_default_checkpoints_follow_the_spec_length(tmp_path):
    raw = {"kind": "dilated", "parameters": {"K": 64, "sample_size": 100}, "seed": 1}
    assert run_raw(tmp_path, raw) == 0
    rows = body_of(tmp_path / "out" / "dilated_oscillation.csv").splitlines()
    assert [r.split(",")[0] for r in rows[1:4]] == ["16", "32", "64"]


@pytest.mark.parametrize("params", [
    {"K": 64, "checkpoints": [16, 128]},
    {"K": 8},
    {"K": 64, "checkpoints": [0, 16]},
    {"K": 64, "checkpoints": "16"},
])
def test_dilated_checkpoints_past_the_spec_are_config_error(tmp_path, params):
    raw = {"kind": "dilated", "parameters": dict(params, sample_size=100)}
    assert run_raw(tmp_path, raw) == 2
    assert not (tmp_path / "out" / "dilated_FAILED.txt").exists()


def test_riesz_sample_aliasing_is_config_error(tmp_path):
    # sum of 3^n, n <= 5, is 364 >= 2^(J-1) = 256 at J = 9
    params = {"action": "sample", "lambdas": [3**n for n in range(6)], "cs": [0.5] * 6, "count": 10}
    raw = {"kind": "riesz", "parameters": params, "resolution": 9}
    assert run_raw(tmp_path, raw) == 2
    assert not (tmp_path / "out" / "riesz_FAILED.txt").exists()
    raw = {"kind": "riesz", "parameters": params, "resolution": 10}
    assert run_raw(tmp_path, raw) == 0


@pytest.mark.parametrize("kind, params", [
    ("dilated", {"K": 64, "sample_size": 50}),
    ("dilated", {"K": 64, "sample_size": "x"}),
    ("ergodic", {"K": 64, "sample_size": 99}),
    ("ergodic", {"K": 8}),
    ("riesz", {"action": "series", "lambdas": [1, 3, 9, 27, 81], "cs": [0.5] * 5, "N": 3, "checkpoints": [1, 8]}),
    ("riesz", {"action": "series", "lambdas": [1, 3, 9], "cs": [0.5] * 3}),
    ("riesz", {"action": "coeff", "lambdas": [1, 3, 9], "cs": [0.5] * 3, "N": 3}),
    # a tail object (no longer a key: no report reads it), a repeated
    # checkpoint, an empty checkpoint list and a checkpoint past K
    ("ergodic", {"K": 64, "tail": {"kind": "power", "exponent": 2.0}}),
    ("ergodic", {"K": 64, "checkpoints": [16, 16]}),
    ("ergodic", {"K": 64, "checkpoints": [32, 16, 32]}),
    ("ergodic", {"K": 64, "checkpoints": []}),
    ("ergodic", {"K": 64, "checkpoints": [16, 65]}),
    # coefficient rules: a ratio missing or unreadable, an unknown rule,
    # a stray argument, a list too short or holding a non-number
    ("dilated", {"K": 64, "coeffs": "geom"}),
    ("dilated", {"K": 64, "coeffs": "geom:x"}),
    ("dilated", {"K": 64, "coeffs": "invpow"}),
    ("dilated", {"K": 64, "coeffs": "invsqrt:2"}),
    ("dilated", {"K": 64, "coeffs": "harmonic"}),
    ("dilated", {"K": 64, "coeffs": 0.5}),
    ("dilated", {"K": 64, "coeffs": [1.0] * 63}),
    ("ergodic", {"K": 64, "coeffs": "geom"}),
    ("ergodic", {"K": 64, "coeffs": "invpow:nan"}),
    ("ergodic", {"coeffs": [1.0, "a"] * 32}),
    ("riesz", {"action": "series", "lambdas": [1, 3, 9, 27], "cs": [0.5] * 4, "coeffs": "geom"}),
    ("riesz", {"action": "series", "lambdas": [1, 3, 9, 27], "cs": [0.5] * 4, "coeffs": [0.5, 0.25]}),
    # generators, frequency rules, sizes and Riesz products
    ("dilated", {"generator": "davenport:0.75"}),
    ("dilated", {"freqs": "pow:2"}),
    ("dilated", {"K": "x"}),
    ("davenport", {"freqs": "pow:2"}),
    ("davenport", {"lambda": 0.5}),
    ("riesz", {"lambdas": [1, 2, 4], "cs": [0.5] * 3}),
    ("riesz", {"lambdas": [1, 3, 9], "cs": [0.5] * 2}),
    ("riesz", {"action": "coeff", "lambdas": [1, 3, 9], "cs": [0.5] * 3, "k": ["x"]}),
    ("riesz", {"action": "sample", "lambdas": [1, 3, 9], "cs": [0.5] * 3, "count": -1}),
    ("dilated", {"K": 16, "freqs": [1, 4, 2] + list(range(5, 18))}),
    ("dilated", {"generator": {"0": 1.0, "1": 0.5}}),
    ("davenport", {"lambda": "0.75"}),
    ("davenport", {"freqs": [1, 2, 2]}),
    ("riesz", {"cs": [0.5] * 3}),
    ("riesz", {"lambdas": [1, 3, 9], "cs": [0.5, "x", 0.5]}),
    ("riesz", {"lambdas": [1, 3, 9], "cs": [0.5] * 3, "N": "x"}),
    # unknown keys (misspelt or from another kind) and malformed values
    # the kinds used to ignore or fail on
    ("audit", {"suite": "rio", "case": 2, "pp": [3]}),
    ("davenport", {"lamda": 0.75}),
    ("davenport", {"quadrature_check": "no"}),
    ("ergodic", {"K": 64, "sample_sise": 100}),
    ("dilated", {"spec": {"coeffs": [[1.0, 0.0]], "freqs": ["1"], "generator": {"1": [0.0, -0.5], "-1": [0.0, 0.5]}}}),
    ("davenport", {"smoothness_p": "x"}),
    ("davenport", {"sample_size": 100}),
    # symbolic: too few levels for the default lambdas, lambda_0 != 1, a
    # ratio below 3, non-numbers and a non-integer depth
    ("symbolic", {"depth": 6}),
    ("symbolic", {"lambdas": [3**k for k in range(7)], "depth": 5}),
    ("symbolic", {"lambdas": [3, 9, 27], "depth": 4}),
    ("symbolic", {"lambdas": [1, 2, 4]}),
    ("symbolic", {"depth": "x"}),
    ("symbolic", {"alpha": "x"}),
    ("symbolic", {"depth": 4.5}),
    ("symbolic", {"A": "x"}),
    ("symbolic", {"cs": [0.5, "x"] * 4}),
    ("riesz", {"lambdas": "pow:3", "cs": [0.5] * 3}),
    # "J" is no riesz key (the sample grid is 2^resolution); grids past
    # 2^24 points, and a smoothness fit on an aliased render
    ("riesz", {"action": "sample", "lambdas": "pow:3:5", "cs": [0.5] * 6, "J": 40}),
    ("davenport", {"freqs": "pow:2:30", "quadrature_check": True}),
    ("davenport", {"freqs": "pow:2:4", "smoothness_p": 2, "M": 20000}),
    # a digit box past 2^24 cells (3^16) and a Gram matrix past 2^24
    # entries (4097 frequencies)
    ("symbolic", {"depth": 16}),
    ("davenport", {"freqs": "pow:2:4096"}),
    # "pow:q:K" rules past K = 4096 or 2^16 bits, refused before any power is built
    ("davenport", {"freqs": "pow:2:40000"}),
    ("dilated", {"freqs": "pow:2:40000"}),
    ("symbolic", {"lambdas": "pow:3:30000"}),
    # a series generator whose alias-free hypothesis grid passes 2^16 points
    ("riesz", {"action": "series", "lambdas": [1, 3, 9, 27], "cs": [0.5] * 4, "fn": {"32768": 1.0}}),
    # a repeated checkpoint is one window twice, not a second trend point
    ("dilated", {"K": 64, "checkpoints": [16, 16]}),
    ("riesz", {"action": "series", "lambdas": "pow:3:4", "cs": [0.5] * 5, "checkpoints": [2, 2]}),
    # a generator with non-zero mean, and an explicit K past the frequencies
    ("ergodic", {"f": {"0": 1.0, "1": 0.5, "-1": 0.5}, "K": 64}),
    ("dilated", {"K": 100, "freqs": "pow:3:20"}),
    # series keys beside gaposhkin_m, which fixes its own series: malformed
    # values, and well-formed ones that could not apply either
    ("ergodic", {"gaposhkin_m": 1, "K": 64, "f": {"0": 1.0, "1": 0.5, "-1": 0.5}, "coeffs": [1.0]}),
    ("dilated", {"gaposhkin_m": 1, "K": 64, "generator": {"0": 1.0, "1": 0.5}, "freqs": [5, 3], "coeffs": [1.0]}),
    ("ergodic", {"gaposhkin_m": 1, "f": "sin"}),
    ("dilated", {"gaposhkin_m": 1, "coeffs": "geom:0.5"}),
    # a general-path generator mode past 2^20 loses phase precision
    ("dilated", {"K": 16, "generator": {"3000000": [0.0, -0.5], "-3000000": [0.0, 0.5]}, "sample_size": 100}),
    ("ergodic", {"K": 16, "f": {"3000000": [0.0, -0.5], "-3000000": [0.0, 0.5]}, "sample_size": 100}),
    # coefficient rules that overflow to inf within the series
    ("dilated", {"K": 64, "coeffs": "geom:1e10"}),
    ("ergodic", {"K": 64, "coeffs": "invpow:-400"}),
    ("riesz", {"action": "series", "lambdas": [1, 3, 9, 27], "cs": [0.5] * 4, "coeffs": "geom:1e300"}),
    # symbolic below depth 5: the cylinder cross-check lacks its 4 levels of padding
    ("symbolic", {"lambdas": [1, 3], "cs": [0.5, 0.95], "depth": 4}),
    ("symbolic", {"lambdas": [1, 5], "cs": [0.5, 0.5], "depth": 2}),
    ("symbolic", {"lambdas": [1], "cs": [0.5], "depth": 1}),
    # finite coefficients whose partial sums overflow: 4 sum|a_k| sum|c_m| is inf
    ("dilated", {"K": 64, "coeffs": [1e308] * 64}),
    ("ergodic", {"K": 64, "coeffs": [1e308] * 64}),
    ("riesz", {"action": "series", "lambdas": [1, 3, 9, 27], "cs": [0.5] * 4, "coeffs": [1e308] * 4}),
    # an alpha whose bound B/(m-n)^alpha overflows, or divides by an underflowed 0
    ("symbolic", {"alpha": 1e308}),
    ("symbolic", {"alpha": -1e308}),
    ("symbolic", {"alpha": -400}),
    # the sharpness example needs two terms
    ("dilated", {"gaposhkin_m": 1, "K": 1}),
    ("ergodic", {"gaposhkin_m": 0, "K": 1}),
])
def test_series_kind_parameters_are_config_errors(tmp_path, kind, params):
    assert run_raw(tmp_path, {"kind": kind, "parameters": params}) == 2
    assert not (tmp_path / "out").exists()  # no report and no failure marker


@pytest.mark.parametrize("kind, params", [
    ("ergodic", {"coeffs": [0.5**k for k in range(1, 65)]}),
    ("ergodic", {"K": 64, "coeffs": "invpow:1.5"}),
    ("dilated", {"K": 64, "coeffs": [1.0 / k for k in range(1, 100)]}),
    ("riesz", {"action": "series", "lambdas": [1, 3, 9, 27], "cs": [0.5] * 4, "coeffs": [0.5, 0.25, 0.125, 0.0625]}),
    ("dilated", {"K": 64, "generator": "davenport:0.75:16"}),
    ("dilated", {"K": 16, "freqs": list(range(3, 19)), "generator": {"1": [0.0, -0.5], "-1": [0.0, 0.5]}}),
    ("davenport", {"lambda": 1, "freqs": [3, 1, 2]}),
    ("riesz", {"action": "sample", "lambdas": [1, 3, 9], "cs": [0.5] * 3, "count": 0}),
    ("riesz", {"action": "coeff", "lambdas": "pow:3:2", "cs": [0.5] * 3, "k": 4}),
    ("symbolic", {"lambdas": "pow:3:3", "cs": [0.5, [0.0, 0.5], 0.5, 0.5], "depth": 5}),
    # the largest M that renders alias-free at J = 14
    ("davenport", {"freqs": "pow:2:4", "smoothness_p": 2, "M": 2**13 - 1}),
])
def test_series_kind_well_formed_parameters_run(tmp_path, kind, params):
    if "sample_size" in cli.SCHEMAS[kind]:
        params = dict(params, sample_size=100)
    assert run_raw(tmp_path, {"kind": kind, "parameters": params}) == 0


@pytest.mark.parametrize("kind, params, first_work, resolution", [
    pytest.param("symbolic", {"depth": 15}, "riesz_potentials", 12, id="symbolic-params0-riesz_potentials"),
    pytest.param("davenport", {"freqs": list(range(1, 4097))}, "gram_matrix", 12, id="davenport-params1-gram_matrix"),
    # 3^0..3^13 sum to (3^14 - 1) / 2 < 2^22: a series sampled on 2^24 points
    pytest.param("riesz", {"action": "series", "lambdas": "pow:3:13", "cs": [0.5] * 14}, "riesz_series_run", 12,
                 id="riesz-params2-riesz_series_run"),
    # the largest accepted config at each boundary of the size rule:
    # 4096 test functions of 2^12 points
    pytest.param("audit", {"suite": "rio", "cases": 4096}, "mg.rio_audit_batch", 12, id="audit-rio-batch"),
    # a shift-scan block of 256 x 2^16
    pytest.param("audit", {"suite": "dyadic_approx"}, "mg.random_grid_functions", 16, id="audit-dyadic-scan"),
    pytest.param("davenport", {"freqs": "pow:2:4", "smoothness_p": 1.5}, "gram_matrix", 16, id="davenport-scan"),
    # a 3^15-cell digit box whose cylinder cross-check folds 3^11 - 1 frequencies
    pytest.param("symbolic", {"lambdas": "pow:3:10", "cs": [0.5] * 11, "depth": 15}, "riesz_potentials", 12,
                 id="symbolic-cross-check-frequencies"),
    # 3355443 samples by 5 terms
    pytest.param("riesz", {"action": "series", "lambdas": "pow:3:4", "cs": [0.5] * 5, "sample_size": 3355443},
                 "riesz_series_run", 12, id="riesz-term-matrix"),
    # 2^16 samples by an FFT of 256
    pytest.param("dilated", {"K": 64, "sample_size": 2**16}, "oscillation_diagnostic", 12, id="dilated-fft-block"),
    # 200 samples by 2 x 41943 general-path modes
    pytest.param("dilated", {"generator": "davenport:0.75:41943"}, "oscillation_diagnostic", 12,
                 id="dilated-outer-product"),
    # 200 samples by an FFT of 2^16, and the 64-bit words of 2^0..2^46307
    pytest.param("ergodic", {"K": 46308}, "ergodic_series_run", 12, id="ergodic-ladder"),
])
def test_largest_sizes_pass_the_caps(tmp_path, monkeypatch, kind, params, first_work, resolution):
    # a full run at these sizes takes minutes: stop at the first piece of work
    def stop(*args, **kwargs):
        raise RuntimeError("reached the work")

    monkeypatch.setattr(f"mgale.cli.{first_work}", stop)
    assert run_raw(tmp_path, {"kind": kind, "parameters": params, "resolution": resolution}) == 1
    assert "reached the work" in (tmp_path / "out" / f"{kind}_FAILED.txt").read_text()


@pytest.mark.parametrize("K", [14, 30])
def test_riesz_series_grid_past_2_24_is_config_error(tmp_path, monkeypatch, K):
    # the sampling grid is 2^J, J = ceil(log2((3^(K+1) - 1) / 2)) + 2: 2^25
    # points for K = 14, 2^49 (16 PiB of float64) for K = 30
    monkeypatch.setattr(cli, "riesz_series_run", lambda *args: pytest.fail("riesz_series_run was called"))
    params = {"action": "series", "lambdas": f"pow:3:{K}", "cs": [0.5] * (K + 1)}
    assert run_raw(tmp_path, {"kind": "riesz", "parameters": params}) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("M, accepted", [
    (83886, True), (83887, False), (2**20, False), (2**20 + 1, False), (10**12, False),
])
def test_davenport_generator_past_the_size_limit_is_config_error(monkeypatch, M, accepted):
    # a series on M >= 3 modes takes the general path, whose outer product of
    # at least 100 samples by 2M modes passes 2^24 cells for M > 83886: refuse
    # such a generator before its M modes are built
    built = []
    monkeypatch.setattr(cli, "davenport_fourier", lambda lam, m: built.append(m) or cli.sine_series({1: 1.0}))
    raw = {"kind": "dilated", "parameters": {"generator": f"davenport:0.75:{M}"}}
    if accepted:
        cli.validate_config(raw)
    else:
        with pytest.raises(cli.ConfigError, match="2\\^24"):
            cli.validate_config(raw)
    assert built == ([M] if accepted else [])


@pytest.mark.parametrize("kind, params, first_work, resolution", [
    # 100 test functions of 2^24 points
    ("audit", {"suite": "rio"}, "mg.rio_audit_batch", 24),
    # a shift-scan block of 256 x 2^17, and of 256 x 2^24
    ("audit", {"suite": "dyadic_approx", "cases": 1}, "mg.random_grid_functions", 17),
    ("audit", {"suite": "dyadic_approx"}, "mg.random_grid_functions", 24),
    ("davenport", {"freqs": "pow:2:4", "smoothness_p": 1.5}, "gram_matrix", 24),
    # a 3^16-cell digit box under the ladder that admits 3^10 - 1 cross-check frequencies at depth 15
    ("symbolic", {"lambdas": "pow:3:9", "cs": [0.5] * 10, "depth": 16}, "riesz_potentials", 12),
    # a term matrix of 2^23 samples by 5 terms
    ("riesz", {"action": "series", "lambdas": "pow:3:4", "cs": [0.5] * 5, "sample_size": 2**23},
     "riesz_series_run", 12),
    # a dyadic-path FFT block of 2^20 x 256
    ("dilated", {"K": 64, "sample_size": 2**20}, "oscillation_diagnostic", 12),
    # a general-path outer product of 200 x 131072
    ("dilated", {"generator": "davenport:0.75:65536"}, "oscillation_diagnostic", 12),
    # an FFT block of 200 x 2^17; at K = 10^6 the ladder 2^k alone is 62 GB
    ("ergodic", {"K": 65536}, "ergodic_series_run", 12),
    ("ergodic", {"K": 10**6}, "ergodic_series_run", 12),
    # one window, but the whole ladder 2^0..2^(2^20 - 1): 2^39 words
    ("ergodic", {"K": 2**20, "checkpoints": [16]}, "ergodic_series_run", 12),
    ("ergodic", {"gaposhkin_m": 1, "K": 10**6}, "gaposhkin_example", 12),
])
def test_runs_past_the_size_limit_are_config_errors(tmp_path, monkeypatch, kind, params, first_work, resolution):
    # each config would build an array past 2^24 cells: refused before any work
    monkeypatch.setattr(f"mgale.cli.{first_work}", lambda *args: pytest.fail(f"{first_work} was called"))
    assert run_raw(tmp_path, {"kind": kind, "parameters": params, "resolution": resolution}) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count, accepted", [(2**24, True), (2**24 + 1, False)])
def test_riesz_sample_count_past_2_24_is_config_error(count, accepted):
    raw = {"kind": "riesz", "parameters": {"action": "sample", "lambdas": "pow:3:3", "cs": [0.5] * 4, "count": count}}
    if accepted:
        assert cli.validate_config(raw).parameters["count"] == count
    else:
        with pytest.raises(cli.ConfigError, match="count"):
            cli.validate_config(raw)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("suite", ["rio", "doob", "dyadic_approx", "contraction"])
def test_an_audit_norm_overflowing_to_inf_fails_the_run(tmp_path, suite):
    # ||.||_1000 overflows: a row of inf <= inf is no passed audit
    raw = {"kind": "audit", "parameters": {"suite": suite, "p": [1000], "cases": 4}, "resolution": 8}
    assert run_raw(tmp_path, raw) == 1
    assert "non-finite side" in (tmp_path / "out" / "audit_FAILED.txt").read_text()


def test_huge_coefficients_with_finite_sums_still_run(tmp_path):
    # 4 x 64 x 1e200 is finite: the run goes ahead, its medians 1e200 x those of a_k = 1
    def medians(a):
        out = tmp_path / str(a)
        raw = {"kind": "dilated", "parameters": {"K": 64, "coeffs": [a] * 64}, "output": {"path": str(out)}}
        assert cli.main(["run", str(write_config(tmp_path, raw))]) == 0
        rows = body_of(out / "dilated_oscillation.csv").splitlines()[1:-1]
        return np.array([float(r.split(",")[1]) for r in rows])

    huge = medians(1e200)
    assert np.all(np.isfinite(huge))
    np.testing.assert_allclose(huge, 1e200 * medians(1.0), rtol=1e-12)


@pytest.mark.parametrize("kind, params", [
    ("dilated", {"K": 64}),
    ("ergodic", {"K": 64}),
    ("riesz", {"action": "series", "lambdas": "pow:3:4", "cs": [0.5] * 5, "checkpoints": [1, 2]}),
])
def test_window_scales_of_huge_coefficients_stay_finite(tmp_path, monkeypatch, kind, params):
    # 1e200 squares to inf: the window l2 scales are 1e200 x those of a_k = 1,
    # so rho = median / scale stays readable and "outruns l2" can fire
    seen = []

    def spy(checkpoints, medians, scales):
        seen.append(np.array(scales))
        return verdict(checkpoints, medians, scales)

    verdict = dl.oscillation_verdict
    monkeypatch.setattr(dl, "oscillation_verdict", spy)
    for a in (1e200, 1.0):
        raw = {"kind": kind, "parameters": dict(params, coeffs=[a] * 64, sample_size=100)}
        assert run_raw(tmp_path, raw) == 0
    huge, ones = seen
    assert np.all(np.isfinite(huge))
    np.testing.assert_allclose(huge, 1e200 * ones, rtol=1e-12)


@pytest.mark.parametrize("kind, params, report", [
    ("dilated", {"K": 64, "checkpoints": [16]}, "dilated_oscillation.csv"),
    ("ergodic", {"K": 64, "checkpoints": [16]}, "ergodic_oscillation.csv"),
    ("riesz", {"action": "series", "lambdas": "pow:3:4", "cs": [0.5] * 5, "checkpoints": [2]}, "riesz_series.csv"),
])
def test_a_single_checkpoint_gives_an_inconclusive_verdict(tmp_path, kind, params, report):
    # one window shows no trend: the geometric default a_k = 2^-k is not "diverging"
    params = dict(params, sample_size=100)
    assert run_raw(tmp_path, {"kind": kind, "parameters": params}) == 0
    assert body_of(tmp_path / "out" / report).splitlines()[-1].startswith("# verdict=inconclusive")


def test_ergodic_decay_of_a_mode_past_2_40_is_exact(tmp_path):
    # sin(2 pi 2^50 x): L^n f keeps its norm for n <= 40 = the L-steps run
    f = {"1125899906842624": [0.0, -0.5], "-1125899906842624": [0.0, 0.5]}
    assert run_raw(tmp_path, {"kind": "ergodic", "parameters": {"f": f, "K": 64}}) == 0
    rows = [r.split(",") for r in body_of(tmp_path / "out" / "ergodic_decay.csv").splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(41))
    fourier = cli._generator(f)
    assert [float(r[1]) for r in rows] == [l2_norm_exact(transfer_power(fourier, n)) for n in range(41)]


def audit_row(passed: bool):
    return AuditReport(1.0, 2.0 if passed else 0.5, 1.0, passed, "fake")


def test_reports_yielded_before_a_raise_stay_beside_the_marker(tmp_path, monkeypatch):
    def handler(config):
        yield "dilated_first.csv", "a,b\n1,2\n", (audit_row(True),)
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "dilated", handler)
    assert run_raw(tmp_path, {"kind": "dilated", "parameters": {}}) == 1
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["dilated_FAILED.txt", "dilated_first.csv"]
    assert body_of(out / "dilated_first.csv") == "a,b\n1,2"
    assert "error: boom" in (out / "dilated_FAILED.txt").read_text()


def test_a_failing_report_sets_exit_1_and_later_reports_are_written(tmp_path, monkeypatch):
    # one failing row among passing ones fails the run
    def handler(config):
        yield "dilated_failing.csv", "x\n", (audit_row(True), audit_row(False))
        yield "dilated_passing.csv", "y\n", (audit_row(True),)

    monkeypatch.setitem(cli._HANDLERS, "dilated", handler)
    assert run_raw(tmp_path, {"kind": "dilated", "parameters": {}}) == 1
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["dilated_failing.csv", "dilated_passing.csv"]
    assert (body_of(out / "dilated_failing.csv"), body_of(out / "dilated_passing.csv")) == ("x", "y")


def test_reports_without_audit_rows_exit_0(tmp_path, monkeypatch):
    def handler(config):
        yield "dilated_first.csv", "x\n", ()
        yield "dilated_second.csv", "y\n", ()

    monkeypatch.setitem(cli._HANDLERS, "dilated", handler)
    assert run_raw(tmp_path, {"kind": "dilated", "parameters": {}}) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["dilated_first.csv", "dilated_second.csv"]


def test_failure_marker_records_type_and_traceback(tmp_path, monkeypatch):
    def broken_handler(config):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "dilated", broken_handler)
    assert run_raw(tmp_path, {"kind": "dilated", "parameters": {}}) == 1
    lines = (tmp_path / "out" / "dilated_FAILED.txt").read_text().splitlines()
    assert lines[0].startswith("# mgale-report kind=dilated")
    assert lines[1:4] == ["error: boom", "type: RuntimeError", "Traceback (most recent call last):"]
    assert any("in broken_handler" in line for line in lines)
    assert lines[-1] == "RuntimeError: boom"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_json_configs_validate():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 4
    for block in blocks:
        cli.validate_config(json.loads(block))


def test_readme_module_names_resolve():
    # every backticked `mgale.<module>` or `mgale.<module>.<name>` names a live object
    names = re.findall(r"`mgale\.(\w+)(?:\.(\w+))?`", README.read_text())
    assert names
    for module, name in names:
        mod = importlib.import_module(f"mgale.{module}")
        if name:
            getattr(mod, name)


def _readme_key_tables() -> dict:
    """{table name: {key: default cell}} of the README's key tables."""
    tables, name = {}, None
    for line in README.read_text().splitlines():
        heading = re.match(r"#### `(\w+)` keys$", line)
        if heading:
            name = heading.group(1)
            tables[name] = {}
        row = re.match(r"\| `(\w+)` \| ([^|]+) \|", line)
        if name and row:
            tables[name][row.group(1)] = row.group(2).strip()
    return tables


def test_readme_key_tables_follow_the_schemas():
    tables = _readme_key_tables()
    schemas = dict(cli.SCHEMAS, config=cli._CONFIG, output=cli._OUTPUT)
    assert set(tables) == set(schemas)
    for name, schema in schemas.items():
        assert set(tables[name]) == set(schema), name
        for key, (_, default) in schema.items():
            cell = tables[name][key]
            if default is cli._REQUIRED:
                assert cell == "required", (name, key)
            elif default is not None:
                assert cell == f"`{json.dumps(default)}`", (name, key)
