"""Tests for the benchmark itself:  python3 -m pytest perfbench/tests"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, layer_stats  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_on_synthetic_nested_spans():
    ms = 1_000_000
    spans = [
        Span("cli.run", "cli", 0, 100 * ms, -1),
        Span("martingale.rio_audit_batch", "martingale", 10 * ms, 60 * ms, 0),
        Span("torus.GridFunction", "torus", 20 * ms, 30 * ms, 1),
        Span("martingale.rio_audit", "martingale", 35 * ms, 55 * ms, 1),  # nested, same layer
        Span("torus.lp_norm", "torus", 40 * ms, 45 * ms, 3, error=True),
        Span("modulus.shift_norm_curve", "modulus", 70 * ms, 90 * ms, 0, error=True),
    ]
    st = layer_stats(spans)
    assert st["cli"] == {"calls": 1, "busy_s": 0.1, "self_s": pytest.approx(0.03), "errors": 0}
    # the nested rio_audit is neither a call nor extra busy time
    assert st["martingale"]["calls"] == 1
    assert st["martingale"]["busy_s"] == pytest.approx(0.05)
    # busy 50 ms minus the two torus spans inside it (10 + 5 ms)
    assert st["martingale"]["self_s"] == pytest.approx(0.035)
    assert st["torus"] == {"calls": 2, "busy_s": pytest.approx(0.015), "self_s": pytest.approx(0.015), "errors": 1}
    assert st["modulus"]["errors"] == 1
    total_self = sum(s["self_s"] for s in st.values())
    assert total_self == pytest.approx(0.1)
    assert st["riesz"] == {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0}


def test_traced_cli_run_reaches_names_cli_imported(tmp_path):
    from mgale import cli, transfer

    original = cli.ergodic_series_run
    raw = {
        "kind": "ergodic",
        "parameters": {"f": "sin", "K": 64, "checkpoints": [16, 32]},
        "output": {"path": str(tmp_path)},
        "seed": 3,
    }
    tr = Tracer()
    with tr:
        assert cli.ergodic_series_run is not original
        assert cli.run(cli.validate_config(raw)) == 0
    assert cli.ergodic_series_run is original and transfer.ergodic_series_run is original
    names = [s.name for s in tr.spans]
    assert "cli.run" in names
    # cli called it through ``from .transfer import ergodic_series_run``
    ergodic = names.index("transfer.ergodic_series_run")
    assert tr.spans[tr.spans[ergodic].parent].name == "cli.run"
    layers = {s.layer for s in tr.spans}
    assert {"cli", "transfer", "dilated", "torus"} <= layers
    assert tr.work["transfer.steps"] > 0 and tr.work["dilated.term_evals"] == 200 * 64
    stats = layer_stats(tr.spans)
    assert stats["martingale"]["calls"] == 0 and stats["cli"]["calls"] == 2


def test_workload_generation_is_deterministic():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert a == b
        assert [e.name for e in a] == [e.name for e in workloads.build(name, 8)]
        assert [e.raw for e in a] != [e.raw for e in workloads.build(name, 8)]
        assert len({e.name for e in a}) == len(a)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name
    assert set(tracer_mod.WORK) <= set(per_layer)


def test_body_comparison_tolerates_reordering_only():
    ref = check.round_numbers("lhs,rhs\n0.12345678901234567,2.5,1,rio[p=1.5]\n3e-17,-0.0\n")
    assert check.compare_body("lhs,rhs\n0.12345678901234571,2.5,1,rio[p=1.5]\n1e-16,0.0\n", ref) is None
    assert check.compare_body("lhs,rhs\n0.1234568,2.5,1,rio[p=1.5]\n3e-17,-0.0\n", ref)
    assert check.compare_body("lhs,rhs\n0.12345678901234567,2.5,0,rio[p=1.5]\n3e-17,-0.0\n", ref)
    assert check.compare_body("lhs,rhs\n0.12345678901234567,2.5,1,rio[p=2]\n3e-17,-0.0\n", ref)


def test_gram_oracle_accepts_mgale_and_rejects_a_changed_entry():
    from mgale.davenport import gram_matrix

    freqs = [3, 4, 6, 9, 10]
    body = gram_matrix(freqs, 0.75).to_csv()
    assert check.gram_problems(body, freqs, 0.75) == []
    lines = body.splitlines()
    i, j, fi, fj, entry = lines[7].split(",")
    lines[7] = ",".join([i, j, fi, fj, repr(float(entry) * (1 + 1e-7))])
    assert check.gram_problems("\n".join(lines) + "\n", freqs, 0.75)


def test_audit_rows_must_pass():
    head = "lhs,rhs,constant,margin,passed,context\n"
    assert check.audit_row_failures(head + "1.0,2.0,1.0,1.0,1,rio[p=3,case=0]\n") == []
    assert check.audit_row_failures(head + "3.0,2.0,1.0,-1.0,0,rio[p=3,case=0]\n")
