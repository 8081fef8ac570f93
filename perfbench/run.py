"""mgale benchmark: seeded experiment configs through ``mgale.cli``.

    python3 perfbench/run.py --workload grid-audits --seed 1 --seconds 30 --trace 0

Runs the workload's experiments (see ``workloads.py``) in this process
through ``cli.validate_config`` + ``cli.run``, one after another (a
closed loop with one client), in passes until ``--seconds`` have gone
by, and checks every report (see ``check.py``).  BLAS threads are
capped at the CPUs this process may use.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
several set-ups in fresh processes), ``wall_s`` (one pass: the sum over
experiments of their median time to report) and ``peak_rss_mb``.  ``--trace 1`` runs the same untraced passes, then one
pass under the span tracer (``tracer.py``), and prints the per-layer
metrics.  The last stdout line is the JSON result; the run manifest
and the spans go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracer_mod
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KINDS = ("audit", "dilated", "davenport", "ergodic", "riesz", "symbolic")
LAYERS = tracer_mod.LAYERS

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
WORK_COUNTS = tuple(tracer_mod.WORK)
# rate metric -> (work count, layer whose busy time divides it)
RATES = {
    "martingale.grid_values_per_s": ("martingale.grid_values", "martingale"),
    "modulus.shift_evals_per_s": ("modulus.shift_evals", "modulus"),
    "dilated.term_evals_per_s": ("dilated.term_evals", "dilated"),
    "torus.render_samples_per_s": ("torus.render_samples", "torus"),
    "davenport.gram_entries_per_s": ("davenport.gram_entries", "davenport"),
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s",
                      f"{layer}.self_s": "s", f"{layer}.errors": "count"})
    units.update({name: "count" for name in WORK_COUNTS})
    units["cli.report_bytes"] = "bytes"
    units.update({name: "1/s" for name in RATES})
    units.update({f"kind.{kind}_s": "s" for kind in KINDS})
    units.update({"trace.spans": "count", "trace.overhead_s": "s"})
    return units


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def probe_setup(workload: str, seed: int, out_dir: Path) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    mgale, built the workload and created the output directory."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed), str(out_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------

def run_pass(cli, check, experiments, out_dir: Path, reference, seed: int) -> dict:
    """Run every experiment once, back to back, and check its reports.

    ``wall_s`` is the sum of the experiments' times to report; the checks
    between experiments are not timed."""
    records = []
    for i, exp in enumerate(experiments):
        gc.collect()
        exp_dir = out_dir / f"{i:02d}-{exp.name}"
        if exp_dir.exists():
            shutil.rmtree(exp_dir)
        raw = dict(exp.raw, output={"path": str(exp_dir)})
        sha, error = None, None
        t0 = time.perf_counter()
        try:
            config = cli.validate_config(raw)
            sha = config.sha
            rc = cli.run(config)
        except Exception as exc:  # counted as a failed experiment, run goes on
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if exp_dir.is_dir():
            problems = check.check_experiment(exp, exp_dir, reference, seed)
            report_bytes = sum(p.stat().st_size for p in exp_dir.iterdir())
        else:
            problems, report_bytes = ["no reports written"], 0
        records.append({
            "name": exp.name, "kind": exp.kind, "seed": exp.raw.get("seed"), "out_dir": str(exp_dir),
            "config_sha": sha, "time_to_report_s": elapsed, "exit_code": rc,
            "error": error, "problems": problems, "report_bytes": report_bytes,
        })
    return {"traced": False, "wall_s": sum(r["time_to_report_s"] for r in records), "experiments": records}


def median_times(passes: list[dict]) -> dict[str, float]:
    """Median time to report of each experiment over the passes.

    A burst of load from elsewhere on the machine slows whichever
    experiments it overlaps; taking each experiment's median before
    summing filters it out better than the median of pass sums."""
    names = [r["name"] for r in passes[0]["experiments"]]
    return {
        name: statistics.median(r["time_to_report_s"] for p in passes for r in p["experiments"] if r["name"] == name)
        for name in names
    }


def kind_seconds(experiments, medians: dict[str, float]) -> dict[str, float]:
    """Summed median time to report per CLI kind (0 for kinds not run)."""
    return {f"kind.{kind}_s": sum(medians[e.name] for e in experiments if e.kind == kind) for kind in KINDS}


def layer_metrics(tracer, traced: dict, untraced_wall: float) -> dict[str, float]:
    values = {}
    stats = tracer_mod.layer_stats(tracer.spans, LAYERS)
    for layer in LAYERS:
        for key in ("calls", "busy_s", "self_s", "errors"):
            values[f"{layer}.{key}"] = stats[layer][key]
    values.update(tracer.work)
    values["cli.report_bytes"] = sum(r["report_bytes"] for r in traced["experiments"])
    for rate, (count, layer) in RATES.items():
        busy = stats[layer]["busy_s"]
        values[rate] = values[count] / busy if busy > 0 else 0.0
    values["trace.spans"] = len(tracer.spans)
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    return values


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mgale" / "__init__.py").is_file():
        print(f"mgale sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # before numpy is imported, here and in the probes
        os.environ.setdefault(var, str(nproc))

    out_dir = OUT / args.workload
    if out_dir.exists():
        shutil.rmtree(out_dir)
    setup_samples = [probe_setup(args.workload, args.seed, out_dir) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import mgale
    from mgale import cli

    if not Path(mgale.__file__).resolve().is_relative_to(SRC):
        print(f"imported mgale from {mgale.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import check

    reference = check.Reference.load(args.workload)
    experiments = workloads.build(args.workload, args.seed)

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(cli, check, experiments, out_dir, reference, args.seed))
        print(f"pass {len(passes)}: {passes[-1]['wall_s']:.3f} s", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    medians = median_times(passes)
    wall_s = sum(medians.values())

    if args.trace:
        tracer = tracer_mod.Tracer()
        with tracer:
            traced = run_pass(cli, check, experiments, out_dir, reference, args.seed)
        traced["traced"] = True
        metrics = layer_metrics(tracer, traced, wall_s)
        metrics.update(kind_seconds(experiments, medians))
        units = per_layer_units()
        all_passes = passes + [traced]
        spans = [[s.name, s.start_ns, s.end_ns, s.parent, s.error] for s in tracer.spans]
        (out_dir / "spans.json").write_text(json.dumps(spans))
    else:
        metrics = {"setup_s": statistics.median(setup_samples), "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
        all_passes = passes

    records = [r for p in all_passes for r in p["experiments"]]
    failed = sum(1 for r in records if r["exit_code"] != 0)
    mismatches = sum(1 for r in records if r["problems"])
    result = {
        "correct": failed == 0 and mismatches == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mgale": mgale.__version__, "git_commit": git_commit(), "nproc": nproc,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "setup_s_samples": setup_samples, "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / len(records), "output_mismatches": mismatches,
        "passes": all_passes, "result": result,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
