"""Record the reference report bodies that ``check.py`` compares with.

Run at a commit whose reports are known to be right; it refuses to
record an experiment that fails or whose universal audits do not pass:

    python3 perfbench/record_reference.py [--workload NAME]

Writes ``perfbench/reference/<workload>.json.xz`` for the seeds in
``RECORDED_SEEDS``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import workloads
from run import OUT, SRC, run_pass

RECORDED_SEEDS = range(0, 11)


def record(cli, check, workload: str):
    files, seeds = {}, {}
    for seed in RECORDED_SEEDS:
        experiments = workloads.build(workload, seed)
        done = run_pass(cli, check, experiments, OUT / "record" / workload, check.Reference({}, {}), seed)
        recorded = {}
        for rec in done["experiments"]:
            if rec["exit_code"] != 0 or rec["problems"]:
                raise SystemExit(f"{workload} seed {seed} {rec['name']}: exit {rec['exit_code']}, {rec['problems'][:3]}")
            bodies, _ = check.read_bodies(Path(rec["out_dir"]))
            if files.setdefault(rec["name"], sorted(bodies)) != sorted(bodies):
                raise SystemExit(f"{rec['name']}: report files depend on the seed")
            recorded[rec["name"]] = {
                name: check.round_numbers(body) for name, body in bodies.items() if name != check.GRAM_FILE
            }
        seeds[str(seed)] = recorded
        print(f"{workload} seed {seed} recorded", file=sys.stderr)
    return check.Reference(files, seeds).save(workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record reference report bodies")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from mgale import cli
    import check

    for workload in args.workload or workloads.WORKLOADS:
        path = record(cli, check, workload)
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
