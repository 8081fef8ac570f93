"""One set-up, timed from outside by ``run.py`` for ``setup_s``.

Imports mgale (and with it numpy and scipy), builds the workload from
the seed and creates the output directory, then prints ``ready``: the
point where the first experiment could start.

    python3 perfbench/setup_probe.py <src dir> <workload> <seed> <output dir>
"""

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    src, workload, seed, out = argv
    sys.path.insert(0, src)
    import mgale.cli  # noqa: F401  (the import is what is timed)
    import workloads

    workloads.build(workload, int(seed))
    Path(out).mkdir(parents=True, exist_ok=True)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
