"""Seeded experiment configs for the benchmark workloads.

Each workload is a fixed list of ``mgale run`` configs.  The seed only
draws what does not change the amount of work: the config seeds of the
randomized experiments and a few cost-neutral parameters (Davenport
exponent and frequency offset, Riesz amplitude, Riesz coefficient
frequencies).  Sizes are constants, so runs with different seeds do the
same work on different data.

This module imports nothing from mgale, so a workload can be generated
(and tested) without running it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("grid-audits", "series-runs", "spectra-deep")


@dataclass(frozen=True)
class Experiment:
    """One ``mgale run`` config; ``name`` is unique within its workload."""

    name: str
    raw: dict

    @property
    def kind(self) -> str:
        return self.raw["kind"]


def _grid_audits(r: random.Random) -> list[Experiment]:
    # c01-c04 traffic at J=12: detail stack (rio, doob, telescoping),
    # shift scan (dyadic_approx) and the contraction audits
    def audit(suite: str, cases: int) -> dict:
        return {
            "kind": "audit",
            "parameters": {"suite": suite, "cases": cases},
            "seed": r.randrange(2**31),
            "resolution": 12,
        }

    return [
        Experiment("audit-rio", audit("rio", 300)),
        Experiment("audit-doob", audit("doob", 300)),
        Experiment("audit-telescoping", audit("telescoping", 300)),
        Experiment("audit-dyadic-approx", audit("dyadic_approx", 12)),
        Experiment("audit-contraction", audit("contraction", 200)),
    ]


def _series_runs(r: random.Random) -> list[Experiment]:
    depth = 12
    c = round(r.uniform(0.4, 0.8), 3)
    return [
        Experiment("ergodic-gaposhkin", {
            "kind": "ergodic",
            "parameters": {"gaposhkin_m": 1},
            "seed": r.randrange(2**31),
        }),
        Experiment("riesz-series", {
            "kind": "riesz",
            "parameters": {
                "action": "series",
                "lambdas": [3**n for n in range(depth + 1)],
                "cs": [c] * (depth + 1),
                "N": depth - 1,
                "coeffs": "invsqrt",
                "checkpoints": [1, 2, 4, 8],
            },
            "seed": r.randrange(2**31),
        }),
        # dyadic fast path of the exact-point evaluation
        Experiment("dilated-gaposhkin", {
            "kind": "dilated",
            "parameters": {"gaposhkin_m": 1, "checkpoints": [2**j for j in range(4, 13)]},
            "seed": r.randrange(2**31),
        }),
        # general (bignum) path of the exact-point evaluation
        Experiment("dilated-pow3", {
            "kind": "dilated",
            "parameters": {
                "K": 1024,
                "freqs": "pow:3:1023",
                "coeffs": "invsqrt",
                "checkpoints": [2**j for j in range(4, 10)],
            },
            "seed": r.randrange(2**31),
        }),
    ]


def _spectra_deep(r: random.Random) -> list[Experiment]:
    lams = (0.75, 1.0, 1.5)
    c = round(r.uniform(0.5, 0.8), 3)
    coeff_depth, sample_depth, sym_depth = 14, 12, 10
    half_span = (3**coeff_depth - 1) // 2  # balanced-ternary range of sum eps_n 3^n

    def audit(suite: str, cases: int) -> dict:
        return {
            "kind": "audit",
            "parameters": {"suite": suite, "cases": cases},
            "seed": r.randrange(2**31),
            "resolution": 18,
        }

    start = r.randrange(1, 1001)
    return [
        Experiment("davenport-pow2-quadrature", {
            "kind": "davenport",
            "parameters": {"lambda": r.choice(lams), "freqs": "pow:2:16", "quadrature_check": True},
            "seed": r.randrange(2**31),
            "resolution": 16,
        }),
        Experiment("davenport-consecutive", {
            "kind": "davenport",
            "parameters": {"lambda": r.choice(lams), "freqs": list(range(start, start + 512))},
            "seed": r.randrange(2**31),
        }),
        Experiment("symbolic", {
            "kind": "symbolic",
            "parameters": {
                "depth": sym_depth,
                "lambdas": [3**k for k in range(sym_depth)],
                "cs": [c] * sym_depth,
            },
            "seed": r.randrange(2**31),
        }),
        Experiment("riesz-coeff", {
            "kind": "riesz",
            "parameters": {
                "action": "coeff",
                "lambdas": [3**n for n in range(coeff_depth)],
                "cs": [c] * coeff_depth,
                "k": [r.randint(-half_span, half_span) for _ in range(3000)],
            },
            "seed": r.randrange(2**31),
        }),
        Experiment("riesz-sample", {
            "kind": "riesz",
            "parameters": {
                "action": "sample",
                "lambdas": [3**n for n in range(sample_depth)],
                "cs": [c] * sample_depth,
                "count": 2000,
            },
            "seed": r.randrange(2**31),
            "resolution": 20,
        }),
        Experiment("audit-rio-J18", audit("rio", 4)),
        Experiment("audit-doob-J18", audit("doob", 4)),
        Experiment("audit-telescoping-J18", audit("telescoping", 8)),
    ]


_BUILDERS = {
    "grid-audits": _grid_audits,
    "series-runs": _series_runs,
    "spectra-deep": _spectra_deep,
}


def build(workload: str, seed: int) -> list[Experiment]:
    """The experiments of ``workload`` for ``seed``; the same seed gives
    the same list.  Output paths are added by the runner."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
