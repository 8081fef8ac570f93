"""Correctness checks on the reports an experiment writes.

Every report starts with one header line (config hash, seed, version,
timestamp); the checks look only at the body below it.

* Universal audits (``audit_*.csv``, ``symbolic_audit.csv``): every row
  must have ``passed=1``, for any seed.
* Gram matrices (``davenport_gram.csv``): every entry is compared with
  the closed form (zeta(2 lam)/2) (gcd^2/(n_i n_j))^lam, computed here
  with ``np.gcd``, for any seed.  Grams are too large to store.
* Every other body, for the seeds recorded in ``reference/``: compared
  with the body recorded when the benchmark was added.  Text (verdicts, labels,
  ``passed`` fields, column names) must match exactly; numbers must
  match to relative 1e-9, so that a correct reordering of floating-point
  sums is not a mismatch.  An absolute difference up to 1e-12 is also
  allowed, for numbers that are round-off themselves (Parseval
  residuals, quadrature errors).
"""

from __future__ import annotations

import json
import lzma
import re
from pathlib import Path

import numpy as np
from scipy.special import zeta

HEADER_PREFIX = "# mgale-report "
REL_TOL = 1e-9
ABS_TOL = 1e-12
GRAM_FILE = "davenport_gram.csv"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def strip_header(text: str) -> str | None:
    """The report body, or None when the header line is missing."""
    head, sep, body = text.partition("\n")
    return body if sep and head.startswith(HEADER_PREFIX) else None


def round_numbers(body: str) -> str:
    """The body with every non-integer number cut to 12 significant
    digits: what the reference stores (well inside REL_TOL)."""
    def cut(m: re.Match) -> str:
        tok = m.group()
        return tok if tok.lstrip("+-").isdigit() else format(float(tok), ".12g")

    return NUMBER.sub(cut, body)


def numbers_match(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def compare_body(body: str, reference: str) -> str | None:
    """None when ``body`` matches ``reference``, else the first difference."""
    if NUMBER.split(body) != NUMBER.split(reference):
        return "text differs from the reference"
    got, want = NUMBER.findall(body), NUMBER.findall(reference)
    for i, (g, w) in enumerate(zip(got, want)):
        if not numbers_match(float(g), float(w)):
            return f"number {i}: {g} != reference {w}"
    return None


def audit_row_failures(body: str) -> list[str]:
    """Rows of a universal-audit CSV whose ``passed`` field is not 1."""
    lines = body.splitlines()
    if not lines or lines[0] != "lhs,rhs,constant,margin,passed,context":
        return ["audit report has no CSV column line"]
    bad = []
    for line in lines[1:]:
        fields = line.split(",", 5)
        if len(fields) != 6 or fields[4] != "1":
            bad.append(f"audit row not passed: {line}")
    return bad


def gram_problems(body: str, freqs: list[int], lam: float) -> list[str]:
    """Compare a Gram body with the closed form for ``freqs`` and ``lam``."""
    head, _, rows = body.partition("\n")
    if head != "i,j,freq_i,freq_j,entry":
        return ["gram report has no CSV column line"]
    k = len(freqs)
    data = np.fromstring(rows.replace("\n", ","), sep=",") if rows else np.empty(0)
    if data.size != 5 * k * k:
        return [f"gram report has {data.size // 5} entries, expected {k * k}"]
    data = data.reshape(k * k, 5)
    f = np.asarray(freqs, dtype=np.int64)
    i, j = np.divmod(np.arange(k * k), k)
    if not (np.array_equal(data[:, 0], i) and np.array_equal(data[:, 1], j)
            and np.array_equal(data[:, 2], f[i]) and np.array_equal(data[:, 3], f[j])):
        return ["gram report index or frequency columns differ from the config"]
    g = np.gcd(f[i], f[j]).astype(np.float64)
    expected = 0.5 * float(zeta(2 * lam)) * (g * g / (f[i].astype(np.float64) * f[j])) ** lam
    got = data[:, 4]
    bad = np.abs(got - expected) > REL_TOL * np.maximum(np.abs(got), np.abs(expected)) + ABS_TOL
    if bad.any():
        n = int(np.argmax(bad))
        return [f"gram entry ({i[n]},{j[n]}) = {float(got[n])!r}, closed form {float(expected[n])!r}"]
    return []


def gram_freqs(rule) -> list[int]:
    """The frequency list a davenport config asks for (``pow:q:K`` or a list)."""
    if isinstance(rule, str):
        _, q, K = rule.split(":")
        return [int(q) ** e for e in range(int(K) + 1)]
    return [int(n) for n in rule]


class Reference:
    """Stored bodies of one workload: file names for every experiment, and
    bodies (numbers cut by ``round_numbers``) for the recorded seeds."""

    def __init__(self, files: dict, seeds: dict):
        self.files = files
        self.seeds = seeds

    @classmethod
    def load(cls, workload: str) -> "Reference":
        path = REFERENCE_DIR / f"{workload}.json.xz"
        data = json.loads(lzma.decompress(path.read_bytes()))
        return cls(data["files"], data["seeds"])

    def save(self, workload: str) -> Path:
        REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
        path = REFERENCE_DIR / f"{workload}.json.xz"
        text = json.dumps({"files": self.files, "seeds": self.seeds}, sort_keys=True)
        path.write_bytes(lzma.compress(text.encode(), preset=9 | lzma.PRESET_EXTREME))
        return path

    def bodies(self, seed: int) -> dict | None:
        return self.seeds.get(str(seed))


def read_bodies(out_dir: Path) -> tuple[dict[str, str], list[str]]:
    """File name -> body for every report in ``out_dir``, and problems."""
    bodies, problems = {}, []
    for path in sorted(out_dir.iterdir()):
        body = strip_header(path.read_text())
        if body is None:
            problems.append(f"{path.name}: missing report header")
        else:
            bodies[path.name] = body
    return bodies, problems


def check_experiment(exp, out_dir: Path, reference: Reference, seed: int) -> list[str]:
    """Problems with the reports ``exp`` wrote to ``out_dir`` (empty when correct)."""
    bodies, problems = read_bodies(out_dir)
    expected_files = reference.files.get(exp.name)
    if expected_files is not None and sorted(bodies) != sorted(expected_files):
        problems.append(f"report files {sorted(bodies)} != expected {sorted(expected_files)}")
    for name, body in bodies.items():
        if name.startswith("audit_") or name == "symbolic_audit.csv":
            problems += [f"{name}: {p}" for p in audit_row_failures(body)]
        if name == GRAM_FILE:
            params = exp.raw["parameters"]
            freqs = gram_freqs(params.get("freqs", "pow:2:16"))
            problems += [f"{name}: {p}" for p in gram_problems(body, freqs, float(params.get("lambda", 0.75)))]
    recorded = reference.bodies(seed)
    if recorded is not None:
        want = recorded.get(exp.name, {})
        for name, body in bodies.items():
            if name == GRAM_FILE:
                continue
            if name not in want:
                problems.append(f"{name}: no reference body")
                continue
            diff = compare_body(body, want[name])
            if diff:
                problems.append(f"{name}: {diff}")
    return problems
