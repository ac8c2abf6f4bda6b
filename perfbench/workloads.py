"""The four benchmark workloads: seeded inputs, CLI argv, correctness oracles.

Every workload is a closed loop with one client: the items of a pass are
issued back to back through ``zdgecc.cli.main``.  Expectations were pinned
once from the seed program (``perfbench/pin.py``) into ``perfbench/pins``.

Seeded workloads draw one modulus per slot.  A slot is a graph variant and a
stated vertex-count class; its pool holds the moduli of that class whose
single-item time at the seed (median of four interleaved rounds) lies
within about 10% of the pool median, so loads stay comparable across
seeds.  The zdg slot, about two thirds of a pass, keeps only 142 and 213:
108 and 136 took 5-18% longer in ten interleaved rounds.  ``survey-sweep``
and ``audit-catalogue`` are set by their flags alone and ignore the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

PINS = Path(__file__).resolve().parent / "pins"

# (variant, vertex-count class, pool of moduli)
EXACT_SLOTS = (
    ("zdg", "71-72 vertices", (142, 213)),
    ("complement", "63-81 vertices", (96, 112, 130, 152, 245)),
    ("extended", "45-47 vertices", (66, 70, 88)),
    ("compressed", "22 vertices, i.e. 24 divisors", (
        360, 420, 480, 504, 540, 600, 630, 660, 672, 756, 780, 792, 864,
        924, 936, 990, 1050, 1056, 1092, 1120, 1140)),
)
FLOAT_SLOTS = (
    ("zdg", "175-197 vertices", (240, 264, 270, 280)),
    ("complement", "175-197 vertices", (240, 264, 270, 280)),
)
SURVEY_MAX_N = 100
# Matrices above order 100 are not computed exactly, so the audit skips
# 3.3 at p=5 (Z_625, 124 vertices): that single char_poly took three
# quarters of a pass and left room for two passes in a run.
AUDIT_FLAGS = ("--theorem", "all", "--primes-up-to", "7", "--exact-cap", "100")
FLOAT_FIELDS = ("energy", "spectral_radius", "least_eigenvalue", "eigen_sum")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_pins(name: str) -> dict:
    with open(PINS / f"{name}.json") as fh:
        return json.load(fh)


def _draw(slots, seed: int) -> list[tuple[int, str]]:
    rng = random.Random(seed)
    return [(rng.choice(pool), variant) for variant, _, pool in slots]


def _report(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class Workload:
    name = ""
    uses_pool = False  # passes start worker processes

    def plan(self, seed: int) -> list:
        """The pass's (n, variant) items, drawn from the seed."""
        return []

    def argv(self, specs: list, workers: int) -> list[list[str]]:
        """CLI argv per item; output paths are relative to the pass directory."""
        raise NotImplementedError

    def check(self, specs: list, out: Path, codes: list[int]) -> tuple[int, int]:
        """(items attempted, items failed) for one pass's outputs."""
        raise NotImplementedError


class ExactSpectra(Workload):
    """Exact spectra: char_poly dominates and runs 3 times per item on one matrix."""

    name = "exact-spectra"

    def plan(self, seed):
        return _draw(EXACT_SLOTS, seed)

    def argv(self, specs, workers):
        return [
            ["spectrum", "--n", str(n), "--variant", v, "--output", f"{i}.json"]
            for i, (n, v) in enumerate(specs)
        ]

    def check(self, specs, out, codes):
        pins = _load_pins(self.name)
        failed = 0
        for i, ((n, v), code) in enumerate(zip(specs, codes)):
            pin = pins[f"{n}/{v}"]
            rep = _report(out / f"{i}.json")
            if code != 0 or rep is None:
                failed += 1
                continue
            item = rep["items"][0]
            exact = [[e["value"], e["multiplicity"]] for e in item["spectrum"] if e["exact"]]
            ok = (
                _sha256(item["char_poly"].encode()) == pin["char_poly_sha256"]
                and exact == pin["exact"]
                and item["vertices"] == pin["vertices"]
                and sum(e["multiplicity"] for e in item["spectrum"]) == pin["vertices"]
            )
            failed += not ok
        return len(specs), failed


class FloatSpectra(Workload):
    """Jacobi float spectra: the eigensolver dominates and char_poly never runs."""

    name = "float-spectra"

    def plan(self, seed):
        return _draw(FLOAT_SLOTS, seed)

    def argv(self, specs, workers):
        return [
            ["spectrum", "--n", str(n), "--variant", v, "--method", "float",
             "--dump-matrix", f"{i}.mat", "--output", f"{i}.json"]
            for i, (n, v) in enumerate(specs)
        ]

    def check(self, specs, out, codes):
        pins = _load_pins(self.name)
        failed = 0
        for i, ((n, v), code) in enumerate(zip(specs, codes)):
            pin = pins[f"{n}/{v}"]
            rep = _report(out / f"{i}.json")
            try:
                raw = (out / f"{i}.mat").read_bytes()
            except OSError:
                raw = None
            if code != 0 or rep is None or raw is None:
                failed += 1
                continue
            failed += not _float_ok(rep["items"][0], raw, pin)
        return len(specs), failed


def _float_ok(item: dict, raw: bytes, pin: dict) -> bool:
    """Reported eigenvalues agree with LAPACK on the same matrix within 1e-6,
    multiplicities sum to the order, and the trace is zero."""
    if _sha256(raw) != pin["matrix_sha256"] or item["vertices"] != pin["vertices"]:
        return False
    mat = np.array([row.split() for row in raw.decode().splitlines()], dtype=np.int64)
    order = pin["vertices"]
    values = sorted(
        float(e["value"]) for e in item["spectrum"] for _ in range(e["multiplicity"])
    )
    if len(values) != order or mat.shape != (order, order):
        return False
    ref = np.linalg.eigvalsh(mat.astype(np.float64))
    return (
        float(np.max(np.abs(np.array(values) - ref))) <= 1e-6
        and int(np.trace(mat)) == 0
        and abs(float(item["eigen_sum"])) <= 1e-6 * order
    )


class SurveySweep(Workload):
    """The pool, the disk cache and a large report: a cold pass, then a warm one."""

    name = "survey-sweep"
    uses_pool = True

    def argv(self, specs, workers):
        base = ["survey", "--max-n", str(SURVEY_MAX_N), "--workers", str(workers),
                "--cache", "--cache-dir", "cache"]
        return [base + ["--output", "cold.json"],
                base + ["--output", "warm.json"]]

    def check(self, specs, out, codes):
        pins = _load_pins(self.name)
        n_rec = len(pins["records"])
        cold, warm = _report(out / "cold.json"), _report(out / "warm.json")
        if codes != [0, 0] or cold is None or warm is None:
            return 2 * n_rec, 2 * n_rec
        records = cold.get("items", [])
        failed = sum(cold.get(k) != v for k, v in pins["envelope"].items())
        failed += abs(len(records) - n_rec)
        failed += sum(not _fields_match(r, p) for r, p in zip(records, pins["records"]))
        if (out / "warm.json").read_bytes() != (out / "cold.json").read_bytes():
            warm_records = warm.get("items", [])
            failed += max(1, sum(a != b for a, b in zip(records, warm_records)))
        return 2 * n_rec, min(failed, 2 * n_rec)


def _fields_match(record: dict, pinned: dict) -> bool:
    """Schema-1 fields of the record equal the pinned ones; added fields are
    ignored and float fields compare to 1e-9."""
    for key, want in pinned.items():
        got = record.get(key, object())
        if key in FLOAT_FIELDS:
            try:
                if abs(float(got) - float(want)) > 1e-9 * max(1.0, abs(float(want))):
                    return False
            except (TypeError, ValueError):
                return False
        elif got != want:
            return False
    return True


class AuditCatalogue(Workload):
    """The claims layer; the same Z_{p^3} graphs recur across theorems."""

    name = "audit-catalogue"

    def argv(self, specs, workers):
        expected = ",".join(_load_pins(self.name)["refutations"])
        return [["audit", *AUDIT_FLAGS, "--expect-refutations", expected,
                 "--output", "audit.json"]]

    def check(self, specs, out, codes):
        pins = _load_pins(self.name)
        want = pins["verdicts"]
        rep = _report(out / "audit.json")
        if codes != [0] or rep is None:
            return len(want), len(want)
        got = {audit_key(item): item["verdict"] for item in rep["items"]}
        failed = sum(got.get(k) != v for k, v in want.items()) + len(set(got) - set(want))
        return len(want), min(failed, len(want))


def audit_key(item: dict) -> str:
    """The ``theorem:params`` key of an audit report item."""
    params = ";".join(f"{k}={v}" for k, v in sorted(item["params"].items()))
    return f"{item['theorem']}:{params}"


def ledger_subset(root: Path) -> bool:
    """The repository's expected refutation ledger is a subset of the pins."""
    ledger = json.loads((root / "tests" / "data" / "expected_refutations.json").read_text())
    pinned = set(_load_pins(AuditCatalogue.name)["refutations"])
    return all(set(keys) <= pinned for keys in ledger.values())


WORKLOADS = {w.name: w for w in (ExactSpectra(), FloatSpectra(), SurveySweep(), AuditCatalogue())}
