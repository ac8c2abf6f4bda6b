"""Pin the benchmark's expected outputs from the program as it is now.

    PYTHONPATH=src python3 perfbench/pin.py

Run from the root of a checkout, once, on the program whose outputs are the
reference.  Writes ``perfbench/pins/<workload>.json`` for every modulus any
seed can draw, the survey records and the audit verdicts.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import zdgecc.cli

from workloads import (
    AUDIT_FLAGS, EXACT_SLOTS, FLOAT_SLOTS, PINS, SURVEY_MAX_N, audit_key,
)

SCRATCH = Path(".bench_run") / "pin"


def _cli(*argv: str, codes=(0,)) -> dict:
    out = SCRATCH / "report.json"
    code = zdgecc.cli.main([*argv, "--output", str(out)])
    if code not in codes:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return json.loads(out.read_text())


def pin_exact() -> dict:
    pins = {}
    for variant, _, pool in EXACT_SLOTS:
        for n in pool:
            item = _cli("spectrum", "--n", str(n), "--variant", variant)["items"][0]
            pins[f"{n}/{variant}"] = {
                "vertices": item["vertices"],
                "char_poly_sha256": hashlib.sha256(item["char_poly"].encode()).hexdigest(),
                "exact": [[e["value"], e["multiplicity"]]
                          for e in item["spectrum"] if e["exact"]],
            }
    return pins


def pin_float() -> dict:
    pins = {}
    mat = SCRATCH / "matrix.txt"
    for variant, _, pool in FLOAT_SLOTS:
        for n in pool:
            item = _cli("spectrum", "--n", str(n), "--variant", variant,
                        "--method", "float", "--dump-matrix", str(mat))["items"][0]
            pins[f"{n}/{variant}"] = {
                "vertices": item["vertices"],
                "matrix_sha256": hashlib.sha256(mat.read_bytes()).hexdigest(),
            }
    return pins


def pin_survey() -> dict:
    rep = _cli("survey", "--max-n", str(SURVEY_MAX_N))
    return {"envelope": {k: rep[k] for k in ("schema", "tool", "command")},
            "records": rep["items"]}


def pin_audit() -> dict:
    # exit code 1: the audit refutes claims and no expectation is given yet
    rep = _cli("audit", *AUDIT_FLAGS, codes=(0, 1))
    return {"refutations": rep["refutations"],
            "verdicts": {audit_key(item): item["verdict"] for item in rep["items"]}}


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    PINS.mkdir(exist_ok=True)
    todo = {"exact-spectra": pin_exact, "float-spectra": pin_float,
            "survey-sweep": pin_survey, "audit-catalogue": pin_audit}
    for name in sys.argv[1:] or todo:
        text = json.dumps(todo[name](), indent=1, sort_keys=True) + "\n"
        (PINS / f"{name}.json").write_text(text)
        print(f"pinned {name}", file=sys.stderr)
    shutil.rmtree(SCRATCH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
