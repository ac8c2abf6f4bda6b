"""Batch surveys over composite moduli with optional worker pool and cache.

Every record is computed by a pure function of (n, variant, options), so the
survey is deterministic and independent of the worker count; records are
always emitted sorted by n.  A record reads the class model
(``graphs.Decomposition``) of its (n, variant) and never builds the V x V
graph.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
# A multiprocessing pool imports subprocess when it starts its workers;
# importing it at start-up keeps that cost out of the survey's run time.
import subprocess  # noqa: F401
from pathlib import Path

import zdgecc
from zdgecc.graphs import VARIANTS, Decomposition
from zdgecc.number_theory import is_prime
from zdgecc.report import spectral_fields, structure_fields
from zdgecc.spectra import DEFAULT_CLUSTER_TOL, DEFAULT_EXACT_CAP, spectrum


def survey_record(
    n: int,
    variant: str = "zdg",
    *,
    structure_only: bool = False,
    exact_cap: int = DEFAULT_EXACT_CAP,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> dict:
    model = Decomposition.of(n, variant)
    rec = {"kind": "survey", "n": n, "variant": variant, **structure_fields(model)}
    if structure_only:
        return rec
    spec = spectrum(model, "float", cluster_tol=cluster_tol)
    rec.update(spectral_fields(model, spec, rec["connected"]))
    cert = model.certificate if model.n_vertices <= exact_cap else None
    rec["integral"] = None if cert is None else cert.integral
    rec["residual"] = None if cert is None or cert.integral else cert.residual.text()
    return rec


def _cache_key(n: int, variant: str, opts: dict) -> str:
    # "eigensolver" and "engine" name the solver and the matrices behind the
    # cached floats (the class model's k x k S, not the dense V x V E), so
    # entries written by another solver or engine, which differ in float
    # noise, are misses, not mixed into fresh records
    material = {"n": n, "variant": variant, "version": zdgecc.__version__,
                "eigensolver": "eigh", "engine": "class", **opts}
    blob = json.dumps(material, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _worker(task):
    n, variant, opts = task
    return survey_record(n, variant, **opts)


def run_survey(
    max_n: int,
    variant: str = "zdg",
    *,
    workers: int = 1,
    structure_only: bool = False,
    exact_cap: int = DEFAULT_EXACT_CAP,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    cache_dir: str | os.PathLike | None = None,
) -> list[dict]:
    """Records for every composite 4 <= n <= max_n, sorted by n."""
    if max_n < 4:
        raise ValueError("max_n must be at least 4")
    opts = {
        "structure_only": structure_only,
        "exact_cap": exact_cap,
        "cluster_tol": cluster_tol,
    }
    ns = [n for n in range(4, max_n + 1) if not is_prime(n)]
    records: dict[int, dict] = {}
    todo: list[int] = []
    cache_path = Path(cache_dir) if cache_dir is not None else None
    if cache_path is not None:
        cache_path.mkdir(parents=True, exist_ok=True)
        for n in ns:
            f = cache_path / (_cache_key(n, variant, opts) + ".json")
            try:
                rec = json.loads(f.read_text())
            except (OSError, ValueError):
                rec = None
            # a missing or unreadable entry, or one for another (n, variant),
            # is a miss: recomputed below and rewritten
            if isinstance(rec, dict) and rec.get("n") == n and rec.get("variant") == variant:
                records[n] = rec
            else:
                todo.append(n)
    else:
        todo = ns
    tasks = [(n, variant, opts) for n in todo]
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
        with multiprocessing.Pool(workers) as pool:
            fresh = pool.map(_worker, tasks)
    else:
        fresh = [_worker(t) for t in tasks]
    for n, rec in zip(todo, fresh):
        records[n] = rec
        if cache_path is not None:
            # write a temp file and rename it, so no reader sees a partial entry
            f = cache_path / (_cache_key(n, variant, opts) + ".json")
            tmp = f.with_name(f"{f.name}.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(rec, sort_keys=True))
            os.replace(tmp, f)
    return [records[n] for n in ns]
