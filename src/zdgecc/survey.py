"""Batch surveys over composite moduli with optional worker pool and cache.

Every record is computed by a pure function of (n, variant, options), so the
survey is deterministic and independent of the worker count; records are
always emitted sorted by n.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from pathlib import Path

import zdgecc
from zdgecc.eccentricity import eccentricity_matrix
from zdgecc.exact_linalg import integrality_certificate
from zdgecc.graphs import (
    EmptyGraphError,
    Graph,
    build_compressed_zdg,
    build_extended_zdg,
    build_zdg,
    complement,
)
from zdgecc.number_theory import euler_phi, is_prime, num_proper_divisors
from zdgecc.report import spectral_fields, structure_fields
from zdgecc.spectra import DEFAULT_CLUSTER_TOL, DEFAULT_EXACT_CAP, spectrum

VARIANTS = ("zdg", "extended", "compressed", "complement")


def variant_graph(n: int, variant: str) -> Graph:
    if variant == "zdg":
        return build_zdg(n)
    if variant == "extended":
        return build_extended_zdg(n)
    if variant == "compressed":
        return build_compressed_zdg(n)
    if variant == "complement":
        return complement(build_zdg(n))
    raise ValueError(f"unknown variant {variant!r}")


def variant_order(n: int, variant: str) -> int:
    """Vertex count of ``variant_graph(n, variant)``, found without building it:
    the n - phi(n) - 1 nonzero zero divisors, or the tau(n) - 2 proper
    divisors for the compressed graph."""
    if n < 4 or is_prime(n):
        raise EmptyGraphError(f"Z_{n} has no nonzero zero divisors")
    if variant == "compressed":
        return num_proper_divisors(n)
    return n - euler_phi(n) - 1


def survey_record(
    n: int,
    variant: str = "zdg",
    *,
    structure_only: bool = False,
    exact_cap: int = DEFAULT_EXACT_CAP,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> dict:
    g = variant_graph(n, variant)
    rec = {"kind": "survey", "n": n, "variant": variant, **structure_fields(g)}
    if structure_only:
        return rec
    mat = eccentricity_matrix(g)
    spec = spectrum(mat, "float", cluster_tol=cluster_tol)
    rec.update(spectral_fields(mat, spec, rec["connected"]))
    cert = integrality_certificate(mat) if g.n_vertices <= exact_cap else None
    rec["integral"] = None if cert is None else cert.integral
    rec["residual"] = None if cert is None or cert.integral else cert.residual.text()
    return rec


def _cache_key(n: int, variant: str, opts: dict) -> str:
    # "eigensolver" names the solver behind the cached floats, so entries
    # written by another solver are misses, not mixed into fresh records
    material = {"n": n, "variant": variant, "version": zdgecc.__version__,
                "eigensolver": "eigh", **opts}
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
