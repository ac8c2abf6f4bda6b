"""Batch surveys over composite moduli with optional worker processes and
a disk cache.

Every record is computed by a pure function of (n, variant, options), so the
survey is deterministic and independent of the worker count; records come
in the order of the moduli asked for.  A record reads the class model
(``graphs.Decomposition``) of its (n, variant) and never builds the V x V
graph.

Records are computed in batches.  The graph of a model is the generalized
join of its class adjacency over classes of the given sizes (Cardoso, de
Freitas, Martins and Robbiano, Discrete Math., 2013), so every field of a
record is a function of that adjacency and the sizes.  Models that share an
adjacency pattern (``adj`` and which classes have two or more vertices)
share their sample, its eccentricity matrix, C, irreducibility and twin
blocks: those are read once per pattern, from its first model.  The numeric
kernels run once per matrix order: one checked eigensolve of every S, and
one characteristic-polynomial pass of every twin quotient
(``exact_linalg._certificates``).

One path serves ``survey_record``, ``survey_records`` and ``run_survey``
(``_survey``): the parent builds and groups every model, deals the groups
round-robin, largest first, into one task per worker, and ``_fork_map``
computes the first task in this process and forks a child for each other
task: it computes its task from the memory it inherited and sends the
records back pickled over a pipe.  One worker is one task, computed inline;
so is every survey where fork is not the platform's default way to start a
worker (macOS, Windows), with the same records.  Meanwhile numpy's
OpenBLAS runs one thread (``_one_blas_thread``), in the parent and, by
inheritance, in every child.

The disk cache memoizes whole surveys: one entry per (max_n, variant,
options), the JSON list of the survey's records, read once by the parent
before any model is built and written once by it after every record is in.
Children never touch the cache directory.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import os
import pickle
import signal
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

import zdgecc
from zdgecc import exact_linalg
from zdgecc.graphs import VARIANTS, Decomposition
from zdgecc.number_theory import is_prime
from zdgecc.report import spectral_fields, structure_fields
from zdgecc.spectra import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_EXACT_CAP,
    _class_matrices,
    _class_pairs,
    _eigenvalues_checked,
    _float_spectrum,
)


def _groups(models) -> list[list[Decomposition]]:
    """The models grouped by pattern: ``adj`` (its k*k bytes fix k) and
    which classes have two or more vertices (those the sample holds twice),
    in order of first appearance.  A group's first model stands for its
    pattern: its sample, E, C, irreducibility and twin blocks are every
    member's."""
    groups: dict[tuple, list[Decomposition]] = {}
    for model in models:
        key = (model.adj.tobytes(), bytes(m >= 2 for m in model.sizes))
        groups.setdefault(key, []).append(model)
    return list(groups.values())


def _records(
    groups: list[list[Decomposition]],
    structure_only: bool = False,
    exact_cap: int = DEFAULT_EXACT_CAP,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> list[dict]:
    """The records of every model of the groups, group by group."""
    records = [
        [{"kind": "survey", "n": m.n, "variant": m.variant, **structure_fields(m)} for m in group]
        for group in groups
    ]
    if structure_only:
        return [rec for recs in records for rec in recs]
    # one checked eigensolve of every S of each order
    stacks = [_class_matrices(group[0].ecc, [m.sizes for m in group]) for group in groups]
    jobs, waiting = [], []  # per pattern: its certificate job, its (model, record) pairs
    for group, recs, ws in zip(groups, records, exact_linalg._by_order(stacks, _eigenvalues_checked)):
        pattern, todo = group[0], []
        for model, rec, w in zip(group, recs, ws):
            spec = _float_spectrum(_class_pairs(w.tolist(), pattern.ecc, model.sizes), cluster_tol)
            rec.update(spectral_fields(pattern, spec, rec["connected"]))
            rec["integral"] = rec["residual"] = None
            if rec["vertices"] <= exact_cap:
                todo.append((model, rec, w))
        if todo:
            # S's eigenvalues seed the twin quotient when the classes are its blocks
            jobs.append((pattern.sample_ecc, [m.sample_weights for m, _, _ in todo],
                         [w for _, _, w in todo]))
            waiting.append(todo)
    for todo, certs in zip(waiting, exact_linalg._certificates(jobs)):
        for (_, rec, _), cert in zip(todo, certs):
            rec["integral"] = cert.integral
            rec["residual"] = None if cert.integral else cert.residual.text()
    return [rec for recs in records for rec in recs]


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    found once, when first needed, among the libraries already loaded; None
    when it is not there."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread meanwhile, in this process and in every child
    it forks, then its previous count back: the survey's k x k matrices are
    too small for threads to help, and two workers' BLAS threads would
    contend for the CPUs.  Without numpy's bundled OpenBLAS it does nothing."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _survey(ns: list[int], variant: str, workers: int, **opts) -> list[dict]:
    """The record of each composite n of ``ns``, in order: the models built
    and grouped here, the groups dealt round-robin, largest first, into one
    task per worker (no more tasks than groups), and the tasks computed by
    ``_fork_map``."""
    groups = sorted(_groups(Decomposition.of(n, variant) for n in ns), key=len, reverse=True)
    w = max(1, min(workers, len(groups)))
    with _one_blas_thread():
        fresh = _fork_map(lambda task: _records(task, **opts), [groups[i::w] for i in range(w)])
    by_n = {rec["n"]: rec for recs in fresh for rec in recs}
    return [by_n[n] for n in ns]


def survey_records(
    ns,
    variant: str = "zdg",
    *,
    structure_only: bool = False,
    exact_cap: int = DEFAULT_EXACT_CAP,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> list[dict]:
    """The survey record of each composite n of ``ns``, in order, computed
    in one batch in this process: the sample and its E once per adjacency
    pattern, one checked eigensolve and one characteristic-polynomial pass
    per matrix order.
    Each record equals the one ``survey_record`` gives alone."""
    return _survey(list(ns), variant, 1, structure_only=structure_only,
                   exact_cap=exact_cap, cluster_tol=cluster_tol)


def survey_record(
    n: int,
    variant: str = "zdg",
    *,
    structure_only: bool = False,
    exact_cap: int = DEFAULT_EXACT_CAP,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> dict:
    """The survey record of one composite n: the batch of one."""
    return survey_records([n], variant, structure_only=structure_only,
                          exact_cap=exact_cap, cluster_tol=cluster_tol)[0]


def _cache_name(max_n: int, variant: str, opts: dict) -> str:
    """The file name of a survey's cache entry, spelled out from its key
    material.  "eigh" and "class" name the solver and the matrices behind
    the cached floats (the class model's k x k S, not the dense V x V E), so
    entries written by another solver or engine, which differ in float
    noise, are misses, not mixed into fresh records."""
    name = (f"{variant}_max{max_n}_cap{int(opts['exact_cap'])}"
            f"_tol{float(opts['cluster_tol'])!r}_v{zdgecc.__version__}_eigh_class")
    return name + ("_structure" if opts["structure_only"] else "") + ".json"


def _store(path: Path, records: list[dict]) -> None:
    """Write a cache entry as a temp file, then rename it, so no reader sees
    a partial entry."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(records, sort_keys=True))
    os.replace(tmp, path)


class WorkerError(RuntimeError):
    """A survey worker that could not be started, or that ended without a
    result."""


# survey workers are forked where fork was the platform's default way to
# start a worker process: not on macOS, where forking a process that has
# loaded system frameworks is unsafe, nor on Windows, which has no fork
_FORK = hasattr(os, "fork") and sys.platform != "darwin"


def _child(fn, task, out: int, inherited: list[int]) -> NoReturn:
    """A forked child's whole life: ``fn(task)``, or the exception it raised,
    pickled to the pipe ``out``; then ``os._exit``, so it never unwinds into
    its caller's frames and never flushes the stdio buffers it inherited."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            payload = pickle.dumps((True, fn(task)))
        except BaseException as exc:  # interrupts too: the parent re-raises it
            try:
                payload = pickle.dumps((False, exc))
            except Exception:  # an exception that does not pickle
                payload = pickle.dumps((False, RuntimeError(repr(exc))))
        with open(out, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _fork_map(fn, tasks: list) -> list:
    """``[fn(t) for t in tasks]``, with ``tasks[1:]`` each computed in a
    forked child from the memory it inherited, and ``tasks[0]`` in this
    process meanwhile.

    A child's exception is re-raised here; a child that cannot be started,
    or that ends without a result, raises WorkerError, naming its pid and
    how it ended.  Every child is reaped before this returns or raises, and
    when this raises, the children still running are killed first."""
    pending: list[tuple[int, int]] = []  # (pid, read end of its pipe), not yet reaped
    try:
        for task in tasks[1:]:
            try:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(r)
                    os.close(w)
                    raise
            except OSError as exc:  # EAGAIN from fork, EMFILE from pipe
                raise WorkerError(f"cannot start a survey worker: {exc}") from exc
            if pid == 0:
                _child(fn, task, w, [r, *(fd for _, fd in pending)])
            os.close(w)
            pending.append((pid, r))
        results = [fn(tasks[0])]
        while pending:
            pid, fd = pending[0]
            # read before waiting: a child whose pipe is full waits for it
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(fd)
            pending.pop(0)
            if code != 0:  # a child exits 0 only once its whole result is written
                how = (f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0
                       else f"exited with code {code}")
                raise WorkerError(f"survey worker {pid} {how} without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, fd in pending:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


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
    """Records for every composite 4 <= n <= max_n, sorted by n: the whole
    survey served from its cache entry, or computed by ``_survey`` on
    min(workers, CPU count, pattern groups) workers, one where fork is not
    the platform's way to start one, and then cached."""
    if max_n < 4:
        raise ValueError("max_n must be at least 4")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    opts = {
        "structure_only": structure_only,
        "exact_cap": exact_cap,
        "cluster_tol": cluster_tol,
    }
    ns = [n for n in range(4, max_n + 1) if not is_prime(n)]
    entry = None
    if cache_dir is not None:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        entry = Path(cache_dir, _cache_name(max_n, variant, opts))
        try:
            cached = json.loads(entry.read_text())
        except (OSError, ValueError):
            cached = None
        # a hit is a list of this variant's records for exactly ns; anything
        # else is a miss, recomputed below and rewritten
        if (isinstance(cached, list) and all(isinstance(rec, dict) for rec in cached)
                and [rec.get("n") for rec in cached] == ns
                and all(rec.get("variant") == variant for rec in cached)):
            return cached
    records = _survey(ns, variant, min(workers, os.cpu_count() or 1) if _FORK else 1, **opts)
    if entry is not None:
        _store(entry, records)
    return records
