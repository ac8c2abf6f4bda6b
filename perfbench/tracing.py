"""Span tracing from outside the program, for the benchmark's traced run.

``install`` wraps every public function of the zdgecc layer modules at every
module binding that holds it: ``from zdgecc.exact_linalg import char_poly``
copies the binding, so ``spectra.char_poly`` and ``cli.char_poly`` are
wrapped as well as ``exact_linalg.char_poly``.  Each call records one span
(name, start, end, parent, note) in memory; the child writes them out when
it ends and ``layer_metrics`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

import numpy as np

LAYERS = (
    "number_theory", "graphs", "eccentricity", "exact_linalg",
    "spectra", "claims", "survey", "report", "cli",
)

GRAPHS_STRUCTURE = {
    "connected_components", "is_connected", "is_tree", "is_star",
    "is_complete", "to_adjacency_text",
}


def _order(mat) -> int:
    return int(np.asarray(mat).shape[0])


def _digest(mat) -> str:
    arr = np.ascontiguousarray(np.asarray(mat, dtype=np.int64))
    return hashlib.sha1(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


def _bound(args, kwargs):
    bound = kwargs.get("bound", args[1] if len(args) > 1 else None)
    return None if bound is None else int(bound)


# Counters noted per call, from the arguments and the result; computed after
# the span has ended so the bookkeeping is not charged to the callee.
NOTES = {
    "exact_linalg.char_poly": lambda a, k, out: [_order(a[0]), _digest(a[0])],
    "exact_linalg.integer_roots": lambda a, k, out: _bound(a, k),
    "spectra.eigenvalues_symmetric": lambda a, k, out: _order(a[0]),
    "eccentricity.eccentricity_matrix": lambda a, k, out: _order(out),
    "claims.audit": lambda a, k, out: out.verdict.value,
    "survey.run_survey": lambda a, k, out: len(out),
}


class Tracer:
    """In-memory span recorder; one per traced child."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the public layer functions at every zdgecc module binding."""
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"zdgecc.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                wrappers[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    for modname, mod in list(sys.modules.items()):
        if modname == "zdgecc" or modname.startswith("zdgecc."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _group(name: str) -> str:
    layer, _, fn = name.partition(".")
    if layer == "graphs":
        if fn == "distances":
            return "graphs.distances"
        return "graphs.structure" if fn in GRAPHS_STRUCTURE else "graphs.build"
    if name in ("exact_linalg.char_poly", "exact_linalg.integer_roots",
                "spectra.eigenvalues_symmetric", "spectra.spectrum",
                "eccentricity.eccentricity_matrix"):
        return name
    return layer


def layer_metrics(spans: list[list]) -> tuple[dict, float, float]:
    """Per-layer metrics of one traced pass, its summed self time, and the
    summed time of the survey records it computed.

    A survey cache miss is a ``survey_record`` call (only made inside
    ``run_survey``), a hit is a record ``run_survey`` returned without one.
    Records computed in pool children are not seen, so traced surveys use
    one worker.
    """
    own = self_times(spans)
    secs: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), t in zip(spans, own):
        g = _group(name)
        secs[g] = secs.get(g, 0.0) + t
        calls[g] = calls.get(g, 0) + 1

    def notes(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    cp = notes("exact_linalg.char_poly")
    eig = notes("spectra.eigenvalues_symmetric")
    verdicts = notes("claims.audit")
    records = [end - start for name, start, end, _, _ in spans
               if name == "survey.survey_record"]
    metrics = {
        "exact_linalg.char_poly_s": secs.get("exact_linalg.char_poly", 0.0),
        "exact_linalg.char_poly_calls": len(cp),
        "exact_linalg.char_poly_distinct_ratio": (
            len({d for _, d in cp}) / len(cp) if cp else 0.0
        ),
        "exact_linalg.char_poly_order_sum": sum(o for o, _ in cp),
        "exact_linalg.integer_roots_s": secs.get("exact_linalg.integer_roots", 0.0),
        "exact_linalg.root_candidates": sum(2 * b for b in notes("exact_linalg.integer_roots")),
        "spectra.eigensolver_s": secs.get("spectra.eigenvalues_symmetric", 0.0),
        "spectra.eigensolver_calls": len(eig),
        "spectra.eigensolver_order3_sum": sum(v**3 for v in eig),
        "spectra.assemble_s": secs.get("spectra.spectrum", 0.0),
        "graphs.build_s": secs.get("graphs.build", 0.0),
        "graphs.build_calls": calls.get("graphs.build", 0),
        "graphs.distances_s": secs.get("graphs.distances", 0.0),
        "graphs.structure_s": secs.get("graphs.structure", 0.0),
        "eccentricity.matrix_s": secs.get("eccentricity.eccentricity_matrix", 0.0),
        "eccentricity.matrix_calls": calls.get("eccentricity.eccentricity_matrix", 0),
        "eccentricity.cells": sum(
            v**2 for v in notes("eccentricity.eccentricity_matrix")
        ),
        "claims.audit_s": secs.get("claims", 0.0),
        "claims.audit_calls": len(verdicts),
        "claims.skipped_ratio": (
            verdicts.count("Skipped") / len(verdicts) if verdicts else 0.0
        ),
        "survey.cache_hits": sum(notes("survey.run_survey")) - len(records),
        "survey.cache_misses": len(records),
        "report.render_s": secs.get("report", 0.0),
    }
    return metrics, sum(own), sum(records)
