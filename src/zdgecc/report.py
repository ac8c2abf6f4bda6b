"""Machine-readable report assembly: the fields of a report row, a
versioned JSON schema and a flat CSV projection.  Reports are byte-identical
across runs for the same inputs: no timestamps, sorted JSON keys, one fixed
CSV column order, floats fixed at 12 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import zdgecc
from zdgecc.eccentricity import is_irreducible
from zdgecc.graphs import Graph, is_complete, is_connected, is_star, is_tree

SCHEMA_VERSION = 1

# CSV column order of every report row; keys not listed here (the audit
# columns) follow in first-seen order
COLUMNS = (
    "kind", "n", "variant", "method",
    "vertices", "edges", "connected", "tree", "star", "complete",
    "irreducible", "spectrum", "energy", "spectral_radius", "least_eigenvalue",
    "eigen_sum", "ecc_convention", "energy_exact",
    "char_poly", "integral", "factorization", "residual",
)


def fmt_float(x: float) -> str:
    return "%.12g" % float(x)


def fmt_value(v) -> str:
    if isinstance(v, (int, Fraction)):
        return str(v)
    return fmt_float(v)


def structure_fields(g: Graph) -> dict:
    """The graph's size and structure flags."""
    return {
        "vertices": g.n_vertices,
        "edges": g.n_edges,
        "connected": is_connected(g),
        "tree": is_tree(g),
        "star": is_star(g),
        "complete": is_complete(g),
    }


def spectral_fields(mat, spec, connected: bool) -> dict:
    """Irreducibility of the eccentricity matrix and its spectral statistics."""
    fields = {
        "irreducible": is_irreducible(mat),
        "energy": fmt_float(spec.energy()),
        "spectral_radius": fmt_float(spec.spectral_radius()),
        "least_eigenvalue": fmt_float(spec.least()),
        "eigen_sum": fmt_float(spec.eigen_sum()),
    }
    if not connected:
        # the eccentricity matrix of a disconnected graph is assembled
        # block-diagonally per component; make that visible in the report
        fields["ecc_convention"] = "per-component"
    return fields


def spectrum_json(spec) -> list[dict]:
    out = []
    for e in spec.entries:
        item = {
            "value": e.value_text(),
            "exact": e.exact,
            "multiplicity": e.multiplicity,
        }
        if not e.exact and e.tol is not None:
            item["cluster_tol"] = fmt_float(e.tol)
        out.append(item)
    return out


def envelope(command: str, items: list[dict]) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "zdgecc", "version": zdgecc.__version__},
        "command": command,
        "items": items,
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _flatten(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def to_csv(items: list[dict]) -> str:
    """Lossy flat projection: one row per item, union of keys as columns,
    in ``COLUMNS`` order whatever the key order of each item."""
    columns = [c for c in COLUMNS if any(c in item for item in items)]
    for item in items:
        for key in item:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for item in items:
        writer.writerow([_flatten(item.get(c)) for c in columns])
    return buf.getvalue()
