"""Eccentricity matrices, irreducibility, and equitable quotient matrices.

The eccentricity matrix keeps a distance entry d(u, v) only where it attains
min(e(u), e(v)) and zeroes it otherwise.  For disconnected graphs the matrix
is assembled per connected component (block diagonal, cross-component entries
zero, isolated vertices contributing zero rows); this matches how the
disconnected complements of zero-divisor graphs are treated throughout.

These functions are the one eccentricity engine: a class model
(``graphs.ClassGraph``) runs them on its two-vertex-per-class sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from zdgecc.exact_linalg import EquitabilityError, _equitable_quotient  # quotient_matrix raises it
from zdgecc.graphs import Graph, _reachable, distances


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint vertex-index blocks covering all indices."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty partition block")
            if seen & set(block):
                raise ValueError("partition blocks overlap")
            seen.update(block)
        if seen != set(range(len(seen))) or not seen:
            raise ValueError("partition must cover indices 0..n-1")

    @property
    def n_vertices(self) -> int:
        return sum(len(b) for b in self.blocks)


def eccentricities(g: Graph) -> list[int]:
    """Per-vertex eccentricity, taken within each connected component."""
    dist = distances(g)
    masked = np.where(dist >= 0, dist, 0)
    return masked.max(axis=1).astype(int).tolist()


def eccentricity_matrix(g: Graph) -> np.ndarray:
    """Eccentricity matrix with the per-component convention for disconnected graphs."""
    dist = distances(g)
    ecc = np.where(dist >= 0, dist, 0).max(axis=1)
    mins = np.minimum.outer(ecc, ecc)
    mat = np.where((dist > 0) & (dist == mins), dist, 0).astype(np.int64)
    return mat


def is_irreducible(mat: np.ndarray) -> bool:
    """True iff the nonzero-support graph of the matrix is connected."""
    mat = np.asarray(mat)
    if mat.shape[0] == 0:
        return False
    return bool(_reachable(mat != 0, 0).all())


def quotient_matrix(mat: np.ndarray, partition: Partition) -> list[list[Fraction]]:
    """Block row-sum matrix of an equitable partition, as exact Fractions, from
    the integrality certificate's quotient builder: EquitabilityError names the
    offending block pair and rows when some (block i, block j) submatrix has
    non-constant row sums, and a non-integer entry raises ValueError."""
    if partition.n_vertices != len(mat):
        raise ValueError(
            f"partition covers {partition.n_vertices} vertices, matrix has {len(mat)}"
        )
    quotient = _equitable_quotient(mat, partition.blocks)
    return [[Fraction(v) for v in row] for row in quotient.tolist()]


def divisor_class_partition(g: Graph, n: int) -> Partition:
    """Canonical gcd-class partition of a zero-divisor graph's vertex indices.

    Blocks are ordered by ascending divisor d = gcd(label, n).
    """
    by_d: dict[int, list[int]] = {}
    for idx, label in enumerate(g.labels):
        by_d.setdefault(math.gcd(label, n), []).append(idx)
    blocks = tuple(tuple(by_d[d]) for d in sorted(by_d))
    return Partition(blocks)
