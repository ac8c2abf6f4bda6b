"""Eccentricity matrices, irreducibility, and equitable quotient matrices.

The eccentricity matrix keeps a distance entry d(u, v) only where it attains
min(e(u), e(v)) and zeroes it otherwise.  For disconnected graphs the matrix
is assembled per connected component (block diagonal, cross-component entries
zero, isolated vertices contributing zero rows); this matches how the
disconnected complements of zero-divisor graphs are treated throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from zdgecc.exact_linalg import (
    EquitabilityError,
    IntegralityCertificate,
    _equitable_quotient,
    quotient_certificate,
)
from zdgecc.graphs import Decomposition, Graph, _reachable, distances


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


def class_eccentricity_matrix(model: Decomposition) -> np.ndarray:
    """The eccentricity matrix of a class model at class level (int64, k x k):
    entry (d, e), d != e, is E's value between classes d and e, and diagonal
    entry d is c_d, E's value between two vertices of class d (0 for a class
    of one vertex).

    Class distances come from BFS on the skeleton's k nodes.  Inside class d
    the distance is 1 with a loop, 2 when d has a neighbour class and
    unreachable otherwise; it counts towards the class's eccentricity only
    when the class has more than one vertex.  An entry is kept iff it equals
    the smaller of the two eccentricities, per component as in
    ``eccentricity_matrix``.
    """
    dist = distances(model.skeleton)
    inner = np.where(np.diagonal(model.adj), 1, np.where((dist > 0).any(axis=1), 2, 0))
    np.fill_diagonal(dist, np.where([m > 1 for m in model.sizes], inner, 0))
    ecc = dist.max(axis=1)
    mins = np.minimum.outer(ecc, ecc)
    return np.where((dist > 0) & (dist == mins), dist, 0).astype(np.int64)


def class_is_irreducible(model: Decomposition) -> bool:
    """``is_irreducible`` of the model's eccentricity matrix: the class
    support must be connected, and a single class also needs c != 0 or one
    vertex."""
    support = model.ecc != 0
    if len(support) == 1:
        return bool(support[0, 0]) or model.sizes[0] == 1
    return bool(_reachable(support, 0).all())


def _class_twins(ecc: np.ndarray, sizes, d: int, e: int) -> bool:
    """Whether the vertices of classes d != e are twins as rows of E: they
    agree on every other class, and their common entry is c_d (when class d
    has two vertices or more) and c_e (likewise)."""
    rest = np.ones(len(sizes), dtype=bool)
    rest[[d, e]] = False
    c = ecc[d, e]
    return (
        bool((ecc[d, rest] == ecc[e, rest]).all())
        and (sizes[d] == 1 or ecc[d, d] == c)
        and (sizes[e] == 1 or ecc[e, e] == c)
    )


def class_certificate(model: Decomposition) -> IntegralityCertificate:
    """``integrality_certificate`` of the model's eccentricity matrix, from
    the class data.

    The twin blocks of E are unions of classes (twin classes are merged as
    ``twin_partition`` merges rows), so the quotient and block factors are
    those of the dense path and one ``char_poly`` runs on a matrix of the
    same order.  Only a model of modest vertex count can be certified: each
    block factor is expanded.
    """
    ecc, sizes = model.ecc, model.sizes
    k = len(sizes)
    # weights[d][e]: the sum of E over class e in a row of class d
    weights = [
        [int(ecc[d, e]) * (sizes[e] - (d == e)) for e in range(k)] for d in range(k)
    ]
    blocks: list[list[int]] = []
    for d in range(k):
        for block in blocks:
            if _class_twins(ecc, sizes, block[0], d):
                block.append(d)
                break
        else:
            blocks.append([d])
    quotient = [[sum(weights[a[0]][e] for e in b) for b in blocks] for a in blocks]
    factors: dict[int, int] = {}
    for block in blocks:
        size = sum(sizes[d] for d in block)
        if size > 1:
            root = -int(ecc[block[0], block[-1]])
            factors[root] = factors.get(root, 0) + size - 1
    return quotient_certificate(quotient, factors, max(sum(row) for row in weights))


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
