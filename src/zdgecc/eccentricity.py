"""Eccentricity matrices, irreducibility, and equitable quotient matrices.

The eccentricity matrix keeps a distance entry d(u, v) only where it attains
min(e(u), e(v)) and zeroes it otherwise.  For disconnected graphs the matrix
is assembled per connected component (block diagonal, cross-component entries
zero, isolated vertices contributing zero rows); this matches how the
disconnected complements of zero-divisor graphs are treated throughout.

These functions are the one eccentricity engine: a class model
(``graphs.Decomposition``) runs them on its two-vertex-per-class sample, and
``class_certificate`` reads its twin classes off that sample's matrix.
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


def class_certificate(model: Decomposition) -> IntegralityCertificate:
    """``integrality_certificate`` of the model's eccentricity matrix, from
    the class data.

    The twin blocks of E are unions of classes: classes d and e are merged
    when their first vertices are twins in the sample, whose rows d and e
    agree in every column but d and e (the sample's second vertices carry
    each class's own entry c), as ``twin_partition`` merges rows.  So the
    quotient and block factors are those of the dense path and one
    ``char_poly`` runs on a matrix of the same order.  Only a model of
    modest vertex count can be certified: each block factor is expanded.
    """
    ecc, sizes, sample = model.ecc, model.sizes, model.sample_ecc
    k = len(sizes)
    # weights[d][e]: the sum of E over class e in a row of class d
    weights = [
        [int(ecc[d, e]) * (sizes[e] - (d == e)) for e in range(k)] for d in range(k)
    ]
    blocks: list[list[int]] = []
    for d in range(k):
        for block in blocks:
            agree = sample[block[0]] == sample[d]
            agree[[block[0], d]] = True
            if agree.all():
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
