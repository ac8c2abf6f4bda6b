"""Independent brute-force oracles used to check the library.

Everything here is deliberately naive and self-contained: dictionary BFS,
pair-by-pair modular products, cofactor determinants over Fractions, and
sympy's division-free Berkowitz characteristic polynomial.  Tests compare
the fast library implementations against these.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix


def brute_zdg_vertices(n: int) -> list[int]:
    return [u for u in range(1, n) if gcd(u, n) != 1]


def brute_zdg_edges(n: int) -> set[tuple[int, int]]:
    verts = brute_zdg_vertices(n)
    return {
        (u, v)
        for u, v in itertools.combinations(verts, 2)
        if (u * v) % n == 0
    }


def brute_extended_edges(n: int, max_exp: int) -> set[tuple[int, int]]:
    """Edges of the extended graph by explicit search over exponent pairs."""
    verts = brute_zdg_vertices(n)
    out = set()
    for u, v in itertools.combinations(verts, 2):
        if any(
            (pow(u, a, n) * pow(v, b, n)) % n == 0
            for a in range(1, max_exp + 1)
            for b in range(1, max_exp + 1)
        ):
            out.add((u, v))
    return out


def brute_distances(labels, edges) -> dict[tuple[int, int], int]:
    adj: dict[int, set[int]] = {u: set() for u in labels}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    dist: dict[tuple[int, int], int] = {}
    for s in labels:
        dist[(s, s)] = 0
        frontier, seen, d = [s], {s}, 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        dist[(s, w)] = d
                        nxt.append(w)
            frontier = nxt
    return dist


def brute_ecc_matrix(labels, edges) -> list[list[int]]:
    """Eccentricity matrix from scratch, per connected component."""
    labels = list(labels)
    dist = brute_distances(labels, edges)
    ecc = {
        u: max((d for (a, _), d in dist.items() if a == u), default=0)
        for u in labels
    }
    m = len(labels)
    out = [[0] * m for _ in range(m)]
    for i, u in enumerate(labels):
        for j, v in enumerate(labels):
            d = dist.get((u, v))
            if i != j and d is not None and d == min(ecc[u], ecc[v]):
                out[i][j] = d
    return out


def naive_det(mat) -> Fraction:
    """Cofactor-expansion determinant over exact rationals."""
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * m[0][j] * naive_det(minor)
    return total


def sympy_char_poly(mat) -> tuple[int, ...]:
    """Ascending coefficients of det(xI - M) by sympy's Berkowitz over ZZ."""
    rows = [[ZZ(int(v)) for v in row] for row in mat]
    return tuple(reversed([int(c) for c in DomainMatrix(rows, (len(rows), len(rows)), ZZ).charpoly()]))


def poly_from_roots(roots) -> list[int]:
    """Monic integer polynomial with the given roots, ascending coefficients."""
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        coeffs = [c - r * coeffs[i + 1] if i + 1 < len(coeffs) else c
                  for i, c in enumerate(coeffs)]
    return coeffs


def brute_twin_blocks(mat) -> tuple[tuple[int, ...], ...]:
    """Twin blocks by the definition, pair by pair: rows i != j are twins when
    M[i][i] == M[j][j] and M[i][l] == M[j][l] for every l other than i and j.
    Each block, singletons included, is the lowest unplaced row and its twins."""
    m = [list(row) for row in mat]
    n = len(m)

    def twins(i, j):
        return m[i][i] == m[j][j] and all(
            m[i][l] == m[j][l] for l in range(n) if l not in (i, j)
        )

    blocks, placed = [], set()
    for i in range(n):
        if i not in placed:
            block = (i,) + tuple(j for j in range(i + 1, n) if twins(i, j))
            placed.update(block)
            blocks.append(block)
    return tuple(blocks)
