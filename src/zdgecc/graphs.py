"""Construction of zero-divisor graph variants and structural predicates.

Graphs are immutable once built: an ordered tuple of integer vertex labels
plus a symmetric boolean adjacency matrix with an empty diagonal.  All
constructors order vertices canonically (ascending labels, or ascending
divisor for class-grouped constructions) so matrices and reports are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from zdgecc.number_theory import (
    ClassKind,
    DivisorClass,
    class_graph_kind,
    divisor_class,
    euler_phi,
    factorize,
    is_prime,
    proper_divisors,
)

UNREACHABLE = -1


class EmptyGraphError(ValueError):
    """Raised when Z_n has no nonzero zero divisors (n prime or n < 4)."""


class Graph:
    """Simple undirected graph over unique integer vertex labels."""

    __slots__ = ("labels", "adj")

    def __init__(self, labels, adj):
        labels = tuple(int(x) for x in labels)
        adj = np.asarray(adj, dtype=bool)
        n = len(labels)
        if adj.shape != (n, n):
            raise ValueError(f"adjacency shape {adj.shape} does not match {n} labels")
        if len(set(labels)) != n:
            raise ValueError("vertex labels must be unique")
        if adj.diagonal().any():
            raise ValueError("simple graph: no loops allowed")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj = adj.copy()
        adj.setflags(write=False)
        self.labels = labels
        self.adj = adj

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def index_of(self, label: int) -> int:
        return self.labels.index(label)

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1)

    def edge_set(self) -> set[tuple[int, int]]:
        """Edges as label pairs (small label first)."""
        ii, jj = np.nonzero(np.triu(self.adj, 1))
        out = set()
        for i, j in zip(ii.tolist(), jj.tolist()):
            a, b = self.labels[i], self.labels[j]
            out.add((a, b) if a <= b else (b, a))
        return out

    def edge_identical(self, other: "Graph") -> bool:
        """Same labelled vertex set and same labelled edge set."""
        return set(self.labels) == set(other.labels) and self.edge_set() == other.edge_set()

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.labels, self.adj.tobytes()))

    def __repr__(self):
        return f"Graph({self.n_vertices} vertices, {self.n_edges} edges)"


def null_graph(labels) -> Graph:
    n = len(tuple(labels))
    return Graph(labels, np.zeros((n, n), dtype=bool))


def complete_graph(labels) -> Graph:
    labels = tuple(labels)
    n = len(labels)
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return Graph(labels, adj)


def _zero_divisor_labels(n: int) -> np.ndarray:
    if n < 4 or is_prime(n):
        raise EmptyGraphError(f"Z_{n} has no nonzero zero divisors")
    order = n - euler_phi(n) - 1
    # past intp, numpy raises ValueError or OverflowError, not MemoryError
    if order * order > np.iinfo(np.intp).max:
        raise MemoryError(f"a {order} x {order} adjacency exceeds numpy's index range")
    elems = np.arange(1, n, dtype=np.int64)
    return elems[np.gcd(elems, n) != 1]


def _class_adjacency(divs: list[int], m: int) -> np.ndarray:
    """m | d*e for each pair of divisors, as (m // gcd(d, m)) | e in Python ints."""
    need = [m // math.gcd(d, m) for d in divs]
    return np.array([[e % q == 0 for e in divs] for q in need], dtype=bool)


def _gcd_class_graph(n: int, m: int) -> Graph:
    """u ~ v iff m | u*v, for m | n; that holds iff m | gcd(u, n) * gcd(v, n),
    so it is decided once per pair of gcd classes and expanded to vertices."""
    labels = _zero_divisor_labels(n)
    divs, cls = np.unique(np.gcd(labels, n), return_inverse=True)
    adj = _class_adjacency(divs.tolist(), m)[np.ix_(cls, cls)]
    np.fill_diagonal(adj, False)
    return Graph(labels, adj)


def build_zdg(n: int) -> Graph:
    """Zero-divisor graph of Z_n: u ~ v iff u*v = 0 (mod n)."""
    return _gcd_class_graph(n, n)


def build_extended_zdg(n: int) -> Graph:
    """Extended zero-divisor graph: u ~ v iff u^a * v^b = 0 (mod n) for some a, b >= 1.

    Decided by the closed rule "every prime dividing n divides u*v": powers of
    u supply arbitrarily high powers of each prime already present in u, so
    some (a, b) clears every prime of n exactly when the radical of n
    divides u*v.
    """
    return _gcd_class_graph(n, factorize(n).radical)


def build_compressed_zdg(n: int) -> Graph:
    """Compressed zero-divisor graph on annihilator-equivalence classes.

    ann(u) is the set of multiples of n / gcd(u, n), so the classes are the
    gcd classes, each labelled by its smallest member, the proper divisor d;
    classes d and e are adjacent iff n | d*e.  That is the divisor skeleton
    ``upsilon(n)``.
    """
    return upsilon(n)


def build_zdg_zpzp(p: int) -> Graph:
    """Zero-divisor graph of Z_p x Z_p for prime p.

    Vertices are the pairs (a, 0) and (0, b) with 1 <= a, b < p, flattened to
    integer labels a and p + b.  The result is complete bipartite K_{p-1,p-1}.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    m = p - 1
    adj = np.zeros((2 * m, 2 * m), dtype=bool)
    adj[:m, m:] = True
    adj[m:, :m] = True
    return Graph([*range(1, p), *range(p + 1, 2 * p)], adj)


def complement(g: Graph) -> Graph:
    adj = ~g.adj
    np.fill_diagonal(adj, False)
    return Graph(g.labels, adj)


def upsilon(n: int) -> Graph:
    """Skeleton graph on proper divisors: d_i ~ d_j iff n | d_i * d_j."""
    if n < 4 or is_prime(n):
        raise EmptyGraphError(f"Z_{n} has no proper divisor skeleton")
    divs = proper_divisors(n)
    adj = _class_adjacency(divs, n)
    np.fill_diagonal(adj, False)
    return Graph(divs, adj)


def generalized_join(skeleton: Graph, parts: list[Graph]) -> Graph:
    """Replace each skeleton vertex by a part and join parts across edges."""
    if len(parts) != skeleton.n_vertices:
        raise ValueError(
            f"{skeleton.n_vertices} skeleton vertices but {len(parts)} parts"
        )
    labels: list[int] = []
    for part in parts:
        labels.extend(part.labels)
    if len(set(labels)) != len(labels):
        raise ValueError("part labels must be pairwise disjoint")
    total = len(labels)
    adj = np.zeros((total, total), dtype=bool)
    offsets = []
    pos = 0
    for part in parts:
        offsets.append(pos)
        m = part.n_vertices
        adj[pos : pos + m, pos : pos + m] = part.adj
        pos += m
    for i in range(skeleton.n_vertices):
        for j in range(i + 1, skeleton.n_vertices):
            if skeleton.adj[i, j]:
                oi, oj = offsets[i], offsets[j]
                mi, mj = parts[i].n_vertices, parts[j].n_vertices
                adj[oi : oi + mi, oj : oj + mj] = True
                adj[oj : oj + mj, oi : oi + mi] = True
    return Graph(labels, adj)


@dataclass(frozen=True)
class Decomposition:
    """Generalized-join decomposition of a zero-divisor graph.

    skeleton: the proper-divisor graph; parts: one (class, kind) per skeleton
    vertex, in skeleton label order.
    """

    skeleton: Graph
    parts: tuple[tuple[DivisorClass, ClassKind], ...]

    def reconstruct(self) -> Graph:
        part_graphs = []
        for cls, kind in self.parts:
            if kind is ClassKind.COMPLETE:
                part_graphs.append(complete_graph(cls.elements))
            else:
                part_graphs.append(null_graph(cls.elements))
        return generalized_join(self.skeleton, part_graphs)


def decompose_zdg(n: int) -> Decomposition:
    """Divisor-class decomposition whose reconstruction equals build_zdg(n)."""
    skel = upsilon(n)
    parts = tuple(
        (divisor_class(n, d), class_graph_kind(n, d)) for d in skel.labels
    )
    return Decomposition(skel, parts)


def distances(g: Graph) -> np.ndarray:
    """All-pairs shortest-path lengths; UNREACHABLE (-1) across components.

    Levelwise expansion with one float matmul per distance level; zero-divisor
    graphs have tiny diameters, so very few levels are needed.
    """
    n = g.n_vertices
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    if n == 0:
        return dist
    adj = g.adj.astype(np.float64)
    reached = np.eye(n, dtype=bool) | g.adj
    dist[g.adj] = 1
    frontier = g.adj.copy()
    d = 1
    while frontier.any():
        nxt = (frontier.astype(np.float64) @ adj) > 0
        nxt &= ~reached
        if not nxt.any():
            break
        d += 1
        dist[nxt] = d
        reached |= nxt
        frontier = nxt
    return dist


def _reachable(support: np.ndarray, source: int) -> np.ndarray:
    """Boolean mask of the indices reachable from ``source`` along the
    nonzero entries of a square boolean support matrix (source included)."""
    comp = np.zeros(support.shape[0], dtype=bool)
    comp[source] = True
    frontier = comp.copy()
    while frontier.any():
        nxt = support[frontier].any(axis=0) & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex-index components, each ascending, ordered by smallest index."""
    n = g.n_vertices
    seen = np.zeros(n, dtype=bool)
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = _reachable(g.adj, s)
        seen |= comp
        comps.append(np.nonzero(comp)[0].tolist())
    return comps


def is_connected(g: Graph) -> bool:
    return g.n_vertices > 0 and len(connected_components(g)) == 1


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.n_edges == g.n_vertices - 1


def is_star(g: Graph) -> bool:
    """Tree with at most one vertex of degree > 1 (K1 and K2 count)."""
    if not is_tree(g):
        return False
    return int(np.count_nonzero(g.degrees() > 1)) <= 1


def is_complete(g: Graph) -> bool:
    n = g.n_vertices
    return g.n_edges == n * (n - 1) // 2


def to_adjacency_text(g: Graph) -> str:
    """One line per vertex: ``label: neighbor,neighbor,...`` (ascending)."""
    lines = []
    for i, lab in enumerate(g.labels):
        nbrs = sorted(g.labels[j] for j in np.nonzero(g.adj[i])[0])
        lines.append(f"{lab}: {','.join(str(x) for x in nbrs)}".rstrip())
    return "\n".join(lines) + "\n"
