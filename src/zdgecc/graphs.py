"""Construction of zero-divisor graph variants and structural predicates.

Graphs are immutable once built: an ordered tuple of integer vertex labels
plus a symmetric boolean adjacency matrix with an empty diagonal.  All
constructors order vertices canonically (ascending labels, or ascending
divisor for class-grouped constructions) so matrices and reports are
reproducible.

Every graph the package reports on is first a ``ClassGraph``: the sizes of
its twin classes and their loop-flagged class adjacency, k classes whatever
the vertex count.  Structure flags are read from it, its eccentricity data
from the dense engine run on its ``sample`` of at most 2k vertices, its
exact certificate from ``exact_linalg.integrality_certificate`` run on that
sample weighted by class size, and the ``V x V`` graph is only its
expansion (``_induced``).  ``Decomposition.of`` builds the model of a
variant of Z_n from its divisor classes (k = tau(n) - 2), and ``_zpzp``
that of Z_p x Z_p (k = 2).  The dense predicates below stay independent of
the class model, as the reference it is tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from zdgecc.exact_linalg import IntegralityCertificate, integrality_certificate
from zdgecc.number_theory import (
    ClassKind,
    DivisorClass,
    divisor_class,
    factorize,
    is_prime,
)

UNREACHABLE = -1


class EmptyGraphError(ValueError):
    """Raised when Z_n has no nonzero zero divisors (n prime or n < 4)."""


class Graph:
    """Simple undirected graph over unique integer vertex labels."""

    __slots__ = ("labels", "adj")

    def __init__(self, labels, adj):
        labels = tuple(int(x) for x in labels)
        adj = np.array(adj, dtype=bool)
        n = len(labels)
        if adj.shape != (n, n):
            raise ValueError(f"adjacency shape {adj.shape} does not match {n} labels")
        if len(set(labels)) != n:
            raise ValueError("vertex labels must be unique")
        if adj.diagonal().any():
            raise ValueError("simple graph: no loops allowed")
        # one comparison up to 1024 vertices (at most a 1 MiB temporary);
        # above that, each comparison's temporary is 1/16 of adj
        rows = max(1, n if n <= 1024 else n // 16)
        for i in range(0, n, rows):
            if not np.array_equal(adj[i : i + rows], adj[:, i : i + rows].T):
                raise ValueError("adjacency must be symmetric")
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


def _class_adjacency(divs: list[int], m: int) -> np.ndarray:
    """m | d*e for each pair of divisors, as (m // gcd(d, m)) | e: one
    broadcast remainder, on int64 below 2^63 and on Python ints above."""
    dtype = np.int64 if max(m, *divs) < 2**63 else object
    need = np.array([m // math.gcd(d, m) for d in divs], dtype=dtype)
    return np.array(divs, dtype=dtype) % need[:, None] == 0


def build_zdg(n: int) -> Graph:
    """Zero-divisor graph of Z_n: u ~ v iff u*v = 0 (mod n)."""
    return Decomposition.of(n, "zdg").dense()


def build_extended_zdg(n: int) -> Graph:
    """Extended zero-divisor graph: u ~ v iff u^a * v^b = 0 (mod n) for some a, b >= 1.

    Decided by the closed rule "every prime dividing n divides u*v": powers of
    u supply arbitrarily high powers of each prime already present in u, so
    some (a, b) clears every prime of n exactly when the radical of n
    divides u*v.
    """
    return Decomposition.of(n, "extended").dense()


def build_compressed_zdg(n: int) -> Graph:
    """Compressed zero-divisor graph on annihilator-equivalence classes.

    ann(u) is the set of multiples of n / gcd(u, n), so the classes are the
    gcd classes, each labelled by its smallest member, the proper divisor d;
    classes d and e are adjacent iff n | d*e.  That is the divisor skeleton
    ``upsilon(n)``.
    """
    return Decomposition.of(n, "compressed").dense()


def build_zdg_zpzp(p: int) -> Graph:
    """Zero-divisor graph of Z_p x Z_p for prime p.

    Vertices are the pairs (a, 0) and (0, b) with 1 <= a, b < p, flattened to
    integer labels a and p + b.  The result is complete bipartite K_{p-1,p-1}.
    """
    return _zpzp(p)._induced([0] * (p - 1) + [1] * (p - 1), [*range(1, p), *range(p + 1, 2 * p)])


def complement(g: Graph) -> Graph:
    adj = ~g.adj
    np.fill_diagonal(adj, False)
    return Graph(g.labels, adj)


def upsilon(n: int) -> Graph:
    """Skeleton graph on proper divisors: d_i ~ d_j iff n | d_i * d_j."""
    return Decomposition.of(n, "zdg").skeleton


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


VARIANTS = ("zdg", "extended", "compressed", "complement")


@functools.lru_cache(maxsize=512)
def _connected(adj: bytes, k: int) -> bool:
    """Whether the class adjacency ``adj`` (k x k, k >= 2, as bytes) is
    connected.  With two or more classes the graph is connected iff this
    is, whatever the sizes: every class then has a neighbour class, through
    which two of its vertices meet.  Cached per pattern, so the models that
    share one, a survey's or an audit's, run one search."""
    return bool(_reachable(np.frombuffer(adj, dtype=bool).reshape(k, k), 0).all())


def _divisor_classes(n: int) -> list[tuple[int, int]]:
    """(d, phi(n / d)) for every proper divisor d of n, ascending, read off
    n's factorization: phi(n / d) is the product over p^a || n, p^b || d,
    b < a, of p^(a-b-1) (p - 1)."""
    out = [(1, 1)]
    for p, a in factorize(n).factors:
        out = [
            (d * p**b, m * (p ** (a - b - 1) * (p - 1) if b < a else 1))
            for d, m in out
            for b in range(a + 1)
        ]
    return sorted(out)[1:-1]


class ClassGraph:
    """A graph given by its twin classes: ``sizes[d]`` vertices in class d,
    vertices of classes d != e adjacent iff ``adj[d, e]``, and class d a
    clique when ``adj[d, d]`` (its loop flag), an independent set otherwise.
    So the graph is the generalized join of its class adjacency over those
    parts (Cardoso, de Freitas, Martins and Robbiano, Discrete Math., 2013),
    and vertices of one class are twins.  Nothing here is V x V, and nothing
    needs a ring: sizes reach 10^11.

    ``sample`` is the graph induced on a first vertex of every class and a
    second vertex of every class of two or more; twins make its
    eccentricity matrix ``sample_ecc`` hold every distance, eccentricity and
    entry of E, so ``ecc``, ``irreducible`` and ``certificate`` are read
    from it.
    """

    def __init__(self, sizes, adj):
        adj = np.array(adj, dtype=bool)
        adj.setflags(write=False)
        self.sizes, self.adj = tuple(sizes), adj

    @property
    def n_vertices(self) -> int:
        return sum(self.sizes)

    @functools.cached_property
    def degrees(self) -> tuple[int, ...]:
        """Vertex degree in each class: adj @ sizes less the loop, in
        Python ints, exact for any size."""
        return tuple(
            sum(itertools.compress(self.sizes, row)) - row[i]
            for i, row in enumerate(self.adj.tolist())
        )

    @functools.cached_property
    def n_edges(self) -> int:
        return sum(m * deg for m, deg in zip(self.sizes, self.degrees)) // 2

    @functools.cached_property
    def connected(self) -> bool:
        k = len(self.sizes)
        if k == 1:
            return self.sizes[0] == 1 or bool(self.adj[0, 0])
        return _connected(self.adj.tobytes(), k)

    @property
    def tree(self) -> bool:
        return self.connected and self.n_edges == self.n_vertices - 1

    @property
    def star(self) -> bool:
        """Tree with at most one vertex of degree > 1."""
        return self.tree and sum(m for m, deg in zip(self.sizes, self.degrees) if deg > 1) <= 1

    @property
    def complete(self) -> bool:
        v = self.n_vertices
        return self.n_edges == v * (v - 1) // 2

    @functools.cached_property
    def _seconds(self) -> tuple[int, ...]:
        """The classes of two or more vertices, which the sample holds twice
        (sizes pass 2^63, so compared as Python ints)."""
        return tuple(d for d, m in enumerate(self.sizes) if m >= 2)

    @functools.cached_property
    def sample(self) -> Graph:
        """The graph induced on one vertex of every class, in class order,
        then a second vertex of each class in ``_seconds``: at most 2k
        vertices, labelled by position.  The vertices of a class are twins,
        so a shortest path can take its inner vertices from distinct classes
        other than its ends': distances and eccentricities here are those of
        the full graph."""
        cls = [*range(len(self.sizes)), *self._seconds]
        return self._induced(cls, range(len(cls)))

    @functools.cached_property
    def sample_ecc(self) -> np.ndarray:
        """The eccentricity matrix of ``sample``, read-only."""
        from zdgecc.eccentricity import eccentricity_matrix  # imports this module

        ecc = eccentricity_matrix(self.sample)
        ecc.setflags(write=False)  # shared by every caller of the cached model
        return ecc

    @functools.cached_property
    def ecc(self) -> np.ndarray:
        """E at class level (int64, k x k): entry (d, e), d != e, is E's value
        between classes d and e, and diagonal entry d is c_d, E's value
        between two vertices of class d (0 for a class of one vertex)."""
        k, seconds = len(self.sizes), list(self._seconds)
        ecc = self.sample_ecc[:k, :k].copy()
        ecc[seconds, seconds] = self.sample_ecc[seconds, range(k, k + len(seconds))]
        ecc.setflags(write=False)
        return ecc

    @functools.cached_property
    def irreducible(self) -> bool:
        from zdgecc.eccentricity import is_irreducible  # imports this module

        return is_irreducible(self.sample_ecc)

    @property
    def sample_weights(self) -> list[int]:
        """How many vertices of the graph each sample vertex stands for: a
        first vertex its whole class, a second vertex none (it only
        witnesses the class's entry c)."""
        return [*self.sizes, *[0] * len(self._seconds)]

    @functools.cached_property
    def certificate(self) -> IntegralityCertificate:
        """``integrality_certificate`` of E, from the sample weighted by
        ``sample_weights``, so ``char_poly`` runs once per model, on the
        quotient the dense path would build."""
        return integrality_certificate(self.sample_ecc, self.sample_weights)

    def _induced(self, cls, labels) -> Graph:
        """The graph on one vertex per entry of ``cls`` (its class index),
        labelled by ``labels``: vertices of classes d != e are adjacent iff
        adj[d, e], two of one class iff its loop flag."""
        adj = self.adj[np.ix_(cls, cls)]
        np.fill_diagonal(adj, False)
        return Graph(labels, adj)


def _zpzp(p: int) -> ClassGraph:
    """Z_p x Z_p for prime p: the classes (a, 0) and (0, b), 1 <= a, b < p,
    adjacent to each other only, so the graph is K_{p-1,p-1}."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return ClassGraph((p - 1, p - 1), [[False, True], [True, False]])


@dataclass(frozen=True, eq=False)
class Decomposition(ClassGraph):
    """Divisor-class model of a zero-divisor graph variant of Z_n.

    Class d holds the vertices v with gcd(v, n) = d, one class per proper
    divisor, and has ``sizes[d] = phi(n / d)`` vertices (1 in the compressed
    graph, whose vertices are the divisors); ``adj`` is its class adjacency
    (see ``ClassGraph``) and ``skeleton`` that adjacency on the divisors.
    """

    n: int
    variant: str
    divisors: tuple[int, ...]
    sizes: tuple[int, ...]
    adj: np.ndarray

    @classmethod
    @functools.lru_cache(maxsize=512)
    def of(cls, n: int, variant: str) -> "Decomposition":
        """The model of ``variant`` of Z_n, cached per (n, variant) (the
        most recent 512: a survey reads each model once, an audit a few
        hundred over and over).

        Class adjacency is n | d*e (zdg and compressed), rad(n) | d*e
        (extended), or its negation, diagonal included (complement).
        """
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if n < 4 or is_prime(n):
            raise EmptyGraphError(f"Z_{n} has no nonzero zero divisors")
        divs, sizes = zip(*_divisor_classes(n))
        adj = _class_adjacency(divs, factorize(n).radical if variant == "extended" else n)
        if variant == "complement":
            adj = ~adj
        if variant == "compressed":
            sizes = (1,) * len(divs)
        adj.setflags(write=False)
        return cls(n, variant, divs, sizes, adj)

    @property
    def skeleton(self) -> Graph:
        """The class adjacency without loops, on the divisors."""
        return self._induced(range(len(self.sizes)), self.divisors)

    @property
    def parts(self) -> tuple[tuple[DivisorClass, ClassKind], ...]:
        """One (class, kind) per skeleton vertex; materializes every class."""
        return tuple(
            (divisor_class(self.n, d), ClassKind.COMPLETE if loop else ClassKind.NULL)
            for d, loop in zip(self.divisors, np.diagonal(self.adj).tolist())
        )

    def reconstruct(self) -> Graph:
        build = {ClassKind.COMPLETE: complete_graph, ClassKind.NULL: null_graph}
        return generalized_join(self.skeleton, [build[kind](c.elements) for c, kind in self.parts])

    def dense(self, bytes_per_cell: int = 1) -> Graph:
        """The V x V graph: each class expanded to its vertices, ascending.

        Raises MemoryError before anything is allocated when V^2 cells of
        ``bytes_per_cell`` bytes do not fit (``_check_fits``): 1 for the
        boolean adjacency, 9 for a caller that also builds the int64
        eccentricity matrix."""
        if self.variant == "compressed":
            return self.skeleton
        order = self.n_vertices
        _check_fits(order, bytes_per_cell)
        elems = np.arange(1, self.n, dtype=np.int64)
        gcds = np.gcd(elems, self.n)
        cls = np.searchsorted(np.array(self.divisors, dtype=np.int64), gcds[gcds != 1])
        return self._induced(cls, elems[gcds != 1])


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        pages, page = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return pages * page if pages > 0 and page > 0 else None


def _check_fits(order: int, bytes_per_cell: int) -> None:
    """MemoryError unless ``order x order`` cells of ``bytes_per_cell``
    bytes fit in numpy's index range and in physical memory."""
    cells = order * order
    # past intp, numpy raises ValueError or OverflowError, not MemoryError
    if cells > np.iinfo(np.intp).max:
        raise MemoryError(f"a {order} x {order} adjacency exceeds numpy's index range")
    memory = _physical_memory()
    if memory is not None and cells * bytes_per_cell > memory:
        raise MemoryError(
            f"{order} x {order} cells of {bytes_per_cell} bytes exceed "
            f"the {memory} bytes of physical memory"
        )


def decompose_zdg(n: int) -> Decomposition:
    """Divisor-class decomposition whose reconstruction equals build_zdg(n)."""
    return Decomposition.of(n, "zdg")


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
