"""Word-order-independent metrics on tree structure and closed-form baselines."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NoEdgesError, TooSmallError
from .trees import RootedTree, Tree, _check_rooted, _degrees


@dataclass(frozen=True)
class TreeShapeFlags:
    linear: bool
    star: bool
    quasistar: bool
    bistar: bool
    caterpillar: bool
    spider: bool


def num_independent_edge_pairs(t: Tree) -> int:
    """Q: pairs of edges sharing no vertex."""
    m = t.n - 1
    return m * (m - 1) // 2 - sum(d * (d - 1) for d in _degrees(t)) // 2


def degree_moment(t: Tree, m: int, kind: str = "total") -> Fraction:
    """<k^m>: the m-th moment of (total/in/out) degrees about zero."""
    if m < 1:
        raise ValueError("moment order must be positive")
    if kind == "total":
        return Fraction(sum(d ** m for d in _degrees(t)), t.n)
    if kind not in ("in", "out"):
        raise ValueError(f"unknown degree kind: {kind!r}")
    _check_rooted(t, f"degree kind {kind!r}")
    if kind == "in":
        return Fraction(t.n - 1, t.n)  # every non-root vertex has in-degree 1
    return Fraction(sum(len(t.children[v]) ** m for v in t.vertices()), t.n)


def hubiness(t: Tree) -> Fraction:
    """Second degree moment normalized to 0 on paths and 1 on stars.

    The degree sum of squares is 4n - 6 on a path and n(n - 1) on a star."""
    n = t.n
    if n < 4:
        raise TooSmallError("hubiness requires n >= 4 (path and star coincide below)")
    path = 4 * n - 6
    return Fraction(sum(d * d for d in _degrees(t)) - path, n * (n - 1) - path)


def mean_hierarchical_distance(t: RootedTree) -> Fraction:
    """Mean depth of the non-root vertices.  A vertex's depth counts the
    subtrees it lies in below the root, so the depths sum to the sizes of
    the non-root subtrees."""
    _check_rooted(t, "mean hierarchical distance")
    if t.n < 2:
        raise NoEdgesError("MHD undefined on a single vertex")
    return Fraction(sum(t._subtree_sizes()) - t.n, t.n - 1)


def centre(t: Tree) -> frozenset[int]:
    """Vertices of minimum eccentricity; one vertex or two adjacent ones."""
    free = t.to_free()
    n = free.n
    # peel leaves layer by layer until 1 or 2 vertices remain
    degree = [len(a) for a in free._adj]
    remaining = n
    layer = [v for v in free.vertices() if degree[v] == 1]
    removed = bytearray(n + 1)
    while remaining > 2:
        nxt = []
        for v in layer:
            removed[v] = 1
        remaining -= len(layer)
        for v in layer:
            for w in free.neighbors(v):
                if not removed[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return frozenset(v for v in free.vertices() if not removed[v])


def centroid(t: Tree) -> frozenset[int]:
    """Vertices minimizing the largest component size after their removal.

    These are the vertices that leave no component above n/2: one, or two
    adjacent ones.  Only vertices on the path of subtrees with at least n/2
    vertices, which starts at the root, pass the first test."""
    rt = t if isinstance(t, RootedTree) else RootedTree.root_at(t, 1)
    size = rt._subtree_sizes()
    return frozenset(v for v in rt._order if 2 * size[v] >= rt.n
                     and all(2 * size[c] <= rt.n for c in rt.children[v]))


def tree_shape(t: Tree) -> TreeShapeFlags:
    """Shape flags; all but caterpillar are read off the degree sequence."""
    n = t.n
    degree = _degrees(t)
    max_deg = max(degree)
    # quasistar: a star with one edge subdivided.  Degrees sum to 2n - 2, so
    # a largest degree of n - 2 forces (n-2, 2, 1, ..., 1), the degree
    # sequence of that tree and of no other; below n = 4 no tree has it.
    # bistar: two adjacent vertices cover all edges; every other vertex is
    # then a leaf.
    # caterpillar: removing all leaves yields a path (or nothing), so no
    # vertex has three internal neighbours.
    internal_neighbours = [0] * (n + 1)
    for u, v in t.edges():
        if degree[u] >= 2 and degree[v] >= 2:
            internal_neighbours[u] += 1
            internal_neighbours[v] += 1
    return TreeShapeFlags(
        linear=max_deg <= 2,
        star=max_deg == n - 1,
        quasistar=max_deg == n - 2,
        bistar=sum(1 for d in degree if d >= 2) <= 2,
        caterpillar=max(internal_neighbours) <= 2,
        spider=sum(1 for d in degree if d >= 3) <= 1)


def expected_D_unconstrained(t: Tree) -> Fraction:
    """Mean of D over all n! arrangements: (n-1)(n+1)/3."""
    n = t.n
    if n < 2:
        raise NoEdgesError("expected D undefined on a single vertex")
    return Fraction((n - 1) * (n + 1), 3)


def expected_C_unconstrained(t: Tree) -> Fraction:
    """Mean of C over all n! arrangements: Q/3."""
    if t.n < 2:
        raise NoEdgesError("expected C undefined on a single vertex")
    return Fraction(num_independent_edge_pairs(t), 3)
