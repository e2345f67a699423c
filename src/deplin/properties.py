"""Word-order-independent metrics on tree structure and closed-form baselines."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import KindMismatchError, NoEdgesError, TooSmallError
from .trees import FreeTree, RootedTree, _subtree_sizes

Tree = Union[FreeTree, RootedTree]


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
    free = t.to_free()
    m = free.n - 1
    q = m * (m - 1) // 2
    for v in free.vertices():
        d = free.degree(v)
        q -= d * (d - 1) // 2
    return q


def degree_moment(t: Tree, m: int, kind: str = "total") -> Fraction:
    """<k^m>: the m-th moment of (total/in/out) degrees about zero."""
    if m < 1:
        raise ValueError("moment order must be positive")
    if kind == "total":
        free = t.to_free()
        return Fraction(sum(free.degree(v) ** m for v in free.vertices()), free.n)
    if kind not in ("in", "out"):
        raise ValueError(f"unknown degree kind: {kind!r}")
    if not isinstance(t, RootedTree):
        raise KindMismatchError(f"degree kind {kind!r} requires a rooted tree")
    if kind == "in":
        return Fraction(t.n - 1, t.n)  # every non-root vertex has in-degree 1
    return Fraction(sum(len(t.children[v]) ** m for v in t.vertices()), t.n)


def hubiness(t: Tree) -> Fraction:
    """Second degree moment normalized to 0 on paths and 1 on stars."""
    free = t.to_free()
    n = free.n
    if n < 4:
        raise TooSmallError("hubiness requires n >= 4 (path and star coincide below)")
    k2 = degree_moment(free, 2)
    k2_path = Fraction(4 * n - 6, n)
    k2_star = Fraction(n - 1)
    return (k2 - k2_path) / (k2_star - k2_path)


def mean_hierarchical_distance(t: RootedTree) -> Fraction:
    if t.n < 2:
        raise NoEdgesError("MHD undefined on a single vertex")
    depth = t.depths()
    return Fraction(sum(depth[1:]), t.n - 1)


def centre(t: Tree) -> frozenset[int]:
    """Vertices of minimum eccentricity; one vertex or two adjacent ones."""
    free = t.to_free()
    n = free.n
    if n <= 2:
        return frozenset(free.vertices())
    # peel leaves layer by layer until 1 or 2 vertices remain
    degree = [0] + [free.degree(v) for v in free.vertices()]
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
    topo, size = _subtree_sizes(rt)
    return frozenset(v for v in topo if 2 * size[v] >= rt.n
                     and all(2 * size[c] <= rt.n for c in rt.children[v]))


def tree_shape(t: Tree) -> TreeShapeFlags:
    free = t.to_free()
    n = free.n
    degrees = {v: free.degree(v) for v in free.vertices()}
    max_deg = max(degrees.values())
    linear = max_deg <= 2
    star = max_deg == n - 1 or n <= 2
    spider = sum(1 for d in degrees.values() if d >= 3) <= 1

    # quasistar: a star with exactly one edge subdivided (n >= 4)
    quasistar = False
    if n >= 4:
        hubs = [v for v, d in degrees.items() if d == n - 2]
        for h in hubs:
            mids = [w for w in free.neighbors(h) if degrees[w] == 2]
            others_leaves = all(degrees[w] == 1 for w in free.neighbors(h) if degrees[w] != 2)
            if len(mids) == 1 and others_leaves:
                far = [x for x in free.neighbors(mids[0]) if x != h]
                if degrees[far[0]] == 1:
                    quasistar = True
                    break

    # bistar: two adjacent vertices cover all edges (vacuous for n <= 2)
    if n <= 2:
        bistar = True
    else:
        all_edges = list(free.edges())
        bistar = any(
            all(u in (a, b) or v in (a, b) for a, b in all_edges)
            for u, v in all_edges
        )

    # caterpillar: removing all leaves yields a path (or nothing)
    internal = [v for v, d in degrees.items() if d >= 2]
    if not internal:
        caterpillar = True
    else:
        inner_deg_ok = True
        iset = set(internal)
        for v in internal:
            d = sum(1 for w in free.neighbors(v) if w in iset)
            if d > 2:
                inner_deg_ok = False
                break
        caterpillar = inner_deg_ok  # induced subgraph of a tree is a forest; connected here

    return TreeShapeFlags(linear=linear, star=star, quasistar=quasistar,
                          bistar=bistar, caterpillar=caterpillar, spider=spider)


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
