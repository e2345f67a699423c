"""Metrics on (tree, linear arrangement) pairs and minimum-D solvers.

D is the sum of dependency distances (edge lengths), C the number of edge
crossings.  The solvers return minima of D under three regimes:
unconstrained, planar (no crossings) and projective (planar with an
uncovered root).  The planar and projective minima are exact; the
unconstrained one is not yet (see the solver notes below).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import NoEdgesError, SizeLimitExceededError
from .trees import Arrangement, FreeTree, RootedTree, _check_same_size

DEFAULT_EXHAUSTIVE_BOUND = 10

Tree = Union[FreeTree, RootedTree]


@dataclass(frozen=True)
class ArrangementFlags:
    projective: bool
    planar: bool
    one_endpoint_crossing: bool


@dataclass(frozen=True)
class FluxProfile:
    """Per-gap flux: gap g separates positions g and g+1."""

    sizes: tuple[int, ...]
    weights: tuple[int, ...]

    @property
    def total_size(self) -> int:
        return sum(self.sizes)

    @property
    def max_size(self) -> int:
        return max(self.sizes)

    @property
    def max_weight(self) -> int:
        return max(self.weights)


@dataclass(frozen=True)
class MinArrangementResult:
    value: int
    arrangement: Arrangement


def _positioned_edges(t: Tree, a: Arrangement) -> list[tuple[int, int]]:
    """Edges as (l, r) position pairs with l < r."""
    pos = a.position
    out = []
    for u, v in t.edges():
        pu, pv = pos[u], pos[v]
        out.append((pu, pv) if pu < pv else (pv, pu))
    return out


def sum_edge_lengths(t: Tree, a: Arrangement) -> int:
    _check_same_size(t, a)
    pos = a.position
    return sum(abs(pos[u] - pos[v]) for u, v in t.edges())


def _crossings_brute(edges: list[tuple[int, int]]) -> int:
    c = 0
    for (a, b), (x, y) in itertools.combinations(edges, 2):
        if a < x < b < y or x < a < y < b:
            c += 1
    return c


def _crossings_sweep(edges: list[tuple[int, int]], n: int) -> int:
    # Fenwick tree over right endpoints of already-opened edges.
    bit = [0] * (n + 1)

    def add(i: int) -> None:
        while i <= n:
            bit[i] += 1
            i += i & -i

    def prefix(i: int) -> int:
        s = 0
        while i > 0:
            s += bit[i]
            i -= i & -i
        return s

    by_left: list[list[int]] = [[] for _ in range(n + 1)]
    for l, r in edges:
        by_left[l].append(r)
    c = 0
    for p in range(1, n + 1):
        rights = by_left[p]
        for r in rights:
            # open edges (l' < p) crossing (p, r) have r' in (p, r)
            c += prefix(r - 1) - prefix(p)
        for r in rights:
            add(r)
    return c


def num_crossings(t: Tree, a: Arrangement, algorithm: str = "sweep") -> int:
    _check_same_size(t, a)
    edges = _positioned_edges(t, a)
    if algorithm == "brute_pairs":
        return _crossings_brute(edges)
    if algorithm == "sweep":
        return _crossings_sweep(edges, t.n)
    raise ValueError(f"unknown crossings algorithm: {algorithm!r}")


def classify_arrangement(t: RootedTree, a: Arrangement) -> ArrangementFlags:
    _check_same_size(t, a)
    edges = _positioned_edges(t, a)
    crossing_sets: list[list[int]] = [[] for _ in edges]
    any_crossing = False
    for i, j in itertools.combinations(range(len(edges)), 2):
        ai, bi = edges[i]
        aj, bj = edges[j]
        if ai < aj < bi < bj or aj < ai < bj < bi:
            crossing_sets[i].append(j)
            crossing_sets[j].append(i)
            any_crossing = True
    planar = not any_crossing
    rp = a.position[t.root]
    projective = planar and not any(l < rp < r for l, r in edges)
    one_ec = True
    for i, crossers in enumerate(crossing_sets):
        if len(crossers) < 2:
            continue
        common = set(edges[crossers[0]])
        for j in crossers[1:]:
            common &= set(edges[j])
            if not common:
                one_ec = False
                break
        if not one_ec:
            break
    return ArrangementFlags(projective=projective, planar=planar, one_endpoint_crossing=one_ec)


def head_initial_ratio(t: RootedTree, a: Arrangement) -> Fraction:
    _check_same_size(t, a)
    if t.n < 2:
        raise NoEdgesError("head-initial ratio undefined on a single vertex")
    pos = a.position
    head_first = sum(1 for head, dep in t.edges() if pos[head] < pos[dep])
    return Fraction(head_first, t.n - 1)


def _max_matching_forest(vertices: set[int], edges: list[tuple[int, int]]) -> int:
    """Maximum matching of a forest, by greedy leaf matching (optimal on forests)."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    matched: set[int] = set()
    visited: set[int] = set()
    count = 0
    for start in vertices:
        if start in visited:
            continue
        # iterative post-order over the component
        order = []
        parent = {start: 0}
        stack = [start]
        visited.add(start)
        while stack:
            x = stack.pop()
            order.append(x)
            for y in adj[x]:
                if y not in visited:
                    visited.add(y)
                    parent[y] = x
                    stack.append(y)
        for x in reversed(order):
            p = parent[x]
            if p and x not in matched and p not in matched:
                matched.add(x)
                matched.add(p)
                count += 1
    return count


def flux(t: Tree, a: Arrangement) -> FluxProfile:
    _check_same_size(t, a)
    if t.n < 2:
        raise NoEdgesError("flux undefined on a single vertex")
    edges = _positioned_edges(t, a)
    sizes = []
    weights = []
    for g in range(1, t.n):
        spanning = [(l, r) for l, r in edges if l <= g < r]
        sizes.append(len(spanning))
        if spanning:
            verts = {p for e in spanning for p in e}
            weights.append(_max_matching_forest(verts, spanning))
        else:
            weights.append(0)
    return FluxProfile(sizes=tuple(sizes), weights=tuple(weights))


# ---------------------------------------------------------------------------
# Minimum-D solvers
#
# Projectivity is equivalent to every subtree occupying a contiguous interval
# with the root uncovered.  The projective minimum then has a closed form
# (Gildea & Temperley 2007; Alemany-Puig, Esteban & Ferrer-i-Cancho 2022,
# "Minimum projective linearizations of trees in linear time"): at each
# vertex, sort the child blocks by decreasing size and alternate them between
# the two sides, larger blocks farther out.  At a non-root vertex the edge to
# the parent passes over every block on the parent's side, so the parent
# counts as the largest block there: the largest child goes opposite the
# parent and the rest alternate.  A planar arrangement of a free tree is a
# projective arrangement of the tree rooted at its leftmost vertex, and the
# planar minimum is the projective minimum rooted at a centroid (Hochberg &
# Stallmann 2003; same 2022 paper).  Sorting makes both O(n log n).
#
# min_D_unconstrained still delegates to the planar solver, which is wrong on
# some trees: an optimal unconstrained arrangement need not be crossing-free
# (a counterexample with n = 16 is a root joined to three spiders that each
# have two legs of length 2; the minimum is 25, the planar minimum 26).
# ---------------------------------------------------------------------------


def _subtree_sizes(t: RootedTree) -> tuple[list[int], list[int]]:
    """A parents-before-children vertex order and every subtree's size."""
    children = t.children
    topo = [t.root]
    for v in topo:
        topo.extend(children[v])
    size = [1] * (t.n + 1)
    parent = t.parent
    for v in reversed(topo[1:]):
        size[parent[v]] += size[v]
    return topo, size


def _min_projective(t: RootedTree) -> tuple[int, list[int]]:
    """Exact projective minimum of D with a witness position list (index 0 unused)."""
    children, parent = t.children, t.parent
    topo, size = _subtree_sizes(t)
    lo = [0] * (t.n + 1)  # first position of each subtree's interval
    # whether each vertex's parent lies to its left; the root's side is arbitrary
    parent_left = [True] * (t.n + 1)
    lo[t.root] = 1
    pos = [0] * (t.n + 1)
    for v in topo:
        kids = sorted(children[v], key=size.__getitem__, reverse=True)
        opposite, near = kids[0::2], kids[1::2]
        left, right = (near, opposite) if parent_left[v] else (opposite, near)
        p = lo[v]
        for c in left:  # from the far left inwards; v is to their right
            lo[c] = p
            parent_left[c] = False
            p += size[c]
        pos[v] = p
        q = lo[v] + size[v]
        for c in right:  # from the far right inwards
            q -= size[c]
            lo[c] = q
    value = sum(abs(pos[v] - pos[parent[v]]) for v in topo[1:])
    return value, pos


def min_D_projective(t: RootedTree, algorithm: str = "gt_alemany",
                     max_n: int = DEFAULT_EXHAUSTIVE_BOUND) -> MinArrangementResult:
    algorithm = algorithm.lower()
    if algorithm == "exhaustive":
        return _min_D_exhaustive(t, "projective", max_n)
    if algorithm != "gt_alemany":
        raise ValueError(f"unknown projective solver: {algorithm!r}")
    value, pos = _min_projective(t)
    return MinArrangementResult(value, Arrangement(pos[1:]))


def _centroid(t: RootedTree) -> int:
    """A vertex whose removal leaves no component with more than n/2 vertices."""
    _, size = _subtree_sizes(t)
    v = t.root
    while True:
        heavy = [c for c in t.children[v] if 2 * size[c] > t.n]
        if not heavy:
            return v
        v = heavy[0]


def min_D_planar(t: Tree, algorithm: str = "hs_alemany",
                 max_n: int = DEFAULT_EXHAUSTIVE_BOUND) -> MinArrangementResult:
    free = t.to_free() if isinstance(t, RootedTree) else t
    algorithm = algorithm.lower()
    if algorithm == "exhaustive":
        return _min_D_exhaustive(free, "planar", max_n)
    if algorithm != "hs_alemany":
        raise ValueError(f"unknown planar solver: {algorithm!r}")
    rooted = t if isinstance(t, RootedTree) else RootedTree.root_at(free, 1)
    value, pos = _min_projective(RootedTree.root_at(free, _centroid(rooted)))
    return MinArrangementResult(value, Arrangement(pos[1:]))


def min_D_unconstrained(t: Tree, algorithm: str = "shiloach",
                        max_n: int = DEFAULT_EXHAUSTIVE_BOUND) -> MinArrangementResult:
    free = t.to_free() if isinstance(t, RootedTree) else t
    algorithm = algorithm.lower()
    if algorithm == "exhaustive":
        return _min_D_exhaustive(free, "unconstrained", max_n)
    if algorithm not in ("shiloach", "chung_2"):
        raise ValueError(f"unknown unconstrained solver: {algorithm!r}")
    return min_D_planar(free)


def _min_D_exhaustive(t: Tree, constraint: str, max_n: int) -> MinArrangementResult:
    if t.n > max_n:
        raise SizeLimitExceededError(
            f"exhaustive search over {t.n}! arrangements exceeds bound n <= {max_n}")
    if constraint == "projective" and not isinstance(t, RootedTree):
        raise TypeError("projective constraint requires a RootedTree")
    edges = list(t.edges())
    n = t.n
    best = None
    best_perm = None
    for perm in itertools.permutations(range(1, n + 1)):
        # perm maps position index (0-based) -> vertex
        pos = [0] * (n + 1)
        for p, v in enumerate(perm, start=1):
            pos[v] = p
        D = sum(abs(pos[u] - pos[v]) for u, v in edges)
        if best is not None and D >= best:
            continue
        if constraint in ("planar", "projective"):
            pedges = [(pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])
                      for u, v in edges]
            if _crossings_brute(pedges):
                continue
            if constraint == "projective":
                rp = pos[t.root]
                if any(l < rp < r for l, r in pedges):
                    continue
        best = D
        best_perm = perm
    return MinArrangementResult(best, Arrangement.from_vertex_order(best_perm))
