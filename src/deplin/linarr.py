"""Metrics on (tree, linear arrangement) pairs and minimum-D solvers.

D is the sum of dependency distances (edge lengths), C the number of edge
crossings, counted by a Fenwick-tree sweep in O(m log n).  An arrangement is
planar when C = 0 and projective when it is planar and no edge covers the
root; only an arrangement with a crossing needs the pairwise test for one
endpoint crossing.  Flux comes from one left-to-right pass over the gaps.

The solvers return minima of D under three regimes: unconstrained, planar
(no crossings) and projective (planar with an uncovered root).  The planar
and projective minima are exact; the unconstrained one is not yet (see the
solver notes below).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from . import properties
from .errors import NoEdgesError
from .trees import Arrangement, FreeTree, RootedTree, _check_same_size, _subtree_sizes

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


def num_crossings(t: Tree, a: Arrangement) -> int:
    _check_same_size(t, a)
    return _crossings_sweep(_positioned_edges(t, a), t.n)


def _one_endpoint_crossing(edges: list[tuple[int, int]]) -> bool:
    """Whether the edges crossing any one edge share an endpoint, by testing
    every pair; stops at the first edge whose crossing edges share none."""
    common: list[Optional[set[int]]] = [None] * len(edges)
    for (i, (a, b)), (j, (x, y)) in itertools.combinations(enumerate(edges), 2):
        if a < x < b < y or x < a < y < b:
            for k, other in ((i, {x, y}), (j, {a, b})):
                common[k] = other if common[k] is None else common[k] & other
                if not common[k]:
                    return False
    return True


def _classify(edges: list[tuple[int, int]], crossings: int,
              root_position: int) -> ArrangementFlags:
    planar = crossings == 0
    projective = planar and not any(l < root_position < r for l, r in edges)
    return ArrangementFlags(projective=projective, planar=planar,
                            one_endpoint_crossing=planar or _one_endpoint_crossing(edges))


def classify_arrangement(t: RootedTree, a: Arrangement) -> ArrangementFlags:
    _check_same_size(t, a)
    edges = _positioned_edges(t, a)
    return _classify(edges, _crossings_sweep(edges, t.n), a.position[t.root])


def head_initial_ratio(t: RootedTree, a: Arrangement) -> Fraction:
    _check_same_size(t, a)
    if t.n < 2:
        raise NoEdgesError("head-initial ratio undefined on a single vertex")
    pos = a.position
    head_first = sum(1 for head, dep in t.edges() if pos[head] < pos[dep])
    return Fraction(head_first, t.n - 1)


def _matching_size(edges: Iterable[tuple[int, int]]) -> int:
    """Maximum matching of a forest, by leaf peeling: a leaf and its one
    remaining neighbour are matched when both are free (optimal on forests)."""
    degree: dict[int, int] = {}
    others: dict[int, int] = {}  # XOR of each vertex's remaining neighbours
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        others[u] = others.get(u, 0) ^ v
        others[v] = others.get(v, 0) ^ u
    leaves = [v for v, d in degree.items() if d == 1]
    matched: set[int] = set()
    for v in leaves:  # grows while it is walked
        if degree[v] != 1:
            continue  # its last edge went when its neighbour was peeled
        u = others[v]
        degree[v] = 0
        degree[u] -= 1
        others[u] ^= v
        if v not in matched and u not in matched:
            matched.update((u, v))
        if degree[u] == 1:
            leaves.append(u)
    return len(matched) // 2


def _flux(edges: list[tuple[int, int]], n: int) -> FluxProfile:
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for e in edges:
        incident[e[0]].append(e)
        incident[e[1]].append(e)
    spanning: set[tuple[int, int]] = set()
    sizes = []
    weights = []
    for g in range(1, n):
        # the edges ending at position g close and those starting there open
        spanning.symmetric_difference_update(incident[g])
        sizes.append(len(spanning))
        weights.append(_matching_size(spanning))
    return FluxProfile(sizes=tuple(sizes), weights=tuple(weights))


def flux(t: Tree, a: Arrangement) -> FluxProfile:
    _check_same_size(t, a)
    if t.n < 2:
        raise NoEdgesError("flux undefined on a single vertex")
    return _flux(_positioned_edges(t, a), t.n)


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


def min_D_projective(t: RootedTree) -> MinArrangementResult:
    value, pos = _min_projective(t)
    return MinArrangementResult(value, Arrangement(pos[1:]))


def min_D_planar(t: Tree) -> MinArrangementResult:
    value, pos = _min_projective(RootedTree.root_at(t.to_free(), min(properties.centroid(t))))
    return MinArrangementResult(value, Arrangement(pos[1:]))


def min_D_unconstrained(t: Tree) -> MinArrangementResult:
    return min_D_planar(t)
