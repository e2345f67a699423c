"""Metrics on (tree, linear arrangement) pairs and minimum-D solvers.

D is the sum of dependency distances (edge lengths), C the number of edge
crossings, counted by a Fenwick-tree sweep in O(m log n).  An arrangement is
planar when C = 0 and projective when it is planar and no edge covers the
root; only an arrangement with a crossing needs the pairwise test for one
endpoint crossing.  Flux sizes and weights (maximum matchings of the edges
over each gap) come from one children-first greedy matching run at every gap
at once, in O(n).  One private class holds a tree under an arrangement and
computes each of these at most once, from one positioned edge list and one
sweep; the public functions and the feature registry's contexts read it.

The solvers return minima of D under three regimes: unconstrained, planar
(no crossings) and projective (planar with an uncovered root).  The planar
and projective minima are exact: the value comes from a closed form over
sorted child-subtree sizes, and a placement gives the witness arrangement.
The unconstrained one is not yet exact (see the solver notes below).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import properties
from .errors import NoEdgesError
from .trees import Arrangement, RootedTree, Tree, _check_rooted, _check_same_size


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
    return _Layout(t, a).D


def _crossings_sweep(edges: list[tuple[int, int]], n: int) -> int:
    # Fenwick tree over right endpoints of already-opened edges.
    bit = [0] * (n + 1)
    by_left: list[list[int]] = [[] for _ in range(n + 1)]
    for l, r in edges:
        by_left[l].append(r)
    c = 0
    for p in range(1, n + 1):
        rights = by_left[p]
        for r in rights:
            # open edges (l' < p) crossing (p, r) have r' in (p, r): add
            # prefix(r - 1) - prefix(p), walking both indices down to the
            # node where their Fenwick paths meet
            i, j = r - 1, p
            while i > j:
                c += bit[i]
                i -= i & -i
            while j > i:
                c -= bit[j]
                j -= j & -j
        for r in rights:
            while r <= n:
                bit[r] += 1
                r += r & -r
    return c


def num_crossings(t: Tree, a: Arrangement) -> int:
    return _Layout(t, a).C


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
    return _Layout(t, a).flags


def head_initial_ratio(t: RootedTree, a: Arrangement) -> Fraction:
    _check_rooted(t, "head-initial ratio")
    _check_same_size(t, a)
    if t.n < 2:
        raise NoEdgesError("head-initial ratio undefined on a single vertex")
    pos = a.position
    head_first = sum(1 for head, dep in t.edges() if pos[head] < pos[dep])
    return Fraction(head_first, t.n - 1)


def _flux(t: RootedTree, a: Arrangement) -> FluxProfile:
    """Flux sizes and weights of every gap in O(n), from difference arrays.

    The weight of a gap is a maximum matching of the edges spanning it.  The
    greedy that takes an edge (c, parent) when both ends are free, children
    first, is optimal on any forest, and restricted to the edges over one gap
    it is that greedy on their subforest; so one greedy serves every gap.  The
    gaps where a vertex is already matched form a run next to it on each side
    (`left`, `right`), so each edge is taken on one interval of gaps."""
    n, pos, parent = t.n, a.position, t.parent
    size = [0] * (n + 1)
    weight = [0] * (n + 1)
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    for c in reversed(t._order[1:]):
        p = parent[c]
        pc, pp = pos[c], pos[p]
        if pp < pc:
            size[pp] += 1
            size[pc] -= 1
            lo, hi = pp + right[p], pc - 1 - left[c]
            if lo <= hi:
                right[p] = hi - pp + 1
        else:
            size[pc] += 1
            size[pp] -= 1
            lo, hi = pc + right[c], pp - 1 - left[p]
            if lo <= hi:
                left[p] = pp - lo
        if lo <= hi:
            weight[lo] += 1
            weight[hi + 1] -= 1
    return FluxProfile(sizes=tuple(itertools.accumulate(size[1:n])),
                       weights=tuple(itertools.accumulate(weight[1:n])))


def flux(t: Tree, a: Arrangement) -> FluxProfile:
    _check_same_size(t, a)
    if t.n < 2:
        raise NoEdgesError("flux undefined on a single vertex")
    return _flux(t if isinstance(t, RootedTree) else RootedTree.root_at(t, 1), a)


class _Layout:
    """A tree under an arrangement, by default the tree's own order, with
    each intermediate that the arrangement metrics share computed at most
    once: one edge list serves D, and one sweep over it C and the flags."""

    def __init__(self, tree: Tree, arrangement: Optional[Arrangement] = None):
        self.tree = tree
        if arrangement is not None:
            self.arrangement = arrangement

    @cached_property
    def arrangement(self) -> Arrangement:
        """The tree's own order, built only when read."""
        return Arrangement.identity(self.tree.n)

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        _check_same_size(self.tree, self.arrangement)
        return _positioned_edges(self.tree, self.arrangement)

    @property
    def D(self) -> int:
        return sum(r - l for l, r in self.edges)

    @cached_property
    def C(self) -> int:
        return _crossings_sweep(self.edges, self.tree.n)

    @cached_property
    def flags(self) -> ArrangementFlags:
        root = _check_rooted(self.tree, "arrangement classification").root
        # the edges come after the rooting check: they check the arrangement's size
        return _classify(self.edges, self.C, self.arrangement.position[root])

    @cached_property
    def flux(self) -> FluxProfile:
        return flux(self.tree, self.arrangement)  # the module's flux


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
# parent and the rest alternate.  The value needs no placement: an edge is
# 1 plus the vertices between its ends, so with s_1 >= s_2 >= ... the child
# subtree sizes of v, D = (n - 1) + sum over v and j >= 2 of
# s_j * (floor((j - 1) / 2) + [v is not the root and j is even]).  Block j
# lies between v and the floor((j - 1) / 2) larger blocks on its side, whose
# edges to v pass over it; at a non-root vertex the even blocks lie on the
# parent's side, and the edge to the parent passes over them.  The solvers
# return this value with a witness placement.  A planar arrangement of a
# free tree is a projective arrangement of the tree rooted at its leftmost
# vertex, and the planar minimum is the projective minimum rooted at a
# centroid (Hochberg & Stallmann 2003; same 2022 paper).  Sorting makes both
# O(n log n).
#
# min_D_unconstrained still delegates to the planar solver, which is wrong on
# some trees: an optimal unconstrained arrangement need not be crossing-free
# (a counterexample with n = 16 is a root joined to three spiders that each
# have two legs of length 2; the minimum is 25, the planar minimum 26).
# ---------------------------------------------------------------------------


def _min_projective_value(t: RootedTree) -> int:
    """Exact projective minimum of D, from the closed form above."""
    size = t._subtree_sizes()
    value = t.n - 1
    root = t.root
    for v, kids in enumerate(t.children):
        if len(kids) == 2:  # the common case: only the smaller, s_2, below the root
            if v != root:
                value += min(size[kids[0]], size[kids[1]])
        elif len(kids) > 2:
            s = sorted([size[c] for c in kids], reverse=True)
            # 0-based j: s[j] is s_(j+1) above
            value += sum(x * (j >> 1) for j, x in enumerate(s))
            if v != root:
                value += sum(s[1::2])
    return value


def _min_projective(t: RootedTree) -> list[int]:
    """A projective arrangement of minimum D, as a position list (index 0 unused)."""
    children = t.children
    size = t._subtree_sizes()
    lo = [0] * (t.n + 1)  # first position of each subtree's interval
    # whether each vertex's parent lies to its left; the root's side is arbitrary
    parent_left = [True] * (t.n + 1)
    lo[t.root] = 1
    pos = [0] * (t.n + 1)
    for v in t._order:
        kids = children[v]
        if not kids:  # a leaf fills its one-position interval
            pos[v] = lo[v]
            continue
        if len(kids) > 1:
            kids = sorted(kids, key=size.__getitem__, reverse=True)
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
    return pos


def min_D_projective(t: RootedTree) -> MinArrangementResult:
    _check_rooted(t, "projective minimum")
    return MinArrangementResult(_min_projective_value(t), Arrangement(_min_projective(t)[1:]))


def _centroid_rooted(t: Tree) -> RootedTree:
    """The tree rooted at a centroid, where the planar minimum is the projective one."""
    return RootedTree.root_at(t.to_free(), min(properties.centroid(t)))


def min_D_planar(t: Tree) -> MinArrangementResult:
    return min_D_projective(_centroid_rooted(t))


def min_D_unconstrained(t: Tree) -> MinArrangementResult:
    return min_D_planar(t)
