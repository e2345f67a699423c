"""Exhaustive and uniformly random generation of trees and arrangements.

Tree kinds combine labeling (labeled/unlabeled) with rooting (free/rooted).
Labeled generation is driven by Prüfer sequences.  Unlabeled trees are level
sequences, enumerated canonically and drawn by one iterative counting sampler
(RANRUT, Nijenhuis & Wilf 1978).  A free one is rooted at its centroid (Wilf
1981): either every root subtree has fewer than n/2 vertices, enumerated by
filtering the level sequences and drawn from counts of such rooted trees, or
(even n) two n/2-vertex halves are joined at their roots, enumerated as every
pair i <= j of half sequences and drawn as an unordered pair.  All counting
uses Python's unbounded integers, so no size overflows.

Arrangement counts are closed forms: n! unconstrained, the product of
(children(v) + 1)! projective, and n times the product of deg(v)! planar,
since every vertex comes first in the same number of planar arrangements.
A planar draw therefore picks the first vertex from one random integer and
samples a projective order of the tree rooted there, in O(n) time.

Every projective order, drawn or enumerated, comes from one iterative walk
that orders each vertex's block (itself and its children's blocks) when it
reaches it: a draw shuffles the block, and the enumeration steps an odometer
over each block's lazy permutations, so it holds O(n) state.  Planar orders
are the projective orders of each rooting with the root first.  No function
here recurses, so tree depth is bounded only by memory.

Random generation takes a ``random.Random`` instance (Mersenne Twister); the
same seeded generator reproduces the same sample sequence bit-exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterator, Sequence

from .errors import SizeLimitExceededError
from .trees import Arrangement, FreeTree, RootedTree, Tree, _check_rooted, _degrees

DEFAULT_EXHAUSTIVE_BOUND = 10


_LABELINGS = ("labeled", "unlabeled")
_ROOTINGS = ("free", "rooted")


@dataclass(frozen=True)
class TreeKind:
    labeling: str
    rooting: str

    def __post_init__(self):
        if self.labeling not in _LABELINGS:
            raise ValueError(f"labeling must be one of {_LABELINGS}")
        if self.rooting not in _ROOTINGS:
            raise ValueError(f"rooting must be one of {_ROOTINGS}")

    @classmethod
    def parse(cls, name: str) -> "TreeKind":
        """Parse names of the form 'labeled-free', 'unlabeled-rooted', ..."""
        try:
            labeling, rooting = name.split("-")
        except ValueError:
            raise ValueError(f"bad tree kind: {name!r}") from None
        return cls(labeling, rooting)

    def __str__(self):
        return f"{self.labeling}-{self.rooting}"


ALL_KINDS = tuple(TreeKind(l, r) for l in _LABELINGS for r in _ROOTINGS)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

_rooted_counts: list[int] = [0, 1]  # index n; number of unlabeled rooted trees
_divisor_sums: list[int] = [0]  # index j; sum of d * r_d over the divisors d of j


def _unlabeled_rooted_count(n: int) -> int:
    while len(_rooted_counts) <= n:
        m = len(_rooted_counts)
        k = m - 1  # the one divisor sum the table lacks
        _divisor_sums.append(
            sum(d * _rooted_counts[d] for d in range(1, k + 1) if k % d == 0))
        total = sum(_divisor_sums[j] * _rooted_counts[m - j] for j in range(1, m))
        _rooted_counts.append(total // (m - 1))
    return _rooted_counts[n]


def _unlabeled_free_count(n: int) -> int:
    _unlabeled_rooted_count(n)  # fills the table
    total = 2 * _rooted_counts[n]
    total -= sum(_rooted_counts[i] * _rooted_counts[n - i] for i in range(1, n))
    if n % 2 == 0:
        total += _rooted_counts[n // 2]
    return total // 2


_centroid_tables: dict[int, list[int]] = {}  # n -> _centroid_counts(n)


def _centroid_counts(n: int) -> list[int]:
    """Index t <= n: rooted trees on t vertices whose root subtrees all have
    fewer than n/2 vertices.  On at most n vertices only one root subtree
    can be that large, so the others are the s-vertex subtree, s >= n/2,
    times any rooted tree on the t - s vertices left over."""
    table = _centroid_tables.get(n)
    if table is None:
        _unlabeled_rooted_count(n)  # fills the table
        r = _rooted_counts
        table = [r[t] - sum(r[s] * r[t - s] for s in range((n + 1) // 2, t))
                 for t in range(n + 1)]
        _centroid_tables[n] = table
    return table


def count_trees(kind: TreeKind, n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind.labeling == "labeled":
        if kind.rooting == "free":
            return 1 if n <= 2 else n ** (n - 2)
        return n ** (n - 1)
    if kind.rooting == "rooted":
        return _unlabeled_rooted_count(n)
    return _unlabeled_free_count(n)


# ---------------------------------------------------------------------------
# Prüfer sequences (labeled trees)
# ---------------------------------------------------------------------------


def _pruefer_edges(n: int, seq: tuple[int, ...]) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence over 1..n (length max(n-2, 0)) into an edge list."""
    deg = [1] * (n + 1)
    for x in seq:
        deg[x] += 1
    edges = []
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    if leaf != n:  # join the two vertices left, unless there is only one
        edges.append((leaf, n))
    return edges


def _labeled_free_trees(n: int) -> Iterator[FreeTree]:
    for seq in itertools.product(range(1, n + 1), repeat=max(n - 2, 0)):
        yield FreeTree._from_edges(n, _pruefer_edges(n, seq))


# ---------------------------------------------------------------------------
# Level sequences (unlabeled trees)
# ---------------------------------------------------------------------------


def _level_sequences(n: int) -> Iterator[list[int]]:
    """All canonical level sequences of rooted trees on n vertices."""
    seq = list(range(1, n + 1))
    while True:
        yield seq
        p = -1
        for i in range(n - 1, -1, -1):
            if seq[i] > 2:
                p = i
                break
        if p < 0:
            return
        q = -1
        for i in range(p - 1, -1, -1):
            if seq[i] == seq[p] - 1:
                q = i
                break
        seq = seq[:]
        for i in range(p, n):
            seq[i] = seq[i - (p - q)]


def _rooted_from_levels(levels: list[int]) -> RootedTree:
    n = len(levels)
    parent = [0] * (n + 1)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    last_at_level = [0] * (n + 2)
    for i, lev in enumerate(levels, start=1):
        last_at_level[lev] = i
        if lev > 1:
            p = last_at_level[lev - 1]
            parent[i] = p
            children[p].append(i)
    # a level sequence lists the vertices in preorder, each after its parent
    return RootedTree._from_parts(n, 1, tuple(parent), tuple(tuple(c) for c in children),
                                  range(1, n + 1))


def _unlabeled_rooted_trees(n: int) -> Iterator[RootedTree]:
    for levels in _level_sequences(n):
        yield _rooted_from_levels(levels)


def _unlabeled_free_trees(n: int) -> Iterator[FreeTree]:
    # each free tree once, rooted at its centroid: one centroid when every
    # root subtree (the run from one level-2 entry to the next) is below n/2,
    # else two n/2-vertex halves with the second hung from the first's root
    for levels in _level_sequences(n):
        starts = [i for i, x in enumerate(levels) if x == 2] + [n]
        if all(2 * (b - a) < n for a, b in zip(starts, starts[1:])):
            yield _rooted_from_levels(levels).to_free()
    if n % 2 == 0:
        halves = list(_level_sequences(n // 2))
        for i, a in enumerate(halves):
            for b in halves[i:]:
                yield _rooted_from_levels(a + [x + 1 for x in b]).to_free()


def exhaustive_trees(kind: TreeKind, n: int) -> Iterator[Tree]:
    """Yield every tree of the kind exactly once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind.labeling == "labeled":
        if kind.rooting == "free":
            return _labeled_free_trees(n)
        return (
            RootedTree.root_at(free, root)
            for free in _labeled_free_trees(n)
            for root in range(1, n + 1)
        )
    if kind.rooting == "rooted":
        return _unlabeled_rooted_trees(n)
    return _unlabeled_free_trees(n)


# ---------------------------------------------------------------------------
# Random trees
# ---------------------------------------------------------------------------


def _random_levels(n: int, counts: list[int], rng: random.Random) -> list[int]:
    """Level sequence of a uniform rooted tree on n vertices, counts[t] being
    the number allowed on t <= n vertices: all for ``_rooted_counts``
    (RANRUT), root subtrees below n/2 for ``_centroid_counts(n)``.

    A draw picks (j, d) with weight d * r_d * counts[t - j*d]: j copies of a
    d-vertex limb hang from the root of a (t - j*d)-vertex trunk.  The trunk
    chain is walked in a loop; its limbs, any rooted trees, are then drawn
    innermost first, the trees waiting on them kept on a stack."""
    _unlabeled_rooted_count(n)  # fills the table
    r = _rooted_counts
    stack = []  # (levels, limbs) of trees still owed a limb
    size = n
    while True:
        limbs = []  # (j, d) along the trunk chain, innermost last
        while size > 2:
            # x is below the sum of all weights, so d stays within counts' bound
            x = rng.randrange((size - 1) * counts[size])
            d = 0
            while x >= 0:
                d += 1
                w = d * r[d]
                rest = size
                while rest > d and x >= 0:
                    rest -= d
                    x -= w * counts[rest]
            limbs.append(((size - rest) // d, d))
            size = rest
        levels = [1, 2][:size]
        while not limbs:
            if not stack:
                return levels
            limb = [x + 1 for x in levels]
            levels, limbs = stack.pop()
            levels += limb * limbs.pop()[0]
        stack.append((levels, limbs))
        size, counts = limbs[-1][1], r


def _random_unlabeled_free(n: int, rng: random.Random) -> FreeTree:
    if n % 2 == 0:
        rh = _unlabeled_rooted_count(n // 2)
        if rng.randrange(_unlabeled_free_count(n)) < rh * (rh + 1) // 2:
            # uniform over unordered pairs of halves: a twin pair comes from
            # either branch, 1/(rh(rh + 1)) each, a mixed pair from the second
            a = _random_levels(n // 2, _rooted_counts, rng)
            b = a if rng.randrange(rh + 1) == 0 else \
                _random_levels(n // 2, _rooted_counts, rng)
            return _rooted_from_levels(a + [x + 1 for x in b]).to_free()
    return _rooted_from_levels(_random_levels(n, _centroid_counts(n), rng)).to_free()


def _random_labeled_free(n: int, rng: random.Random) -> FreeTree:
    seq = tuple(rng.randint(1, n) for _ in range(n - 2))
    return FreeTree._from_edges(n, _pruefer_edges(n, seq))


def random_tree(kind: TreeKind, n: int, rng: random.Random) -> Tree:
    """One tree drawn uniformly from the kind's full set."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind.labeling == "labeled":
        free = _random_labeled_free(n, rng)
        if kind.rooting == "free":
            return free
        return RootedTree.root_at(free, rng.randint(1, n))
    if kind.rooting == "rooted":
        return _rooted_from_levels(_random_levels(n, _rooted_counts, rng))
    return _random_unlabeled_free(n, rng)


# ---------------------------------------------------------------------------
# Arrangements
# ---------------------------------------------------------------------------


def num_arrangements(t: Tree, constraint: str = "unconstrained") -> int:
    """Exact cardinality of the constrained arrangement set."""
    if constraint == "unconstrained":
        return factorial(t.n)
    if constraint == "projective":
        prod = 1
        for kids in _check_rooted(t, "projective arrangement count").children[1:]:
            prod *= factorial(len(kids) + 1)
        return prod
    if constraint == "planar":
        # each vertex is first in prod_v deg(v)! planar arrangements: rooted
        # there, the root orders its deg(r) child blocks and every other
        # vertex v orders itself among its deg(v) - 1 child blocks
        prod = 1
        for d in _degrees(t):
            prod *= factorial(d)
        return t.n * prod
    raise ValueError(f"unknown constraint: {constraint!r}")


def _projective_order(rt: RootedTree, block: Callable[[int], Sequence[int]]) -> list[int]:
    """The projective order of rt in which each inner vertex v's block is
    ordered as ``block(v)``, a sequence of its items: ``-v`` and its children.

    The walk goes left to right with an explicit stack: a positive entry is
    a vertex whose block is not yet ordered, a negative one a vertex to
    place.  A leaf is placed directly."""
    children = rt.children
    out: list[int] = []
    stack = [rt.root]
    while stack:
        v = stack.pop()
        if v < 0:
            out.append(-v)
        elif children[v]:
            stack += reversed(block(v))
        else:
            out.append(v)
    return out


def _projective_orders(rt: RootedTree, pin_first: bool = False) -> Iterator[list[int]]:
    """Every projective order of rt once; with pin_first, those with the root
    first.  An odometer over each inner vertex's lazy permutations of its
    items: the first dial turns each step, and a dial that runs out starts
    over and carries to the next, so memory stays O(n)."""
    root, children = rt.root, rt.children
    inner = [v for v in rt.vertices() if children[v]]

    def perms(v):
        if pin_first and v == root:
            return ((-v, *p) for p in itertools.permutations(children[v]))
        return itertools.permutations((-v, *children[v]))

    dials = [None] * (rt.n + 1)
    block = [None] * (rt.n + 1)
    for v in inner:
        dials[v] = perms(v)
        block[v] = next(dials[v])
    while True:
        yield _projective_order(rt, block.__getitem__)
        for v in inner:
            block[v] = next(dials[v], None)
            if block[v] is not None:
                break
            dials[v] = perms(v)
            block[v] = next(dials[v])
        else:
            return


def exhaustive_arrangements(t: Tree, constraint: str = "unconstrained",
                            max_n: int = DEFAULT_EXHAUSTIVE_BOUND) -> Iterator[Arrangement]:
    """Yield each arrangement satisfying the constraint exactly once, lazily;
    the arguments are checked on the call."""
    if t.n > max_n:
        raise SizeLimitExceededError(
            f"arrangement enumeration beyond bound n <= {max_n}")
    if constraint == "unconstrained":
        orders = itertools.permutations(range(1, t.n + 1))
    elif constraint == "projective":
        orders = _projective_orders(_check_rooted(t, "projective enumeration"))
    elif constraint == "planar":
        # planar arrangement <=> projective for the tree rooted at the
        # vertex in position 1, so the union over rootings is disjoint
        free = t.to_free()
        orders = itertools.chain.from_iterable(
            _projective_orders(RootedTree.root_at(free, r), pin_first=True)
            for r in free.vertices())
    else:
        raise ValueError(f"unknown constraint: {constraint!r}")
    return map(Arrangement.from_vertex_order, orders)


def _sample_projective_order(rt: RootedTree, rng: random.Random,
                             pin_first: bool = False) -> list[int]:
    """Uniform projective order of rt; with pin_first, the root comes first.
    Each block is shuffled when the walk reaches it."""
    def block(v):
        if pin_first and v == rt.root:
            items = list(rt.children[v])
            rng.shuffle(items)
            return [-v, *items]
        items = [-v, *rt.children[v]]
        rng.shuffle(items)
        return items

    return _projective_order(rt, block)


def random_arrangement(t: Tree, constraint: str, rng: random.Random) -> Arrangement:
    """One arrangement drawn uniformly from the constrained set, with `rng`
    as the only source of randomness, as in `random_tree`."""
    if constraint == "unconstrained":
        order = list(range(1, t.n + 1))
        rng.shuffle(order)
        return Arrangement.from_vertex_order(order)
    if constraint == "projective":
        return Arrangement.from_vertex_order(
            _sample_projective_order(_check_rooted(t, "projective draw"), rng))
    if constraint == "planar":
        # planar <=> projective for the tree rooted at the first vertex, and
        # every vertex is first in the same number of planar arrangements
        free = t.to_free()
        total = num_arrangements(free, "planar")
        first = rng.randrange(total) // (total // free.n) + 1
        return Arrangement.from_vertex_order(_sample_projective_order(
            RootedTree.root_at(free, first), rng, pin_first=True))
    raise ValueError(f"unknown constraint: {constraint!r}")
