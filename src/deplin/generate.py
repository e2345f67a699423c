"""Exhaustive and uniformly random generation of trees and arrangements.

Tree kinds combine labeling (labeled/unlabeled) with rooting (free/rooted).
Labeled generation is driven by Prüfer sequences; unlabeled rooted trees use
canonical level sequences (exhaustive) and the counting-based recursive
sampler (random); unlabeled free trees are derived from the rooted machinery
through centre/centroid canonicalization.  All counting uses Python's
unbounded integers, so no size overflows.

Random generation takes a ``random.Random`` instance (Mersenne Twister); the
same seeded generator reproduces the same sample sequence bit-exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import factorial
from typing import Iterator, Optional, Union

from .errors import SizeLimitExceededError
from .isomorphism import canonical_code, free_canonical_code
from .linarr import DEFAULT_EXHAUSTIVE_BOUND
from .properties import centre
from .trees import Arrangement, FreeTree, RootedTree

Tree = Union[FreeTree, RootedTree]


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


def _unlabeled_rooted_count(n: int) -> int:
    while len(_rooted_counts) <= n:
        m = len(_rooted_counts)
        total = 0
        for j in range(1, m):
            s = sum(d * _rooted_counts[d] for d in range(1, j + 1) if j % d == 0)
            total += s * _rooted_counts[m - j]
        _rooted_counts.append(total // (m - 1))
    return _rooted_counts[n]


def _unlabeled_free_count(n: int) -> int:
    r = _unlabeled_rooted_count  # ensure table
    r(n)
    if n == 1:
        return 1
    total = 2 * _rooted_counts[n]
    total -= sum(_rooted_counts[i] * _rooted_counts[n - i] for i in range(1, n))
    if n % 2 == 0:
        total += _rooted_counts[n // 2]
    return total // 2


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
    """Decode a Prüfer sequence over 1..n (length n-2) into an edge list."""
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
    edges.append((leaf, n))
    return edges


def _free_from_edges(n: int, edges: list[tuple[int, int]]) -> FreeTree:
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return FreeTree._from_adjacency(n, tuple(tuple(a) for a in adj))


def _rooted_from_free(free: FreeTree, root: int) -> RootedTree:
    n = free.n
    parent = [0] * (n + 1)
    children: list[tuple[int, ...]] = [()] * (n + 1)
    stack = [root]
    seen = bytearray(n + 1)
    seen[root] = 1
    while stack:
        v = stack.pop()
        kids = []
        for w in free.neighbors(v):
            if not seen[w]:
                seen[w] = 1
                parent[w] = v
                kids.append(w)
                stack.append(w)
        children[v] = tuple(kids)
    return RootedTree._from_parts(n, root, tuple(parent), tuple(children), free)


def _labeled_free_trees(n: int) -> Iterator[FreeTree]:
    if n == 1:
        yield FreeTree.from_edge_list(1, [])
        return
    if n == 2:
        yield _free_from_edges(2, [(1, 2)])
        return
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield _free_from_edges(n, _pruefer_edges(n, seq))


# ---------------------------------------------------------------------------
# Level sequences (unlabeled rooted trees)
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
    return RootedTree._from_parts(n, 1, tuple(parent), tuple(tuple(c) for c in children))


def _unlabeled_rooted_trees(n: int) -> Iterator[RootedTree]:
    for levels in _level_sequences(n):
        yield _rooted_from_levels(levels)


def _unlabeled_free_trees(n: int) -> Iterator[FreeTree]:
    # keep one rooted representative per free isomorphism class: the root must
    # be a centre and yield the minimal centre-rooted canonical code
    for rt in _unlabeled_rooted_trees(n):
        free = rt.to_free()
        if rt.root not in centre(free):
            continue
        if canonical_code(rt) == free_canonical_code(free):
            yield free


def exhaustive_trees(kind: TreeKind, n: int) -> Iterator[Tree]:
    """Yield every tree of the kind exactly once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind.labeling == "labeled":
        if kind.rooting == "free":
            return _labeled_free_trees(n)
        return (
            _rooted_from_free(free, root)
            for free in _labeled_free_trees(n)
            for root in range(1, n + 1)
        )
    if kind.rooting == "rooted":
        return _unlabeled_rooted_trees(n)
    return _unlabeled_free_trees(n)


# ---------------------------------------------------------------------------
# Random trees
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ("kids", "size")

    def __init__(self, kids):
        self.kids = kids
        self.size = 1 + sum(k.size for k in kids)


def _node_to_rooted(node: _Node) -> RootedTree:
    n = node.size
    parent = [0] * (n + 1)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    counter = itertools.count(1)
    stack = [(node, 0)]
    while stack:
        nd, par = stack.pop()
        v = next(counter)
        parent[v] = par
        if par:
            children[par].append(v)
        for kid in reversed(nd.kids):
            stack.append((kid, v))
    return RootedTree._from_parts(n, 1, tuple(parent), tuple(tuple(c) for c in children))


def _random_rooted_node(n: int, rng: random.Random) -> _Node:
    """Uniform unlabeled rooted tree, counting-based recursive method."""
    if n == 1:
        return _Node([])
    if n == 2:
        return _Node([_Node([])])
    rn = _unlabeled_rooted_count(n)
    x = rng.randrange((n - 1) * rn)
    cum = 0
    jd = None
    for d in range(1, n):
        sd = d * _rooted_counts[d]
        j = 1
        while j * d <= n - 1:
            cum += sd * _rooted_counts[n - j * d]
            if x < cum:
                jd = (j, d)
                break
            j += 1
        if jd:
            break
    j, d = jd
    trunk = _random_rooted_node(n - j * d, rng)
    limb = _random_rooted_node(d, rng)
    trunk.kids = trunk.kids + [limb] * j
    trunk.size += j * d
    return trunk


def _random_unlabeled_free(n: int, rng: random.Random) -> FreeTree:
    if n <= 3:
        return _free_from_edges(n, [(i, i + 1) for i in range(1, n)]) if n > 1 \
            else FreeTree.from_edge_list(1, [])
    tn = _unlabeled_free_count(n)
    if n % 2 == 0:
        rh = _unlabeled_rooted_count(n // 2)
        bicentroidal = rh * (rh + 1) // 2
        if rng.randrange(tn) < bicentroidal:
            # two half-trees joined at the roots, uniform over unordered pairs
            while True:
                a = _random_rooted_node(n // 2, rng)
                b = _random_rooted_node(n // 2, rng)
                ra, rb = _node_to_rooted(a), _node_to_rooted(b)
                if canonical_code(ra) == canonical_code(rb) or rng.random() < 0.5:
                    break
            half = n // 2
            edges = list(ra.to_free().edges())
            for u, v in rb.to_free().edges():
                edges.append((u + half, v + half))
            edges.append((1, 1 + half))
            return _free_from_edges(n, edges)
    # unicentroidal: resample until the root is the (strict) centroid
    while True:
        node = _random_rooted_node(n, rng)
        if all(k.size < n / 2 for k in node.kids):
            return _node_to_rooted(node).to_free()


def _random_labeled_free(n: int, rng: random.Random) -> FreeTree:
    if n == 1:
        return FreeTree.from_edge_list(1, [])
    if n == 2:
        return _free_from_edges(2, [(1, 2)])
    seq = tuple(rng.randint(1, n) for _ in range(n - 2))
    return _free_from_edges(n, _pruefer_edges(n, seq))


def random_tree(kind: TreeKind, n: int, rng: random.Random) -> Tree:
    """One tree drawn uniformly from the kind's full set."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind.labeling == "labeled":
        free = _random_labeled_free(n, rng)
        if kind.rooting == "free":
            return free
        return _rooted_from_free(free, rng.randint(1, n))
    if kind.rooting == "rooted":
        return _node_to_rooted(_random_rooted_node(n, rng))
    return _random_unlabeled_free(n, rng)


# ---------------------------------------------------------------------------
# Arrangements
# ---------------------------------------------------------------------------


def num_arrangements(t: Tree, constraint: str = "unconstrained") -> int:
    """Exact cardinality of the constrained arrangement set."""
    if constraint == "unconstrained":
        return factorial(t.n)
    if constraint == "projective":
        if not isinstance(t, RootedTree):
            raise TypeError("projective arrangements require a RootedTree")
        prod = 1
        for v in t.vertices():
            prod *= factorial(len(t.children[v]) + 1)
        return prod
    if constraint == "planar":
        free = t.to_free() if isinstance(t, RootedTree) else t
        return sum(_planar_weight(_rooted_from_free(free, r)) for r in free.vertices())
    raise ValueError(f"unknown constraint: {constraint!r}")


def _planar_weight(rt: RootedTree) -> int:
    """Number of planar arrangements with rt's root at position 1."""
    prod = factorial(len(rt.children[rt.root]))
    for v in rt.vertices():
        if v != rt.root:
            prod *= factorial(len(rt.children[v]) + 1)
    return prod


def _expand_blocks(rt: RootedTree, items: tuple, me: int) -> Iterator[list[int]]:
    """Expand a sequence of items (0 = the vertex `me`, ints = child vertices)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    if head == 0:
        for tail in _expand_blocks(rt, rest, me):
            yield [me] + tail
    else:
        for blk in _block_orders(rt, head):
            for tail in _expand_blocks(rt, rest, me):
                yield blk + tail


def _block_orders(rt: RootedTree, v: int) -> Iterator[list[int]]:
    kids = rt.children[v]
    if not kids:
        yield [v]
        return
    for perm in itertools.permutations((0,) + kids):
        yield from _expand_blocks(rt, perm, v)


def _root_first_orders(rt: RootedTree) -> Iterator[list[int]]:
    kids = rt.children[rt.root]
    if not kids:
        yield [rt.root]
        return
    for perm in itertools.permutations(kids):
        for tail in _expand_blocks(rt, perm, rt.root):
            yield [rt.root] + tail


def exhaustive_arrangements(t: Tree, constraint: str = "unconstrained",
                            max_n: int = DEFAULT_EXHAUSTIVE_BOUND) -> Iterator[Arrangement]:
    """Yield each arrangement satisfying the constraint exactly once."""
    if t.n > max_n:
        raise SizeLimitExceededError(
            f"arrangement enumeration beyond bound n <= {max_n}")
    if constraint == "unconstrained":
        def gen_unconstrained():
            for perm in itertools.permutations(range(1, t.n + 1)):
                yield Arrangement.from_vertex_order(perm)
        return gen_unconstrained()
    if constraint == "projective":
        if not isinstance(t, RootedTree):
            raise TypeError("projective arrangements require a RootedTree")

        def gen_projective():
            for order in _block_orders(t, t.root):
                yield Arrangement.from_vertex_order(order)
        return gen_projective()
    if constraint == "planar":
        free = t.to_free() if isinstance(t, RootedTree) else t

        def gen_planar():
            # planar arrangement <=> projective for the tree rooted at the
            # vertex in position 1, so the union over rootings is disjoint
            for r in free.vertices():
                rt = _rooted_from_free(free, r)
                for order in _root_first_orders(rt):
                    yield Arrangement.from_vertex_order(order)
        return gen_planar()
    raise ValueError(f"unknown constraint: {constraint!r}")


def _sample_projective_order(rt: RootedTree, v: int, rng: random.Random,
                             pin_first: bool = False) -> list[int]:
    kids = rt.children[v]
    if pin_first:
        items = list(kids)
        rng.shuffle(items)
        items = [0] + items
    else:
        items = [0] + list(kids)
        rng.shuffle(items)
    out: list[int] = []
    for item in items:
        if item == 0:
            out.append(v)
        else:
            out.extend(_sample_projective_order(rt, item, rng))
    return out


def random_arrangement(t: Tree, constraint: str = "unconstrained",
                       rng: Optional[random.Random] = None) -> Arrangement:
    """One arrangement drawn uniformly from the constrained set."""
    if rng is None:
        rng = random.Random()
    if constraint == "unconstrained":
        order = list(range(1, t.n + 1))
        rng.shuffle(order)
        return Arrangement.from_vertex_order(order)
    if constraint == "projective":
        if not isinstance(t, RootedTree):
            raise TypeError("projective arrangements require a RootedTree")
        return Arrangement.from_vertex_order(
            _sample_projective_order(t, t.root, rng))
    if constraint == "planar":
        free = t.to_free() if isinstance(t, RootedTree) else t
        rooted = [_rooted_from_free(free, r) for r in free.vertices()]
        weights = [_planar_weight(rt) for rt in rooted]
        x = rng.randrange(sum(weights))
        cum = 0
        for rt, w in zip(rooted, weights):
            cum += w
            if x < cum:
                return Arrangement.from_vertex_order(
                    _sample_projective_order(rt, rt.root, rng, pin_first=True))
    raise ValueError(f"unknown constraint: {constraint!r}")
