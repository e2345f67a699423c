"""Core tree data types: free trees, rooted trees, head vectors and arrangements.

Vertices are identified by sentence position, i.e. the integers 1..n, in every
public interface.  All types are immutable after construction; constructors
validate eagerly so downstream algorithms can rely on tree invariants.  A
rooted tree keeps the parents-first vertex order of the walk that built it,
and subtree sizes, depths and canonical codes read that order instead of
walking the tree again.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    CycleError,
    DuplicateEdgeError,
    KindMismatchError,
    MalformedLineError,
    MultipleRootsError,
    NoRootError,
    NotATreeError,
    OutOfRangeError,
    SelfHeadError,
    SelfLoopError,
    SizeMismatchError,
)

HeadVector = Sequence[int]


def parse_head_vector(text: str) -> tuple[int, ...]:
    """Parse a whitespace-separated head vector line into a tuple of ints.  A
    token is an optional '-' and ASCII digits (`int` alone would also take a '+',
    '_' between digits and non-ASCII digits); any other raises MalformedLineError."""
    if text.isascii() and "_" not in text and "+" not in text:
        try:
            return tuple(map(int, text.split()))
        except ValueError:
            pass
    raise MalformedLineError("non-integer token")


class FreeTree:
    """An undirected, connected, acyclic graph on vertices 1..n."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        tree = FreeTree.from_edge_list(n, edges)
        self.n = tree.n
        self._adj = tree._adj

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "FreeTree":
        if n < 1:
            raise NotATreeError("a tree needs at least one vertex")
        edges = list(edges)
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise OutOfRangeError(f"edge ({u}, {v}) out of range 1..{n}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdgeError(f"duplicate edge {key}")
            seen.add(key)
        if len(edges) != n - 1:
            raise NotATreeError(f"expected {n - 1} edges, got {len(edges)}")
        tree = cls._from_edges(n, edges)
        # n-1 edges without duplicates: connectivity <=> acyclicity
        if len(RootedTree.root_at(tree, 1)._order) != n:
            raise NotATreeError("edges do not form a connected tree")
        return tree

    @classmethod
    def _from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "FreeTree":
        """Trusted constructor; `edges` must already form a tree on 1..n.
        Each vertex lists its neighbours in edge order."""
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self = object.__new__(cls)
        self.n = n
        self._adj = tuple(tuple(a) for a in adj)
        return self

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @property
    def num_edges(self) -> int:
        return self.n - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v."""
        for u in range(1, self.n + 1):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def root_at(self, r: int) -> "RootedTree":
        return RootedTree.root_at(self, r)

    def to_free(self) -> "FreeTree":
        return self

    def _key(self):
        return (self.n, tuple(tuple(sorted(a)) for a in self._adj))

    def __eq__(self, other):
        return isinstance(other, FreeTree) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FreeTree(n={self.n}, edges={list(self.edges())})"


class RootedTree:
    """A free tree with a designated root and parent/child orientation.

    It keeps the order in which the walk that built it reached the vertices,
    parents before children, for every pass that needs such an order."""

    __slots__ = ("n", "root", "parent", "children", "_order", "_free", "_sizes", "_degree")

    def __init__(self, free: FreeTree, root: int):
        t = RootedTree.root_at(free, root)
        self.n, self.root = t.n, t.root
        self.parent, self.children = t.parent, t.children
        self._order = t._order
        self._free = t._free
        self._sizes = self._degree = None

    @classmethod
    def root_at(cls, free: FreeTree, r: int) -> "RootedTree":
        n = free.n
        if not (1 <= r <= n):
            raise OutOfRangeError(f"root {r} out of range 1..{n}")
        adj = free._adj
        parent = [0] * (n + 1)
        children: list[tuple[int, ...]] = [()] * (n + 1)
        order = [r]
        visited = bytearray(n + 1)
        visited[r] = 1
        for v in order:
            kids = []
            for w in adj[v]:
                if not visited[w]:
                    visited[w] = 1
                    parent[w] = v
                    kids.append(w)
            children[v] = tuple(kids)
            order += kids
        return cls._from_parts(n, r, tuple(parent), tuple(children), tuple(order), free)

    @classmethod
    def _from_parts(cls, n, root, parent, children, order, free=None) -> "RootedTree":
        """Trusted constructor for internal use; `order` lists the vertices
        reached from the root, each after its parent."""
        self = object.__new__(cls)
        self.n = n
        self.root = root
        self.parent = parent
        self.children = children
        self._order = order
        self._free = free
        self._sizes = self._degree = None
        return self

    @classmethod
    def from_head_vector(cls, heads: Union[str, HeadVector]) -> "RootedTree":
        if isinstance(heads, str):
            heads = parse_head_vector(heads)
        h = tuple(heads)
        n = len(h)
        if n == 0:
            raise NoRootError("empty head vector")
        root = 0
        for i, hi in enumerate(h, start=1):
            if hi == 0:
                if root:
                    raise MultipleRootsError(f"second root at position {i}")
                root = i
            elif hi == i:
                raise SelfHeadError(f"vertex {i} is its own head")
            elif not (1 <= hi <= n):
                raise OutOfRangeError(f"head {hi} at position {i} out of range 1..{n}")
        if not root:
            raise NoRootError("no zero entry in head vector")
        children: list[list[int]] = [[] for _ in range(n + 1)]
        for i, hi in enumerate(h, start=1):
            if hi:
                children[hi].append(i)
        # the edge multiset has n-1 edges; reachability from root <=> tree
        order = [root]
        for v in order:
            order += children[v]
        if len(order) != n:
            raise CycleError("head vector contains a cycle")
        return cls._from_parts(n, root, (0,) + h, tuple(tuple(c) for c in children),
                               tuple(order))

    def to_head_vector(self) -> tuple[int, ...]:
        return self.parent[1:]

    def head_vector_str(self) -> str:
        return " ".join(str(x) for x in self.parent[1:])

    def to_free(self) -> FreeTree:
        if self._free is None:
            self._free = FreeTree._from_edges(self.n, self.edges())
        return self._free

    def _subtree_sizes(self) -> tuple[int, ...]:
        """Every subtree's size (index 0 holds 0), computed once per tree."""
        if self._sizes is None:
            parent = self.parent
            size = [1] * (self.n + 1)
            size[0] = 0
            for v in reversed(self._order[1:]):
                size[parent[v]] += size[v]
            self._sizes = tuple(size)
        return self._sizes

    def num_children(self, v: int) -> int:
        return len(self.children[v])

    def depths(self) -> tuple[int, ...]:
        """Depth of every vertex, root at 0; index 0 unused."""
        depth = [0] * (self.n + 1)
        parent = self.parent
        for v in self._order[1:]:
            depth[v] = depth[parent[v]] + 1
        return tuple(depth)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge as (head, dependent)."""
        for v in range(1, self.n + 1):
            p = self.parent[v]
            if p:
                yield (p, v)

    @property
    def num_edges(self) -> int:
        return self.n - 1

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other):
        return (
            isinstance(other, RootedTree)
            and self.n == other.n
            and self.root == other.root
            and self.parent == other.parent
        )

    def __hash__(self):
        return hash((self.n, self.root, self.parent))

    def __repr__(self):
        return f"RootedTree('{self.head_vector_str()}')"


Tree = Union[FreeTree, RootedTree]


class Arrangement:
    """A bijection vertex -> position over 1..n, with its inverse."""

    __slots__ = ("n", "position", "inverse")

    def __init__(self, position: Sequence[int]):
        pos = tuple(position)
        n = len(pos)
        inverse = [0] * (n + 1)
        for v, p in enumerate(pos, start=1):
            if not (1 <= p <= n):
                raise OutOfRangeError(f"position {p} of vertex {v} out of range 1..{n}")
            if inverse[p]:
                raise SizeMismatchError(f"position {p} assigned twice")
            inverse[p] = v
        self.n = n
        self.position = (0,) + pos
        self.inverse = tuple(inverse)

    @classmethod
    def _from_tuples(cls, n, position, inverse) -> "Arrangement":
        self = object.__new__(cls)
        self.n = n
        self.position = position
        self.inverse = inverse
        return self

    @classmethod
    def identity(cls, n: int) -> "Arrangement":
        idx = tuple(range(n + 1))
        return cls._from_tuples(n, idx, idx)

    @classmethod
    def from_vertex_order(cls, order: Sequence[int]) -> "Arrangement":
        """Build from the left-to-right sequence of vertices."""
        n = len(order)
        position = [0] * (n + 1)
        for p, v in enumerate(order, start=1):
            if not (1 <= v <= n) or position[v]:
                raise SizeMismatchError("order is not a permutation of 1..n")
            position[v] = p
        return cls._from_tuples(n, tuple(position), (0,) + tuple(order))

    def position_of(self, v: int) -> int:
        return self.position[v]

    def vertex_at(self, p: int) -> int:
        return self.inverse[p]

    def vertex_order(self) -> tuple[int, ...]:
        return self.inverse[1:]

    def __len__(self):
        return self.n

    def __eq__(self, other):
        return isinstance(other, Arrangement) and self.position == other.position

    def __hash__(self):
        return hash(self.position)

    def __repr__(self):
        return f"Arrangement(order={list(self.inverse[1:])})"


def from_head_vector(heads: Union[str, HeadVector]) -> RootedTree:
    return RootedTree.from_head_vector(heads)


def to_head_vector(t: RootedTree) -> tuple[int, ...]:
    return t.to_head_vector()


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> FreeTree:
    return FreeTree.from_edge_list(n, edges)


def root_at(t: FreeTree, r: int) -> RootedTree:
    return RootedTree.root_at(t, r)


def to_free(t: RootedTree) -> FreeTree:
    return t.to_free()


def _degrees(t: Tree) -> tuple[int, ...]:
    """Every vertex's degree (index 0 holds 0).  A rooted tree's is kept once
    per tree, like its subtree sizes, counted from its children and parents
    on first use; a free tree's is read from its adjacency."""
    if isinstance(t, FreeTree):
        return tuple(map(len, t._adj))
    if t._degree is None:
        degree = [len(kids) + 1 for kids in t.children]
        degree[0] = 0
        degree[t.root] -= 1
        t._degree = tuple(degree)
    return t._degree


def _check_rooted(t: Tree, what: str) -> RootedTree:
    """`t`, checked to be rooted for `what`, which reads its root or orientation."""
    if not isinstance(t, RootedTree):
        raise KindMismatchError(f"{what} requires a rooted tree")
    return t


def _check_same_size(t, a: Arrangement) -> None:
    if t.n != a.n:
        raise SizeMismatchError(f"tree has {t.n} vertices, arrangement has {a.n}")
