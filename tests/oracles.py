"""Independent brute-force oracles used to validate the library.

Everything here is deliberately simple and slow: exhaustive search over
permutations, quadratic pair counting, a quadratic side-assignment DP for
the projective minimum, and an exponential subset DP.  None of it shares
code with the package under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def edge_lengths_sum(edges, positions):
    """positions: dict vertex -> position."""
    return sum(abs(positions[u] - positions[v]) for u, v in edges)


def crossings_pairs(edges, positions):
    total = 0
    spans = [tuple(sorted((positions[u], positions[v]))) for u, v in edges]
    for (a1, b1), (a2, b2) in itertools.combinations(spans, 2):
        if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
            total += 1
    return total


def _subtree_intervals_contiguous(n, parent, positions):
    """True iff every subtree of the rooted tree occupies contiguous positions."""
    children = {v: [] for v in range(1, n + 1)}
    for v in range(1, n + 1):
        if parent[v] != 0:
            children[parent[v]].append(v)

    def span(v):
        lo = hi = positions[v]
        size = 1
        for c in children[v]:
            clo, chi, csz = span(c)
            lo, hi, size = min(lo, clo), max(hi, chi), size + csz
        return lo, hi, size

    def check(v):
        lo, hi, size = span(v)
        if hi - lo + 1 != size:
            return False
        return all(check(c) for c in children[v])

    root = next(v for v in range(1, n + 1) if parent[v] == 0)
    return check(root)


def is_projective(n, parent, positions):
    """Zero crossings and the root is not covered by any edge."""
    edges = [(parent[v], v) for v in range(1, n + 1) if parent[v] != 0]
    if crossings_pairs(edges, positions) != 0:
        return False
    root = next(v for v in range(1, n + 1) if parent[v] == 0)
    rp = positions[root]
    return not any(min(positions[u], positions[v]) < rp < max(positions[u], positions[v])
                   for u, v in edges)


def min_D_exhaustive(n, edges, constraint="unconstrained", parent=None):
    """Minimum sum of edge lengths over all n! arrangements.

    constraint: 'unconstrained', 'planar' (zero crossings) or 'projective'
    (requires parent).
    """
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        positions = {v: i + 1 for i, v in enumerate(perm)}
        if constraint == "planar" and crossings_pairs(edges, positions) != 0:
            continue
        if constraint == "projective" and not is_projective(n, parent, positions):
            continue
        d = edge_lengths_sum(edges, positions)
        if best is None or d < best:
            best = d
    return best


def min_D_subset_dp(n, edges):
    """Unconstrained minimum D via the additive cut decomposition.

    Placing vertices left to right, each edge contributes 1 to the total for
    every gap it spans, so D = sum over prefixes S of cut(S, V∖S).  Minimise
    f(S) = min over v in S of f(S∖{v}) + cut(S).  O(2^n · n).
    """
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)
    full = (1 << n) - 1
    f = [0] * (1 << n)
    for mask in range(1, 1 << n):
        rest = full & ~mask
        cut = sum(bin(adj[v + 1] & rest).count("1")
                  for v in range(n) if mask >> v & 1)
        m = mask
        best = None
        while m:
            low = m & -m
            prev = f[mask & ~low]
            if best is None or prev < best:
                best = prev
            m ^= low
        f[mask] = best + cut
    return f[full]


def min_D_projective_dp(n, parent):
    """Projective minimum D by a side-assignment DP at every vertex.

    Every subtree occupies an interval.  A vertex's child blocks sit on its
    two sides, larger blocks farther out, and a DP over the blocks in
    decreasing size picks each block's side.  O(k^2) at a vertex with k
    children.  parent[v] is v's head, 0 for the root; parent[0] is unused.
    """
    children = [[] for _ in range(n + 1)]
    root = 0
    for v in range(1, n + 1):
        if parent[v]:
            children[parent[v]].append(v)
        else:
            root = v
    order = [root]
    for v in order:
        order.extend(children[v])
    size = [1] * (n + 1)
    # cost[v]: D inside v's subtree plus the part of v's edge to its parent
    # that lies inside v's interval
    cost = [0] * (n + 1)
    for v in reversed(order):
        anchored = 1 if v != root else 0
        blocks = sorted((size[c] for c in children[v]), reverse=True)
        # dp[k]: least extra cost with k of the blocks so far on the parent's
        # side.  An edge to a block passes over every larger block farther
        # out on the same side; on the parent's side, the edge to the parent
        # passes over the block as well.
        dp = {0: 0}
        for j, b in enumerate(blocks):
            ndp = {}
            for k, c in dp.items():
                for k2, c2 in ((k + 1, c + b * (k + anchored)), (k, c + b * (j - k))):
                    if k2 not in ndp or c2 < ndp[k2]:
                        ndp[k2] = c2
            dp = ndp
        for c in children[v]:
            size[v] += size[c]
        cost[v] = sum(cost[c] for c in children[v]) + min(dp.values()) + anchored
    return cost[root]


def min_D_planar_all_roots(n, edges):
    """Planar minimum D as the least projective minimum over all n rootings."""
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = None
    for root in range(1, n + 1):
        parent = [0] * (n + 1)
        seen = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = u
                    stack.append(w)
        d = min_D_projective_dp(n, parent)
        if best is None or d < best:
            best = d
    return best


def isomorphic_by_permutation(edges_a, edges_b, n):
    """Free-tree isomorphism by trying all vertex relabelings."""
    ea = {frozenset(e) for e in edges_a}
    if len(edges_a) != len(edges_b):
        return False
    for perm in itertools.permutations(range(1, n + 1)):
        m = {i + 1: perm[i] for i in range(n)}
        if {frozenset((m[u], m[v])) for u, v in edges_b} == ea:
            return True
    return False


def rooted_isomorphic_by_permutation(parent_a, parent_b, n):
    root_a = next(v for v in range(1, n + 1) if parent_a[v] == 0)
    root_b = next(v for v in range(1, n + 1) if parent_b[v] == 0)
    ea = {(parent_a[v], v) for v in range(1, n + 1) if v != root_a}
    for perm in itertools.permutations(range(1, n + 1)):
        m = {i + 1: perm[i] for i in range(n)}
        if m[root_b] != root_a:
            continue
        if {(m[parent_b[v]], m[v]) for v in range(1, n + 1) if v != root_b} == ea:
            return True
    return False


def mean_over_permutations(n, edges, metric):
    """Exact expectation of metric(positions) over all n! arrangements."""
    total = Fraction(0)
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        positions = {v: i + 1 for i, v in enumerate(perm)}
        total += Fraction(metric(positions))
        count += 1
    return total / count


def all_labeled_free_trees(n):
    """Edge lists of all labeled free trees on n vertices (via all subsets)."""
    if n == 1:
        yield []
        return
    vertices = list(range(1, n + 1))
    possible = list(itertools.combinations(vertices, 2))
    for combo in itertools.combinations(possible, n - 1):
        if _is_tree(n, combo):
            yield list(combo)


def _is_tree(n, edges):
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def all_head_vectors(n):
    """All head vectors of rooted labeled trees on n vertices."""
    for edges in all_labeled_free_trees(n):
        adj = {v: [] for v in range(1, n + 1)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for root in range(1, n + 1):
            head = [0] * (n + 1)
            stack = [root]
            seen = {root}
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        head[w] = u
                        stack.append(w)
            yield tuple(head[1:])
