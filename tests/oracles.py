"""Independent brute-force oracles used to validate the library.

Everything here is deliberately simple and slow: exhaustive search over
permutations, quadratic pair counting, a quadratic side-assignment DP for
the projective minimum, an exponential subset DP, and a search for the
largest set of disjoint edges.  None of it shares code with the package
under test.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction


def edge_lengths_sum(edges, positions):
    """positions: dict vertex -> position."""
    return sum(abs(positions[u] - positions[v]) for u, v in edges)


def _crosses(e, f):
    (a1, b1), (a2, b2) = e, f
    return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1


def crossings_pairs(edges, positions):
    spans = [tuple(sorted((positions[u], positions[v]))) for u, v in edges]
    return sum(1 for e, f in itertools.combinations(spans, 2) if _crosses(e, f))


def is_one_endpoint_crossing(edges, positions):
    """True iff, for every edge, all the edges crossing it share an endpoint."""
    spans = [tuple(sorted((positions[u], positions[v]))) for u, v in edges]
    for e in spans:
        crossers = [set(f) for f in spans if _crosses(e, f)]
        if crossers and not set.intersection(*crossers):
            return False
    return True


def flux_profile(n, edges, positions):
    """Per-gap flux: for each gap g between positions g and g+1, the number
    of edges spanning it and the size of the largest vertex-disjoint subset
    of those edges, found by search over taking or leaving each edge."""
    spans = [tuple(sorted((positions[u], positions[v]))) for u, v in edges]

    @functools.lru_cache(maxsize=None)
    def most_disjoint(rest):
        if not rest:
            return 0
        (a, b), others = rest[0], rest[1:]
        return max(most_disjoint(others),
                   1 + most_disjoint(tuple(e for e in others if a not in e and b not in e)))

    sizes, weights = [], []
    for g in range(1, n):
        spanning = tuple(e for e in spans if e[0] <= g < e[1])
        sizes.append(len(spanning))
        weights.append(most_disjoint(spanning))
    return tuple(sizes), tuple(weights)


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


def _distances_from(adj, source):
    dist = {source: 0}
    frontier = [source]
    for u in frontier:  # grows while it is walked
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                frontier.append(w)
    return dist


def _is_path(adj):
    """A graph given by its adjacency sets is a path (or empty) iff it is
    connected and two of its vertices are |V| - 1 edges apart."""
    if not adj:
        return True
    all_dist = [_distances_from(adj, v) for v in adj]
    return (len(all_dist[0]) == len(adj)
            and max(max(d.values()) for d in all_dist) == len(adj) - 1)


def _is_star(adj):
    """One vertex is adjacent to all the others."""
    return any(adj[v] == adj.keys() - {v} for v in adj)


def tree_shape_by_definition(n, edges):
    """The six shape flags of a free tree, each by its definition."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    leaves = {v for v in adj if len(adj[v]) <= 1}

    def without(removed):
        return {v: adj[v] - removed for v in adj if v not in removed}

    def quasistar_at(leaf):
        # removing the added leaf leaves a star with at least two edges whose
        # centre is not the subdivision vertex
        (mid,) = adj[leaf]
        rest = without({leaf})
        return len(rest) >= 3 and any(
            rest[c] == rest.keys() - {c} for c in rest if c != mid)

    return {
        "linear": _is_path(adj),
        "star": _is_star(adj),
        "quasistar": n >= 4 and any(quasistar_at(v) for v in leaves),
        "bistar": n == 1 or any(all({a, b} & {u, v} for a, b in edges) for u, v in edges),
        "caterpillar": _is_path(without(leaves)),
        "spider": sum(1 for v in adj if len(adj[v]) >= 3) <= 1,
    }


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


def contract_removed(heads, kept):
    """The head vector left when only the tokens in `kept` stay, or None when
    `heads` is not a tree.  A tree has exactly one head 0, and every token's
    head chain reaches 0 within n steps.  Each kept token hangs from the first
    kept token on its head chain; the leftmost kept token whose chain has none
    is the root, and the other kept tokens without one hang from it."""
    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1 or any(not 0 <= h <= n for h in heads):
        return None
    for v in range(1, n + 1):
        h, steps = v, 0
        while h != 0 and steps <= n:
            h, steps = heads[h - 1], steps + 1
        if h != 0:
            return None
    kept = sorted(kept)
    nearest = {}
    for v in kept:
        h = heads[v - 1]
        while h != 0 and h not in kept:
            h = heads[h - 1]
        nearest[v] = h
    if not kept:
        return ()
    root = min(v for v in kept if nearest[v] == 0)
    position = {v: i for i, v in enumerate(kept, start=1)}
    return tuple(0 if v == root else position[nearest[v] or root] for v in kept)
