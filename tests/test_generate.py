import hashlib
import itertools
import math
import random
import time
from collections import Counter

import pytest

from deplin import (
    are_isomorphic,
    count_trees,
    exhaustive_arrangements,
    exhaustive_trees,
    free_canonical_code,
    from_head_vector,
    num_arrangements,
    random_arrangement,
    random_tree,
)
from deplin.errors import SizeLimitExceededError
from deplin.generate import ALL_KINDS, TreeKind, _centroid_counts
from deplin.linarr import classify_arrangement, num_crossings
from deplin.trees import RootedTree

import oracles
from conftest import scale_tree

LF = TreeKind.parse("labeled-free")
LR = TreeKind.parse("labeled-rooted")
UF = TreeKind.parse("unlabeled-free")
UR = TreeKind.parse("unlabeled-rooted")


# --- counting ---------------------------------------------------------------

def test_count_formulas():
    for n in range(1, 10):
        assert count_trees(LF, n) == (1 if n <= 2 else n ** (n - 2))
        assert count_trees(LR, n) == n ** (n - 1)
    # OEIS A000081 (rooted) and A000055 (free)
    assert [count_trees(UR, n) for n in range(1, 10)] == [1, 1, 2, 4, 9, 20, 48, 115, 286]
    assert [count_trees(UF, n) for n in range(1, 10)] == [1, 1, 1, 2, 3, 6, 11, 23, 47]
    assert count_trees(UR, 20) == 12_826_228
    assert count_trees(UR, 30) == 354_426_847_597
    assert count_trees(UF, 20) == 823_065
    assert count_trees(UF, 30) == 14_830_871_802


def test_unlabeled_free_draw_split_matches_the_count():
    # the draw weights its centroid branch by _centroid_counts and its
    # two-halves branch by r(r + 1)/2; together they must be Otter's count
    for n in range(1, 201):
        halves = 0
        if n % 2 == 0:
            r = count_trees(UR, n // 2)
            halves = r * (r + 1) // 2
        assert _centroid_counts(n)[n] + halves == count_trees(UF, n), n


def test_unlabeled_rooted_count_quadratic(monkeypatch):
    # start from an empty table so the whole recurrence runs
    monkeypatch.setattr("deplin.generate._rooted_counts", [0, 1])
    monkeypatch.setattr("deplin.generate._divisor_sums", [0])
    start = time.perf_counter()
    count_trees(UR, 1000)
    assert time.perf_counter() - start < 3.0


# --- exhaustive generation ---------------------------------------------------

@pytest.mark.parametrize("kind", [LF, LR, UF, UR])
def test_exhaustive_counts_match(kind):
    for n in range(1, 8):
        trees = list(exhaustive_trees(kind, n))
        assert len(trees) == count_trees(kind, n)


def test_labeled_free_distinct_and_valid():
    for n in range(1, 7):
        seen = set()
        for t in exhaustive_trees(LF, n):
            key = frozenset(frozenset(e) for e in t.edges())
            assert key not in seen
            seen.add(key)
        assert len(seen) == count_trees(LF, n)
        if n >= 2:
            expected = {frozenset(frozenset(e) for e in edges)
                        for edges in oracles.all_labeled_free_trees(n)}
            assert seen == expected


def test_labeled_rooted_distinct():
    for n in range(1, 6):
        seen = {(t.root, tuple(t.to_head_vector()))
                for t in exhaustive_trees(LR, n)}
        assert len(seen) == n ** (n - 1)


def test_unlabeled_free_enumeration_distinct_to_14():
    # OEIS A000055 from n = 1
    counts = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]
    for n, count in enumerate(counts, start=1):
        codes = {free_canonical_code(t) for t in exhaustive_trees(UF, n)}
        assert len(codes) == count == sum(1 for _ in exhaustive_trees(UF, n))


def test_unlabeled_streams_pairwise_nonisomorphic():
    for n in range(1, 8):
        rooted = list(exhaustive_trees(UR, n))
        for a, b in itertools.combinations(rooted, 2):
            assert not are_isomorphic(a, b, mode="rooted")
        free = list(exhaustive_trees(UF, n))
        for a, b in itertools.combinations(free, 2):
            assert not are_isomorphic(a, b)


# --- random generation -------------------------------------------------------

@pytest.mark.parametrize("kind", [LF, LR, UF, UR])
def test_random_trees_valid(kind):
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 20)
        t = random_tree(kind, n, rng)
        assert t.n == n
        if kind.rooting == "rooted":
            assert isinstance(t, RootedTree)


@pytest.mark.parametrize("kind,n", [(LF, 5), (LR, 4), (UF, 7), (UR, 6)])
def test_random_trees_hit_all_classes(kind, n):
    """Every generable tree appears within a generous sample."""
    rng = random.Random(23)
    if kind.labeling == "unlabeled":
        universe = {free_canonical_code(t) if kind.rooting == "free"
                    else _rooted_code(t)
                    for t in exhaustive_trees(kind, n)}
        key = (lambda t: free_canonical_code(t)) if kind.rooting == "free" \
            else _rooted_code
    else:
        universe = {_labeled_key(t) for t in exhaustive_trees(kind, n)}
        key = _labeled_key
    seen = set()
    for _ in range(40 * len(universe)):
        seen.add(key(random_tree(kind, n, rng)))
    assert seen == universe


def _rooted_code(t):
    from deplin import canonical_code
    return canonical_code(t)


def _labeled_key(t):
    if isinstance(t, RootedTree):
        return tuple(t.to_head_vector())
    return frozenset(frozenset(e) for e in t.edges())


# --- arrangements ------------------------------------------------------------

def test_num_arrangements_formulas():
    for n in range(1, 7):
        for t in exhaustive_trees(UR, n):
            free = t.to_free()
            assert num_arrangements(free) == math.factorial(n)
            # enumerate and cross-check constrained counts
            planar = list(exhaustive_arrangements(free, "planar"))
            assert len(planar) == num_arrangements(free, "planar")
            proj = list(exhaustive_arrangements(t, "projective"))
            assert len(proj) == num_arrangements(t, "projective")
            assert all(num_crossings(free, a) == 0 for a in planar)
            assert all(classify_arrangement(t, a).projective for a in proj)
            # distinct, counted and each a member: the whole set
            assert len(set(planar)) == len(planar)
            assert len(set(proj)) == len(proj)


def test_exhaustive_arrangements_distinct():
    t = RootedTree.from_head_vector("0 1 1 2 2")
    for constraint in ("unconstrained", "planar", "projective"):
        arrs = [tuple(a.position[1:]) for a in exhaustive_arrangements(t, constraint)]
        assert len(arrs) == len(set(arrs))


def test_exhaustive_arrangements_size_limit():
    t = random_tree(LF, 12, random.Random(0))
    with pytest.raises(SizeLimitExceededError):
        list(exhaustive_arrangements(t, "unconstrained", max_n=10))


# A 2 000-vertex path is twice the default recursion limit deep.
@pytest.mark.parametrize("constraint", ["projective", "planar"])
def test_exhaustive_arrangements_of_a_deep_tree(constraint):
    t = scale_tree("path", 2000)
    a = next(exhaustive_arrangements(t, constraint, max_n=t.n))
    assert sorted(a.inverse[1:]) == list(range(1, t.n + 1))
    assert num_crossings(t, a) == 0


# A 13-vertex star has 13! (6.2e9) arrangements of each kind: the first comes
# back at once only if the enumeration builds none of the others ahead.
@pytest.mark.parametrize("constraint", ["unconstrained", "projective", "planar"])
def test_exhaustive_arrangements_lazy(constraint):
    t = scale_tree("star", 13)
    start = time.perf_counter()
    a = next(exhaustive_arrangements(t, constraint, max_n=t.n))
    assert time.perf_counter() - start < 1.0
    assert sorted(a.inverse[1:]) == list(range(1, t.n + 1))


def test_random_arrangements_valid_and_uniform_small():
    t = RootedTree.from_head_vector("0 1 1 3")
    rng = random.Random(6)
    for constraint in ("unconstrained", "planar", "projective"):
        support = {tuple(a.position[1:])
                   for a in exhaustive_arrangements(t, constraint)}
        counts = Counter()
        trials = 2000 * len(support) // 10
        for _ in range(max(trials, 3000)):
            a = random_arrangement(t, constraint, rng)
            key = tuple(a.position[1:])
            assert key in support
            counts[key] += 1
        assert set(counts) == support
        total = sum(counts.values())
        for k in support:
            assert abs(counts[k] / total - 1 / len(support)) < 0.25 / len(support) + 0.02


# --- seeded streams and scale ------------------------------------------------

# Literals recorded from the generators at commit 001c0b2, unlabeled-free
# again at the centroid-rooted draw; a change to any of them changes every
# seeded sample, estimate and benchmark input downstream.
GOLDEN_TREES = {
    "labeled-free": (31, ((1, 4), (1, 11), (1, 3), (2, 6), (2, 3), (2, 9), (3, 7),
                          (5, 8), (7, 8), (9, 12), (10, 11))),
    "labeled-rooted": (32, (8, 0, 5, 2, 12, 2, 3, 4, 4, 12, 1, 1)),
    "unlabeled-free": (33, ((1, 2), (1, 7), (2, 3), (2, 4), (4, 5), (5, 6), (7, 8),
                            (8, 9), (9, 10), (10, 11), (10, 12))),
    "unlabeled-rooted": (34, (0, 1, 2, 3, 4, 5, 4, 4, 8, 8, 10, 4)),
}

GOLDEN_ARRANGEMENTS = {
    "unconstrained": [(4, 3, 9, 1, 8, 7, 2, 6, 5), (3, 8, 7, 1, 6, 5, 2, 4, 9),
                      (9, 6, 1, 4, 5, 2, 7, 3, 8)],
    "projective": [(1, 9, 4, 5, 7, 8, 6, 3, 2), (7, 6, 8, 5, 4, 2, 3, 9, 1),
                   (3, 5, 6, 7, 8, 4, 2, 9, 1)],
    "planar": [(9, 3, 5, 4, 8, 6, 7, 2, 1), (8, 7, 6, 5, 2, 3, 1, 9, 4),
               (1, 9, 5, 4, 6, 7, 8, 2, 3)],
}


def test_seeded_streams_golden():
    for kind in ALL_KINDS:
        seed, expected = GOLDEN_TREES[str(kind)]
        t = random_tree(kind, 12, random.Random(seed))
        key = t.to_head_vector() if isinstance(t, RootedTree) else tuple(t.edges())
        assert key == expected, kind
    t = from_head_vector("3 3 0 3 4 4 6 6 1")
    rng = random.Random(77)
    for constraint, expected in GOLDEN_ARRANGEMENTS.items():
        drawn = [random_arrangement(t, constraint, rng).inverse[1:] for _ in range(3)]
        assert drawn == expected, constraint


# sha256 of the head vectors below, one a line, recorded at commit 593fcb1;
# this stream builds the inputs of every benchmark workload
UNLABELED_ROOTED_STREAM = "9f533c20b03b7db14efdb139648ed2658a4c2650fd97f29226952aeafe47388b"


def test_unlabeled_rooted_stream_pinned():
    digest = hashlib.sha256()
    for seed in range(50):
        for n in (1, 2, 3, 5, 12, 30, 100):
            t = random_tree(UR, n, random.Random(seed))
            digest.update((t.head_vector_str() + "\n").encode())
    assert digest.hexdigest() == UNLABELED_ROOTED_STREAM


def test_unlabeled_free_at_scale():
    start = time.perf_counter()
    t = random_tree(UF, 1000, random.Random(3))
    assert time.perf_counter() - start < 2.0
    assert t.n == 1000 and t.num_edges == 999


# Always the first (j, d) is a leaf on a trunk one vertex smaller: a star on a
# trunk chain n long.  Always the last is a root over one limb of n - 1
# vertices: a path, limbs nested n deep.  n = 1 100 is past the default
# recursion limit; at n = 5 000 the count table alone takes minutes.
@pytest.mark.parametrize("last", [False, True])
def test_unlabeled_rooted_deep_draws(last):
    n = 1100
    rng = random.Random(0)
    rng.randrange = (lambda m: m - 1) if last else (lambda m: 0)
    t = random_tree(UR, n, rng)
    if last:
        degrees = sorted(t.to_free().degree(v) for v in t.vertices())
        assert degrees == [1, 1] + [2] * (n - 2)  # a path
    else:
        assert t.num_children(t.root) == n - 1  # a star


@pytest.mark.parametrize("shape", ["path", "star", "random_recursive"])
@pytest.mark.parametrize("constraint", ["projective", "planar"])
def test_random_arrangement_at_scale(constraint, shape):
    t = scale_tree(shape, 5000)
    start = time.perf_counter()
    a = random_arrangement(t, constraint, random.Random(3))
    assert time.perf_counter() - start < 2.0
    assert sorted(a.inverse[1:]) == list(range(1, t.n + 1))
    assert num_crossings(t, a) == 0
    if constraint == "projective":
        rp = a.position[t.root]
        assert not any(min(a.position[u], a.position[v]) < rp < max(a.position[u], a.position[v])
                       for u, v in t.edges())
