import itertools
import random
from dataclasses import asdict
from fractions import Fraction

import pytest

from deplin import (
    centre,
    centroid,
    degree_moment,
    expected_C_unconstrained,
    expected_D_unconstrained,
    from_edge_list,
    from_head_vector,
    hubiness,
    mean_hierarchical_distance,
    num_independent_edge_pairs,
    random_tree,
    tree_shape,
)
from deplin.errors import KindMismatchError, NoEdgesError, TooSmallError
from deplin.generate import TreeKind, exhaustive_trees, num_arrangements
from deplin.trees import _degrees

import oracles


def test_fig2_mhd(fig2):
    assert mean_hierarchical_distance(fig2) == Fraction(21, 9)


def test_mhd_path_and_star():
    assert mean_hierarchical_distance(from_head_vector("0 1 2 3")) == Fraction(6, 3)
    assert mean_hierarchical_distance(from_head_vector("0 1 1 1")) == Fraction(1)
    with pytest.raises(NoEdgesError):
        mean_hierarchical_distance(from_head_vector("0"))


def test_degree_moments():
    t = from_head_vector("0 1 1 1")  # star, degrees 3,1,1,1
    assert degree_moment(t, 1) == Fraction(6, 4)
    assert degree_moment(t, 2) == Fraction(12, 4)
    # mean in-degree is (n-1)/n for every rooted tree
    assert degree_moment(t, 1, kind="in") == Fraction(3, 4)
    assert degree_moment(t, 1, kind="out") == Fraction(3, 4)
    with pytest.raises(KindMismatchError):
        degree_moment(t.to_free(), 1, kind="in")


def test_mean_in_degree_invariant():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(2, 30)
        t = random_tree(TreeKind.parse("labeled-rooted"), n, rng)
        assert degree_moment(t, 1, kind="in") == Fraction(n - 1, n)


def test_hubiness_extremes():
    # star maximizes hubiness (1), path minimizes (0)
    assert hubiness(from_head_vector("0 1 1 1 1 1")) == 1
    assert hubiness(from_head_vector("0 1 2 3 4 5")) == 0
    with pytest.raises(TooSmallError):
        hubiness(from_head_vector("0 1 2"))


def test_q_closed_form_vs_pairs():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 25)
        t = random_tree(TreeKind.parse("labeled-free"), n, rng)
        edges = list(t.edges())
        q = sum(1 for e, f in itertools.combinations(edges, 2)
                if not set(e) & set(f))
        assert num_independent_edge_pairs(t) == q


def test_centre_and_centroid():
    path = from_edge_list(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert centre(path) == frozenset({3})
    assert centroid(path) == frozenset({3})
    path4 = from_edge_list(4, [(1, 2), (2, 3), (3, 4)])
    assert centre(path4) == frozenset({2, 3})
    assert centroid(path4) == frozenset({2, 3})
    star = from_edge_list(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert centre(star) == frozenset({1})
    assert centroid(star) == frozenset({1})
    # centre and centroid can differ: broom
    broom = from_edge_list(7, [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7)])
    assert centre(broom) == frozenset({3})
    assert centroid(broom) == frozenset({4})


def test_centroid_by_definition_at_every_root():
    # largest component left by removing each vertex, counted by search
    def worst(t, v):
        seen, sizes = {v}, []
        for start in t.neighbors(v):
            stack, size = [start], 0
            seen.add(start)
            while stack:
                size += 1
                for w in t.neighbors(stack.pop()):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            sizes.append(size)
        return max(sizes, default=0)

    for n in range(1, 9):
        for free in exhaustive_trees(TreeKind("unlabeled", "free"), n):
            worsts = {v: worst(free, v) for v in free.vertices()}
            expected = frozenset(v for v, w in worsts.items() if w == min(worsts.values()))
            assert centroid(free) == expected
            assert all(centroid(free.root_at(r)) == expected for r in free.vertices())


def test_centre_by_definition_at_every_root():
    for n in range(1, 11):
        for free in exhaustive_trees(TreeKind("unlabeled", "free"), n):
            adj = {v: free.neighbors(v) for v in free.vertices()}
            ecc = {v: max(oracles._distances_from(adj, v).values()) for v in free.vertices()}
            expected = frozenset(v for v, e in ecc.items() if e == min(ecc.values()))
            assert centre(free) == expected
            # a parsed rooting builds its own free tree, in edge order
            assert all(centre(from_head_vector(free.root_at(r).head_vector_str())) == expected
                       for r in free.vertices())


def _degree_readings(t):
    return (num_independent_edge_pairs(t), degree_moment(t, 2),
            hubiness(t) if t.n >= 4 else None, tree_shape(t))


def test_one_read_only_degree_sequence_per_rooted_tree():
    for n in range(1, 10):
        for t in exhaustive_trees(TreeKind("unlabeled", "rooted"), n):
            assert _degrees(t) is _degrees(t)
            # centre peels leaves by decrementing degrees; neither it nor the
            # planar count may change what the degree readers see afterwards
            centre(t)
            num_arrangements(t, "planar")
            fresh = from_head_vector(t.head_vector_str())
            assert _degree_readings(t) == _degree_readings(fresh)


def test_tree_shapes():
    path = from_edge_list(5, [(1, 2), (2, 3), (3, 4), (4, 5)]).root_at(1)
    s = tree_shape(path)
    assert s.linear and s.caterpillar and not s.star
    star = from_head_vector("0 1 1 1 1")
    s = tree_shape(star)
    assert s.star and s.quasistar is False and s.bistar and s.caterpillar and s.spider
    quasi = from_edge_list(5, [(1, 2), (1, 3), (1, 4), (4, 5)])
    s = tree_shape(quasi)
    assert s.quasistar and not s.star
    bistar = from_edge_list(6, [(1, 2), (1, 3), (1, 4), (4, 5), (4, 6)])
    s = tree_shape(bistar)
    assert s.bistar and not s.star and not s.quasistar
    spider = from_edge_list(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])
    s = tree_shape(spider)
    assert s.spider and not s.caterpillar
    noncat = from_edge_list(7, [(1, 2), (2, 3), (2, 4), (4, 5), (4, 6), (6, 7)])
    # vertex 2 and 4 internal with induced degree 2 each -> still a caterpillar
    assert tree_shape(noncat).caterpillar


def _check_shape_and_hubiness(t):
    assert asdict(tree_shape(t)) == oracles.tree_shape_by_definition(t.n, list(t.edges()))
    n = t.n
    if n >= 4:
        k2_path = degree_moment(from_edge_list(n, [(v, v + 1) for v in range(1, n)]), 2)
        k2_star = degree_moment(from_edge_list(n, [(1, v) for v in range(2, n + 1)]), 2)
        assert hubiness(t) == (degree_moment(t, 2) - k2_path) / (k2_star - k2_path)


def test_shape_and_hubiness_by_definition_exhaustive():
    for n in range(1, 12):
        for t in exhaustive_trees(TreeKind("unlabeled", "free"), n):
            _check_shape_and_hubiness(t)


def test_shape_and_hubiness_by_definition_random():
    rng = random.Random(6)
    for kind in ("labeled-free", "labeled-rooted"):
        for _ in range(300):
            _check_shape_and_hubiness(random_tree(TreeKind.parse(kind), rng.randint(1, 80), rng))


def test_degree_features_and_mhd_at_every_rooting():
    # the degree features read a rooted tree's children and parents, never
    # its free tree; MHD sums subtree sizes rather than depths
    for n in range(1, 10):
        for free in exhaustive_trees(TreeKind.parse("unlabeled-free"), n):
            expected = (num_independent_edge_pairs(free), degree_moment(free, 2),
                        tree_shape(free))
            for r in free.vertices():
                t = free.root_at(r)
                assert (num_independent_edge_pairs(t), degree_moment(t, 2),
                        tree_shape(t)) == expected
                if n >= 2:
                    assert expected_C_unconstrained(t) == expected_C_unconstrained(free)
                    assert mean_hierarchical_distance(t) == Fraction(
                        sum(t.depths()[1:]), n - 1)
                if n >= 4:
                    assert hubiness(t) == hubiness(free)


def test_expected_values_vs_enumeration():
    for n in range(2, 7):
        for t in exhaustive_trees(TreeKind.parse("unlabeled-free"), n):
            edges = list(t.edges())
            ed = oracles.mean_over_permutations(
                n, edges,
                lambda pos: oracles.edge_lengths_sum(edges, pos))
            ec = oracles.mean_over_permutations(
                n, edges,
                lambda pos: oracles.crossings_pairs(edges, pos))
            assert expected_D_unconstrained(t) == ed
            assert expected_C_unconstrained(t) == ec


def test_expected_d_closed_form():
    t = from_head_vector("0 1 2")
    assert expected_D_unconstrained(t) == Fraction(8, 3)
    assert expected_C_unconstrained(from_head_vector("0 1")) == 0
