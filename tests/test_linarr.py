import itertools
import random
import time
from fractions import Fraction

import pytest

from deplin import (
    Arrangement,
    classify_arrangement,
    flux,
    from_head_vector,
    head_initial_ratio,
    min_D_planar,
    min_D_projective,
    min_D_unconstrained,
    num_crossings,
    random_tree,
    sum_edge_lengths,
)
from deplin.generate import TreeKind, exhaustive_trees

import oracles


def _positions(t, a):
    return {v: a.position[v] for v in t.vertices()}


def test_fig1_identity(fig1):
    a = Arrangement.identity(fig1.n)
    assert sum_edge_lengths(fig1, a) == 19
    assert num_crossings(fig1, a) == 2
    flags = classify_arrangement(fig1, a)
    assert not flags.planar and not flags.projective


def test_fig2_identity(fig2):
    a = Arrangement.identity(fig2.n)
    assert sum_edge_lengths(fig2, a) == 15
    assert num_crossings(fig2, a) == 0
    flags = classify_arrangement(fig2, a)
    assert flags.planar and flags.projective and flags.one_endpoint_crossing


def test_crossings_algorithms_agree_random():
    rng = random.Random(20240817)
    kind = TreeKind.parse("labeled-free")
    for _ in range(1000):
        n = rng.randint(2, 50)
        t = random_tree(kind, n, rng)
        a = Arrangement.from_vertex_order(rng.sample(range(1, n + 1), n))
        brute = num_crossings(t, a, algorithm="brute_pairs")
        sweep = num_crossings(t, a, algorithm="sweep")
        assert brute == sweep
        assert brute == oracles.crossings_pairs(list(t.edges()), _positions(t, a))


def test_flag_implications_exhaustive():
    for n in range(2, 6):
        for t in exhaustive_trees(TreeKind.parse("labeled-rooted"), n):
            for perm in itertools.permutations(range(1, n + 1)):
                a = Arrangement.from_vertex_order(list(perm))
                flags = classify_arrangement(t, a)
                c = num_crossings(t, a)
                assert flags.planar == (c == 0)
                if flags.projective:
                    assert flags.planar
                if flags.planar:
                    assert flags.one_endpoint_crossing
                parent = [0] + list(t.to_head_vector())
                assert flags.projective == oracles.is_projective(
                    n, parent, _positions(t, a))


def test_head_initial_ratio():
    t = from_head_vector("0 1 2")  # both deps after their head
    assert head_initial_ratio(t, Arrangement.identity(3)) == 1
    t = from_head_vector("2 3 0")
    assert head_initial_ratio(t, Arrangement.identity(3)) == 0
    t = from_head_vector("2 0 2")
    assert head_initial_ratio(t, Arrangement.identity(3)) == Fraction(1, 2)


def test_flux_path():
    # path 1-2-3-4 in identity order: every gap spanned by exactly one edge
    t = from_head_vector("0 1 2 3")
    f = flux(t, Arrangement.identity(4))
    assert f.sizes == (1, 1, 1)
    assert f.weights == (1, 1, 1)
    assert f.max_size == 1 and f.total_size == 3


def test_flux_star_center_first():
    t = from_head_vector("0 1 1 1")
    f = flux(t, Arrangement.identity(4))
    # gaps after positions 1,2,3 span 3,2,1 edges; all share vertex 1
    assert f.sizes == (3, 2, 1)
    assert f.weights == (1, 1, 1)


def test_min_projective_matches_exhaustive():
    for n in range(2, 8):
        for t in exhaustive_trees(TreeKind.parse("unlabeled-rooted"), n):
            parent = [0] + list(t.to_head_vector())
            expected = oracles.min_D_exhaustive(
                n, list(t.edges()), "projective", parent)
            res = min_D_projective(t)
            assert res.value == expected
            flags = classify_arrangement(t, res.arrangement)
            assert flags.projective
            assert sum_edge_lengths(t, res.arrangement) == res.value


def test_min_planar_matches_exhaustive():
    for n in range(2, 8):
        for t in exhaustive_trees(TreeKind.parse("unlabeled-free"), n):
            expected = oracles.min_D_exhaustive(n, list(t.edges()), "planar")
            res = min_D_planar(t)
            assert res.value == expected
            assert num_crossings(t, res.arrangement) == 0
            assert sum_edge_lengths(t, res.arrangement) == res.value


def _check_min_witness(t, res, projective):
    parent = [0] + list(t.to_head_vector())
    pos = _positions(t, res.arrangement)
    assert oracles.edge_lengths_sum(list(t.edges()), pos) == res.value
    assert oracles.crossings_pairs(list(t.edges()), pos) == 0
    if projective:
        assert oracles.is_projective(t.n, parent, pos)


def test_min_projective_and_planar_match_dp_oracles_exhaustive():
    # every rooting of every unlabeled free tree with n <= 11
    for n in range(1, 12):
        for f in exhaustive_trees(TreeKind.parse("unlabeled-free"), n):
            planar = oracles.min_D_planar_all_roots(n, list(f.edges()))
            res = min_D_planar(f)
            assert res.value == planar
            _check_min_witness(f.root_at(1), res, projective=False)
            for r in f.vertices():
                t = f.root_at(r)
                parent = [0] + list(t.to_head_vector())
                res = min_D_projective(t)
                assert res.value == oracles.min_D_projective_dp(n, parent)
                _check_min_witness(t, res, projective=True)
                assert min_D_planar(t).value == planar


def test_min_projective_and_planar_match_dp_oracles_random():
    rng = random.Random(2022)
    kind = TreeKind.parse("labeled-rooted")
    for _ in range(40):
        n = rng.randint(12, 150)
        t = random_tree(kind, n, rng)
        parent = [0] + list(t.to_head_vector())
        res = min_D_projective(t)
        assert res.value == oracles.min_D_projective_dp(n, parent)
        _check_min_witness(t, res, projective=True)
        res = min_D_planar(t)
        assert res.value == oracles.min_D_planar_all_roots(n, list(t.edges()))
        _check_min_witness(t, res, projective=False)


def _scale_tree(shape, n):
    if shape == "path":
        return from_head_vector([0] + list(range(1, n)))
    if shape == "star":
        return from_head_vector([0] + [1] * (n - 1))
    rng = random.Random(n)  # random recursive tree
    return from_head_vector([0] + [rng.randint(1, i) for i in range(1, n)])


@pytest.mark.parametrize("shape", ["path", "star", "random_recursive"])
@pytest.mark.parametrize("solver", [min_D_projective, min_D_planar])
def test_min_solvers_at_scale(solver, shape):
    t = _scale_tree(shape, 5000)
    start = time.perf_counter()
    res = solver(t)
    assert time.perf_counter() - start < 2.0
    a = res.arrangement
    assert sum_edge_lengths(t, a) == res.value
    assert num_crossings(t, a) == 0
    if solver is min_D_projective:
        rp = a.position[t.root]
        assert not any(min(a.position[u], a.position[v]) < rp < max(a.position[u], a.position[v])
                       for u, v in t.edges())


def test_min_unconstrained_matches_subset_dp():
    for n in range(2, 10):
        for t in exhaustive_trees(TreeKind.parse("unlabeled-free"), n):
            expected = oracles.min_D_subset_dp(n, list(t.edges()))
            for algorithm in ("shiloach", "chung_2"):
                res = min_D_unconstrained(t, algorithm=algorithm)
                assert res.value == expected
                assert sum_edge_lengths(t, res.arrangement) == res.value


def test_min_unconstrained_random_larger():
    rng = random.Random(99)
    kind = TreeKind.parse("labeled-free")
    for _ in range(50):
        n = rng.randint(8, 13)
        t = random_tree(kind, n, rng)
        assert (min_D_unconstrained(t).value
                == oracles.min_D_subset_dp(n, list(t.edges())))


def test_min_star_and_path_closed_forms():
    # star S_n: min D = known closed form; path: n-1
    t = from_head_vector("0 1 1 1 1")
    assert min_D_unconstrained(t.to_free()).value == 6
    p = from_head_vector("0 1 2 3 4 5")
    assert min_D_unconstrained(p.to_free()).value == 5
    assert min_D_projective(p).value == 5


def test_solver_algorithm_names():
    t = from_head_vector("0 1 1 2 2 3")
    free = t.to_free()
    ref = min_D_projective(t).value
    assert min_D_projective(t, algorithm="GT_Alemany").value == ref
    assert min_D_projective(t, algorithm="exhaustive").value == ref
    ref = min_D_planar(free).value
    assert min_D_planar(free, algorithm="HS_Alemany").value == ref
    assert min_D_planar(free, algorithm="exhaustive").value == ref
    ref = min_D_unconstrained(free).value
    assert min_D_unconstrained(free, algorithm="Shiloach").value == ref
    assert min_D_unconstrained(free, algorithm="Chung_2").value == ref
    assert min_D_unconstrained(free, algorithm="exhaustive").value == ref
    with pytest.raises(ValueError):
        min_D_unconstrained(free, algorithm="nope")
    from deplin.errors import SizeLimitExceededError
    big = from_head_vector("0 " + " ".join(str(i) for i in range(1, 12)))
    with pytest.raises(SizeLimitExceededError):
        min_D_unconstrained(big.to_free(), algorithm="exhaustive")


def test_solver_ordering():
    rng = random.Random(5)
    kind = TreeKind.parse("labeled-rooted")
    for _ in range(200):
        t = random_tree(kind, rng.randint(2, 20), rng)
        u = min_D_unconstrained(t.to_free()).value
        pl = min_D_planar(t.to_free()).value
        pr = min_D_projective(t).value
        assert u <= pl <= pr
