import random

import pytest

import deplin
from deplin import (
    Arrangement,
    CycleError,
    FreeTree,
    MultipleRootsError,
    NoRootError,
    OutOfRangeError,
    RootedTree,
    SelfHeadError,
    canonical_code,
    from_edge_list,
    from_head_vector,
    parse_head_vector,
    to_head_vector,
)
from deplin.errors import DuplicateEdgeError, NotATreeError, SelfLoopError
from deplin.generate import TreeKind, exhaustive_trees, random_tree

import oracles


def test_parse_head_vector():
    assert parse_head_vector("0 1 2") == (0, 1, 2)
    assert parse_head_vector("  0\t1 ") == (0, 1)
    with pytest.raises(Exception):
        parse_head_vector("0 x")


@pytest.mark.parametrize("text", ["0 0_1", "0 \u0661", "0 +1", "+0"])
def test_head_vector_tokens_are_ascii_integers(text):
    # `int` reads "0_1" and "+1" as 1, and so the Arabic-Indic digit one
    with pytest.raises(ValueError, match="non-integer token"):
        parse_head_vector(text)


def test_fixture_head_vectors_parse():
    t = from_head_vector("0 1 2 6 4 1 6 6 6")
    assert t.n == 9 and t.root == 1
    assert set(t.children[6]) == {4, 7, 8, 9}
    t = from_head_vector("2 0 2 2 4 4 8 4 8 9")
    assert t.n == 10 and t.root == 2


def test_single_vertex():
    t = from_head_vector("0")
    assert t.n == 1 and t.root == 1
    assert list(t.edges()) == []
    assert to_head_vector(t) == (0,)


@pytest.mark.parametrize("hv,err", [
    ("0 0 1", MultipleRootsError),
    ("2 1", NoRootError),
    ("0 2", SelfHeadError),
    ("1 1", SelfHeadError),
    ("0 5", OutOfRangeError),
    ("0 -1", OutOfRangeError),
])
def test_validation_errors(hv, err):
    with pytest.raises(err):
        from_head_vector(hv)


def test_cycle_detection():
    # 2<->3 cycle unreachable from root
    with pytest.raises(CycleError):
        from_head_vector("0 3 2 1")


def test_round_trip_exhaustive():
    for n in range(1, 7):
        for hv in oracles.all_head_vectors(n):
            assert to_head_vector(from_head_vector(hv)) == hv


def test_fig_head_vectors_round_trip(fig1, fig2):
    assert fig1.head_vector_str() == "2 3 0 3 2 7 5 4 3"
    assert fig2.head_vector_str() == "3 3 0 5 3 7 5 10 10 7"


def test_edge_list_construction():
    t = from_edge_list(3, [(1, 2), (2, 3)])
    assert t.degree(2) == 2
    assert set(map(frozenset, t.edges())) == {frozenset((1, 2)), frozenset((2, 3))}

    with pytest.raises(SelfLoopError):
        from_edge_list(2, [(1, 1)])
    with pytest.raises(DuplicateEdgeError):
        from_edge_list(3, [(1, 2), (2, 1), (2, 3)])
    with pytest.raises(NotATreeError):
        from_edge_list(4, [(1, 2), (2, 3)])  # disconnected: missing vertex 4
    with pytest.raises(NotATreeError):  # n - 1 edges: {1, 2} and the cycle 3-4-5
        from_edge_list(5, [(1, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(OutOfRangeError):
        from_edge_list(2, [(1, 5)])


def test_rooting_and_to_free():
    p3 = deplin.to_free(from_head_vector("0 1 2"))
    assert isinstance(p3, FreeTree)
    assert sorted(map(tuple, map(sorted, p3.edges()))) == [(1, 2), (2, 3)]
    rerooted = p3.root_at(3)
    assert to_head_vector(rerooted) == (2, 3, 0)


def test_rooting_all_vertices_consistent():
    free = from_edge_list(5, [(1, 2), (1, 3), (3, 4), (3, 5)])
    for r in free.vertices():
        rt = free.root_at(r)
        assert rt.root == r
        assert rt.to_free() == free
        # parent/child consistency
        for v in rt.vertices():
            if v != r:
                assert v in rt.children[rt.parent[v]]


def test_depths(fig2):
    d = fig2.depths()
    assert d[fig2.root] == 0
    for v in fig2.vertices():
        if v != fig2.root:
            assert d[v] == d[fig2.parent[v]] + 1


def test_arrangement_basics():
    a = Arrangement.identity(4)
    assert a.position_of(3) == 3 and a.vertex_at(2) == 2
    b = Arrangement.from_vertex_order([3, 1, 4, 2])
    assert b.position_of(3) == 1 and b.vertex_at(4) == 2
    with pytest.raises(Exception):
        Arrangement([1, 1, 2])
    with pytest.raises(Exception):
        Arrangement([1, 3])


def _assert_parents_first(t):
    position = {v: i for i, v in enumerate(t._order)}
    assert sorted(position) == list(t.vertices())
    assert t._order[0] == t.root
    assert all(position[t.parent[v]] < position[v] for v in t.vertices() if v != t.root)


def test_every_constructor_records_a_parents_first_order():
    rng = random.Random(5)
    for n in range(1, 6):
        for hv in oracles.all_head_vectors(n):
            _assert_parents_first(from_head_vector(hv))
        for t in exhaustive_trees(TreeKind.parse("labeled-rooted"), n):  # root_at
            _assert_parents_first(t)
    for n in range(1, 9):
        for t in exhaustive_trees(TreeKind.parse("unlabeled-rooted"), n):  # level sequences
            _assert_parents_first(t)
    for _ in range(200):
        n = rng.randint(1, 40)
        free = random_tree(TreeKind.parse("labeled-free"), n, rng)
        _assert_parents_first(RootedTree(free, rng.randint(1, n)))
        _assert_parents_first(random_tree(TreeKind.parse("unlabeled-rooted"), n, rng))


def test_long_path_through_every_order_reader():
    n = 10_000
    edges = [(v, v + 1) for v in range(1, n)]
    random.Random(3).shuffle(edges)
    rooted = from_edge_list(n, edges).root_at(1)
    assert rooted.parent == (0, 0, *range(1, n))
    t = from_head_vector(rooted.to_head_vector())
    assert t._order == tuple(range(1, n + 1))
    assert t.depths() == (0, *range(n))
    assert canonical_code(t) == "(" * n + ")" * n
