"""Invalid arguments and input raise their documented errors, and the tree and
arrangement types compare and hash by value."""

import random

import pytest

from deplin import (
    Arrangement,
    FreeTree,
    RootedTree,
    TreeKind,
    are_isomorphic,
    convert,
    count_trees,
    degree_moment,
    estimate_over_arrangements,
    exhaustive_arrangements,
    exhaustive_trees,
    from_head_vector,
    num_arrangements,
    parse_conllu,
    process_collection,
    process_treebank,
    random_arrangement,
    random_tree,
)
from deplin.errors import (
    MalformedLineError,
    NoRootError,
    NonContiguousIdsError,
    NotATreeError,
    OutOfRangeError,
    SizeMismatchError,
)

from conftest import FIG1_HV

_LR = TreeKind.parse("labeled-rooted")


def _conllu(tmp_path, *rows):
    """A one-sentence CoNLL-U file of (ID, HEAD) rows."""
    p = tmp_path / "s.conllu"
    p.write_text("".join(f"{i}\tw\tw\tNOUN\t_\t_\t{h}\tdep\t_\t_\n" for i, h in rows) + "\n",
                 encoding="utf-8")
    return str(p)


def _collection(tmp_path, **outputs):
    (tmp_path / "x.hv").write_text("0 1\n", encoding="utf-8")
    (tmp_path / "c.txt").write_text("x.hv\n", encoding="utf-8")
    return process_collection(str(tmp_path / "c.txt"), **outputs)


def _treebank(tmp_path, names):
    (tmp_path / "x.hv").write_text("0 1\n", encoding="utf-8")
    return process_treebank(str(tmp_path / "x.hv"), str(tmp_path / "x.csv"), names)


CASES = {
    "conllu non-integer head": (
        lambda p: list(parse_conllu(_conllu(p, (1, 0), (2, "x")))),
        MalformedLineError, "non-integer ID or HEAD on line 2"),
    "conllu non-contiguous ids": (
        lambda p: list(parse_conllu(_conllu(p, (1, 0), (3, 1)))),
        NonContiguousIdsError, "not contiguous"),
    "convert missing input": (
        lambda p: convert(str(p / "missing.conllu"), str(p / "out.hv")),
        FileNotFoundError, "missing.conllu"),
    "root_at out of range": (
        lambda p: RootedTree.root_at(from_head_vector("0 1").to_free(), 0),
        OutOfRangeError, "root 0 out of range"),
    "empty head vector": (lambda p: from_head_vector([]), NoRootError, "empty"),
    "head vector non-integer token": (
        lambda p: from_head_vector("0 x"), MalformedLineError, "non-integer token"),
    "edge list of no vertex": (
        lambda p: FreeTree.from_edge_list(0, []), NotATreeError, "at least one vertex"),
    "vertex order repeats a vertex": (
        lambda p: Arrangement.from_vertex_order([1, 1]), SizeMismatchError, "permutation"),
    "count_trees n < 1": (lambda p: count_trees(_LR, 0), ValueError, "n must be >= 1"),
    "exhaustive_trees n < 1": (
        lambda p: list(exhaustive_trees(_LR, 0)), ValueError, "n must be >= 1"),
    "random_tree n < 1": (
        lambda p: random_tree(_LR, 0, random.Random(1)), ValueError, "n must be >= 1"),
    "num_arrangements constraint": (
        lambda p: num_arrangements(from_head_vector("0 1"), "bad"),
        ValueError, "unknown constraint"),
    "exhaustive_arrangements constraint": (
        lambda p: exhaustive_arrangements(from_head_vector("0 1"), "bad"),
        ValueError, "unknown constraint"),
    "random_arrangement constraint": (
        lambda p: random_arrangement(from_head_vector("0 1"), "bad", random.Random(1)),
        ValueError, "unknown constraint"),
    "random_arrangement without an rng": (
        lambda p: random_arrangement(from_head_vector("0 1"), "planar"),
        TypeError, "rng"),
    "tree kind without a dash": (
        lambda p: TreeKind.parse("labeled"), ValueError, "bad tree kind"),
    "tree kind labeling": (
        lambda p: TreeKind.parse("relabeled-free"), ValueError, "labeling must be one of"),
    "tree kind rooting": (
        lambda p: TreeKind.parse("labeled-grounded"), ValueError, "rooting must be one of"),
    "isomorphism mode": (
        lambda p: are_isomorphic(from_head_vector("0 1"), from_head_vector("0 1"), "bad"),
        ValueError, "unknown isomorphism mode"),
    "degree moment order": (
        lambda p: degree_moment(from_head_vector("0 1"), 0),
        ValueError, "moment order must be positive"),
    "degree kind": (
        lambda p: degree_moment(from_head_vector("0 1"), 2, kind="bad"),
        ValueError, "unknown degree kind"),
    "estimator mode": (
        lambda p: estimate_over_arrangements(from_head_vector("0 1"), "D", mode="bad"),
        ValueError, "unknown mode"),
    "order-independent metric over arrangements": (
        lambda p: estimate_over_arrangements(from_head_vector("0 1"), "Q"),
        ValueError, "does not depend on the arrangement"),
    "duplicate feature names": (
        lambda p: _treebank(p, ["D", "C", "D"]), ValueError, "duplicate feature names"),
    "collection with both outputs": (
        lambda p: _collection(p, output_dir=str(p / "o"), merge_out=str(p / "m.csv")),
        ValueError, "exactly one of"),
    "collection with neither output": (
        lambda p: _collection(p), ValueError, "exactly one of"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_invalid_call_raises(case, tmp_path):
    call, exception, message = CASES[case]
    with pytest.raises(exception, match=message) as info:
        call(tmp_path)
    if case == "conllu non-integer head":
        assert info.value.line_no == 2


def test_trees_and_arrangements_compare_and_hash_by_value():
    a, b, other = from_head_vector(FIG1_HV), from_head_vector(FIG1_HV), from_head_vector("0 1")
    free, free_again = a.to_free(), FreeTree.from_edge_list(
        a.n, [(v, a.parent[v]) for v in reversed(a.vertices()) if a.parent[v]])
    order = Arrangement.from_vertex_order([2, 1, 3])
    for x, y, z in [(a, b, other), (free, free_again, other.to_free()),
                    (order, Arrangement([2, 1, 3]), Arrangement.identity(3))]:
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
        assert x != z
    # a rooting and its free tree are different objects, and so is a re-rooting
    assert a != free and a != free.root_at(1) and free != a
