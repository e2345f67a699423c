import random
import tracemalloc

from deplin import are_isomorphic, canonical_code, free_canonical_code, from_head_vector
from deplin.generate import TreeKind, exhaustive_trees, random_tree

import oracles


def test_p4_relabelings():
    a = from_head_vector("0 1 2 3")
    b = from_head_vector("2 3 0 3")
    assert are_isomorphic(a, b, mode="free")
    assert not are_isomorphic(a, b, mode="rooted")


def test_size_mismatch():
    assert not are_isomorphic(from_head_vector("0"), from_head_vector("0 1"))


def test_canonical_code_alphabet():
    assert canonical_code(from_head_vector("0")) == "()"
    assert canonical_code(from_head_vector("0 1")) == "(())"
    assert canonical_code(from_head_vector("0 1 1")) == "(()())"


def test_free_code_invariant_under_rerooting():
    rng = random.Random(3)
    for _ in range(100):
        t = random_tree(TreeKind.parse("labeled-free"), rng.randint(2, 15), rng)
        codes = {free_canonical_code(t.root_at(r)) for r in t.vertices()}
        assert len(codes) == 1


def test_against_permutation_oracle_free():
    rng = random.Random(11)
    kind = TreeKind.parse("labeled-free")
    for _ in range(300):
        n = rng.randint(2, 7)
        a = random_tree(kind, n, rng)
        b = random_tree(kind, n, rng)
        assert are_isomorphic(a, b) == oracles.isomorphic_by_permutation(
            list(a.edges()), list(b.edges()), n)


def test_against_permutation_oracle_rooted():
    rng = random.Random(12)
    kind = TreeKind.parse("labeled-rooted")
    for _ in range(200):
        n = rng.randint(2, 6)
        a = random_tree(kind, n, rng)
        b = random_tree(kind, n, rng)
        pa = [0] + list(a.to_head_vector())
        pb = [0] + list(b.to_head_vector())
        assert are_isomorphic(a, b, mode="rooted") == \
            oracles.rooted_isomorphic_by_permutation(pa, pb, n)


def test_unlabeled_streams_partition_labeled():
    # every labeled tree is isomorphic to exactly one canonical representative
    for n in range(2, 7):
        reps = list(exhaustive_trees(TreeKind.parse("unlabeled-free"), n))
        for t in exhaustive_trees(TreeKind.parse("labeled-free"), n):
            matches = [r for r in reps if are_isomorphic(t, r)]
            assert len(matches) == 1


def test_codes_of_a_long_path_use_linear_memory():
    # holding every subtree's code at once would take O(n^2) characters:
    # about 96 MiB for the rooted code and 49 MiB for the free one
    n = 10_000
    t = from_head_vector([0] + list(range(1, n)))
    free = t.to_free()
    half = n // 2
    for code_of, tree, expected in (
            (canonical_code, t, "(" * n + ")" * n),
            (free_canonical_code, free,
             "(" + "(" * half + ")" * half + "(" * (half - 1) + ")" * (half - 1) + ")")):
        tracemalloc.start()
        try:
            code = code_of(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == expected
        assert peak < 2 * 2**20
