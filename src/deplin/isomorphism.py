"""Tree isomorphism via canonical codes.

The canonical code of a rooted tree is built bottom-up: a leaf is "()"; an
internal vertex's code is "(" + the lexicographically sorted concatenation of
its children's codes + ")".  The alphabet is exactly the two characters "("
and ")" and the ordering is plain string comparison; codes are stable across
versions and may be persisted for deduplication.  Free trees are canonicalized
by rooting at their centre (taking the lexicographically smaller code when the
centre has two vertices).
"""

from __future__ import annotations

from .properties import centre
from .trees import RootedTree, Tree, _check_rooted


def canonical_code(t: RootedTree) -> str:
    _check_rooted(t, "rooted canonical code")
    # each child's code is dropped once its parent's is built, so the codes
    # held at any time total O(n) characters rather than O(n * height)
    code: dict[int, str] = {}
    for v in reversed(t._order):
        code[v] = "(" + "".join(sorted([code.pop(c) for c in t.children[v]])) + ")"
    return code[t.root]


def free_canonical_code(t: Tree) -> str:
    free = t.to_free()
    return min(canonical_code(RootedTree.root_at(free, c)) for c in centre(free))


def are_isomorphic(a: Tree, b: Tree, mode: str = "free") -> bool:
    # a code holds 2n characters, so trees of different sizes never match
    if mode == "rooted":
        return canonical_code(a) == canonical_code(b)
    if mode == "free":
        return free_canonical_code(a) == free_canonical_code(b)
    raise ValueError(f"unknown isomorphism mode: {mode!r}")
