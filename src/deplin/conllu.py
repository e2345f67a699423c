"""CoNLL-U parsing and conversion to head-vector treebanks.

Sentences are blank-line delimited; `#` comment lines are ignored; multiword
token lines (`a-b` ids) and empty-node lines (`a.b` ids) are skipped.  Token
lines must have exactly 10 tab-separated columns.  Only ID, UPOS and HEAD are
interpreted; the remaining columns are carried through unchanged.

`parse_conllu` and `convert` share one reader, which yields each block of
non-comment lines with their line numbers, and one function that parses and
validates a block's tokens; a block of only ranges and empty nodes is skipped.

A sentence must be a tree (one root, no self-head, no cycle) before any
removal or length filter, or it is an error.  Dropping punctuation or the
UPOS classes of `PreprocessOptions.function_words` contracts the tree: a
retained token attaches to its nearest retained ancestor; the leftmost
retained token without one becomes the root and the others without one
attach to it.  Length filters apply after removal.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import (
    CycleError,
    DeplinError,
    HeadOutOfRangeError,
    MalformedLineError,
    MultipleRootsError,
    NonContiguousIdsError,
    _skip_or_fail,
)
from .treebank import _POLICIES, _write_lines
from .trees import RootedTree

DEFAULT_FUNCTION_WORD_UPOS = frozenset(
    {"ADP", "AUX", "CCONJ", "DET", "PART", "PRON", "SCONJ"})


@dataclass(frozen=True)
class ConlluToken:
    id: int
    form: str
    lemma: str
    upos: str
    xpos: str
    feats: str
    head: int
    deprel: str
    deps: str
    misc: str


@dataclass(frozen=True)
class PreprocessOptions:
    """What a conversion drops: PUNCT under `remove_punct`, the UPOS classes in
    `function_words` (none by default), then sentences outside `min_len`..`max_len`."""

    remove_punct: bool = False
    function_words: frozenset = frozenset()
    min_len: Optional[int] = None
    max_len: Optional[int] = None

    def __post_init__(self):
        if (self.min_len is not None and self.max_len is not None
                and self.min_len > self.max_len):
            raise ValueError("min_len must not exceed max_len")


@dataclass
class ConversionReport:
    converted: int = 0
    filtered: int = 0
    errored: list[tuple[int, str]] = field(default_factory=list)
    elapsed: float = 0.0
    output_path: Optional[str] = None


def _blocks(path: str) -> Iterator[tuple[int, list[tuple[int, str]]]]:
    """Yield each blank-line-delimited block of non-comment lines as
    (line number of its first line, [(line number, text), ...])."""
    block: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line.strip():
                if block:
                    yield block[0][0], block
                    block = []
            elif not line.startswith("#"):
                block.append((line_no, line))
    if block:
        yield block[0][0], block


def _sentence(first_line: int, block: list[tuple[int, str]]) -> list[ConlluToken]:
    """The tokens of one block, validated.  A malformed token line raises at its
    own line; ids or heads that do not form a sentence raise at `first_line`."""
    tokens = []
    for line_no, line in block:
        cols = line.split("\t")
        if len(cols) != 10:
            raise MalformedLineError(
                f"expected 10 tab-separated columns, got {len(cols)} on line {line_no}",
                line_no)
        if "-" in cols[0] or "." in cols[0]:
            continue  # multiword-token range or empty node
        idx, head = cols[0], cols[6]
        # ASCII digits only: `int` would also take signs, spaces, '_' and other scripts' digits
        if not (idx.isascii() and idx.isdigit() and head.isascii() and head.isdigit()):
            raise MalformedLineError(
                f"non-integer ID or HEAD on line {line_no}", line_no)
        tokens.append(ConlluToken(int(idx), *cols[1:6], int(head), *cols[7:]))
    n = len(tokens)
    if [t.id for t in tokens] != list(range(1, n + 1)):
        raise NonContiguousIdsError(
            f"token ids not contiguous 1..{n}", first_line)
    for t in tokens:
        if not (0 <= t.head <= n):
            raise HeadOutOfRangeError(
                f"head {t.head} of token {t.id} out of range 0..{n}", first_line)
    return tokens


def parse_conllu(path: str) -> Iterator[list[ConlluToken]]:
    """Iterate sentences, raising on the first malformed one."""
    for first_line, block in _blocks(path):
        tokens = _sentence(first_line, block)
        if tokens:  # a block of only ranges and empty nodes is no sentence
            yield tokens


def preprocess(tokens: list[ConlluToken],
               opts: PreprocessOptions) -> Optional[tuple[int, ...]]:
    """Reduce a sentence to a head vector, or None when filtered out.

    The input sentence must be a tree (one HEAD 0, no self-head, no cycle)
    before any removal or length filter, as the head-vector reader requires.
    Removal contracts that tree, so what it leaves is a tree too."""
    roots = [t.id for t in tokens if t.head == 0]
    if len(roots) > 1:
        raise MultipleRootsError(f"tokens {roots[0]} and {roots[1]} both have HEAD 0")
    if not roots:
        raise CycleError("no retained token reaches the root: cycle in head chain")
    tree = RootedTree.from_head_vector([t.head for t in tokens])

    removed = {"PUNCT", *opts.function_words} if opts.remove_punct else opts.function_words
    kept = [t.id for t in tokens if t.upos not in removed]
    n = len(kept)
    if (not kept or (opts.min_len is not None and n < opts.min_len)
            or (opts.max_len is not None and n > opts.max_len)):
        return None
    new_id = [0] * (len(tokens) + 1)  # 0 for a removed token
    for i, v in enumerate(kept, start=1):
        new_id[v] = i
    # each token's nearest retained proper ancestor, 0 if it has none
    parent = tree.parent
    anc = [0] * (len(tokens) + 1)
    for v in tree._order[1:]:
        p = parent[v]
        anc[v] = p if new_id[p] else anc[p]
    # the leftmost retained token without one is the root; the others attach to it
    top = next(v for v in kept if not anc[v])
    heads = [new_id[anc[v] or top] for v in kept]
    heads[new_id[top] - 1] = 0
    return tuple(heads)


def convert(
    input_path: str,
    output_path: str,
    opts: Optional[PreprocessOptions] = None,
    *,
    error_policy: str = "skip_and_report",
) -> ConversionReport:
    """Convert a CoNLL-U file into a head-vector treebank file."""
    if error_policy not in _POLICIES:
        raise ValueError(f"error policy must be one of {_POLICIES}")
    if not os.path.exists(input_path):
        raise FileNotFoundError(input_path)
    if opts is None:
        opts = PreprocessOptions()
    started = time.perf_counter()
    report = ConversionReport()

    def lines() -> Iterator[str]:
        for first_line, block in _blocks(input_path):
            try:
                tokens = _sentence(first_line, block)
                if not tokens:
                    continue
                heads = preprocess(tokens, opts)
            except DeplinError as exc:
                # located at the sentence's first line; a malformed token's
                # message names its own line
                report.errored.append((first_line, _skip_or_fail(
                    exc, first_line, input_path, error_policy)))
                continue
            if heads is None:
                report.filtered += 1
                continue
            report.converted += 1
            yield " ".join(map(str, heads))

    _write_lines(output_path, lines())
    report.elapsed = time.perf_counter() - started
    report.output_path = output_path
    return report
