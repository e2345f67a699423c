"""CoNLL-U parsing and conversion to head-vector treebanks.

Sentences are blank-line delimited; `#` comment lines are ignored; multiword
token lines (`a-b` ids) and empty-node lines (`a.b` ids) are skipped.  Token
lines must have exactly 10 tab-separated columns.  Only ID, UPOS and HEAD are
interpreted; the remaining columns are carried through unchanged.

`parse_conllu` and `convert` share one reader, which yields each block of
non-comment lines with their line numbers, and one function that parses and
validates a block's tokens; a block of only ranges and empty nodes is skipped.

Preprocessing can drop punctuation and function words (dependents of a
removed token are re-attached to its nearest retained ancestor; a removed
root is replaced by its leftmost retained dependent) and filter sentences by
their post-removal length.  A sentence with more than one root is rejected
before any removal.
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
    remove_punct: bool = False
    remove_function_words: bool = False
    min_len: Optional[int] = None
    max_len: Optional[int] = None
    function_word_upos: frozenset = DEFAULT_FUNCTION_WORD_UPOS

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
    with open(path, "r", encoding="utf-8") as fh:
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
        try:
            idx, head = int(cols[0]), int(cols[6])
        except ValueError:
            raise MalformedLineError(
                f"non-integer ID or HEAD on line {line_no}", line_no) from None
        tokens.append(ConlluToken(idx, *cols[1:6], head, *cols[7:]))
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

    A sentence whose input has more than one root (HEAD 0) is rejected before
    any removal, as the head-vector reader rejects it."""
    roots = [t.id for t in tokens if t.head == 0]
    if len(roots) > 1:
        raise MultipleRootsError(f"tokens {roots[0]} and {roots[1]} both have HEAD 0")

    removed = {"PUNCT"} if opts.remove_punct else set()
    if opts.remove_function_words:
        removed.update(opts.function_word_upos)
    head_of = {t.id: t.head for t in tokens}
    kept = [t for t in tokens if t.upos not in removed]
    if not kept:
        return None
    kept_ids = {t.id for t in kept}

    def effective_head(t: ConlluToken) -> int:
        h = t.head
        steps = 0
        while h != 0 and h not in kept_ids:
            h = head_of[h]
            steps += 1
            if steps > len(tokens):  # head cycle among removed tokens
                raise CycleError("cycle in head chain")
        return h

    eff = {t.id: effective_head(t) for t in kept}
    orphans = [t.id for t in kept if eff[t.id] == 0]
    if not orphans:
        raise CycleError("no retained token reaches the root: cycle in head chain")
    new_root = min(orphans)  # leftmost retained dependent is promoted
    renumber = {t.id: i for i, t in enumerate(kept, start=1)}
    heads = []
    for t in kept:
        if t.id == new_root:
            heads.append(0)
        elif eff[t.id] == 0:
            heads.append(renumber[new_root])
        else:
            heads.append(renumber[eff[t.id]])
    n = len(heads)
    if opts.min_len is not None and n < opts.min_len:
        return None
    if opts.max_len is not None and n > opts.max_len:
        return None
    RootedTree.from_head_vector(heads)  # structural errors propagate
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
