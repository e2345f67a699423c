"""Head-vector treebank reading and CSV feature extraction.

File grammar: one sentence per line, base-10 integers (an optional `-` and
ASCII digits) separated by whitespace, blank lines ignored.  Output CSV:
comma separator, LF line endings, header `sentence_id,n,<features...>`; one
row per valid sentence in input order.  Order-dependent features read the
sentence's own word order, the default arrangement of a `FeatureContext`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import features
from .errors import DeplinError, _skip_or_fail
from .trees import RootedTree, parse_head_vector

_POLICIES = ("fail_fast", "skip_and_report")


@dataclass
class SentenceRecord:
    line_no: int
    heads: Optional[tuple[int, ...]]
    tree: Optional[RootedTree]
    error: Optional[str] = None


@dataclass
class ProcessingReport:
    processed: int = 0
    skipped: list[tuple[int, str]] = field(default_factory=list)
    elapsed: float = 0.0
    output_path: Optional[str] = None

    @property
    def total(self) -> int:
        return self.processed + len(self.skipped)


@dataclass
class CollectionReport:
    reports: list[tuple[str, ProcessingReport]] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)


class TreebankSource:
    """Streaming iterator over the sentences of a head-vector file."""

    def __init__(self, path: str, error_policy: str = "fail_fast"):
        if error_policy not in _POLICIES:
            raise ValueError(f"error policy must be one of {_POLICIES}")
        self.path = path
        self.error_policy = error_policy

    def __iter__(self) -> Iterator[SentenceRecord]:
        with open(self.path, "r", encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                if line.isspace():
                    continue
                heads = tree = error = None
                try:
                    heads = parse_head_vector(line)
                    tree = RootedTree.from_head_vector(heads)
                except DeplinError as exc:
                    error = _skip_or_fail(exc, line_no, self.path, self.error_policy)
                yield SentenceRecord(line_no, heads, tree, error)


def read_head_vectors(path: str, error_policy: str = "fail_fast") -> TreebankSource:
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return TreebankSource(path, error_policy)


def render_value(value, exact: bool = False) -> str:
    if value is None:
        return ""
    # `type(value) is` skips the ABC check that isinstance runs on each int
    if type(value) is Fraction and not exact:
        # int / int is correctly rounded: the same float as float(value)
        return f"{value.numerator / value.denominator:.6f}"
    return str(value)  # an int, or "p/q" ("p" when integral) for a Fraction


@functools.cache
def _feature_funcs(names: tuple[str, ...]) -> tuple:
    """The functions of the named features, resolved once per process."""
    return tuple(feat.func for feat in features.resolve(names))


def _row(names: tuple[str, ...], exact: bool, item: tuple[int, RootedTree]) -> str:
    sentence_id, tree = item
    ctx = features.FeatureContext(tree)
    values = (render_value(func(ctx), exact) for func in _feature_funcs(names))
    return ",".join([str(sentence_id), str(tree.n), *values])


def _normalized_features(feature_names: Optional[Sequence[str]]) -> list[str]:
    if feature_names is None:
        names = features.default_features()
    else:
        names = list(feature_names)
        features.resolve(names)  # validate early
    names = [n for n in names if n != "n"]  # n is always the second column
    if len(set(names)) != len(names):
        raise ValueError("duplicate feature names")
    return names


@contextlib.contextmanager
def _row_map(threads: int) -> Iterator[Callable]:
    """The map that turns sentences into rows for a whole run: `map` at one
    worker, otherwise the ordered `imap` of one pool, started once."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if threads == 1:
        yield map
        return
    import multiprocessing
    with multiprocessing.Pool(threads) as pool:
        yield functools.partial(pool.imap, chunksize=64)


def _rows(path: str, output_path: str, names: list[str], exact: bool, row_map: Callable,
          error_policy: str) -> tuple[ProcessingReport, Iterator[str]]:
    """The one stream of a treebank file's CSV rows, in input order, and the
    report it fills: counts and `elapsed` are final after the last row.  With
    a pool, `trees` runs in its task thread."""
    source = read_head_vectors(path, error_policy)
    report = ProcessingReport(output_path=output_path)

    def trees() -> Iterator[tuple[int, RootedTree]]:
        for sentence_id, rec in enumerate(source, start=1):
            if rec.error is not None:
                report.skipped.append((rec.line_no, rec.error))
                continue
            report.processed += 1
            yield sentence_id, rec.tree

    def rows() -> Iterator[str]:
        started = time.perf_counter()
        yield from row_map(functools.partial(_row, tuple(names), exact), trees())
        report.elapsed = time.perf_counter() - started

    return report, rows()


def _names_descriptor(path: str, fd: int) -> bool:
    try:
        return os.path.samestat(os.stat(path), os.fstat(fd))
    except OSError:  # no such file, or the descriptor is closed
        return False


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write beside the file at `path` and move into place, so a failure leaves
    no partial file.  A stream such as a pipe is written directly: replacing it
    would replace the device or link, not write to it.  A path to the file
    open as stdout or stderr, by any name (/dev/stdout, /dev/fd/1, the file's
    own), goes through a copy of descriptor 1 or 2: replacing the file would
    drop what the stream already wrote to it."""
    fd = next((fd for fd in (1, 2) if _names_descriptor(path, fd)), None)
    if fd is not None:
        (sys.stdout, sys.stderr)[fd - 1].flush()  # what was printed comes first
    stream = fd is not None or (os.path.exists(path) and not os.path.isfile(path))
    target = os.path.realpath(path)
    tmp = path if stream else f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp if fd is None else os.dup(fd), "w", encoding="utf-8",
                  newline="") as out:
            for line in lines:
                out.write(line + "\n")
        if not stream:
            os.replace(tmp, target)
    finally:
        if not stream and os.path.exists(tmp):
            os.remove(tmp)


def process_treebank(
    input_path: str,
    output_path: str,
    feature_names: Optional[Sequence[str]] = None,
    *,
    error_policy: str = "skip_and_report",
    exact: bool = False,
    threads: int = 1,
) -> ProcessingReport:
    """Compute the requested features for every sentence into a CSV file."""
    names = _normalized_features(feature_names)
    with _row_map(threads) as row_map:
        report, rows = _rows(input_path, output_path, names, exact, row_map, error_policy)
        _write_lines(output_path, itertools.chain([",".join(["sentence_id", "n", *names])], rows))
    return report


def _collection_members(list_path: str, error_policy: str,
                        missing: list[str]) -> dict[str, str]:
    """The path of each listed member that exists, by its stem; the others go
    to `missing`.  Two members with one stem would write one output, so they
    are rejected before anything is written."""
    base = os.path.dirname(os.path.abspath(list_path))
    members: dict[str, str] = {}
    with open(list_path, "r", encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            path = line if os.path.isabs(line) else os.path.join(base, line)
            if not os.path.exists(path):
                if error_policy == "fail_fast":
                    raise FileNotFoundError(path)
                missing.append(path)
                continue
            stem = os.path.splitext(os.path.basename(path))[0]
            if stem in members:
                raise ValueError(f"collection members {members[stem]} and {path} "
                                 f"share the name {stem!r}")
            members[stem] = path
    return members


def process_collection(
    list_path: str,
    output_dir: Optional[str] = None,
    merge_out: Optional[str] = None,
    feature_names: Optional[Sequence[str]] = None,
    *,
    error_policy: str = "skip_and_report",
    exact: bool = False,
    threads: int = 1,
) -> CollectionReport:
    """Process every treebank named in a collection list file.

    With `output_dir`, writes one CSV per member (named after the member's
    basename); with `merge_out`, writes a single CSV with a leading
    `treebank` column holding the member basenames (without extension).
    """
    if (output_dir is None) == (merge_out is None):
        raise ValueError("exactly one of output_dir / merge_out is required")
    collection = CollectionReport()
    members = _collection_members(list_path, error_policy, collection.missing)
    names = _normalized_features(feature_names)
    header = ["sentence_id", "n", *names]
    with _row_map(threads) as row_map:
        if output_dir is not None:
            os.makedirs(output_dir, exist_ok=True)
            for stem, member in members.items():
                out = os.path.join(output_dir, stem + ".csv")
                report, rows = _rows(member, out, names, exact, row_map, error_policy)
                collection.reports.append((stem, report))
                _write_lines(out, itertools.chain([",".join(header)], rows))
            return collection

        def merged_lines() -> Iterator[str]:
            yield ",".join(["treebank", *header])
            for stem, member in members.items():
                report, rows = _rows(member, merge_out, names, exact, row_map, error_policy)
                collection.reports.append((stem, report))
                for row in rows:
                    yield f"{stem},{row}"

        _write_lines(merge_out, merged_lines())
    return collection
