"""Command-line interface.

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 not isomorphic
(`isomorphic` subcommand only).  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import __version__, baselines, conllu, generate, isomorphism, linarr, treebank
from .errors import DeplinError, UnknownMetricError
from .features import REGISTRY
from .trees import FreeTree, RootedTree

_POLICY = {"skip": "skip_and_report", "fail": "fail_fast"}


def _default_threads() -> int:
    env = os.environ.get("DEPLIN_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _add_common_analysis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", help="comma-separated feature names (default: all non-expensive)")
    p.add_argument("--policy", choices=("skip", "fail"), default="skip",
                   help="per-sentence error policy (default: skip)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker count (default: available parallelism or $DEPLIN_THREADS)")
    p.add_argument("--exact", action="store_true",
                   help="render rational features as p/q instead of decimals")


def _parse_features(spec):
    return None if spec is None else [s for s in spec.split(",") if s]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deplin",
        description="Dependency-tree metrics, arrangement baselines and treebank processing.")
    parser.add_argument("--version", action="version", version=f"deplin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute features of a head-vector treebank into a CSV")
    p.add_argument("input")
    p.add_argument("output")
    _add_common_analysis_flags(p)

    p = sub.add_parser("collection", help="process every treebank in a collection list file")
    p.add_argument("list")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--outdir", help="write one CSV per treebank into this directory")
    group.add_argument("--merge-out", help="write a single merged CSV with a treebank column")
    _add_common_analysis_flags(p)

    p = sub.add_parser("convert", help="convert CoNLL-U to head vectors")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--remove-punct", action="store_true")
    p.add_argument("--remove-function-words", action="store_true")
    p.add_argument("--function-words",
                   help="comma-separated UPOS set overriding the default function-word classes")
    p.add_argument("--min-len", type=int)
    p.add_argument("--max-len", type=int)
    p.add_argument("--policy", choices=("skip", "fail"), default="skip")

    p = sub.add_parser("generate", help="generate trees exhaustively or at random")
    p.add_argument("--kind", required=True,
                   choices=[str(k) for k in generate.ALL_KINDS])
    p.add_argument("-n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--count", type=int, help="number of uniform random samples")
    p.add_argument("--seed", type=int, help="RNG seed for --count")

    p = sub.add_parser("baseline", help="minimum/expected baselines for one tree")
    p.add_argument("--tree", required=True, help="head vector, e.g. '0 1 2'")
    p.add_argument("--what", required=True,
                   choices=("Dmin_unconstrained", "Dmin_planar", "Dmin_projective",
                            "ED_unconstrained", "EC_unconstrained", "estimate"))
    p.add_argument("--metric", help="registry metric for --what estimate")
    p.add_argument("--constraint", default="unconstrained",
                   choices=("unconstrained", "planar", "projective"))
    p.add_argument("--mode", default="exact", choices=("exact", "monte_carlo"))
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("isomorphic", help="compare the trees of two head-vector files line by line")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mode", choices=("rooted", "free"), default="free")
    return parser


def _cmd_analyze(args) -> int:
    report = treebank.process_treebank(
        args.input, args.output, _parse_features(args.features),
        error_policy=_POLICY[args.policy], exact=args.exact,
        threads=args.threads or _default_threads())
    print(f"processed {report.processed} sentences, skipped {len(report.skipped)} "
          f"in {report.elapsed:.3f}s -> {report.output_path}", file=sys.stderr)
    for line_no, reason in report.skipped:
        print(f"  line {line_no}: {reason}", file=sys.stderr)
    return 0


def _cmd_collection(args) -> int:
    collection = treebank.process_collection(
        args.list, output_dir=args.outdir, merge_out=args.merge_out,
        feature_names=_parse_features(args.features),
        error_policy=_POLICY[args.policy], exact=args.exact,
        threads=args.threads or _default_threads())
    print(f"{len(collection.reports)} treebanks processed, "
          f"{len(collection.missing)} missing", file=sys.stderr)
    for name, rep in collection.reports:
        print(f"  {name}: {rep.processed} sentences, {len(rep.skipped)} skipped",
              file=sys.stderr)
    for path in collection.missing:
        print(f"  missing: {path}", file=sys.stderr)
    return 0


def _cmd_convert(args) -> int:
    fw = (frozenset(args.function_words.split(","))
          if args.function_words else conllu.DEFAULT_FUNCTION_WORD_UPOS)
    opts = conllu.PreprocessOptions(
        remove_punct=args.remove_punct,
        remove_function_words=args.remove_function_words,
        min_len=args.min_len, max_len=args.max_len, function_word_upos=fw)
    report = conllu.convert(args.input, args.output, opts,
                            error_policy=_POLICY[args.policy])
    print(f"converted {report.converted}, filtered {report.filtered}, "
          f"errors {len(report.errored)} -> {report.output_path}", file=sys.stderr)
    for line_no, reason in report.errored:
        print(f"  line {line_no}: {reason}", file=sys.stderr)
    return 0


def _emit_tree(t) -> None:
    if isinstance(t, RootedTree):
        print(t.head_vector_str())
    else:
        print(" ".join(f"{u}-{v}" for u, v in t.edges()))


def _cmd_generate(args) -> int:
    kind = generate.TreeKind.parse(args.kind)
    if args.exhaustive:
        for t in generate.exhaustive_trees(kind, args.n):
            _emit_tree(t)
        return 0
    rng = random.Random(args.seed)
    for _ in range(args.count):
        _emit_tree(generate.random_tree(kind, args.n, rng))
    return 0


def _cmd_baseline(args) -> int:
    tree = RootedTree.from_head_vector(args.tree)
    what = args.what
    if what.startswith("Dmin_"):
        if what == "Dmin_unconstrained":
            res = linarr.min_D_unconstrained(tree.to_free())
        elif what == "Dmin_planar":
            res = linarr.min_D_planar(tree.to_free())
        else:
            res = linarr.min_D_projective(tree)
        print(res.value)
        print(" ".join(str(res.arrangement.position[v]) for v in tree.vertices()))
        return 0
    if what == "ED_unconstrained":
        from .properties import expected_D_unconstrained
        print(expected_D_unconstrained(tree))
        return 0
    if what == "EC_unconstrained":
        from .properties import expected_C_unconstrained
        print(expected_C_unconstrained(tree))
        return 0
    # estimate
    if not args.metric:
        raise UnknownMetricError("--metric is required with --what estimate")
    res = baselines.estimate_over_arrangements(
        tree, args.metric, constraint=args.constraint, mode=args.mode,
        samples=args.samples, seed=args.seed)
    if res.mode == "exact":
        print(f"mean={res.mean} variance={res.variance} samples={res.samples}")
    else:
        print(f"mean={res.mean:.6f} std_error={res.std_error:.6f} "
              f"samples={res.samples} seed={res.seed}")
    return 0


def _cmd_isomorphic(args) -> int:
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            return [RootedTree.from_head_vector(line)
                    for line in fh if line.strip()]

    ta, tb = load(args.a), load(args.b)
    if len(ta) != len(tb):
        print(f"error: {args.a} has {len(ta)} trees, {args.b} has {len(tb)}",
              file=sys.stderr)
        return 2
    all_iso = True
    for x, y in zip(ta, tb):
        iso = isomorphism.are_isomorphic(x, y, mode=args.mode)
        print("true" if iso else "false")
        all_iso = all_iso and iso
    return 0 if all_iso else 3


_COMMANDS = {
    "analyze": _cmd_analyze,
    "collection": _cmd_collection,
    "convert": _cmd_convert,
    "generate": _cmd_generate,
    "baseline": _cmd_baseline,
    "isomorphic": _cmd_isomorphic,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UnknownMetricError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UnknownMetricError):
            print(f"registered features: {', '.join(sorted(REGISTRY))}", file=sys.stderr)
        return 2
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DeplinError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


def run() -> None:  # console_scripts entry point
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
