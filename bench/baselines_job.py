"""The ``baselines`` job: null-model estimates through deplin's public API.

Three parts, all seeded from the benchmark seed:
1. Monte Carlo ``D`` and ``C`` over random arrangements of twelve trees,
   under each of the unconstrained, projective and planar constraints;
2. Monte Carlo ``k2`` over random trees of each of the four kinds at n = 25;
3. exact enumeration of small arrangement and tree ensembles.

An item is one ensemble member, drawn or enumerated.  Run as a script, the
job repeats until SECONDS have passed and writes per-repetition wall times
and estimates as JSON:

    python3 bench/baselines_job.py TREES.hv SEED SECONDS OUT.json
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from deplin import (  # noqa: E402
    ALL_KINDS,
    RootedTree,
    TreeKind,
    estimate_over_arrangements,
    estimate_over_trees,
    exhaustive_arrangements,
    exhaustive_trees,
    features,
    random_arrangement,
    random_tree,
)

CONSTRAINTS = ("unconstrained", "projective", "planar")
MC_SAMPLES = {"unconstrained": 300, "projective": 300, "planar": 150}
TREE_N = 25
TREE_METRIC = "k2"
TREE_SAMPLES = {"labeled-free": 1000, "labeled-rooted": 1000,
                "unlabeled-free": 200, "unlabeled-rooted": 1000}
EXACT_TREES = (("labeled-free", 7), ("labeled-rooted", 6),
               ("unlabeled-free", 12), ("unlabeled-rooted", 11))
MC_TREES = 12


def load_trees(path: str) -> list[RootedTree]:
    with open(path, encoding="utf-8") as fh:
        return [RootedTree.from_head_vector(line) for line in fh if line.strip()]


def tasks(trees: list[RootedTree], seed: int) -> list[dict]:
    """The job as a list of estimate calls, in execution order."""
    out = []
    for i, t in enumerate(trees[:MC_TREES]):
        for c in CONSTRAINTS:
            for m in ("D", "C"):
                out.append({"part": "arr_mc", "tree": i, "constraint": c, "metric": m,
                            "samples": MC_SAMPLES[c], "seed": seed * 1000 + len(out)})
    for kind in ALL_KINDS:
        out.append({"part": "trees_mc", "kind": str(kind), "n": TREE_N,
                    "metric": TREE_METRIC, "samples": TREE_SAMPLES[str(kind)],
                    "seed": seed * 1000 + len(out)})
    for c, i in zip(CONSTRAINTS, range(MC_TREES, len(trees))):
        for m in ("D", "C"):
            out.append({"part": "arr_exact", "tree": i, "constraint": c, "metric": m})
    for kind, n in EXACT_TREES:
        out.append({"part": "trees_exact", "kind": kind, "n": n, "metric": TREE_METRIC})
    return out


def _call(task: dict, trees: list[RootedTree]):
    part = task["part"]
    if part == "arr_mc":
        return estimate_over_arrangements(
            trees[task["tree"]], task["metric"], task["constraint"], "monte_carlo",
            task["samples"], task["seed"])
    if part == "trees_mc":
        return estimate_over_trees(
            TreeKind.parse(task["kind"]), task["n"], task["metric"], "monte_carlo",
            task["samples"], task["seed"])
    if part == "arr_exact":
        return estimate_over_arrangements(
            trees[task["tree"]], task["metric"], task["constraint"], "exact")
    return estimate_over_trees(TreeKind.parse(task["kind"]), task["n"],
                               task["metric"], "exact")


def _record(res) -> dict:
    return {"mode": res.mode, "mean": str(res.mean), "variance": str(res.variance),
            "std_error": res.std_error, "samples": res.samples, "seed": res.seed}


def run_once(trees, job, tracer=None) -> list[dict]:
    """Run every task once.  With a tracer, each estimate call gets a span,
    and the draws, feature evaluations or enumeration it made are then
    repeated for the same seed as its child spans, so that the call's self
    time is what ``baselines`` adds on top of ``generate`` and ``features``."""
    results = []
    for item, task in enumerate(job):
        if tracer is None:
            results.append(_record(_call(task, trees)))
            continue
        span = tracer.begin(span_name(task), item)
        res = _call(task, trees)
        tracer.end(span)
        _replay(task, trees, tracer, span, item)
        results.append(_record(res))
    return results


def span_name(task: dict) -> str:
    if task["part"].startswith("arr"):
        return f"baselines.estimate_over_arrangements.{task['constraint']}.{task['part']}"
    return f"baselines.estimate_over_trees.{task['kind']}.{task['part']}"


def _timed(tracer, name, parent, item, thunk):
    start = time.perf_counter_ns()
    out = thunk()
    tracer.add(name, start, time.perf_counter_ns(), parent, item)
    return out


def _replay(task, trees, tracer, parent, item) -> None:
    """One child span for all the draws of a task and one for all its
    feature evaluations (or one for its enumeration), in the same order and
    from the same seed as the estimate made them."""
    part = task["part"]
    if part == "arr_exact":
        t, c = trees[task["tree"]], task["constraint"]
        _timed(tracer, f"generate.exhaustive_arrangements.{c}", parent, item,
               lambda: sum(1 for _ in exhaustive_arrangements(t, c, max_n=t.n)))
        return
    if part == "trees_exact":
        kind = TreeKind.parse(task["kind"])
        _timed(tracer, f"generate.exhaustive_trees.{task['kind']}", parent, item,
               lambda: sum(1 for _ in exhaustive_trees(kind, task["n"])))
        return
    (feat,) = features.resolve([task["metric"]])
    rng = random.Random(task["seed"])
    samples = range(task["samples"])
    if part == "arr_mc":
        t, c = trees[task["tree"]], task["constraint"]
        drawn = _timed(tracer, f"generate.random_arrangement.{c}", parent, item,
                       lambda: [(t, random_arrangement(t, c, rng)) for _ in samples])
    else:
        kind = TreeKind.parse(task["kind"])
        drawn = _timed(tracer, f"generate.random_tree.{task['kind']}", parent, item,
                       lambda: [(random_tree(kind, task["n"], rng), None) for _ in samples])
    _timed(tracer, f"features.{task['metric']}", parent, item,
           lambda: [feat.func(features.FeatureContext(t, a)) for t, a in drawn])


def main(argv: list[str]) -> int:
    trees_path, seed, seconds, out_path = argv[0], int(argv[1]), float(argv[2]), argv[3]
    trees = load_trees(trees_path)
    job = tasks(trees, seed)
    reps = []
    started = time.perf_counter()
    while not reps or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        results = run_once(trees, job)
        reps.append({"wall_s": time.perf_counter() - t0, "results": results})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"tasks": job, "reps": reps}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
