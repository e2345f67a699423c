"""Output checks.  Each returns the number of items whose output is wrong and
a list of messages; an empty list means every check passed.

Row values are compared with the brute-force oracles in ``tests/oracles.py``,
which share no code with deplin, and with closed forms computed here.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import oracles  # noqa: E402
from deplin import RootedTree, min_D_planar, min_D_projective  # noqa: E402

EXHAUSTIVE_MAX_N = 8  # rows up to this size are checked against min_D_exhaustive
EXHAUSTIVE_PER_N = 2
SAMPLED_ROWS = 200
MC_SIGMAS = 5
# tree counts from OEIS A000055 (unlabeled free) and A000081 (unlabeled rooted)
UNLABELED_COUNTS = {("unlabeled-free", 12): 551, ("unlabeled-rooted", 11): 1842}


def read_heads(path: str) -> list[tuple[int, ...]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(int(x) for x in line.split()) for line in fh if line.strip()]


def _edges(heads):
    return [(h, v) for v, h in enumerate(heads, start=1) if h]


def _num_independent_pairs(edges) -> int:
    return sum(1 for e, g in itertools.combinations(edges, 2) if not set(e) & set(g))


def treebank_csv(csv_path: str, heads: list[tuple[int, ...]], names: list[str],
                 seed: int, orders: list[str] | None = None) -> tuple[int, list[str]]:
    """Check an ``analyze`` CSV against its input.

    ``orders`` gives each sentence's word-order class; without it every
    sentence is a preorder head vector, so projective and head-initial.
    """
    msgs: list[str] = []
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    if header != ["sentence_id", "n"] + names:
        return len(heads), [f"header {header}"]
    if len(rows) != len(heads):
        msgs.append(f"{len(rows)} rows for {len(heads)} sentences")
    bad = set()
    col = {name: i for i, name in enumerate(header)}
    rng = random.Random(seed)
    sampled = set(rng.sample(range(len(rows)), min(SAMPLED_ROWS, len(rows))))
    exhaustive_done: dict[int, int] = {}
    for i, row in enumerate(rows[:len(heads)]):
        h = heads[i]
        n = len(h)
        v = {name: row[col[name]] for name in header}
        order = orders[i] if orders else "preorder"
        problems = []
        if v["sentence_id"] != str(i + 1) or v["n"] != str(n):
            problems.append("id/n")
        D = int(v["D"])
        if n >= 2 and abs(float(v["flux_mean_size"]) * (n - 1) - D) > 1e-6 * n:
            problems.append("flux_mean_size*(n-1) != D")
        flags = (v["projective"], v["planar"], v["C"])
        if order in ("preorder", "projective") and flags != ("1", "1", "0"):
            problems.append("projective order not flagged projective")
        if order == "planar" and flags[1:] != ("1", "0"):
            problems.append("planar order not flagged planar")
        if order == "preorder" and n >= 2 and v["head_initial_ratio"] != "1.000000":
            problems.append("preorder not head-initial")
        if "D_min_planar" in v and int(v["D_min_planar"]) > int(v["D_min_projective"]):
            problems.append("D_min_planar > D_min_projective")
        if v["projective"] == "1" and D < int(v["D_min_projective"]):
            problems.append("D below projective minimum")
        if i in sampled or orders:
            edges = _edges(h)
            pos = {u: u for u in range(1, n + 1)}
            if D != oracles.edge_lengths_sum(edges, pos) or \
                    int(v["C"]) != oracles.crossings_pairs(edges, pos):
                problems.append("D or C differs from oracle")
            if n <= EXHAUSTIVE_MAX_N and exhaustive_done.get(n, 0) < EXHAUSTIVE_PER_N:
                exhaustive_done[n] = exhaustive_done.get(n, 0) + 1
                parent = (0,) + h
                if int(v["projective"]) != oracles.is_projective(n, parent, pos):
                    problems.append("projective differs from oracle")
                if int(v["D_min_projective"]) != oracles.min_D_exhaustive(
                        n, edges, "projective", parent):
                    problems.append("D_min_projective differs from oracle")
                if "D_min_planar" in v and int(v["D_min_planar"]) != \
                        oracles.min_D_exhaustive(n, edges, "planar"):
                    problems.append("D_min_planar differs from oracle")
        if problems:
            bad.add(i)
            if len(msgs) < 10:
                msgs.append(f"sentence {i + 1}: {', '.join(problems)}")
    failed = len(bad) + max(0, len(heads) - len(rows))
    return failed, msgs


def _expected_k2(n: int) -> Fraction:
    """Mean of degree**2 over vertices of a uniformly random labeled tree:
    degree - 1 is Binomial(n - 2, 1/n)."""
    m = Fraction(n - 2, n)
    var = (n - 2) * Fraction(1, n) * Fraction(n - 1, n)
    return var + m * m + 2 * m + 1


def _projective_count(heads) -> int:
    kids = [0] * (len(heads) + 1)
    for h in heads:
        if h:
            kids[h] += 1
    return math.prod(math.factorial(k + 1) for k in kids[1:])


@functools.lru_cache(maxsize=None)
def _planar_ensemble(heads) -> tuple[int, Fraction]:
    """Count and mean D of the crossing-free arrangements, by brute force."""
    n, edges = len(heads), _edges(heads)
    count, total = 0, 0
    for perm in itertools.permutations(range(1, n + 1)):
        pos = {v: i + 1 for i, v in enumerate(perm)}
        if oracles.crossings_pairs(edges, pos) == 0:
            count += 1
            total += oracles.edge_lengths_sum(edges, pos)
    return count, Fraction(total, count)


def baselines(job: list[dict], reps: list[dict],
              trees: list[tuple[int, ...]]) -> tuple[int, list[str]]:
    """Check the estimates of every repetition."""
    msgs: list[str] = []
    failed = 0
    solvers = {"projective": min_D_projective, "planar": min_D_planar}
    min_d = {(t["tree"], t["constraint"]):
             solvers[t["constraint"]](RootedTree.from_head_vector(trees[t["tree"]])).value
             for t in job if t.get("constraint") in solvers}
    first = reps[0]["results"]
    for r, rep in enumerate(reps[1:], start=1):
        for task, a, b in zip(job, first, rep["results"]):
            if a != b:
                failed += b["samples"]
                msgs.append(f"rep {r}: {task} differs from rep 0 for the same seed")
    for task, res in zip(job, first):
        problem = _baseline_problem(task, res, trees, min_d)
        if problem:
            failed += res["samples"] * len(reps)
            if len(msgs) < 10:
                msgs.append(f"{task}: {problem}")
    return failed, msgs


def _baseline_problem(task, res, trees, min_d) -> str | None:
    part, metric = task["part"], task["metric"]
    if part in ("arr_mc", "arr_exact"):
        heads = trees[task["tree"]]
        n, c = len(heads), task["constraint"]
        edges = _edges(heads)
        closed = Fraction(n * n - 1, 3) if metric == "D" else \
            Fraction(_num_independent_pairs(edges), 3)
    if part == "arr_mc":
        mean, se = float(res["mean"]), res["std_error"]
        if res["samples"] != task["samples"] or res["seed"] != task["seed"]:
            return "sample count or seed not recorded"
        if c == "unconstrained":
            if abs(mean - float(closed)) > MC_SIGMAS * se + 1e-9:
                return f"mean {mean} more than {MC_SIGMAS} SE from {closed}"
        elif metric == "C":
            if mean != 0 or float(res["variance"]) != 0:
                return "crossings in a crossing-free ensemble"
        elif mean < min_d[(task["tree"], c)]:
            return "mean D below the minimum"
        return None
    if part == "trees_mc":
        mean, se = float(res["mean"]), res["std_error"]
        if task["kind"].startswith("labeled") and \
                abs(mean - float(_expected_k2(task["n"]))) > MC_SIGMAS * se + 1e-9:
            return f"mean {mean} more than {MC_SIGMAS} SE from E[k2]"
        return None
    mean = Fraction(res["mean"])
    if part == "arr_exact":
        if c == "unconstrained":
            expected = (math.factorial(n), closed)
        elif c == "planar":
            count, mean_d = _planar_ensemble(heads)
            expected = (count, mean_d if metric == "D" else Fraction(0))
        else:  # no closed form for the projective mean of D; bound it instead
            if metric == "D" and mean < min_d[(task["tree"], c)]:
                return "mean D below the minimum"
            expected = (_projective_count(heads), mean if metric == "D" else Fraction(0))
        if (res["samples"], mean) != expected:
            return f"(samples, mean) = {(res['samples'], mean)}, expected {expected}"
        return None
    kind, n = task["kind"], task["n"]
    if kind.startswith("labeled"):
        size = n ** (n - 2) if kind.endswith("free") else n ** (n - 1)
        expected = (size, _expected_k2(n))
        if (res["samples"], mean) != expected:
            return f"(samples, mean) = {(res['samples'], mean)}, expected {expected}"
    elif res["samples"] != UNLABELED_COUNTS[(kind, n)]:
        return f"{res['samples']} trees, expected {UNLABELED_COUNTS[(kind, n)]}"
    return None
