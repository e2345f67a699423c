"""Expected values of metrics over arrangement or tree ensembles.

Small ensembles are averaged exactly (rational arithmetic over a full
enumeration); larger ones are estimated by Monte Carlo with a recorded seed,
so identical (seed, samples) pairs reproduce identical results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import features
from .errors import EnsembleTooLargeError
from .generate import (
    TreeKind,
    count_trees,
    exhaustive_arrangements,
    exhaustive_trees,
    num_arrangements,
    random_arrangement,
    random_tree,
)
from .trees import Tree

DEFAULT_ARRANGEMENT_ITEMS = 10**7
DEFAULT_TREE_ITEMS = 10**6


@dataclass(frozen=True)
class EstimationResult:
    mode: str  # "exact" | "monte_carlo"
    mean: Union[Fraction, float]
    variance: Union[Fraction, float]
    std_error: Optional[float]  # monte_carlo only
    samples: int  # ensemble size (exact) or draw count (monte_carlo)
    seed: Optional[int]  # monte_carlo only


def _defined(values):
    for x in values:
        if x is None:
            raise ValueError("metric undefined on an ensemble member")
        yield x


def _exact_moments(values) -> tuple[Fraction, Fraction, int]:
    total = Fraction(0)
    total_sq = Fraction(0)
    count = 0
    for x in _defined(values):
        x = Fraction(x)
        total += x
        total_sq += x * x
        count += 1
    mean = total / count
    return mean, total_sq / count - mean * mean, count


def _mc_result(values, seed: int) -> EstimationResult:
    values = [float(x) for x in _defined(values)]
    k = len(values)
    mean = math.fsum(values) / k
    var = math.fsum((x - mean) ** 2 for x in values) / (k - 1) if k > 1 else 0.0
    return EstimationResult(
        mode="monte_carlo", mean=mean, variance=var,
        std_error=math.sqrt(var / k), samples=k, seed=seed)


def _pick_seed(seed: Optional[int]) -> int:
    return random.SystemRandom().randrange(2**63) if seed is None else seed


def _estimate(func, mode: str, samples: int, seed: Optional[int], what: str, bound: int,
              count, members, draw) -> EstimationResult:
    """Average `func` over an ensemble: exactly over `members()` when its size
    `count()` is within `bound`, or over `samples` draws `draw(rng)`."""
    if mode == "exact":
        size = count()
        if size > bound:
            raise EnsembleTooLargeError(f"ensemble of {size} {what} exceeds bound {bound}")
        mean, var, k = _exact_moments(map(func, members()))
        return EstimationResult("exact", mean, var, None, k, None)
    if mode == "monte_carlo":
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        seed = _pick_seed(seed)
        rng = random.Random(seed)
        return _mc_result((func(draw(rng)) for _ in range(samples)), seed)
    raise ValueError(f"unknown mode: {mode!r}")


def _metric_for_arrangements(metric: str) -> features.Feature:
    (feat,) = features.resolve([metric])
    if not feat.order_dependent:
        raise ValueError(f"metric {metric!r} does not depend on the arrangement")
    return feat


def estimate_over_arrangements(
    t: Tree,
    metric: str,
    constraint: str = "unconstrained",
    mode: str = "exact",
    samples: int = 10**4,
    seed: Optional[int] = None,
) -> EstimationResult:
    """Average `metric` over the constrained arrangement ensemble of `t`."""
    feat = _metric_for_arrangements(metric)
    return _estimate(
        lambda a: feat.func(features.FeatureContext(t, a)), mode, samples, seed,
        "arrangements", DEFAULT_ARRANGEMENT_ITEMS,
        lambda: num_arrangements(t, constraint),
        lambda: exhaustive_arrangements(t, constraint, max_n=t.n),
        lambda rng: random_arrangement(t, constraint, rng))


def estimate_over_trees(
    kind: TreeKind,
    n: int,
    metric: str,
    mode: str = "exact",
    samples: int = 10**4,
    seed: Optional[int] = None,
) -> EstimationResult:
    """Average an order-independent `metric` over all n-vertex trees of `kind`."""
    (feat,) = features.resolve([metric])
    if feat.order_dependent:
        raise ValueError(f"metric {metric!r} depends on the arrangement")
    return _estimate(
        lambda tree: feat.func(features.FeatureContext(tree)), mode, samples, seed,
        "trees", DEFAULT_TREE_ITEMS,
        lambda: count_trees(kind, n),
        lambda: exhaustive_trees(kind, n),
        lambda rng: random_tree(kind, n, rng))
