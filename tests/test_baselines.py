import math
from fractions import Fraction

import pytest

from deplin import (
    baselines,
    estimate_over_arrangements,
    estimate_over_trees,
    expected_C_unconstrained,
    expected_D_unconstrained,
    from_head_vector,
)
from deplin.errors import EnsembleTooLargeError, KindMismatchError, UnknownMetricError
from deplin.generate import TreeKind, exhaustive_trees

import oracles


def test_exact_mean_matches_closed_forms():
    for n in range(2, 7):
        for t in exhaustive_trees(TreeKind.parse("unlabeled-free"), n):
            res = estimate_over_arrangements(t, "D", mode="exact")
            assert res.mean == expected_D_unconstrained(t)
            res = estimate_over_arrangements(t, "C", mode="exact")
            assert res.mean == expected_C_unconstrained(t)


def test_exact_variance_matches_oracle():
    t = from_head_vector("0 1 1 2")
    edges = list(t.edges())
    res = estimate_over_arrangements(t, "D", mode="exact")
    mean = oracles.mean_over_permutations(
        4, edges, lambda pos: oracles.edge_lengths_sum(edges, pos))
    second = oracles.mean_over_permutations(
        4, edges, lambda pos: oracles.edge_lengths_sum(edges, pos) ** 2)
    assert res.mean == mean
    assert res.variance == second - mean * mean
    assert res.samples == 24


def test_exact_constrained():
    t = from_head_vector("0 1 1 2")
    res = estimate_over_arrangements(t, "D", constraint="projective", mode="exact")
    # enumerate projective arrangements via oracle definitions
    import itertools
    parent = [0, 0, 1, 1, 2]
    vals = []
    for perm in itertools.permutations(range(1, 5)):
        pos = {v: i + 1 for i, v in enumerate(perm)}
        if oracles.is_projective(4, parent, pos):
            vals.append(oracles.edge_lengths_sum(list(t.edges()), pos))
    assert res.mean == Fraction(sum(vals), len(vals))
    assert res.samples == len(vals)


def test_monte_carlo_reproducible_and_close():
    t = from_head_vector("0 1 2 3 4 5 6 7")
    a = estimate_over_arrangements(t, "D", mode="monte_carlo", samples=4000, seed=42)
    b = estimate_over_arrangements(t, "D", mode="monte_carlo", samples=4000, seed=42)
    assert a.mean == b.mean and a.seed == b.seed == 42
    truth = float(expected_D_unconstrained(t))
    assert abs(a.mean - truth) < 5 * a.std_error + 1e-9
    assert a.std_error == pytest.approx(
        math.sqrt(a.variance / a.samples))


@pytest.mark.parametrize("samples", [0, -3])
def test_monte_carlo_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        estimate_over_arrangements(from_head_vector("0 1 2 2"), "D",
                                   mode="monte_carlo", samples=samples, seed=1)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        estimate_over_trees(TreeKind.parse("labeled-free"), 5, "k2",
                            mode="monte_carlo", samples=samples, seed=1)


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_metric_undefined_on_a_member(mode):
    with pytest.raises(ValueError, match="metric undefined on an ensemble member"):
        estimate_over_arrangements(from_head_vector("0"), "flux_max_size",
                                   mode=mode, samples=5, seed=1)
    with pytest.raises(ValueError, match="metric undefined on an ensemble member"):
        estimate_over_trees(TreeKind.parse("labeled-free"), 3, "hubiness",
                            mode=mode, samples=5, seed=1)


def test_unknown_metric():
    t = from_head_vector("0 1")
    with pytest.raises(UnknownMetricError):
        estimate_over_arrangements(t, "nope", mode="exact")


def test_estimate_over_trees_exact():
    # mean of Q over all labeled free trees on 4 vertices:
    # paths (12 of them) have Q=1, stars (4) have Q=0
    res = estimate_over_trees(TreeKind.parse("labeled-free"), 4, "Q", mode="exact")
    assert res.mean == Fraction(12, 16)
    assert res.samples == 16


def test_exact_ensembles_beyond_the_bounds_raise_before_enumerating(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("enumerated an ensemble beyond its bound")

    monkeypatch.setattr(baselines, "exhaustive_arrangements", forbidden)
    monkeypatch.setattr(baselines, "exhaustive_trees", forbidden)
    path = from_head_vector(" ".join(map(str, range(11))))
    with pytest.raises(EnsembleTooLargeError):  # 11! = 39 916 800 > 10**7
        estimate_over_arrangements(path, "D", mode="exact")
    with pytest.raises(EnsembleTooLargeError):  # 9**7 = 4 782 969 > 10**6
        estimate_over_trees(TreeKind.parse("labeled-free"), 9, "Q", mode="exact")


def test_estimate_over_trees_order_dependent_rejected():
    with pytest.raises(ValueError):
        estimate_over_trees(TreeKind.parse("labeled-free"), 4, "D", mode="exact")
    with pytest.raises(KindMismatchError):
        estimate_over_trees(TreeKind.parse("labeled-free"), 4, "MHD", mode="exact")


def test_estimate_over_trees_mc():
    res = estimate_over_trees(TreeKind.parse("unlabeled-rooted"), 6, "MHD",
                              mode="monte_carlo", samples=3000, seed=1)
    exact = estimate_over_trees(TreeKind.parse("unlabeled-rooted"), 6, "MHD",
                                mode="exact")
    assert abs(res.mean - float(exact.mean)) < 5 * res.std_error + 1e-9
