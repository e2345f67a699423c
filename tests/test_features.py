import random
from fractions import Fraction

import pytest

from deplin import (
    Arrangement,
    classify_arrangement,
    flux,
    from_head_vector,
    num_crossings,
    random_arrangement,
    random_tree,
)
from deplin import (
    FreeTree,
    RootedTree,
    are_isomorphic,
    canonical_code,
    degree_moment,
    estimate_over_arrangements,
    estimate_over_trees,
    exhaustive_arrangements,
    exhaustive_trees,
    expected_C_unconstrained,
    expected_D_unconstrained,
    features,
    head_initial_ratio,
    linarr,
    mean_hierarchical_distance,
    min_D_projective,
    num_arrangements,
)
from deplin.errors import (
    KindMismatchError,
    NoEdgesError,
    SizeMismatchError,
    TooSmallError,
)
from deplin.generate import TreeKind

import oracles
from conftest import FIG1_HV


# mostly uniformly random orders, which nearly always cross
_CONSTRAINTS = ("unconstrained", "unconstrained", "planar", "projective")


_ARRANGEMENT_FEATURES = ("D", "C", "projective", "planar", "one_ec", "flux_max_size",
                         "flux_max_weight", "flux_mean_size")


def _value(name, ctx):
    return features.REGISTRY[name].func(ctx)


def test_context_matches_public_functions():
    # the registry and the public functions read one cache in linarr: both
    # are checked against the brute-force oracles
    rng = random.Random(66)
    kind = TreeKind.parse("labeled-rooted")
    for i in range(1500):
        n = rng.randint(2, 40)
        t = random_tree(kind, n, rng)
        a = random_arrangement(t, _CONSTRAINTS[i % 4], rng)
        edges, pos = list(t.edges()), a.position
        D = oracles.edge_lengths_sum(edges, pos)
        C = oracles.crossings_pairs(edges, pos)
        flags = linarr.ArrangementFlags(
            projective=oracles.is_projective(n, t.parent, pos), planar=C == 0,
            one_endpoint_crossing=oracles.is_one_endpoint_crossing(edges, pos))
        sizes, weights = oracles.flux_profile(n, edges, pos)
        ctx = features.FeatureContext(t, a)
        assert [_value(name, ctx) for name in _ARRANGEMENT_FEATURES] == [
            D, C, flags.projective, flags.planar, flags.one_endpoint_crossing,
            max(sizes), max(weights), Fraction(sum(sizes), n - 1)]
        public = (linarr.sum_edge_lengths(t, a), num_crossings(t, a),
                  classify_arrangement(t, a), flux(t, a))
        assert public == (D, C, flags, linarr.FluxProfile(sizes, weights))


def test_one_sweep_and_one_edge_list_per_context(monkeypatch):
    calls = {"_crossings_sweep": 0, "_positioned_edges": 0}
    for name in calls:
        def counted(*args, _f=getattr(linarr, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(linarr, name, counted)
    t = from_head_vector(FIG1_HV)  # two crossings in identity order
    ctx = features.FeatureContext(t, Arrangement.identity(t.n))
    for feat in features.resolve(features.default_features()):
        feat.func(ctx)
    assert calls == {"_crossings_sweep": 1, "_positioned_edges": 1}


def test_default_features_share_one_size_pass_and_build_no_free_tree(monkeypatch):
    rng = random.Random(67)
    kind = TreeKind.parse("labeled-rooted")
    heads = [FIG1_HV] + [random_tree(kind, rng.randint(1, 30), rng).head_vector_str()
                         for _ in range(200)]
    names = features.default_features()

    def row(hv):
        t = from_head_vector(hv)
        ctx = features.FeatureContext(t, Arrangement.identity(t.n))
        return [f.func(ctx) for f in features.resolve(names)]

    expected = [row(hv) for hv in heads]

    def forbidden(*args):
        raise AssertionError("a free tree, a rooting or a depth pass on the analyze path")

    passes = []
    size_pass = RootedTree._subtree_sizes

    def counted(self):
        if self._sizes is None:
            passes.append(self)
            # the size pass reads the order that from_head_vector recorded:
            # with the children lists hidden, a walk of the tree would fail
            children, self.children = self.children, None
            try:
                return size_pass(self)
            finally:
                self.children = children
        return size_pass(self)

    monkeypatch.setattr(RootedTree, "to_free", forbidden)
    monkeypatch.setattr(RootedTree, "root_at", forbidden)
    monkeypatch.setattr(RootedTree, "depths", forbidden)
    monkeypatch.setattr(RootedTree, "_subtree_sizes", counted)
    for hv, values in zip(heads, expected):
        passes.clear()
        assert row(hv) == values
        (t,) = passes
        # the memo is immutable, so no caller can change what the others read
        assert isinstance(t._subtree_sizes(), tuple)


def test_the_default_arrangement_is_the_trees_own_order():
    kind = TreeKind.parse("labeled-rooted")
    for t in [t for n in range(1, 6) for t in exhaustive_trees(kind, n)]:
        own = Arrangement.identity(t.n)
        for name, feat in features.REGISTRY.items():
            if feat.order_dependent:
                assert features.evaluate(name, t) == features.evaluate(name, t, own), name


def test_the_default_arrangement_is_built_only_when_a_feature_reads_it():
    t = from_head_vector(FIG1_HV)
    a = random_arrangement(t, "unconstrained", random.Random(5))
    assert features.FeatureContext(t, a).arrangement is a
    assert features.FeatureContext(t).arrangement == Arrangement.identity(t.n)
    ctx = features.FeatureContext(t)
    for feat in features.REGISTRY.values():
        if not feat.order_dependent:
            feat.func(ctx)
    assert "arrangement" not in ctx.__dict__  # k2 and every other one read none


@pytest.mark.parametrize("size", [2, 12])
def test_wrong_size_arrangement_raises_through_every_order_dependent_feature(size):
    t = from_head_vector(FIG1_HV)  # n = 9, rooted at vertex 3
    for feat in features.REGISTRY.values():
        if feat.order_dependent:
            with pytest.raises(SizeMismatchError):
                feat.func(features.FeatureContext(t, Arrangement.identity(size)))


def test_rooted_only_entry_points_reject_free_trees():
    t = from_head_vector(FIG1_HV).to_free()  # n = 9
    a = Arrangement.identity(t.n)
    rng = random.Random(1)
    entry_points = [
        lambda: classify_arrangement(t, a),
        lambda: head_initial_ratio(t, a),
        lambda: min_D_projective(t),
        lambda: mean_hierarchical_distance(t),
        lambda: degree_moment(t, 1, kind="in"),
        lambda: degree_moment(t, 2, kind="out"),
        lambda: canonical_code(t),
        lambda: are_isomorphic(t, t, mode="rooted"),
        lambda: are_isomorphic(t, from_head_vector("0 1").to_free(), mode="rooted"),
        lambda: num_arrangements(t, "projective"),
        lambda: exhaustive_arrangements(t, "projective"),
        lambda: random_arrangement(t, "projective", rng),
        lambda: features.FeatureContext(t, a).rooted,
    ]
    for call in entry_points:
        with pytest.raises(KindMismatchError):
            call()
    rooted_only = set()
    for name, feat in features.REGISTRY.items():
        try:
            assert feat.func(features.FeatureContext(t, a)) is not None
        except KindMismatchError:
            rooted_only.add(name)
    assert rooted_only == {"projective", "planar", "one_ec", "head_initial_ratio",
                           "MHD", "D_min_projective"}
    # the class features raise what classify_arrangement raises
    for name in ("projective", "planar", "one_ec"):
        with pytest.raises(KindMismatchError,
                           match="^arrangement classification requires a rooted tree$"):
            features.evaluate(name, t, a)


_NONE_AT_ONE_VERTEX = {"head_initial_ratio", "flux_max_size", "flux_max_weight",
                       "flux_mean_size", "MHD", "hubiness", "expected_D", "expected_C"}


def test_a_feature_is_none_exactly_where_its_function_raises_too_small():
    kind = TreeKind.parse("labeled-rooted")
    expected_none = {1: _NONE_AT_ONE_VERTEX, 2: {"hubiness"}, 3: {"hubiness"}, 4: set()}
    for n, expected in expected_none.items():
        for t in exhaustive_trees(kind, n):
            ctx = features.FeatureContext(t, Arrangement.identity(n))
            values = {name: feat.func(ctx) for name, feat in features.REGISTRY.items()}
            assert {name for name, value in values.items() if value is None} == expected
            for value in values.values():
                # the only types that render_value is written for
                assert value is None or type(value) is int or type(value) is Fraction


def test_one_vertex_free_tree_is_rejected_before_its_size_is_read():
    t = FreeTree.from_edge_list(1, [])
    for name in ("MHD", "head_initial_ratio"):
        with pytest.raises(KindMismatchError):
            features.evaluate(name, t, Arrangement.identity(1))
    with pytest.raises(KindMismatchError):
        estimate_over_trees(TreeKind.parse("labeled-free"), 1, "MHD")
    with pytest.raises(KindMismatchError):
        estimate_over_arrangements(t, "head_initial_ratio")


def test_one_vertex_metrics_raise_no_edges_error():
    assert issubclass(NoEdgesError, TooSmallError)
    t = from_head_vector("0")
    a = Arrangement.identity(1)
    for call in (lambda: head_initial_ratio(t, a), lambda: flux(t, a),
                 lambda: flux(t.to_free(), a), lambda: mean_hierarchical_distance(t),
                 lambda: expected_D_unconstrained(t), lambda: expected_C_unconstrained(t)):
        with pytest.raises(NoEdgesError):
            call()
