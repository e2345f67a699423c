"""Registry of named metrics shared by treebank processing and baselines.

Each feature is identified by a stable string key used both in CSV headers
and on the command line; an unknown key's error lists the registry.
Features evaluate against a (tree, arrangement) context, by default the
tree's own order, built only when a feature reads it.  The context computes
each shared per-sentence intermediate at most once.  `linarr` computes the
arrangement ones: the positioned edge list, D, the crossing count C, the
arrangement flags and the flux profile, so one crossing sweep over one edge
list serves C, projective, planar and one_ec, and the same edge list serves
D.  The context adds the tree-shape flags.  A rooted tree memoizes its
subtree-size pass, so MHD and D_min_projective share one pass, flux reads
the vertex order the tree recorded when it was built, and the degree
features read one degree sequence, kept once per tree, like its subtree
sizes, without building the free tree.
A feature is None, an empty CSV cell, exactly where the metric's own
function raises TooSmallError: NoEdgesError below two vertices, and
hubiness below four.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from . import linarr, properties
from .errors import TooSmallError, UnknownMetricError
from .trees import Arrangement, RootedTree, Tree, _check_rooted


class FeatureContext(linarr._Layout):
    """A sentence's lazy intermediates, each computed at most once: those of
    its arrangement, from `linarr`, and the shape flags of its tree."""

    @property
    def rooted(self) -> RootedTree:
        return _check_rooted(self.tree, "this feature")

    @cached_property
    def shape(self) -> properties.TreeShapeFlags:
        return properties.tree_shape(self.tree)


@dataclass(frozen=True)
class Feature:
    name: str
    func: Callable[[FeatureContext], object]
    order_dependent: bool = False
    opt_in: bool = False


REGISTRY: dict[str, Feature] = {}


def _register(name, func, **kw):
    REGISTRY[name] = Feature(name, func, **kw)


def _defined(f):
    """`f`, but None where the metric is undefined: only the metric's own
    function says where that is, by raising TooSmallError."""
    def func(ctx):
        try:
            return f(ctx)
        except TooSmallError:
            return None
    return func


_register("n", lambda ctx: ctx.tree.n)
_register("D", lambda ctx: ctx.D, order_dependent=True)
_register("C", lambda ctx: ctx.C, order_dependent=True)
_register("projective", lambda ctx: int(ctx.flags.projective),
          order_dependent=True)
_register("planar", lambda ctx: int(ctx.flags.planar),
          order_dependent=True)
_register("one_ec", lambda ctx: int(ctx.flags.one_endpoint_crossing),
          order_dependent=True)
_register("head_initial_ratio",
          _defined(lambda ctx: linarr.head_initial_ratio(ctx.tree, ctx.arrangement)),
          order_dependent=True)
_register("flux_max_size",
          _defined(lambda ctx: ctx.flux.max_size), order_dependent=True)
_register("flux_max_weight",
          _defined(lambda ctx: ctx.flux.max_weight), order_dependent=True)
_register("flux_mean_size",
          _defined(lambda ctx: Fraction(ctx.flux.total_size, ctx.tree.n - 1)),
          order_dependent=True)
_register("MHD", _defined(lambda ctx: properties.mean_hierarchical_distance(ctx.tree)))
_register("hubiness", _defined(lambda ctx: properties.hubiness(ctx.tree)))
_register("Q", lambda ctx: properties.num_independent_edge_pairs(ctx.tree))
_register("k2", lambda ctx: properties.degree_moment(ctx.tree, 2))
_register("expected_D", _defined(lambda ctx: properties.expected_D_unconstrained(ctx.tree)))
_register("expected_C", _defined(lambda ctx: properties.expected_C_unconstrained(ctx.tree)))
for _flag in ("linear", "star", "quasistar", "bistar", "caterpillar", "spider"):
    _register(_flag,
              (lambda fl: lambda ctx: int(getattr(ctx.shape, fl)))(_flag))
_register("D_min_projective",
          lambda ctx: linarr._min_projective_value(ctx.rooted))
_register("D_min_planar",
          lambda ctx: linarr._min_projective_value(linarr._centroid_rooted(ctx.tree)),
          opt_in=True)
_register("D_min_unconstrained",
          lambda ctx: linarr.min_D_unconstrained(ctx.tree).value, opt_in=True)


def default_features() -> list[str]:
    """All registered features except the opt-in ones, which a caller names."""
    return [name for name, f in REGISTRY.items() if not f.opt_in]


def resolve(names) -> list[Feature]:
    out = []
    for name in names:
        if name not in REGISTRY:
            raise UnknownMetricError(
                f"unknown feature {name!r}; registered: {', '.join(sorted(REGISTRY))}")
        out.append(REGISTRY[name])
    return out


def evaluate(name: str, tree: Tree, arrangement: Optional[Arrangement] = None):
    (feature,) = resolve([name])
    return feature.func(FeatureContext(tree, arrangement))
