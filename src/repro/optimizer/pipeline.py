"""The end-to-end optimization pipeline of Sections 4 + 6.1.

``optimize_query`` strings together everything the paper develops:

1. **Simplify** (Section 4): strong restrictions convert outerjoins on
   their paths into joins (also 2-sided → 1-sided);
2. **Push restrictions** (Section 4): every conjunct sinks as deep as the
   null-supplied barriers allow;
3. **Abstract** (Section 1.2): the join/outerjoin core becomes a query
   graph — legal precisely when restrictions reached the leaves, because
   a filtered base relation is still a ground relation;
4. **Certify** (Theorem 1): nice + strong means the optimizer may emit
   *any* implementing tree;
5. **Optimize** (Section 6.1): DP over connected subgraphs, with
   cardinalities estimated against the *filtered* relations;
6. **Execute** (``optimize_and_run``, the one query path): the chosen
   tree, pushed filters reattached above the base scans, is planned and
   run.  When the cost gate prefers it, a ``Leapfrog`` node wraps the
   tree, and the planner runs it as one Leapfrog Triejoin.

When a restriction stays parked above an outerjoin (a genuinely
order-sensitive one, e.g. an ``IS NULL`` probe), the pipeline degrades
gracefully: it optimizes nothing and costs the simplified-but-unreordered
tree, reporting why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.algebra.predicates import Predicate, conjunction
from repro.core.expressions import Expression, Rel, Restrict
from repro.core.graph import QueryGraph, graph_of
from repro.core.pushdown import push_restrictions, split_leaf_filters
from repro.core.reorderability import ReorderabilityVerdict, theorem1_applies
from repro.core.simplify import simplify_outerjoins
from repro.core.wcoj_order import Leapfrog, WcojSpec, wcoj_spec_of
from repro.engine.executor import ExecutionResult, execute_plan, plan_expression
from repro.engine.storage import Storage
from repro.observability.spans import maybe_span
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel, CoutCostModel, RetrievalCostModel, agm_bound
from repro.optimizer.dp import DPOptimizer
from repro.optimizer.fingerprint import plan_cache_key
from repro.optimizer.plancache import PlanCache, default_plan_cache
from repro.util.cancel import CancelToken
from repro.util.errors import GraphUndefinedError, SchemaError


@dataclass
class PipelineResult:
    """Everything the pipeline learned and decided."""

    original: Expression
    simplified: Expression
    pushed: Expression
    chosen: Expression
    reordered: bool
    verdict: Optional[ReorderabilityVerdict]
    conversions: List[str] = field(default_factory=list)
    placements: List[str] = field(default_factory=list)
    blocked: List[str] = field(default_factory=list)
    graph: Optional[QueryGraph] = None
    #: Canonical plan-cache key (graph + pushed filters + cost model);
    #: None when the query never reached the graph stage.
    fingerprint: Optional[str] = None
    #: True when the chosen plan (or verdict) was replayed from the cache.
    cache_hit: bool = False
    #: Pushed leaf filters (relation -> conjuncts), which
    #: ``_reattach_filters`` re-applies to the chosen tree.  Empty when
    #: the query never reached the graph stage.
    leaf_filters: Dict[str, List[Predicate]] = field(default_factory=dict)

    @property
    def wcoj_spec(self) -> Optional[WcojSpec]:
        """The spec of the chosen tree's first Leapfrog node, or None."""
        return next((n.spec for _p, n in self.chosen.nodes() if isinstance(n, Leapfrog)), None)

    @property
    def strategy(self) -> str:
        """The strategy that runs: "wcoj" with a Leapfrog node in ``chosen``, else "dp"."""
        return "dp" if self.wcoj_spec is None else "wcoj"

    def explain(self) -> str:
        lines = [f"original:   {self.original.to_infix()}"]
        for c in self.conversions:
            lines.append(f"  simplify: {c}")
        lines.append(f"simplified: {self.simplified.to_infix()}")
        for p in self.placements:
            lines.append(f"  push:     {p}")
        for b in self.blocked:
            lines.append(f"  BLOCKED:  {b}")
        lines.append(f"pushed:     {self.pushed.to_infix()}")
        if self.verdict is not None:
            lines.append(
                "Theorem 1:  "
                + ("freely reorderable" if self.verdict.freely_reorderable else "NOT freely reorderable")
            )
        lines.append(f"chosen:     {self.chosen.to_infix()}")
        strategy = self.strategy
        if self.wcoj_spec is not None:
            strategy += f" (Leapfrog over {', '.join(self.wcoj_spec.variables)})"
        if self.cache_hit:
            strategy += ", replayed from the plan cache"
        lines.append(f"strategy:   {strategy}")
        return "\n".join(lines)


def _reattach_filters(expr: Expression, filters: Dict[str, List[Predicate]]) -> Expression:
    """Put each leaf's pushed filter back on a DP tree (Rel and binary nodes)."""
    if isinstance(expr, Rel):
        preds = filters.get(expr.name)
        return Restrict(expr, conjunction(preds)) if preds else expr
    left, right = expr.children()
    return expr.with_parts(  # type: ignore[attr-defined]
        _reattach_filters(left, filters), _reattach_filters(right, filters)
    )


def optimize_query(
    query: Expression,
    storage: Storage,
    cost_model: str = "retrieval",
    cache: Optional[PlanCache] = None,
    use_cache: bool = True,
) -> PipelineResult:
    """Run the full Section-4 + Section-6.1 pipeline (see module docs).

    Plan caching: once the query's graph and pushed leaf filters are
    known, their canonical fingerprint is looked up in ``cache`` (the
    process default when None; pass ``use_cache=False`` to bypass
    entirely).  A hit stamped with the storage's current generation
    skips the niceness certificate, the leaf statistics, and the DP —
    replaying the cached implementing tree, which Theorem 1 makes
    interchangeable with any other valid tree of the same (nice, strong)
    graph.  A generation mismatch invalidates the entry instead.
    """
    if use_cache and cache is None:
        cache = default_plan_cache()
    with maybe_span("optimizer.pipeline", category="optimizer", cost_model=cost_model) as span:
        result = _optimize_query(query, storage, cost_model, cache if use_cache else None)
        if span is not None and result.fingerprint is not None:
            span.set(fingerprint=result.fingerprint)
            span.counters["plan_cache_hit" if result.cache_hit else "plan_cache_miss"] += 1
        return result


def _optimize_query(
    query: Expression,
    storage: Storage,
    cost_model: str,
    cache: Optional[PlanCache],
) -> PipelineResult:
    registry = storage.registry
    with maybe_span("optimizer.simplify", category="optimizer") as span:
        simplified_report = simplify_outerjoins(query, registry)
        if span is not None:
            span.counters["conversions"] = len(simplified_report.conversions)
    with maybe_span("optimizer.pushdown", category="optimizer") as span:
        push_report = push_restrictions(simplified_report.query, registry)
        if span is not None:
            span.counters["placements"] = len(push_report.placements)
            span.counters["blocked"] = len(push_report.blocked)

    result = PipelineResult(
        original=query,
        simplified=simplified_report.query,
        pushed=push_report.query,
        chosen=push_report.query,
        reordered=False,
        verdict=None,
        conversions=list(simplified_report.conversions),
        placements=list(push_report.placements),
        blocked=list(push_report.blocked),
    )
    if not push_report.fully_pushed:
        # Order-sensitive restriction: stay with the written order.
        return result

    core, filters = split_leaf_filters(push_report.query)
    result.leaf_filters = filters
    # Multi-relation conjuncts parked above inner joins keep the core from
    # being a pure join/outerjoin tree (GraphUndefinedError), and a
    # predicate naming an attribute no relation owns has no endpoints
    # (SchemaError from the registry); fall back in those cases too.
    try:
        graph = graph_of(core, registry)
    except (GraphUndefinedError, SchemaError):
        return result
    result.graph = graph
    result.fingerprint = plan_cache_key(graph, filters, cost_model)

    generation = storage.generation
    if cache is not None:
        hit = cache.lookup(result.fingerprint, generation)
        if hit is not None:
            # Replay: the fingerprint pins graph, filters, and cost
            # model; the generation stamp pins the statistics.  For a
            # freely-reorderable graph the cached entry carries the
            # chosen tree, Leapfrog node included; otherwise only the
            # (graph-determined) verdict, because non-nice trees are NOT
            # interchangeable and the written order must stand.
            verdict, chosen = hit
            result.verdict = verdict
            result.cache_hit = True
            if chosen is not None:
                result.chosen = chosen
                result.reordered = True
            return result

    with maybe_span("optimizer.niceness", category="optimizer") as span:
        verdict = theorem1_applies(graph, registry)
        if span is not None:
            span.set(
                nice=verdict.nice,
                freely_reorderable=verdict.freely_reorderable,
            )
    result.verdict = verdict
    if not verdict.freely_reorderable:
        if cache is not None:
            cache.store(result.fingerprint, generation, (verdict, None))
        return result

    estimator = CardinalityEstimator(storage, filters)
    model: CostModel
    if cost_model == "retrieval":
        model = RetrievalCostModel(estimator, storage)
    elif cost_model == "cout":
        model = CoutCostModel(estimator)
    else:
        raise ValueError(f"unknown cost model {cost_model!r}")
    plan = DPOptimizer(graph, model).optimize()
    result.chosen = _cyclic_fast_path(graph, registry, estimator, plan.expr, filters)
    result.reordered = True
    if cache is not None:
        cache.store(result.fingerprint, generation, (verdict, result.chosen))
    return result


def _cyclic_fast_path(
    graph: QueryGraph,
    registry,
    estimator: CardinalityEstimator,
    dp_expr: Expression,
    filters: Dict[str, List[Predicate]],
) -> Expression:
    """The chosen tree: the DP tree with ``filters`` reattached, wrapped in
    a :class:`Leapfrog` node when that path is eligible *and* cheaper.

    Eligibility is :func:`~repro.core.wcoj_order.wcoj_spec_of`'s call: a
    connected pure-join core (outerjoins stay on implementing trees —
    Theorem 1 never certifies reordering them into a cyclic core) whose
    attribute-class hypergraph is genuinely cyclic.  The cost test
    compares C_out of the DP's binary tree against the leapfrog bill:
    one pass over the (filtered) base relations to build/drain the tries
    plus the AGM fractional-cover bound on the output — the worst case
    the algorithm is guaranteed never to exceed.  Both sides use the
    same estimator, so the comparison is apples-to-apples.
    """
    dp_tree = _reattach_filters(dp_expr, filters)
    with maybe_span("optimizer.wcoj", category="optimizer") as span:
        spec = wcoj_spec_of(graph, registry)
        if spec is None:
            if span is not None:
                span.set(cyclic=False, chosen=False)
            return dp_tree
        dp_cost = CoutCostModel(estimator).plan_cost(dp_expr)
        cards = {name: estimator.base(name).cardinality for name in spec.order}
        wcoj_cost = sum(cards.values()) + agm_bound(spec.hyperedges(), cards)
        chosen = wcoj_cost < dp_cost
        if span is not None:
            span.set(cyclic=True, chosen=chosen)
            span.counters["dp_cost"] = int(dp_cost)
            span.counters["wcoj_cost"] = int(wcoj_cost)
        return Leapfrog(dp_tree, spec) if chosen else dp_tree


def optimize_and_run(
    query: Expression,
    storage: Storage,
    cost_model: str = "retrieval",
    cache: Optional[PlanCache] = None,
    use_cache: bool = True,
    cancel: Optional[CancelToken] = None,
) -> tuple[PipelineResult, ExecutionResult]:
    """Optimize, plan the chosen tree, run it, and return both records.

    The one query path (the service runs every query through it).  The
    plan is ``plan_expression(result.chosen, storage)``, a Leapfrog node
    included.  ``cancel`` reaches the plan's drain loop and metrics sink.
    """
    result = optimize_query(
        query, storage, cost_model=cost_model, cache=cache, use_cache=use_cache
    )
    if cancel is not None:
        cancel.check()
    return result, execute_plan(plan_expression(result.chosen, storage), cancel=cancel)
