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
   strategy runs — the DP tree with the pushed filters reattached above
   the base scans, or a fast-path plan scanning under them.

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
from repro.core.pushdown import push_restrictions
from repro.core.reorderability import ReorderabilityVerdict, theorem1_applies
from repro.core.simplify import simplify_outerjoins
from repro.core.wcoj_order import WcojSpec, wcoj_spec_of
from repro.engine.executor import ExecutionResult, execute_plan, plan_expression
from repro.engine.iterators import PhysicalOp
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
    #: What ``optimize_and_run`` — and so every query the service
    #: serves — executes: the binary-tree DP plan ("dp") or the cyclic
    #: worst-case optimal Leapfrog Triejoin ("wcoj"), as the cost gate
    #: decided.
    strategy: str = "dp"
    #: The trie layout + variable order backing the cyclic fast path
    #: (None unless the strategy is "wcoj").
    wcoj_spec: Optional[WcojSpec] = None
    #: Pushed leaf filters (relation -> conjuncts); what
    #: ``_reattach_filters`` re-applies and the Leapfrog builder scans
    #: under.  Empty when the query never reached the graph stage.
    leaf_filters: Dict[str, List[Predicate]] = field(default_factory=dict)

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


def _split_leaf_filters(expr: Expression) -> tuple[Expression, Dict[str, List[Predicate]]]:
    """Replace ``Restrict(Rel)`` leaves by bare leaves, collecting filters."""
    filters: Dict[str, List[Predicate]] = {}

    def walk(node: Expression) -> Expression:
        if isinstance(node, Restrict) and isinstance(node.child, Rel):
            filters.setdefault(node.child.name, []).extend(node.predicate.conjuncts())
            return node.child
        if isinstance(node, Rel):
            return node
        kids = node.children()
        if len(kids) == 2:
            return node.with_parts(walk(kids[0]), walk(kids[1]))  # type: ignore[attr-defined]
        if isinstance(node, Restrict):
            return Restrict(walk(node.child), node.predicate)
        return node

    return walk(expr), filters


def _reattach_filters(expr: Expression, filters: Dict[str, List[Predicate]]) -> Expression:
    def walk(node: Expression) -> Expression:
        if isinstance(node, Rel):
            preds = filters.get(node.name)
            if preds:
                return Restrict(node, conjunction(preds))
            return node
        kids = node.children()
        if len(kids) == 2:
            return node.with_parts(walk(kids[0]), walk(kids[1]))  # type: ignore[attr-defined]
        if isinstance(node, Restrict):
            return Restrict(walk(node.child), node.predicate)
        return node

    return walk(expr)


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

    core, filters = _split_leaf_filters(push_report.query)
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
            # chosen tree; otherwise only the (graph-determined)
            # verdict, because non-nice trees are NOT interchangeable
            # and the written order must stand.  A cached WCOJ spec is
            # the strategy the gate chose.
            verdict, chosen, wcoj_spec = hit
            result.verdict = verdict
            result.cache_hit = True
            if chosen is not None:
                result.chosen = chosen
                result.reordered = True
            _set_strategy(result, wcoj_spec)
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
            cache.store(result.fingerprint, generation, (verdict, None, None))
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
    result.chosen = _reattach_filters(plan.expr, filters)
    result.reordered = True
    wcoj_spec = _cyclic_fast_path(graph, registry, estimator, plan.expr)
    if cache is not None:
        cache.store(result.fingerprint, generation, (verdict, result.chosen, wcoj_spec))
    _set_strategy(result, wcoj_spec)
    return result


def _set_strategy(result: PipelineResult, wcoj_spec: Optional[WcojSpec]) -> None:
    """Record the Leapfrog plan when the gate chose it, else keep "dp"."""
    if wcoj_spec is not None:
        result.wcoj_spec = wcoj_spec
        result.strategy = "wcoj"


def _cyclic_fast_path(
    graph: QueryGraph,
    registry,
    estimator: CardinalityEstimator,
    dp_expr: Expression,
) -> Optional[WcojSpec]:
    """Take the worst-case optimal path when it is eligible *and* cheaper.

    Eligibility is :func:`~repro.core.wcoj_order.wcoj_spec_of`'s call: a
    connected pure-join core (outerjoins stay on implementing trees —
    Theorem 1 never certifies reordering them into a cyclic core) whose
    attribute-class hypergraph is genuinely cyclic.  The cost test
    compares C_out of the DP's binary tree against the leapfrog bill:
    one pass over the (filtered) base relations to build/drain the tries
    plus the AGM fractional-cover bound on the output — the worst case
    the algorithm is guaranteed never to exceed.  Both sides use the
    same estimator under one memo scope, so the comparison is
    apples-to-apples.
    """
    with maybe_span("optimizer.wcoj", category="optimizer") as span:
        spec = wcoj_spec_of(graph, registry)
        if spec is None:
            if span is not None:
                span.set(cyclic=False, chosen=False)
            return None
        with estimator.memo_scope():
            dp_cost = CoutCostModel(estimator).plan_cost(dp_expr)
            cards = {name: estimator.base(name).cardinality for name in spec.order}
        wcoj_cost = sum(cards.values()) + agm_bound(spec.hyperedges(), cards)
        chosen = wcoj_cost < dp_cost
        if span is not None:
            span.set(cyclic=True, chosen=chosen)
            span.counters["dp_cost"] = int(dp_cost)
            span.counters["wcoj_cost"] = int(wcoj_cost)
        return spec if chosen else None


def optimize_and_run(
    query: Expression,
    storage: Storage,
    cost_model: str = "retrieval",
    cache: Optional[PlanCache] = None,
    use_cache: bool = True,
    cancel: Optional[CancelToken] = None,
) -> tuple[PipelineResult, ExecutionResult]:
    """Optimize, execute the strategy the optimizer chose, return both records.

    The one query path (the service runs every query through it); the
    plan comes from :func:`physical_plan`.  The optimizer's cost gate
    alone sets the strategy.  ``cancel`` reaches the drain loop and
    metrics sink of every strategy's plan.
    """
    result = optimize_query(
        query, storage, cost_model=cost_model, cache=cache, use_cache=use_cache
    )
    if cancel is not None:
        cancel.check()
    return result, execute_plan(physical_plan(result, storage), cancel=cancel)


def physical_plan(result: PipelineResult, storage: Storage) -> PhysicalOp:
    """The physical plan of the strategy the optimizer chose.

    A "wcoj" strategy builds the Leapfrog Triejoin plan from the trie
    spec and leaf filters; "dp" plans ``chosen``.
    Every caller that runs an optimized query (``optimize_and_run``, the
    plan-cache conformance check) gets its plan here.
    """
    if result.strategy == "wcoj":
        from repro.engine.wcoj import build_wcoj_plan

        assert result.wcoj_spec is not None
        return build_wcoj_plan(result.wcoj_spec, storage, result.leaf_filters)
    return plan_expression(result.chosen, storage)
