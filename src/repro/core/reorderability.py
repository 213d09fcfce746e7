"""Free reorderability: Theorem 1 and its brute-force validation.

Definition (Section 1.3).  A query ``Q`` and its ``graph(Q)`` are *freely
reorderable* if ``graph(Q)`` is defined and every ``Q'`` with
``graph(Q') = graph(Q)`` satisfies ``eval(Q') = eval(Q)``.

Theorem 1.  If ``graph(Q)`` is nice and the outerjoin predicates satisfy
the strongness condition, then ``Q`` is freely reorderable.

A note on the strongness condition.  The paper states it twice, in
slightly different words: Section 1.3 requires outerjoin predicates to
"return False when all attributes of the **preserved** relation are null",
while Lemma 2 / Theorem 1 in Section 3.2 say "strong with respect to the
**null-supplied** relation".  The two are not interchangeable: identity 12
(the only reassociation identity with a precondition) needs strongness
w.r.t. the *middle* relation of a chain ``X → Y → Z`` — that is, w.r.t.
the preserved-side relation ``Y`` that the inner outerjoin may have
null-padded.  The Section-1.3 phrasing is the operative one, and this
module implements it; the test suite exhibits a concrete nice graph whose
predicates are strong w.r.t. every null-supplied relation yet not freely
reorderable, confirming the Section-3.2 phrasing as an erratum.

Strongness is only ever *needed* on an outerjoin edge ``u → v`` when ``u``
itself can be null-padded, i.e. when ``u`` has an incoming outerjoin edge
(chained outerjoins).  :func:`strongness_requirements` reports the minimal
set; ``theorem1_applies`` checks the paper's blanket condition by default
and the minimal one with ``minimal=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, List, Optional, Tuple

from repro.algebra.comparison import bag_equal, explain_difference
from repro.algebra.relation import Database, Relation
from repro.algebra.schema import SchemaRegistry
from repro.core.enumeration import implementing_trees
from repro.core.expressions import Expression
from repro.core.graph import Arrow, QueryGraph, graph_of
from repro.core.niceness import violations


@dataclass(frozen=True)
class StrongnessRequirement:
    """One outerjoin edge's strongness obligation."""

    edge: Arrow
    attributes: Tuple[str, ...]
    satisfied: bool
    needed_minimally: bool

    def __str__(self) -> str:
        u, v = self.edge
        status = "ok" if self.satisfied else "VIOLATED"
        scope = "required" if self.needed_minimally else "blanket"
        return f"{u}→{v}: strong w.r.t. {list(self.attributes)} [{scope}] {status}"


def strongness_requirements(
    graph: QueryGraph, registry: SchemaRegistry
) -> List[StrongnessRequirement]:
    """Evaluate the preserved-side strongness condition on every OJ edge.

    For edge ``u → v`` the probed attribute set is what the edge predicate
    references from ``u`` (the preserved endpoint).  ``needed_minimally``
    marks edges whose preserved endpoint can actually be null-padded
    (it has an incoming outerjoin edge), which is when identity 12's
    precondition really bites.
    """
    out: List[StrongnessRequirement] = []
    nodes_with_incoming = {v for (_u, v) in graph.oj_edges}
    for (u, v), predicate in sorted(graph.oj_edges.items()):
        preserved_attrs = predicate.attributes() & registry[u].attributes
        out.append(
            StrongnessRequirement(
                edge=(u, v),
                attributes=tuple(sorted(preserved_attrs)),
                satisfied=predicate.is_strong(preserved_attrs),
                needed_minimally=u in nodes_with_incoming,
            )
        )
    return out


@dataclass
class ReorderabilityVerdict:
    """Outcome of the Theorem-1 test, with explanations."""

    freely_reorderable: bool
    nice: bool
    niceness_violations: List[str] = field(default_factory=list)
    strongness: List[StrongnessRequirement] = field(default_factory=list)

    def __str__(self) -> str:
        head = "freely reorderable" if self.freely_reorderable else "NOT freely reorderable"
        lines = [head, f"  nice graph: {self.nice}"]
        lines.extend(f"  {v}" for v in self.niceness_violations)
        lines.extend(f"  {s}" for s in self.strongness)
        return "\n".join(lines)


def theorem1_applies(
    graph: QueryGraph, registry: SchemaRegistry, minimal: bool = False
) -> ReorderabilityVerdict:
    """Does Theorem 1 certify the graph as freely reorderable?

    ``minimal=False`` (default) checks the paper's blanket condition —
    every outerjoin predicate strong w.r.t. its preserved endpoint.
    ``minimal=True`` only requires it on chained edges, the exact set
    identity 12 needs; the brute-force checker confirms the weaker
    condition suffices.
    """
    problems = violations(graph)
    nice = not problems
    reqs = strongness_requirements(graph, registry)
    relevant = [r for r in reqs if r.needed_minimally] if minimal else reqs
    strong_ok = all(r.satisfied for r in relevant)
    return ReorderabilityVerdict(
        freely_reorderable=nice and strong_ok,
        nice=nice,
        niceness_violations=[str(p) for p in problems],
        strongness=reqs,
    )


def is_freely_reorderable(
    query: Expression, registry: SchemaRegistry, minimal: bool = False
) -> bool:
    """Theorem-1 test applied to a query expression."""
    graph = graph_of(query, registry)
    return theorem1_applies(graph, registry, minimal=minimal).freely_reorderable


# ---------------------------------------------------------------------------
# Brute force: the definition itself, decided by enumeration + evaluation
# ---------------------------------------------------------------------------


@dataclass
class BruteForceReport:
    """Result of exhaustively evaluating every IT on sample databases."""

    consistent: bool
    trees_checked: int
    databases_checked: int
    witness: Optional[Tuple[Expression, Expression, str]] = None

    def __str__(self) -> str:
        head = (
            "all implementing trees agree"
            if self.consistent
            else "implementing trees DISAGREE"
        )
        out = [f"{head} ({self.trees_checked} trees x {self.databases_checked} databases)"]
        if self.witness:
            q1, q2, diff = self.witness
            out.append(f"  {q1!r}")
            out.append(f"  vs {q2!r}")
            out.append(f"  {diff}")
        return "\n".join(out)


def brute_force_check(
    graph: QueryGraph,
    databases: Iterable[Database],
    max_trees: Optional[int] = None,
) -> BruteForceReport:
    """Evaluate every IT of the graph on every database; compare all results.

    This is the *definition* of free reorderability made executable; the
    benchmark suite runs it against Theorem 1's verdict on both nice and
    non-nice graphs.  ``max_trees`` bounds the enumeration for large
    graphs.
    """
    dbs = list(databases)
    trees = implementing_trees(graph)
    if max_trees is not None:
        trees = islice(trees, max_trees)

    reference: Optional[Expression] = None
    reference_results: List[Relation] = []
    count = 0
    for tree in trees:
        count += 1
        results = [tree.eval(db) for db in dbs]
        if reference is None:
            reference = tree
            reference_results = results
            continue
        for db_index, (expected, got) in enumerate(zip(reference_results, results)):
            if not bag_equal(expected, got):
                diff = explain_difference(expected, got)
                return BruteForceReport(
                    consistent=False,
                    trees_checked=count,
                    databases_checked=db_index + 1,
                    witness=(reference, tree, str(diff)),
                )
    return BruteForceReport(
        consistent=True, trees_checked=count, databases_checked=len(dbs)
    )
