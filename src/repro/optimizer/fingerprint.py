"""Canonical query-graph fingerprinting for plan reuse.

The paper's central object — the query graph of Section 1.2 — is already
canonical: parallel join conjuncts between the same pair of relations
collapse into one edge, outerjoin edges are directed at the null-supplied
relation, and *no trace of the written operator order survives*.  Theorem 1
then guarantees that for a nice graph with strong predicates, every valid
implementing tree computes the same result.  Together those two facts make
plan caching sound: two queries with the same graph (and the same pushed
leaf restrictions) are interchangeable, so a plan optimized for one may be
replayed for the other.

This module turns that argument into a key: a SHA-256 digest over the
graph's *sorted* canonical description —

* the sorted node (relation) list;
* each collapsed join edge as the sorted endpoint pair plus the *sorted*
  structural renderings of its conjuncts (conjunct order is a parsing
  accident, not semantics);
* each outerjoin edge as the directed ``preserved>null_supplied`` pair
  plus its predicate structure;
* optionally, the pushed-down leaf restrictions per relation (again with
  sorted conjuncts), because the pipeline's chosen plan reattaches them.

Sorting at every level makes the digest order-insensitive: writing
``(R1 ⋈ R2) ⋈ R3`` or ``(R3 ⋈ R2) ⋈ R1``, or listing a predicate's
conjuncts in any order, produces the same fingerprint.  Distinct graphs
collide only with SHA-256 probability.  Node *names* participate — the
fingerprint identifies a query shape over concrete relations, not an
isomorphism class — which is exactly the granularity a plan cache needs
(a plan names the tables it scans).

The digest is stable across processes and Python versions: it is computed
over structural ``repr`` strings, never over Python ``hash()`` values
(which are salted per process for strings).  The one exception is an
opaque :class:`~repro.algebra.predicates.CustomPredicate`: its ``repr``
names only the predicate and its attributes, so its rendering adds the
identity of its function, and such a digest holds within one process.
A cached tree holds its predicates, so that identity cannot be reused
while the entry can still hit.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Mapping, Optional

from repro.algebra.predicates import And, CustomPredicate, Not, Or, Predicate
from repro.core.graph import QueryGraph

#: Digest length (hex chars) kept in keys and reports; 128 bits of SHA-256
#: is far beyond any realistic cache population's collision horizon.
FINGERPRINT_HEX_LEN = 32


def predicate_signature(predicate: Predicate) -> str:
    """A canonical structural rendering of one predicate.

    Conjunctions are rendered as their *sorted* conjunct reprs so that
    ``p AND q`` and ``q AND p`` — and collapsed parallel edges built in
    either order — sign identically.  Everything below the top-level
    conjunction keeps its structure: predicates are immutable trees whose
    ``repr`` is deterministic and total.
    """
    conjuncts = predicate.conjuncts()
    if not conjuncts:  # TruePredicate
        return repr(predicate)
    return "&".join(sorted(_render(c) for c in conjuncts))


def _render(predicate: Predicate) -> str:
    """``repr`` plus the function identity of every opaque predicate inside."""
    opaque = "".join(f"#{id(p.fn):x}" for p in _opaque_nodes(predicate))
    return repr(predicate) + opaque


def _opaque_nodes(predicate: Predicate) -> Iterator[CustomPredicate]:
    if isinstance(predicate, CustomPredicate):
        yield predicate
    elif isinstance(predicate, Not):
        yield from _opaque_nodes(predicate.child)
    elif isinstance(predicate, (And, Or)):
        for child in predicate.children:
            yield from _opaque_nodes(child)


def _filter_lines(filters: Mapping[str, Iterable[Predicate]]) -> List[str]:
    lines = []
    for name in sorted(filters):
        preds = sorted(_render(p) for p in filters[name])
        if preds:
            lines.append(f"filter:{name}:{'&'.join(preds)}")
    return lines


def canonical_lines(
    graph: QueryGraph,
    filters: Optional[Mapping[str, Iterable[Predicate]]] = None,
) -> List[str]:
    """The sorted canonical description the fingerprint digests.

    Exposed separately from :func:`graph_fingerprint` so tests (and the
    curious) can inspect *what* is being hashed; one line per node, edge,
    and filtered relation.
    """
    lines = [f"node:{name}" for name in graph.nodes]
    for pair, predicate in graph.join_edges.items():
        u, v = sorted(pair)
        lines.append(f"join:{u}~{v}:{predicate_signature(predicate)}")
    for (u, v), predicate in graph.oj_edges.items():
        lines.append(f"oj:{u}>{v}:{predicate_signature(predicate)}")
    if filters:
        lines.extend(_filter_lines(filters))
    return sorted(lines)


def graph_fingerprint(
    graph: QueryGraph,
    filters: Optional[Mapping[str, Iterable[Predicate]]] = None,
) -> str:
    """The canonical fingerprint of a query graph (hex digest).

    ``filters`` optionally mixes in pushed-down leaf restrictions keyed
    by relation name — two queries over the same graph but with different
    base-table filters must not share a cached plan, because the chosen
    expression embeds the filters above its scans.
    """
    digest = hashlib.sha256()
    for line in canonical_lines(graph, filters):
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:FINGERPRINT_HEX_LEN]


def plan_cache_key(
    graph: QueryGraph,
    filters: Optional[Dict[str, List[Predicate]]],
    cost_model: str,
) -> str:
    """The plan-cache lookup key for one optimization request.

    The cost model participates because different models legitimately
    choose different (all correct, per Theorem 1) implementing trees;
    caching across models would silently pin the first model's choice.
    """
    return f"{graph_fingerprint(graph, filters)}/{cost_model}"
