"""JSON round-tripping for databases, predicates, expressions, and fuzz cases.

Reproducer artifacts written by the fuzzer must be replayable on another
machine (or another commit) without pickling arbitrary objects, so this
module defines an explicit JSON encoding:

* values are native JSON scalars, with the null marker encoded as the
  sentinel object ``{"$null": true}`` (JSON ``null`` is deliberately not
  used so that an absent/None slot is a hard error, not a silent null);
* predicates and expressions are tagged trees (``{"kind": ...}`` /
  ``{"op": ...}``) mirroring the class structure one-to-one;
* a database is ``{name: {"scheme": [...], "rows": [[...], ...]}}`` with
  the scheme sorted and the rows sorted by their encoded form, so the
  encoding is *canonical*: equal databases serialize to identical bytes
  (the seed-determinism tests rely on this).

``CustomPredicate`` and opaque callables are not serializable — by
design, the fuzzer never generates them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.algebra.nulls import NULL, is_null
from repro.algebra.predicates import (
    And,
    AttrRef,
    Comparison,
    Const,
    IsNull,
    Not,
    Or,
    Predicate,
    Term,
    TruePredicate,
)
from repro.algebra.relation import Database, Relation
from repro.algebra.tuples import Row
from repro.core import expressions as E
from repro.core.wcoj_order import Leapfrog
from repro.util.errors import EvaluationError, PredicateError

# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

_NULL_JSON = {"$null": True}


def value_to_json(value: Any) -> Any:
    if is_null(value):
        return dict(_NULL_JSON)
    if isinstance(value, (bool, int, float, str)):
        return value
    raise PredicateError(f"value {value!r} has no JSON encoding")


def value_from_json(doc: Any) -> Any:
    if isinstance(doc, dict):
        if doc == _NULL_JSON:
            return NULL
        raise PredicateError(f"malformed value document {doc!r}")
    if doc is None:
        raise PredicateError("JSON null is not a legal value; use {'$null': true}")
    return doc


# ---------------------------------------------------------------------------
# Databases
# ---------------------------------------------------------------------------


def database_to_json(db: Database) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name in sorted(db):
        relation = db[name]
        scheme = sorted(relation.scheme)
        rows = [[value_to_json(row[a]) for a in scheme] for row in relation]
        rows.sort(key=lambda r: json.dumps(r, sort_keys=True))
        out[name] = {"scheme": scheme, "rows": rows}
    return out


def database_from_json(doc: Dict[str, Any]) -> Database:
    db = Database()
    for name, body in doc.items():
        scheme: List[str] = list(body["scheme"])
        rows = [
            Row(dict(zip(scheme, (value_from_json(v) for v in encoded))))
            for encoded in body["rows"]
        ]
        db.add(name, Relation(scheme, rows))
    return db


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def term_to_json(term: Term) -> Dict[str, Any]:
    if isinstance(term, AttrRef):
        return {"attr": term.name}
    if isinstance(term, Const):
        return {"const": value_to_json(term.const)}
    raise PredicateError(f"term {term!r} has no JSON encoding")


def term_from_json(doc: Dict[str, Any]) -> Term:
    if "attr" in doc:
        return AttrRef(doc["attr"])
    if "const" in doc:
        return Const(value_from_json(doc["const"]))
    raise PredicateError(f"malformed term document {doc!r}")


def predicate_to_json(pred: Predicate) -> Dict[str, Any]:
    if isinstance(pred, TruePredicate):
        return {"kind": "true"}
    if isinstance(pred, Comparison):
        return {
            "kind": "cmp",
            "op": pred.op,
            "left": term_to_json(pred.left),
            "right": term_to_json(pred.right),
        }
    if isinstance(pred, IsNull):
        return {"kind": "isnull", "term": term_to_json(pred.term)}
    if isinstance(pred, Not):
        return {"kind": "not", "child": predicate_to_json(pred.child)}
    if isinstance(pred, And):
        return {"kind": "and", "children": [predicate_to_json(c) for c in pred.children]}
    if isinstance(pred, Or):
        return {"kind": "or", "children": [predicate_to_json(c) for c in pred.children]}
    raise PredicateError(f"predicate {pred!r} has no JSON encoding")


def predicate_from_json(doc: Dict[str, Any]) -> Predicate:
    kind = doc.get("kind")
    if kind == "true":
        return TruePredicate()
    if kind == "cmp":
        return Comparison(term_from_json(doc["left"]), doc["op"], term_from_json(doc["right"]))
    if kind == "isnull":
        return IsNull(term_from_json(doc["term"]))
    if kind == "not":
        return Not(predicate_from_json(doc["child"]))
    if kind == "and":
        return And(tuple(predicate_from_json(c) for c in doc["children"]))
    if kind == "or":
        return Or(tuple(predicate_from_json(c) for c in doc["children"]))
    raise PredicateError(f"malformed predicate document {doc!r}")


# ---------------------------------------------------------------------------
# Expressions (a visitor over Expression.accept)
# ---------------------------------------------------------------------------


class _ExprEncoder:
    """Serializing visitor; one tag per concrete Expression class."""

    def _binary(self, node: E.BinaryOp, op: str) -> Dict[str, Any]:
        return {
            "op": op,
            "left": node.left.accept(self),
            "right": node.right.accept(self),
            "predicate": predicate_to_json(node.predicate),
        }

    def visit_rel(self, node: E.Rel) -> Dict[str, Any]:
        return {"op": "rel", "name": node.name}

    def visit_join(self, node: E.Join) -> Dict[str, Any]:
        return self._binary(node, "join")

    def visit_left_outer_join(self, node: E.LeftOuterJoin) -> Dict[str, Any]:
        return self._binary(node, "loj")

    def visit_right_outer_join(self, node: E.RightOuterJoin) -> Dict[str, Any]:
        return self._binary(node, "roj")

    def visit_full_outer_join(self, node: E.FullOuterJoin) -> Dict[str, Any]:
        return self._binary(node, "foj")

    def visit_antijoin(self, node: E.Antijoin) -> Dict[str, Any]:
        return self._binary(node, "aj")

    def visit_right_antijoin(self, node: E.RightAntijoin) -> Dict[str, Any]:
        return self._binary(node, "raj")

    def visit_semijoin(self, node: E.Semijoin) -> Dict[str, Any]:
        return self._binary(node, "sj")

    def visit_generalized_outerjoin(self, node: E.GeneralizedOuterJoin) -> Dict[str, Any]:
        doc = self._binary(node, "goj")
        doc["projection"] = sorted(node.projection)
        return doc

    def visit_restrict(self, node: E.Restrict) -> Dict[str, Any]:
        return {
            "op": "restrict",
            "child": node.child.accept(self),
            "predicate": predicate_to_json(node.predicate),
        }

    def visit_project(self, node: E.Project) -> Dict[str, Any]:
        return {
            "op": "project",
            "child": node.child.accept(self),
            "attributes": sorted(node.attributes),
            "dedup": node.dedup,
        }

    def visit_leapfrog(self, node: Leapfrog) -> Dict[str, Any]:
        return node.child.accept(self)

    def visit_union(self, node: E.Union) -> Dict[str, Any]:
        return {
            "op": "union",
            "left": node.left.accept(self),
            "right": node.right.accept(self),
        }

    def generic_visit(self, node: E.Expression):
        raise EvaluationError(f"cannot serialize operator {type(node).__name__}")


_BINARY_DECODERS = {
    "join": E.Join,
    "loj": E.LeftOuterJoin,
    "roj": E.RightOuterJoin,
    "foj": E.FullOuterJoin,
    "aj": E.Antijoin,
    "raj": E.RightAntijoin,
    "sj": E.Semijoin,
}


def expression_to_json(expr: E.Expression) -> Dict[str, Any]:
    return expr.accept(_ExprEncoder())


def expression_from_json(doc: Dict[str, Any]) -> E.Expression:
    op = doc.get("op")
    if op == "rel":
        return E.Rel(doc["name"])
    if op in _BINARY_DECODERS:
        return _BINARY_DECODERS[op](
            expression_from_json(doc["left"]),
            expression_from_json(doc["right"]),
            predicate_from_json(doc["predicate"]),
        )
    if op == "goj":
        return E.GeneralizedOuterJoin(
            expression_from_json(doc["left"]),
            expression_from_json(doc["right"]),
            predicate_from_json(doc["predicate"]),
            frozenset(doc["projection"]),
        )
    if op == "restrict":
        return E.Restrict(expression_from_json(doc["child"]), predicate_from_json(doc["predicate"]))
    if op == "project":
        return E.Project(
            expression_from_json(doc["child"]),
            frozenset(doc["attributes"]),
            dedup=doc["dedup"],
        )
    if op == "union":
        return E.Union(expression_from_json(doc["left"]), expression_from_json(doc["right"]))
    raise EvaluationError(f"malformed expression document {doc!r}")


# ---------------------------------------------------------------------------
# Fuzz cases
# ---------------------------------------------------------------------------

#: Format tag written into every artifact; bump on incompatible changes.
ARTIFACT_VERSION = 1


def case_to_json(case) -> Dict[str, Any]:
    """Encode a :class:`repro.conformance.fuzz.FuzzCase` (duck-typed)."""
    return {
        "version": ARTIFACT_VERSION,
        "seed": case.seed,
        "description": case.description,
        "executors": list(case.executors),
        "database": database_to_json(case.database),
        "expression": expression_to_json(case.expression),
    }


def case_from_json(doc: Dict[str, Any]):
    """Decode a fuzz case; inverse of :func:`case_to_json`."""
    from repro.conformance.fuzz import FuzzCase

    version = doc.get("version", ARTIFACT_VERSION)
    if version != ARTIFACT_VERSION:
        raise EvaluationError(
            f"reproducer artifact version {version} not supported (expected {ARTIFACT_VERSION})"
        )
    return FuzzCase(
        seed=doc["seed"],
        description=doc.get("description", ""),
        executors=tuple(doc["executors"]),
        database=database_from_json(doc["database"]),
        expression=expression_from_json(doc["expression"]),
    )


def case_dumps(case) -> str:
    """Canonical textual form (stable key order, 2-space indent)."""
    return json.dumps(case_to_json(case), sort_keys=True, indent=2) + "\n"
