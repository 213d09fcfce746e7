"""The null value and three-valued (Kleene) logic.

The paper's Section 1.2 defines a *null tuple* on a scheme as an assignment
of a null value to every attribute, and Section 2.1 builds its central
notion of a *strong* predicate on how predicates behave on nulls: a
predicate is strong with respect to a set ``S`` of attributes if it returns
``False`` whenever a tuple is null on all of ``S``.

We model nulls the way SQL does: a singleton marker value :data:`NULL`, and
predicate evaluation in three-valued logic with truth values ``True``,
``False`` and *unknown* (represented by Python's ``None``).  At operator
boundaries (restriction, join matching) *unknown* behaves like ``False``:
a tuple "satisfies" a predicate only when the predicate evaluates to
``True``.  This matches the paper's two-valued statement "p(t) = False"
for null inputs of strong predicates.
"""

from __future__ import annotations

from typing import Optional


class _Null:
    """The singleton null marker.

    A dedicated class (rather than Python's ``None``) keeps nulls distinct
    from the *unknown* truth value and from missing dictionary entries, and
    lets rows containing nulls participate in hashing, sorting keys and
    equality without ambiguity: it hashes and compares by identity (at C
    level), while SQL's ``NULL = x`` -> unknown lives in the predicates.
    Its hash is its address, which no ``PYTHONHASHSEED`` fixes: never take
    an order from the hash of a row that holds NULL.
    """

    _instance: Optional["_Null"] = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "NULL"

    def __reduce__(self):
        return (_Null, ())


#: The null value used to pad tuples (Section 1.2 "padding").
NULL = _Null()

#: Type alias documenting three-valued truth: True, False, or None=unknown.
TruthValue = Optional[bool]


def is_null(value: object) -> bool:
    """Return ``True`` iff ``value`` is the null marker."""
    return value is NULL


def tv_and(*values: TruthValue) -> TruthValue:
    """Kleene conjunction over any number of truth values."""
    saw_unknown = False
    for v in values:
        if v is False:
            return False
        if v is None:
            saw_unknown = True
    return None if saw_unknown else True


def tv_or(*values: TruthValue) -> TruthValue:
    """Kleene disjunction over any number of truth values."""
    saw_unknown = False
    for v in values:
        if v is True:
            return True
        if v is None:
            saw_unknown = True
    return None if saw_unknown else False


def tv_not(value: TruthValue) -> TruthValue:
    """Kleene negation."""
    if value is None:
        return None
    return not value


def satisfied(value: TruthValue) -> bool:
    """Collapse a three-valued result at an operator boundary.

    A tuple satisfies a predicate only when the predicate is definitely
    ``True``; *unknown* filters out, exactly as in SQL ``WHERE``/``ON``
    clauses and as required for the paper's strong-predicate machinery.
    """
    return value is True
