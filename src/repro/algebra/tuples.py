"""Tuples (rows), concatenation, padding, and projection.

Implements the tuple-level definitions of Section 1.2:

* a *tuple on scheme S* assigns a value to every attribute of ``S``;
* a *null tuple* assigns the null value to every attribute;
* tuples on disjoint schemes can be *concatenated*;
* a tuple on ``S`` can be *padded* to a superscheme ``S'`` by concatenating
  it with ``null_{S'-S}``.

The class is named :class:`Row` to avoid clashing with ``typing.Tuple``.
Rows are immutable and hashable so relations can be bags (multisets) keyed
by row.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import Any, Dict, FrozenSet

from repro.algebra.nulls import NULL, is_null
from repro.algebra.schema import Schema
from repro.util.errors import SchemaError


class Row(Mapping[str, Any]):
    """An immutable tuple: an assignment of values to attribute names."""

    __slots__ = ("_values", "_hash")

    def __init__(self, values: Mapping[str, Any] | Iterable[tuple[str, Any]]):
        d: Dict[str, Any] = dict(values)
        for attr in d:
            if not isinstance(attr, str) or not attr:
                raise SchemaError(f"attribute names must be non-empty strings, got {attr!r}")
        object.__setattr__(self, "_values", d)
        object.__setattr__(self, "_hash", hash(frozenset(d.items())))

    # -- Mapping interface ---------------------------------------------------

    def __getitem__(self, attribute: str) -> Any:
        return self._values[attribute]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._values == other._values
        return NotImplemented

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed on
        # unpickling.  The default slotted-class pickling would carry
        # ``_hash`` across verbatim, which is wrong across processes:
        # string hashing is salted per process (PYTHONHASHSEED), so a
        # child's cached hash would break dict lookups in the parent.
        return (Row, (self._values,))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={self._values[a]!r}" for a in sorted(self._values))
        return f"Row({inner})"

    # -- scheme --------------------------------------------------------------

    @property
    def scheme(self) -> FrozenSet[str]:
        """The scheme of this tuple (``sch(t)`` in the paper)."""
        return frozenset(self._values)

    def schema(self) -> Schema:
        return Schema(self._values)

    # -- Section 1.2 operations ------------------------------------------------

    def concat(self, other: "Row") -> "Row":
        """Concatenate with a tuple on a disjoint scheme (``(t1, t2)``)."""
        overlap = self.scheme & other.scheme
        if overlap:
            raise SchemaError(f"cannot concatenate tuples sharing attributes {sorted(overlap)}")
        merged = dict(self._values)
        merged.update(other._values)
        return Row(merged)

    def pad_to(self, scheme: Schema | Iterable[str]) -> "Row":
        """Pad to a superscheme by concatenating with the null tuple.

        Section 1.2: "If t is a tuple on scheme S, we may obtain a tuple t'
        on scheme S' ⊇ S by padding, i.e. concatenating t with null_{S'-S}".
        """
        target = scheme.attributes if isinstance(scheme, Schema) else frozenset(scheme)
        missing = target - self.scheme
        extra = self.scheme - target
        if extra:
            raise SchemaError(
                f"cannot pad to a scheme missing existing attributes {sorted(extra)}"
            )
        if not missing:
            return self
        merged = dict(self._values)
        for attr in missing:
            merged[attr] = NULL
        return Row(merged)

    def project(self, attributes: Iterable[str]) -> "Row":
        """Restrict the assignment to the given attributes."""
        attrs = list(attributes)
        missing = [a for a in attrs if a not in self._values]
        if missing:
            raise SchemaError(f"cannot project on absent attributes {sorted(missing)}")
        return Row({a: self._values[a] for a in attrs})

    def is_all_null(self, attributes: Iterable[str] | None = None) -> bool:
        """True iff every listed attribute (default: all) holds null."""
        attrs = self.scheme if attributes is None else attributes
        return all(is_null(self._values[a]) for a in attrs)

    def with_value(self, attribute: str, value: Any) -> "Row":
        """A copy with one attribute re-assigned (used by generators)."""
        if attribute not in self._values:
            raise SchemaError(f"attribute {attribute!r} not in scheme")
        merged = dict(self._values)
        merged[attribute] = value
        return Row(merged)


def null_row(scheme: Schema | Iterable[str]) -> Row:
    """The null tuple ``null_S`` on the given scheme (Section 1.2)."""
    attrs = scheme.attributes if isinstance(scheme, Schema) else frozenset(scheme)
    return Row({a: NULL for a in attrs})


def concat_rows(first: Row, second: Row) -> Row:
    """Function form of :meth:`Row.concat` (reads like the paper's (t1,t2))."""
    return first.concat(second)
