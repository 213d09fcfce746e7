"""Relations as bags of rows, plus the database of ground relations.

The paper defines a relation as a finite *set* of tuples (Section 1.2) but
deliberately proves its identities algebraically so that they remain valid
"in an environment where duplicates are permitted" (Section 2).  We honor
that by making the bag (multiset) the primary representation; set semantics
is available through :meth:`Relation.distinct` and is required by the
generalized-outerjoin identities of Section 6.2, which the paper states
under a duplicate-free assumption.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from typing import Any, Dict, Tuple

from repro.algebra.schema import Schema, SchemaRegistry
from repro.algebra.tuples import Row
from repro.util.errors import SchemaError


class Relation:
    """An immutable bag of rows over a fixed scheme."""

    __slots__ = ("_schema", "_bag")

    def __init__(self, schema: Schema | Iterable[str], rows: Iterable[Row] = ()):
        self._schema = schema if isinstance(schema, Schema) else Schema(schema)
        bag: Counter[Row] = Counter()
        for row in rows:
            self._check_row(row)
            bag[row] += 1
        self._bag = bag

    @classmethod
    def from_counts(cls, schema: Schema | Iterable[str], counts: Mapping[Row, int]) -> "Relation":
        """Build directly from row multiplicities (internal fast path)."""
        rel = cls(schema)
        for row, n in counts.items():
            if n < 0:
                raise SchemaError(f"negative multiplicity {n} for {row!r}")
            if n:
                rel._check_row(row)
                rel._bag[row] = n
        return rel

    @classmethod
    def adopt(cls, schema: Schema, bag: Counter[Row]) -> "Relation":
        """Take ownership of a bag whose rows the caller has already checked
        against ``schema`` (no copy, no per-row check)."""
        rel = cls(schema)
        rel._bag = bag
        return rel

    @classmethod
    def from_dicts(
        cls, schema: Schema | Iterable[str], dicts: Iterable[Mapping[str, Any]]
    ) -> "Relation":
        """Convenience constructor from plain dictionaries."""
        return cls(schema, (Row(d) for d in dicts))

    def _check_row(self, row: Row) -> None:
        if row.scheme != self._schema.attributes:
            raise SchemaError(
                f"row scheme {sorted(row.scheme)} does not match relation scheme "
                f"{sorted(self._schema.attributes)}"
            )

    # -- basic accessors ---------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def scheme(self) -> frozenset[str]:
        """``sch(R)`` as a plain frozenset."""
        return self._schema.attributes

    def counts(self) -> Mapping[Row, int]:
        """Row -> multiplicity view (do not mutate)."""
        return self._bag

    def __iter__(self) -> Iterator[Row]:
        """Iterate rows with multiplicity (a row of count 3 appears 3 times)."""
        for row, n in self._bag.items():
            for _ in range(n):
                yield row

    def distinct_rows(self) -> Iterator[Row]:
        """Iterate each distinct row once."""
        return iter(self._bag)

    def __len__(self) -> int:
        """Bag cardinality (with duplicates)."""
        return sum(self._bag.values())

    def distinct_count(self) -> int:
        return len(self._bag)

    def multiplicity(self, row: Row) -> int:
        return self._bag.get(row, 0)

    def __contains__(self, row: object) -> bool:
        return isinstance(row, Row) and row in self._bag

    def is_empty(self) -> bool:
        return not self._bag

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Bag equality on identical schemes.

        For the paper's padding-based comparison convention (compare after
        padding to the union scheme) use :func:`repro.algebra.comparison.bag_equal`.
        """
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self._bag == other._bag

    def __hash__(self) -> int:
        return hash((self._schema, frozenset(self._bag.items())))

    def __repr__(self) -> str:
        shown = ", ".join(repr(r) for r in list(self)[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"Relation({sorted(self.scheme)}, [{shown}{suffix}], n={len(self)})"

    # -- derived relations ----------------------------------------------------

    def distinct(self) -> "Relation":
        """Duplicate elimination (set semantics)."""
        return Relation.from_counts(self._schema, {row: 1 for row in self._bag})

    def is_duplicate_free(self) -> bool:
        return all(n == 1 for n in self._bag.values())

    def pad_to(self, schema: Schema | Iterable[str]) -> "Relation":
        """Pad every row to a superscheme (Section 2.1 union convention)."""
        target = schema if isinstance(schema, Schema) else Schema(schema)
        if target == self._schema:
            return self
        out: Counter[Row] = Counter()
        for row, n in self._bag.items():
            out[row.pad_to(target)] += n
        return Relation.from_counts(target, out)

    def map_rows(self, fn) -> "Relation":
        """Apply ``fn`` to each distinct row; multiplicities carry over.

        The function must return rows on a common scheme; used by renaming
        and by the object-store flattening in the Section-5 front end.
        """
        pairs = [(fn(row), n) for row, n in self._bag.items()]
        if not pairs:
            return Relation(self._schema)
        schema = Schema(pairs[0][0].scheme)
        out: Counter[Row] = Counter()
        for row, n in pairs:
            out[row] += n
        return Relation.from_counts(schema, out)

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename attributes; unlisted attributes keep their names.

        Supports the paper's "several copies of the same relation with
        renamed attributes can be used" provision (Section 1.2).
        """
        missing = set(mapping) - set(self.scheme)
        if missing:
            raise SchemaError(f"cannot rename absent attributes {sorted(missing)}")
        new_names = [mapping.get(a, a) for a in self.scheme]
        if len(set(new_names)) != len(new_names):
            raise SchemaError("renaming would collapse two attributes into one")

        def ren(row: Row) -> Row:
            return Row({mapping.get(a, a): v for a, v in row.items()})

        out: Counter[Row] = Counter()
        for row, n in self._bag.items():
            out[ren(row)] += n
        return Relation.from_counts(Schema(new_names), out)


class Database(Mapping[str, Relation]):
    """A set of ground relations with mutually disjoint schemes.

    The evaluation context for query expressions: ``eval`` resolves each
    relation variable (leaf of the implementing tree) against this mapping.
    A :class:`SchemaRegistry` is maintained so that graph construction can
    resolve attribute ownership.
    """

    def __init__(self, relations: Mapping[str, Relation] | None = None):
        self._relations: Dict[str, Relation] = {}
        self._registry = SchemaRegistry()
        if relations:
            for name, rel in relations.items():
                self.add(name, rel)

    def add(self, name: str, relation: Relation) -> None:
        self._registry.register(name, relation.schema)
        self._relations[name] = relation

    @property
    def registry(self) -> SchemaRegistry:
        return self._registry

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown ground relation {name!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def __contains__(self, name: object) -> bool:
        # Mapping.__contains__ expects KeyError from __getitem__; ours raises
        # SchemaError, so answer membership directly.
        return name in self._relations

    def with_relation(self, name: str, relation: Relation) -> "Database":
        """A copy of this database with one relation replaced or added."""
        out = Database()
        for n, r in self._relations.items():
            if n != name:
                out.add(n, r)
        out.add(name, relation)
        return out

    def relations(self) -> Tuple[str, ...]:
        return tuple(self._relations)
