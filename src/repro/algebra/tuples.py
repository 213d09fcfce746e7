"""Tuples (rows), concatenation, padding, and projection.

Implements the tuple-level definitions of Section 1.2:

* a *tuple on scheme S* assigns a value to every attribute of ``S``;
* a *null tuple* assigns the null value to every attribute;
* tuples on disjoint schemes can be *concatenated*;
* a tuple on ``S`` can be *padded* to a superscheme ``S'`` by concatenating
  it with ``null_{S'-S}``.

The class is named :class:`Row` to avoid clashing with ``typing.Tuple``.
Rows are immutable and hashable so relations can be bags (multisets) keyed
by row.  A row is its value tuple on the one :class:`Layout` of its sorted
attributes, and two rows are equal when both of those are (as assignments).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any, Dict, FrozenSet, List, Tuple

from repro.algebra.nulls import NULL, is_null
from repro.algebra.schema import Schema
from repro.util.errors import SchemaError


class Layout:
    """The sorted attributes of every row on one scheme, and their positions."""

    __slots__ = ("attrs", "pos")

    def __init__(self, attrs: Tuple[str, ...]):
        if any(a >= b for a, b in zip(attrs, attrs[1:])):
            raise SchemaError(f"a layout's attributes must be sorted and distinct: {attrs}")
        self.attrs = attrs
        self.pos: Dict[str, int] = {a: i for i, a in enumerate(attrs)}


#: One layout (under 1 KB) per scheme of a table or of an intermediate.
_LAYOUTS: Dict[Tuple[str, ...], Layout] = {}


def layout_of(attrs: Tuple[str, ...]) -> Layout:
    """The interned layout of a *sorted* attribute tuple (unsorted ones
    raise, so two rows on one scheme always share one layout)."""
    # setdefault is one atomic step: threads that miss together get one layout.
    return _LAYOUTS.get(attrs) or _LAYOUTS.setdefault(attrs, Layout(attrs))


class Row(Mapping[str, Any]):
    """An immutable tuple: an assignment of values to attribute names."""

    __slots__ = ("_layout", "_vals", "_hash")

    def __init__(self, values: Mapping[str, Any] | Iterable[tuple[str, Any]]):
        d: Dict[str, Any] = dict(values)
        for attr in d:
            if not isinstance(attr, str) or not attr:
                raise SchemaError(f"attribute names must be non-empty strings, got {attr!r}")
        attrs = tuple(sorted(d))
        self._layout = layout_of(attrs)
        self._vals = tuple(map(d.__getitem__, attrs))
        self._hash = hash(self._vals)

    # -- Mapping interface ---------------------------------------------------

    def __getitem__(self, attribute: str) -> Any:
        return self._vals[self._layout.pos[attribute]]

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._layout.pos

    def __iter__(self) -> Iterator[str]:
        return iter(self._layout.attrs)

    def __len__(self) -> int:
        return len(self._vals)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._layout is other._layout and self._vals == other._vals
        return NotImplemented

    def __reduce__(self):
        # Rebuild through __init__: the cached hash is salted per process
        # (PYTHONHASHSEED, NULL's address), so it is recomputed on unpickling.
        return (Row, (dict(zip(self._layout.attrs, self._vals)),))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={v!r}" for a, v in zip(self._layout.attrs, self._vals))
        return f"Row({inner})"

    # -- scheme --------------------------------------------------------------

    @property
    def scheme(self) -> FrozenSet[str]:
        """The scheme of this tuple (``sch(t)`` in the paper)."""
        return frozenset(self._layout.attrs)

    def schema(self) -> Schema:
        return Schema(self._layout.attrs)

    # -- Section 1.2 operations ------------------------------------------------

    def concat(self, other: "Row") -> "Row":
        """Concatenate with a tuple on a disjoint scheme (``(t1, t2)``)."""
        left, right = self._layout.attrs, other._layout.attrs
        if not left or not right or left[-1] < right[0]:
            attrs, vals = left + right, self._vals + other._vals
        elif right[-1] < left[0]:
            attrs, vals = right + left, other._vals + self._vals
        else:
            overlap = self._layout.pos.keys() & other._layout.pos.keys()
            if overlap:
                raise SchemaError(f"cannot concatenate tuples sharing attributes {sorted(overlap)}")
            # Two sorted runs of distinct names: one merge, values never compared.
            attrs, vals = zip(*sorted(zip(left + right, self._vals + other._vals)))
        return row_of(layout_of(attrs), vals)

    def pad_to(self, scheme: Schema | Iterable[str]) -> "Row":
        """Pad to a superscheme by concatenating with the null tuple.

        Section 1.2: "If t is a tuple on scheme S, we may obtain a tuple t'
        on scheme S' ⊇ S by padding, i.e. concatenating t with null_{S'-S}".
        """
        target = scheme.attributes if isinstance(scheme, Schema) else frozenset(scheme)
        pos = self._layout.pos
        extra = pos.keys() - target
        if extra:
            raise SchemaError(
                f"cannot pad to a scheme missing existing attributes {sorted(extra)}"
            )
        if len(target) == len(pos):
            return self
        layout = layout_of(tuple(sorted(target)))
        return row_of(layout, tuple(self._vals[pos[a]] if a in pos else NULL for a in layout.attrs))

    def project(self, attributes: Iterable[str]) -> "Row":
        """Restrict the assignment to the given attributes."""
        pos = self._layout.pos
        attrs = set(attributes)
        missing = attrs - pos.keys()
        if missing:
            raise SchemaError(f"cannot project on absent attributes {sorted(missing)}")
        layout = layout_of(tuple(sorted(attrs)))
        return row_of(layout, tuple(self._vals[pos[a]] for a in layout.attrs))

    def is_all_null(self, attributes: Iterable[str] | None = None) -> bool:
        """True iff every listed attribute (default: all) holds null."""
        attrs = self._layout.attrs if attributes is None else attributes
        return all(is_null(self[a]) for a in attrs)

    def with_value(self, attribute: str, value: Any) -> "Row":
        """A copy with one attribute re-assigned (used by generators)."""
        i = self._layout.pos.get(attribute)
        if i is None:
            raise SchemaError(f"attribute {attribute!r} not in scheme")
        return row_of(self._layout, self._vals[:i] + (value,) + self._vals[i + 1 :])


def row_of(layout: Layout, values: Tuple[Any, ...]) -> Row:
    """The Row assigning ``values`` to ``layout.attrs`` pairwise: the one
    unvalidated constructor.  It adopts ``values`` (no copy) and checks
    neither names nor length; the rows hash and compare like any other."""
    row = Row.__new__(Row)
    row._layout = layout
    row._vals = values
    row._hash = hash(values)
    return row


def columns_of(rows: Sequence[Row], attrs: Tuple[str, ...]) -> Dict[str, List[Any]]:
    """Attribute -> value list over ``rows``, for the *sorted* ``attrs``.

    One C-level transpose when every row is on the layout of ``attrs``;
    otherwise (rows on a wider scheme) one lookup per cell.
    """
    layout = layout_of(attrs)
    if rows and all(r._layout is layout for r in rows):
        return dict(zip(attrs, map(list, zip(*[r._vals for r in rows]))))
    return {a: [r[a] for r in rows] for a in attrs}


def null_row(scheme: Schema | Iterable[str]) -> Row:
    """The null tuple ``null_S`` on the given scheme (Section 1.2)."""
    attrs = tuple(scheme if isinstance(scheme, Schema) else Schema(scheme))
    return row_of(layout_of(attrs), (NULL,) * len(attrs))


def concat_rows(first: Row, second: Row) -> Row:
    """Function form of :meth:`Row.concat` (reads like the paper's (t1,t2))."""
    return first.concat(second)
