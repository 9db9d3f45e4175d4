"""Hash indexes over one or more attributes of a relation.

Indexes map a key (the indexed attributes of a tuple) to the set of tuple
ids having that key.  They are the workhorse of direct CFD violation
detection (group tuples by the LHS attributes), of hash joins in the
algebra/SQL layers, and of incremental detection.

By default an index is *columnar*: buckets are keyed by tuples of integer
codes from the relation's :class:`~repro.relational.columns.ColumnStore`,
so a rebuild is a single pass of integer array reads and key comparison
never touches raw values.  ``use_columns=False`` selects the original
row-at-a-time build (value-keyed buckets) — kept as the baseline that the
columnar benchmarks and parity tests compare against.

The *value*-level API (:meth:`lookup`, :meth:`groups`, :meth:`keys`) is
unchanged and works against either representation; code-level accessors
(:meth:`key_of`, :meth:`bucket_view`, :meth:`bucket_items`) expose the
internal keys for hot paths.  An index is a snapshot: it remembers the
relation ``version`` it was built against and can report staleness;
callers decide whether to rebuild or to maintain it incrementally via
:meth:`HashIndex.add_tuple` / :meth:`HashIndex.remove_tuple`.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro import obs
from repro.relational.columns import Column
from repro.relational.relation import Relation, Tuple

_EMPTY: frozenset[int] = frozenset()


class HashIndex:
    """Hash index of a relation on a list of attributes."""

    def __init__(self, relation: Relation, attribute_names: Sequence[str],
                 use_columns: bool = True) -> None:
        self._relation = relation
        self._attribute_names = [relation.schema.canonical_name(a) for a in attribute_names]
        self._positions = relation.schema.positions(attribute_names)
        self._use_columns = use_columns
        self._columns: list[Column] = []
        self._buckets: dict[tuple[Any, ...], set[int]] = {}
        self._built_version = -1
        self.rebuild()

    # -- construction / maintenance ---------------------------------------

    def rebuild(self) -> None:
        """Re-scan the relation and rebuild all buckets."""
        if obs.enabled:
            obs.inc("cache.index.rebuild")
        buckets: dict[tuple[Any, ...], set[int]] = {}
        if self._use_columns:
            store = self._relation.columns
            self._columns = [store.column_at(p) for p in self._positions]
            arrays = [column.codes for column in self._columns]
            if len(arrays) == 1:
                codes = arrays[0]
                for tid in self._relation.tids():
                    key = (codes[tid],)
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = {tid}
                    else:
                        bucket.add(tid)
            else:
                for tid in self._relation.tids():
                    key = tuple(codes[tid] for codes in arrays)
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = {tid}
                    else:
                        bucket.add(tid)
        else:
            for row in self._relation:
                key = tuple(row.at(p) for p in self._positions)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {row.tid}
                else:
                    bucket.add(row.tid)
        self._buckets = buckets
        self._built_version = self._relation.version

    def add_tuple(self, row: Tuple) -> tuple[Any, ...]:
        """Register a newly inserted tuple; returns its internal bucket key."""
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {row.tid}
        else:
            bucket.add(row.tid)
        return key

    def remove_tuple(self, row: Tuple) -> tuple[Any, ...]:
        """Remove a tuple (by its pre-deletion values); returns its bucket key."""
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(row.tid)
            if not bucket:
                del self._buckets[key]
        return key

    def is_stale(self) -> bool:
        """Whether the underlying relation changed since the index was built."""
        return self._built_version != self._relation.version

    # -- key encoding ------------------------------------------------------

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def attribute_names(self) -> list[str]:
        return list(self._attribute_names)

    @property
    def is_columnar(self) -> bool:
        """Whether buckets are keyed by column codes (the default)."""
        return self._use_columns

    def key_of(self, row: Tuple) -> tuple[Any, ...]:
        """The *internal* bucket key of *row*: codes when columnar, else values."""
        if self._use_columns:
            return tuple(column.intern(row.at(p))
                         for column, p in zip(self._columns, self._positions))
        return tuple(row.at(p) for p in self._positions)

    def encode_key(self, key: Sequence[Any]) -> tuple[Any, ...] | None:
        """Translate a *value* key to the internal key, or ``None`` if unseen."""
        key = tuple(key)
        if not self._use_columns:
            return key
        if len(key) != len(self._columns):
            return None
        codes = []
        for column, value in zip(self._columns, key):
            code = column.code_of(value)
            if code is None:
                return None
            codes.append(code)
        return tuple(codes)

    def decode_key(self, key: tuple[Any, ...]) -> tuple[Any, ...]:
        """Translate an internal bucket key back to attribute values."""
        if not self._use_columns:
            return key
        return tuple(column.values[code] for column, code in zip(self._columns, key))

    # -- lookups -----------------------------------------------------------

    def lookup(self, key: Sequence[Any]) -> set[int]:
        """Tuple ids whose indexed attributes equal the *value* key *key*.

        Returns a fresh, caller-owned set (a copy).  Hot paths that only
        read should use :meth:`lookup_view` / :meth:`bucket_view` instead.
        """
        return set(self.lookup_view(key))

    def lookup_view(self, key: Sequence[Any]) -> set[int] | frozenset[int]:
        """Non-copying :meth:`lookup`: the internal bucket set, **read-only**.

        The returned set is live storage — it reflects later index updates
        and must not be mutated by the caller.
        """
        encoded = self.encode_key(key)
        if encoded is None:
            return _EMPTY
        return self._buckets.get(encoded, _EMPTY)

    def bucket_view(self, key: tuple[Any, ...]) -> set[int] | frozenset[int]:
        """The bucket of an *internal* key (from :meth:`key_of`), **read-only**."""
        return self._buckets.get(key, _EMPTY)

    def groups(self) -> Iterator[tuple[tuple[Any, ...], set[int]]]:
        """Iterate over ``(value key, tids)`` buckets.

        Keys are decoded to attribute values and the tid sets are copies,
        so the result is safe to keep or mutate; hot paths should iterate
        :meth:`bucket_items` instead.
        """
        for key, tids in self._buckets.items():
            yield self.decode_key(key), set(tids)

    def bucket_items(self) -> Iterator[tuple[tuple[Any, ...], set[int]]]:
        """Non-copying iteration over the raw ``(internal key, tids)`` buckets.

        Keys are code tuples when the index is columnar (NULL is
        :data:`~repro.relational.columns.NULL_CODE` in every component),
        attribute-value tuples otherwise.  The tid sets are live storage
        and must not be mutated.
        """
        return iter(self._buckets.items())

    def keys(self) -> list[tuple[Any, ...]]:
        """All distinct value keys present in the relation."""
        return [self.decode_key(key) for key in self._buckets]

    def group_count(self) -> int:
        """Number of distinct keys."""
        return len(self._buckets)

    def largest_group(self) -> tuple[tuple[Any, ...] | None, int]:
        """The value key with the most tuples and its cardinality."""
        if not self._buckets:
            return None, 0
        key = max(self._buckets, key=lambda k: len(self._buckets[k]))
        return self.decode_key(key), len(self._buckets[key])

    def __len__(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:
        return (
            f"HashIndex({self._relation.name}[{', '.join(self._attribute_names)}], "
            f"{len(self._buckets)} keys, {'columnar' if self._use_columns else 'rows'})"
        )
