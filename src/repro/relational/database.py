"""The Database object: schema + tables + indexes + statistics.

A database owns its tables, enforces foreign keys on demand, builds and
caches secondary indexes and prepared plans, and exposes the statistics
catalog.  Everything downstream (graph builders, XML view, qunit
derivation) starts from here.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping
from typing import TypeVar

from repro.errors import IntegrityError, UnknownTableError
from repro.relational.algebra import Plan
from repro.relational.catalog import StatisticsCatalog
from repro.relational.indexes import HashIndex, TextIndex
from repro.relational.schema import Schema, TableSchema
from repro.relational.sql import compile_select, parse_select
from repro.relational.table import Table

__all__ = ["Database"]

#: Entries each plan cache holds at most; past it, results are computed
#: and not kept, so ad-hoc SQL cannot grow a long-lived database.
CACHE_LIMIT = 1024

_T = TypeVar("_T")


class Database:
    """A collection of tables conforming to a :class:`Schema`."""

    def __init__(self, schema: Schema, name: str = "db"):
        self.name = name
        self.schema = schema
        self._tables: dict[str, Table] = {
            table.name: Table(table) for table in schema.tables
        }
        self._hash_indexes: dict[tuple[str, str], HashIndex] = {}
        # Data-dependent executor state keyed ``(table, ...)``; see memo().
        self._memo: dict[tuple, object] = {}
        # Compiled plans by SQL text: they depend on the schema only.
        self._prepared: dict[str, Plan] = {}
        self._text_index: TextIndex | None = None
        self.statistics = StatisticsCatalog(self)

    # -- data ---------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name, tuple(self._tables)) from None

    def insert(self, table_name: str, values: Mapping[str, object]) -> int:
        """Insert one row; invalidates cached statistics and indexes."""
        row_id = self.table(table_name).insert(values)
        self._invalidate(table_name)
        return row_id

    def insert_many(self, table_name: str, rows: Iterable[Mapping[str, object]]) -> int:
        """Insert many rows; returns the number inserted.  Caches are
        invalidated even when a row fails part-way (the earlier rows stay)."""
        table = self.table(table_name)
        count = 0
        try:
            for values in rows:
                table.insert(values)
                count += 1
        finally:
            if count:
                self._invalidate(table_name)
        return count

    def _invalidate(self, table_name: str) -> None:
        """Drop everything derived from ``table_name``'s rows.  Caches are
        rebound, not cleared, so a reader still filling the old dict
        publishes into the discarded one."""
        self.statistics.invalidate(table_name)
        self._hash_indexes = {
            key: index for key, index in self._hash_indexes.items()
            if key[0] != table_name
        }
        self._memo = {
            key: value for key, value in self._memo.items()
            if key[0] != table_name
        }
        self._text_index = None

    def row_count(self, table_name: str) -> int:
        return len(self.table(table_name))

    def total_rows(self) -> int:
        return sum(len(table) for table in self._tables.values())

    # -- integrity ----------------------------------------------------------

    def check_foreign_keys(self) -> list[str]:
        """Return a list of violation messages (empty = consistent)."""
        violations: list[str] = []
        for table_schema in self.schema.tables:
            table = self.table(table_schema.name)
            for fk in table_schema.foreign_keys:
                target = self.table(fk.ref_table)
                if target.schema.primary_key == fk.ref_column:
                    exists = target.by_primary_key
                else:
                    referenced = set(target.column_values(fk.ref_column))
                    exists = lambda key, _ref=referenced: key in _ref  # noqa: E731
                for row_id, row in enumerate(table):
                    key = row[fk.column]
                    if key is None:
                        continue
                    if not exists(key):
                        violations.append(
                            f"{table_schema.name}[{row_id}].{fk.column}={key!r} "
                            f"has no match in {fk.ref_table}.{fk.ref_column}"
                        )
        return violations

    def assert_consistent(self) -> None:
        violations = self.check_foreign_keys()
        if violations:
            preview = "; ".join(violations[:5])
            raise IntegrityError(
                f"{len(violations)} foreign-key violations (first: {preview})"
            )

    # -- indexes ------------------------------------------------------------

    def hash_index(self, table_name: str, column: str) -> HashIndex:
        """Build (or fetch cached) a hash index on ``table.column``."""
        key = (table_name, column)
        indexes = self._hash_indexes
        index = indexes.get(key)
        if index is None:
            index = indexes[key] = HashIndex(self.table(table_name), column)
        return index

    def memo(self, key: tuple[Hashable, ...], build: Callable[[], _T]) -> _T:
        """The executor's per-database-state cache: the value stored under
        ``key`` (whose first item names the table it reads), else
        ``build()``, published once complete.

        Keys are plan fragments by value, never object ids.  An insert
        into ``key[0]`` drops the entry.  Concurrent callers may both
        build; either result is correct.  An unhashable key (a literal
        holding a list) is built and not kept.
        """
        memo = self._memo
        try:
            value = memo.get(key)
        except TypeError:
            return build()
        if value is None:
            value = build()
            if len(memo) < CACHE_LIMIT:
                memo[key] = value
        return value  # type: ignore[return-value]

    def prepare(self, sql: str) -> Plan:
        """Parse and compile ``sql`` once; later calls return the same
        plan.  Compilation reads only the schema, which never changes, so
        prepared plans are never invalidated."""
        plan = self._prepared.get(sql)
        if plan is None:
            plan = compile_select(parse_select(sql), self)
            if len(self._prepared) < CACHE_LIMIT:
                self._prepared[sql] = plan
        return plan

    def text_index(self) -> TextIndex:
        """Build (or fetch cached) the inverted index over searchable text."""
        if self._text_index is None:
            index = TextIndex()
            for table in self._tables.values():
                if table.schema.searchable_columns():
                    index.add_table(table)
            self._text_index = index
        return self._text_index

    # -- convenience --------------------------------------------------------

    def lookup(self, table_name: str, column: str, value: object) -> list[dict[str, object]]:
        """Indexed equality lookup returning full rows."""
        index = self.hash_index(table_name, column)
        table = self.table(table_name)
        return [dict(table.row(row_id)) for row_id in index.lookup(value)]

    def table_schema(self, name: str) -> TableSchema:
        return self.schema.table(name)

    def __repr__(self) -> str:
        return (
            f"Database({self.name!r}, {len(self._tables)} tables, "
            f"{self.total_rows()} rows)"
        )
