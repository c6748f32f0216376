"""A minimal catalog: named tables plus their secondary structures.

The storage manager of a fabric-based system is deliberately thin (paper
Section III-A: "it only needs to maintain a single copy of each
relation's data") — the catalog reflects that: one :class:`Table` per
relation, with optional indexes registered beside it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.db.schema import TableSchema
from repro.db.table import Table
from repro.errors import SchemaError


class Catalog:
    """Name → table registry with index bookkeeping."""

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._indexes: Dict[str, Dict[str, object]] = {}
        self._stats: Dict[str, object] = {}
        #: Decode-cache hits/misses of dropped tables, so the catalog's
        #: totals (:meth:`decode_counts`) never decrease.
        self._dropped_decodes = (0, 0)

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[schema.name] = table
        self._indexes[schema.name] = {}
        return table

    def register(self, table: Table) -> Table:
        """Adopt an already-built table (bulk-loaded by a generator)."""
        if table.schema.name in self._tables:
            raise SchemaError(f"table {table.schema.name!r} already exists")
        self._tables[table.schema.name] = table
        self._indexes[table.schema.name] = {}
        return table

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise SchemaError(f"no table named {name!r}")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise SchemaError(f"no table named {name!r}")
        table = self._tables.pop(name)
        hits, misses = self._dropped_decodes
        self._dropped_decodes = (
            hits + table.decode_hits, misses + table.decode_misses
        )
        del self._indexes[name]
        self._stats.pop(name, None)

    def add_index(self, table_name: str, column: str, index: object) -> None:
        self.table(table_name)  # existence check
        self._indexes[table_name][column] = index

    def index_on(self, table_name: str, column: str) -> Optional[object]:
        return self._indexes.get(table_name, {}).get(column)

    def analyze(self, table_name: str):
        """Collect and cache statistics for one table (ANALYZE)."""
        from repro.db.stats import TableStats

        stats = TableStats.collect(self.table(table_name))
        self._stats[table_name] = stats
        return stats

    def stats_of(self, table_name: str):
        """Cached statistics, or None if the table was never analyzed or
        has changed since (statistics go stale with the data)."""
        stats = self._stats.get(table_name)
        if stats is None:
            return None
        if stats.nrows != self.table(table_name).nrows:
            return None
        return stats

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def decode_counts(self) -> Tuple[int, int]:
        """Decoded-column cache ``(hits, misses)`` summed over every table
        this catalog has held, dropped ones included."""
        hits, misses = self._dropped_decodes
        for table in self._tables.values():
            hits += table.decode_hits
            misses += table.decode_misses
        return hits, misses

    def __contains__(self, name: str) -> bool:
        return name in self._tables
