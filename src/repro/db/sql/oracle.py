"""Brute-force SQL oracle: the one independent referee of every path.

Evaluates parsed statements over plain Python dict rows — no binder, no
executors, no code shared with the engines beyond the parser, the
frozen AST dataclasses and the type declarations. Where the engines pad
CHAR values to fixed-width byte strings, the oracle keeps bare ``str``;
where the engines carry ``int32`` columns, the oracle keeps ``int``. The
value contract is exactly :meth:`repro.db.exec.result.QueryResult.rows`:
decoded strings, Python ints, Python floats. NumPy appears only at the
edges: loading a catalog's arrays and naming the dtype each output
column must carry.

The semantics are the dialect's definition of truth (:meth:`SqlOracle.dtypes`
states the type contract):

- ``SUM``/``MIN``/``MAX``/``AVG`` accumulate as floats; ``COUNT`` is an
  int. A global aggregate over zero rows yields one row with ``count=0``,
  ``sum=0.0``, ``avg=NaN``, ``min=inf``, ``max=-inf``.
- Groups emit sorted by group-key tuple; ``DISTINCT`` emits sorted by
  output tuple.
- ``ORDER BY`` is a stable multi-key sort (last key first, one stable
  pass per key) that may name FROM columns outside the select list
  (not under ``DISTINCT``); ``OFFSET`` skips before ``LIMIT`` counts.
- Joins are left-deep nested loops; merged rows let the right side win
  on column-name collisions (the fuzzer keeps names disjoint anyway).
- MVCC slot discipline: ``UPDATE`` retires the old version and appends
  the new one at the end of the scan order, in ascending matched order.

The oracle also evaluates the subquery forms the statement pipeline
folds (scalar subqueries and ``IN (SELECT ...)``), recursively, against
its own current state — matching the pipeline's fold-then-bind timing
because both see the same committed snapshot between statements.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mvcc_filter import visible_mask
from repro.db.expr import (
    And,
    Between,
    BinOp,
    ColumnRef,
    Compare,
    Expr,
    InList,
    Literal,
    Not,
    Or,
)
from repro.db.sql.nodes import (
    Aggregate,
    BeginStmt,
    CommitStmt,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    InsertStmt,
    InSubquery,
    RollbackStmt,
    ScalarSubquery,
    SelectItem,
    SelectStmt,
    Star,
    UpdateStmt,
)
from repro.db.sql.parser import parse_statement
from repro.db.types import DataType, parse_type
from repro.errors import SqlError

Row = Dict[str, Any]

_ARITH: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}
_COMPARE: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def query_dtype(dtype: DataType) -> np.dtype:
    """The dtype a column of declared type ``dtype`` has in query
    answers: CHAR(n) is ``S<n>``, DECIMAL float64, DATE its day number."""
    if dtype.np_dtype is None:
        return np.dtype(f"S{dtype.width}")
    if dtype.name.startswith("DECIMAL"):
        return np.dtype(np.float64)
    return np.dtype(dtype.np_dtype)


class OracleTable:
    """One relation: ordered column names, their declared types, and a
    list of dict rows."""

    def __init__(
        self, name: str, columns: Tuple[str, ...], types: Sequence[DataType]
    ):
        self.name = name
        self.columns = tuple(columns)
        #: Query-facing dtype per column (see :func:`query_dtype`).
        self.dtypes: Dict[str, np.dtype] = {
            c: query_dtype(t) for c, t in zip(self.columns, types)
        }
        self.rows: List[Row] = []


class SqlOracle:
    """Executes the fuzzer's SQL dialect over dict rows."""

    def __init__(self):
        self.tables: Dict[str, OracleTable] = {}
        #: Statements staged by an explicit BEGIN, applied on COMMIT.
        self._txn: Optional[List[object]] = None

    @classmethod
    def from_catalog(cls, catalog, snapshot_ts: Optional[int] = None) -> "SqlOracle":
        """Every table of ``catalog``, decoded as
        :meth:`~repro.db.exec.result.QueryResult.rows` decodes answers
        (``tolist`` already drops CHAR padding). MVCC tables keep the
        rows visible at ``snapshot_ts``; without one, every row slot."""
        oracle = cls()
        for table in catalog.tables():
            schema = table.schema
            keep = slice(None)
            if snapshot_ts is not None and schema.mvcc:
                keep = visible_mask(table.begin_ts, table.end_ts, snapshot_ts)
            columns = [
                [v.decode(errors="replace") if isinstance(v, bytes) else v
                 for v in table.column_values(name)[keep].tolist()]
                for name in schema.column_names
            ]
            oracle.load(
                schema.name,
                schema.column_names,
                (dict(zip(schema.column_names, r)) for r in zip(*columns)),
                types=[c.dtype for c in schema.user_columns],
            )
        return oracle

    # ------------------------------------------------------------------
    # Statement entry points.
    # ------------------------------------------------------------------
    def execute(self, sql: str):
        """Run one statement; SELECT returns ``(names, rows)``, DML the
        affected row count, everything else ``None``."""
        return self.apply(parse_statement(sql))

    def apply(self, stmt: object):
        if isinstance(stmt, BeginStmt):
            if self._txn is not None:
                raise SqlError("oracle: transaction already open")
            self._txn = []
            return None
        if isinstance(stmt, CommitStmt):
            staged, self._txn = self._txn, None
            if staged is None:
                raise SqlError("oracle: no transaction open")
            for s in staged:
                self._apply_now(s)
            return None
        if isinstance(stmt, RollbackStmt):
            if self._txn is None:
                raise SqlError("oracle: no transaction open")
            self._txn = None
            return None
        if self._txn is not None and isinstance(
            stmt, (InsertStmt, UpdateStmt, DeleteStmt)
        ):
            self._txn.append(stmt)
            return None
        return self._apply_now(stmt)

    def _apply_now(self, stmt: object):
        if isinstance(stmt, SelectStmt):
            return self.select(stmt)
        if isinstance(stmt, InsertStmt):
            return self._insert(stmt)
        if isinstance(stmt, UpdateStmt):
            return self._update(stmt)
        if isinstance(stmt, DeleteStmt):
            return self._delete(stmt)
        if isinstance(stmt, CreateTableStmt):
            if stmt.name in self.tables:
                raise SqlError(f"oracle: table {stmt.name!r} exists")
            self.tables[stmt.name] = OracleTable(
                stmt.name,
                tuple(name for name, _ in stmt.columns),
                [parse_type(text) for _, text in stmt.columns],
            )
            return None
        if isinstance(stmt, DropTableStmt):
            self.tables.pop(stmt.name, None)
            return None
        raise SqlError(f"oracle: unsupported statement {type(stmt).__name__}")

    def load(self, name: str, columns: Tuple[str, ...], rows, types) -> None:
        """Register a table of declared ``types`` with pre-built rows
        (non-SQL setup)."""
        table = OracleTable(name, columns, types)
        table.rows = [dict(r) for r in rows]
        self.tables[name] = table

    def check(self, sql: str, result) -> Optional[str]:
        """Referee one engine answer to the SELECT ``sql``.

        ``result`` is a :class:`~repro.db.exec.result.QueryResult`.
        Returns None when its output names, per-column dtypes and values
        (NaN equal to NaN) all match the oracle, else what differs.
        """
        stmt = parse_statement(sql)
        names, rows = self.select(stmt)
        if tuple(result.names) != names:
            return f"names {tuple(result.names)} != oracle {names}"
        for name, want in zip(names, self.dtypes(stmt)):
            got = result.columns[name].dtype
            if got != want:
                return f"column {name!r} is {got}, oracle expects {want}"
        got_rows = result.rows()
        if not rows_equal(got_rows, rows):
            return (
                f"rows {got_rows[:5]}... != oracle {rows[:5]}... "
                f"({len(got_rows)} vs {len(rows)} rows)"
            )
        return None

    # ------------------------------------------------------------------
    # DML.
    # ------------------------------------------------------------------
    def _table(self, name: str) -> OracleTable:
        try:
            return self.tables[name]
        except KeyError:
            raise SqlError(f"oracle: unknown table {name!r}")

    def _insert(self, stmt: InsertStmt) -> int:
        table = self._table(stmt.table)
        names = stmt.columns if stmt.columns is not None else table.columns
        for values in stmt.rows:
            if len(values) != len(names):
                raise SqlError("oracle: INSERT arity mismatch")
            table.rows.append(
                {n: self._eval(e, {}) for n, e in zip(names, values)}
            )
        return len(stmt.rows)

    def _update(self, stmt: UpdateStmt) -> int:
        table = self._table(stmt.table)
        matched = [
            r
            for r in table.rows
            if stmt.where is None or self._eval(stmt.where, r)
        ]
        if not matched:
            return 0
        hit = set(map(id, matched))
        table.rows = [r for r in table.rows if id(r) not in hit]
        for old in matched:
            # All assignments see the pre-update row, then the new version
            # lands at the end of scan order (the MVCC slot discipline).
            new = dict(old)
            new.update(
                {name: self._eval(expr, old) for name, expr in stmt.assignments}
            )
            table.rows.append(new)
        return len(matched)

    def _delete(self, stmt: DeleteStmt) -> int:
        table = self._table(stmt.table)
        keep = [
            r
            for r in table.rows
            if not (stmt.where is None or self._eval(stmt.where, r))
        ]
        removed = len(table.rows) - len(keep)
        table.rows = keep
        return removed

    # ------------------------------------------------------------------
    # SELECT.
    # ------------------------------------------------------------------
    def select(self, stmt: SelectStmt) -> Tuple[Tuple[str, ...], List[Tuple]]:
        table = self._table(stmt.table)
        items = self._items(stmt)
        rows: List[Row] = [dict(r) for r in table.rows]
        for clause in stmt.joins:
            right = self._table(clause.table)
            joined: List[Row] = []
            for lrow in rows:
                for rrow in right.rows:
                    if lrow[clause.left_col] == rrow[clause.right_col]:
                        merged = dict(lrow)
                        merged.update(rrow)
                        joined.append(merged)
            rows = joined
        if stmt.where is not None:
            rows = [r for r in rows if self._eval(stmt.where, r)]

        names = tuple(self._output_name(item, pos) for pos, item in enumerate(items))

        if stmt.group_by or any(isinstance(i.expr, Aggregate) for i in items):
            out_rows = self._aggregate(items, names, stmt.group_by, rows)
        else:
            # ORDER BY may name FROM columns outside the select list:
            # each output row carries its source row underneath (outputs
            # shadow same-named columns). DISTINCT rows cannot.
            carry = bool(stmt.order_by) and not stmt.distinct
            out_rows = [
                {
                    **(r if carry else {}),
                    **{n: self._eval(item.expr, r) for n, item in zip(names, items)},
                }
                for r in rows
            ]

        if stmt.having is not None:
            out_rows = [r for r in out_rows if self._eval(stmt.having, r)]
        if stmt.distinct:
            seen: Dict[Tuple, Row] = {}
            for r in out_rows:
                seen.setdefault(tuple(r[n] for n in names), r)
            out_rows = [seen[k] for k in sorted(seen)]
        for item in reversed(stmt.order_by):
            out_rows.sort(
                key=lambda r: self._eval(item.expr, r),
                reverse=item.descending,
            )
        offset = stmt.offset or 0
        if stmt.limit is not None or offset:
            stop = None if stmt.limit is None else offset + stmt.limit
            out_rows = out_rows[offset:stop]
        return names, [tuple(r[n] for n in names) for r in out_rows]

    def _items(self, stmt: SelectStmt) -> Tuple[SelectItem, ...]:
        """The select list with ``*`` expanded to the table's columns."""
        if len(stmt.items) == 1 and isinstance(stmt.items[0].expr, Star):
            columns = self._table(stmt.table).columns
            return tuple(SelectItem(expr=ColumnRef(name)) for name in columns)
        return stmt.items

    def dtypes(self, stmt: SelectStmt) -> Tuple[np.dtype, ...]:
        """The dtype each output column of ``stmt`` must carry, from the
        AST and the declared column types alone (so zero-row answers
        are pinned too): ``count`` is int64, the other aggregates
        float64; a bare column keeps its query-facing dtype (CHAR(n) is
        ``S<n>``, DECIMAL float64); ``/`` of integers is float64, and
        other arithmetic follows NumPy 2 promotion, in which a Python
        scalar (a literal or a folded scalar subquery) is weak: an int
        takes the dtype of the column it meets."""
        scope = dict(self._table(stmt.table).dtypes)
        for clause in stmt.joins:
            scope.update(self._table(clause.table).dtypes)
        out = []
        for item in self._items(stmt):
            if isinstance(item.expr, Aggregate):
                out.append(np.dtype(np.int64 if item.expr.func == "count" else np.float64))
            else:
                typed = self._expr_type(item.expr, scope)
                out.append(typed if isinstance(typed, np.dtype) else np.asarray(typed).dtype)
        return tuple(out)

    def _expr_type(self, expr: Expr, scope: Dict[str, np.dtype]):
        """A column-backed expression's dtype, or the Python scalar a
        column-free one evaluates to (NumPy 2 treats it as weak)."""
        if isinstance(expr, ColumnRef):
            try:
                return scope[expr.name]
            except KeyError:
                raise SqlError(f"oracle: no column {expr.name!r} in scope")
        if isinstance(expr, (Literal, ScalarSubquery)):
            return self._eval(expr, {})
        if not isinstance(expr, BinOp):
            raise SqlError(f"oracle: cannot type {type(expr).__name__}")
        left = self._expr_type(expr.left, scope)
        right = self._expr_type(expr.right, scope)
        if not isinstance(left, np.dtype) and not isinstance(right, np.dtype):
            return _ARITH[expr.op](left, right)
        dtype = np.result_type(left, right)
        return np.dtype(np.float64) if expr.op == "/" and dtype.kind in "iub" else dtype

    @staticmethod
    def _output_name(item: SelectItem, pos: int) -> str:
        if item.alias:
            return item.alias
        expr = item.expr
        if isinstance(expr, Aggregate):
            return f"{expr.func}_{pos}"
        if isinstance(expr, ColumnRef):
            return expr.name
        return f"col{pos}"

    def _aggregate(
        self,
        items: Tuple[SelectItem, ...],
        names: Tuple[str, ...],
        group_by: Tuple[str, ...],
        rows: List[Row],
    ) -> List[Row]:
        groups: Dict[Tuple, List[Row]] = {}
        for r in rows:
            groups.setdefault(tuple(r[g] for g in group_by), []).append(r)
        if not groups and not group_by:
            groups[()] = []
        out: List[Row] = []
        for key in sorted(groups):
            grp = groups[key]
            row: Row = {}
            for name, item in zip(names, items):
                expr = item.expr
                if isinstance(expr, Aggregate):
                    row[name] = self._agg_value(expr, grp)
                else:
                    if not isinstance(expr, ColumnRef) or expr.name not in group_by:
                        raise SqlError(
                            f"oracle: output {name!r} is neither aggregated "
                            f"nor a group key"
                        )
                    row[name] = key[group_by.index(expr.name)]
            out.append(row)
        return out

    def _agg_value(self, agg: Aggregate, grp: List[Row]):
        if agg.func == "count":
            return len(grp)
        vals = [float(self._eval(agg.arg, r)) for r in grp]
        acc = 0.0
        for v in vals:
            acc += v
        if agg.func == "sum":
            return acc
        if agg.func == "avg":
            return acc / len(vals) if vals else float("nan")
        if agg.func == "min":
            return min(vals) if vals else float("inf")
        if agg.func == "max":
            return max(vals) if vals else float("-inf")
        raise SqlError(f"oracle: unknown aggregate {agg.func!r}")

    # ------------------------------------------------------------------
    # Expression evaluation (with recursive subqueries).
    # ------------------------------------------------------------------
    def _eval(self, expr: Expr, row: Row):
        if isinstance(expr, ColumnRef):
            try:
                return row[expr.name]
            except KeyError:
                raise SqlError(f"oracle: row has no column {expr.name!r}")
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ScalarSubquery):
            return self._scalar_subquery(expr.select)
        if isinstance(expr, InSubquery):
            v = self._eval(expr.term, row)
            _, rows = self.select(expr.select)
            return any(v == r[0] for r in rows)
        if isinstance(expr, BinOp):
            return _ARITH[expr.op](
                self._eval(expr.left, row), self._eval(expr.right, row)
            )
        if isinstance(expr, Compare):
            return _COMPARE[expr.op](
                self._eval(expr.left, row), self._eval(expr.right, row)
            )
        if isinstance(expr, And):
            return all(self._eval(t, row) for t in expr.terms)
        if isinstance(expr, Or):
            return any(self._eval(t, row) for t in expr.terms)
        if isinstance(expr, Not):
            return not self._eval(expr.term, row)
        if isinstance(expr, Between):
            v = self._eval(expr.term, row)
            return (
                self._eval(expr.low, row) <= v <= self._eval(expr.high, row)
            )
        if isinstance(expr, InList):
            v = self._eval(expr.term, row)
            return any(v == x for x in expr.values)
        raise SqlError(f"oracle: unknown expression {type(expr).__name__}")

    def _scalar_subquery(self, select: SelectStmt):
        names, rows = self.select(select)
        if len(names) != 1 or len(rows) != 1:
            raise SqlError(
                f"oracle: scalar subquery returned {len(rows)} rows x "
                f"{len(names)} columns"
            )
        return rows[0][0]


def values_equal(a, b) -> bool:
    """Exact equality, except that NaN equals NaN."""
    if (
        isinstance(a, float)
        and isinstance(b, float)
        and math.isnan(a)
        and math.isnan(b)
    ):
        return True
    return a == b


def rows_equal(a: Sequence[Tuple], b: Sequence[Tuple]) -> bool:
    """Row lists equal in order and value (see :func:`values_equal`)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        if not all(values_equal(x, y) for x, y in zip(ra, rb)):
            return False
    return True
