"""The dict-row SQL oracle as the one referee of every answer path.

Covers what the oracle must know to referee the engines on its own:
loading a catalog (every column type), the dtype each output column
must carry (zero-row answers, CHAR width, folded scalar subqueries), and
ORDER BY keys outside the select list. MVCC snapshots are refereed in
``tests/test_vector_exec.py::TestEngineTraceBitIdentity``.
"""

import datetime

import numpy as np
import pytest

from repro.db import Catalog, Column, TableSchema
from repro.db.engines import all_engines
from repro.db.exec import QueryResult
from repro.db.sql.oracle import SqlOracle
from repro.db.sql.parser import parse_statement
from repro.db.sql.pipeline import Session
from repro.db.types import CHAR, DATE, DECIMAL, INT32, INT64


def assert_refereed(oracle, sql, result):
    problem = oracle.check(sql, result)
    assert problem is None, f"{sql}: {problem}"


@pytest.fixture
def typed_catalog():
    """One column of every query-facing type, CHAR values shorter than
    their declared width."""
    catalog = Catalog()
    table = catalog.create_table(
        TableSchema(
            "typed",
            [
                Column("i32", INT32),
                Column("i64", INT64),
                Column("price", DECIMAL(2)),
                Column("tag", CHAR(8)),
                Column("shipped", DATE),
            ],
        )
    )
    table.append_rows(
        [
            {"i32": 3, "i64": 30, "price": 1.25, "tag": "oak",
             "shipped": datetime.date(1994, 1, 2)},
            {"i32": -1, "i64": 10, "price": 9.5, "tag": "birch",
             "shipped": datetime.date(1970, 1, 1)},
            {"i32": 7, "i64": 20, "price": 0.01, "tag": "elm",
             "shipped": datetime.date(1998, 12, 31)},
        ]
    )
    return catalog


# ----------------------------------------------------------------------
# Loading a catalog.
# ----------------------------------------------------------------------
class TestFromCatalog:
    def test_decodes_every_type_like_query_results(self, typed_catalog):
        oracle = SqlOracle.from_catalog(typed_catalog)
        table = oracle.tables["typed"]
        assert table.columns == ("i32", "i64", "price", "tag", "shipped")
        assert table.rows[0] == {
            "i32": 3, "i64": 30, "price": 1.25, "tag": "oak", "shipped": 8767,
        }
        assert [type(v) for v in table.rows[1].values()] == [
            int, int, float, str, int,
        ]
        assert table.dtypes == {
            "i32": np.dtype(np.int32),
            "i64": np.dtype(np.int64),
            "price": np.dtype(np.float64),
            "tag": np.dtype("S8"),
            "shipped": np.dtype(np.int32),
        }

    def test_engines_match_over_every_type(self, typed_catalog):
        oracle = SqlOracle.from_catalog(typed_catalog)
        for sql in (
            "SELECT * FROM typed ORDER BY i32",
            "SELECT tag, price * i32 AS p, shipped + 1 AS d FROM typed "
            "WHERE tag <> 'elm' ORDER BY shipped DESC",
            "SELECT tag, sum(price) AS s, count(*) AS n FROM typed GROUP BY tag",
        ):
            for engine in all_engines(typed_catalog).values():
                assert_refereed(oracle, sql, engine.execute(sql).result)


# ----------------------------------------------------------------------
# The dtype rule.
# ----------------------------------------------------------------------
def _session_and_oracle():
    session, oracle = Session(), SqlOracle()
    for sql in (
        "CREATE TABLE t (id INT64, v INT32, tag CHAR(8))",
        "INSERT INTO t (id, v, tag) VALUES (1, 10, 'oak'), (2, 20, 'elm'), "
        "(3, 30, 'oak')",
    ):
        session.execute(sql)
        oracle.execute(sql)
    return session, oracle


class TestDtypeRule:
    @pytest.mark.parametrize("where", ["", " WHERE v > 1000"])
    @pytest.mark.parametrize(
        "items, expected",
        [
            ("v, id, tag", ("int32", "int64", "S8")),
            ("v + 1 AS a, v * id AS b, v / 2 AS c, v * 1.5 AS d",
             ("int32", "int64", "float64", "float64")),
            ("1 + 2 AS a, 7 / 2 AS b, 2.5 AS c", ("int64", "float64", "float64")),
        ],
    )
    def test_projections_with_and_without_rows(self, items, expected, where):
        session, oracle = _session_and_oracle()
        sql = f"SELECT {items} FROM t{where}"
        result = session.execute(sql).result
        assert oracle.dtypes(parse_statement(sql)) == tuple(map(np.dtype, expected))
        assert_refereed(oracle, sql, result)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT count(*) AS n, sum(v) AS s, avg(v) AS a, min(id) AS lo, "
            "max(v) AS hi FROM t WHERE v > 1000",
            "SELECT tag, count(*) AS n FROM t WHERE v > 1000 GROUP BY tag",
            "SELECT DISTINCT tag, v FROM t WHERE v > 1000",
            "SELECT tag FROM t WHERE v > 1000 ORDER BY id LIMIT 2",
        ],
    )
    def test_zero_row_answers(self, sql):
        session, oracle = _session_and_oracle()
        assert_refereed(oracle, sql, session.execute(sql).result)

    def test_short_char_values_keep_declared_width(self):
        session, oracle = _session_and_oracle()
        sql = "SELECT DISTINCT tag FROM t ORDER BY tag"
        result = session.execute(sql).result
        assert result.columns["tag"].dtype == np.dtype("S8")
        assert_refereed(oracle, sql, result)

    @pytest.mark.parametrize("where", ["", " WHERE v > 1000"])
    def test_folded_scalar_subqueries(self, where):
        session, oracle = _session_and_oracle()
        sql = (
            "SELECT (SELECT count(*) FROM t) AS a, (SELECT max(v) FROM t) AS b, "
            "v + (SELECT count(*) FROM t) AS c, (SELECT v FROM t WHERE id = 1) AS d "
            f"FROM t{where}"
        )
        result = session.execute(sql).result
        # A folded subquery is a Python scalar, typed like a literal.
        assert oracle.dtypes(parse_statement(sql)) == tuple(
            map(np.dtype, ("int64", "float64", "int32", "int64"))
        )
        assert_refereed(oracle, sql, result)

    def test_check_flags_a_narrowed_char_column(self):
        _, oracle = _session_and_oracle()
        sql = "SELECT tag FROM t WHERE id = 1"
        narrowed = QueryResult(
            names=("tag",), columns={"tag": np.array([b"oak"], dtype="S3")}
        )
        assert "S8" in oracle.check(sql, narrowed)

    def test_check_flags_a_float_count_over_zero_rows(self):
        _, oracle = _session_and_oracle()
        sql = "SELECT tag, count(*) AS n FROM t WHERE v > 1000 GROUP BY tag"
        wrong = QueryResult(
            names=("tag", "n"),
            columns={"tag": np.empty(0, "S8"), "n": np.empty(0, np.float64)},
        )
        assert "int64" in oracle.check(sql, wrong)


# ----------------------------------------------------------------------
# ORDER BY keys outside the select list.
# ----------------------------------------------------------------------
class TestHiddenOrderKeys:
    def test_orders_by_unselected_columns(self):
        session, oracle = _session_and_oracle()
        sql = "SELECT tag FROM t ORDER BY v DESC"
        names, rows = oracle.execute(sql)
        assert names == ("tag",)
        assert rows == [("oak",), ("elm",), ("oak",)]
        assert_refereed(oracle, sql, session.execute(sql).result)

    def test_output_names_shadow_source_columns(self):
        session, oracle = _session_and_oracle()
        sql = "SELECT 0 - v AS id FROM t ORDER BY id"
        _, rows = oracle.execute(sql)
        assert rows == [(-30,), (-20,), (-10,)]
        assert_refereed(oracle, sql, session.execute(sql).result)

    def test_repeated_and_hidden_keys_with_limit(self):
        from tests.test_query_fuzz import build_catalog

        catalog, _ = build_catalog(5)
        oracle = SqlOracle.from_catalog(catalog)
        sql = "SELECT a FROM fuzz ORDER BY a DESC, a, b, c, d LIMIT 1"
        for engine in all_engines(catalog).values():
            assert_refereed(oracle, sql, engine.execute(sql).result)
