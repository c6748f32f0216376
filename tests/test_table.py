"""Tests for the row-major table frames."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mvcc_filter import LIVE_TS, NEVER_TS
from repro.core.packer import decode_frame_field
from repro.db import Catalog, Column, Table, TableSchema
from repro.db.schema import MVCC_BEGIN, MVCC_END
from repro.db.types import CHAR, DECIMAL, INT32, INT64
from repro.errors import SchemaError

SCHEMA = TableSchema(
    "t",
    [
        Column("id", INT64),
        Column("name", CHAR(4)),
        Column("price", DECIMAL(2)),
        Column("qty", INT32),
    ],
)


class TestAppendRow:
    def test_roundtrip_python_values(self):
        table = Table(SCHEMA)
        idx = table.append_row({"id": 7, "name": "ab", "price": 19.99, "qty": 3})
        assert idx == 0
        row = table.row(0)
        assert row == {"id": 7, "name": "ab", "price": pytest.approx(19.99), "qty": 3}

    def test_missing_column_rejected(self):
        table = Table(SCHEMA)
        with pytest.raises(SchemaError):
            table.append_row({"id": 1})

    def test_capacity_growth(self):
        table = Table(SCHEMA, capacity=2)
        for i in range(100):
            table.append_row({"id": i, "name": "x", "price": 1.0, "qty": i})
        assert table.nrows == 100
        assert table.column_values("qty").tolist() == list(range(100))


class TestBulkLoad:
    def test_append_arrays(self):
        table = Table(SCHEMA)
        table.append_arrays(
            {
                "id": np.array([1, 2, 3]),
                "name": np.array([b"aa", b"bb", b"cc"], dtype="S4"),
                "price": np.array([100, 200, 300]),  # cents
                "qty": np.array([4, 5, 6], dtype=np.int32),
            }
        )
        assert table.nrows == 3
        assert table.column_values("price").tolist() == [1.0, 2.0, 3.0]
        assert table.column_values("name").tolist() == [b"aa", b"bb", b"cc"]

    def test_ragged_rejected(self):
        table = Table(SCHEMA)
        with pytest.raises(SchemaError):
            table.append_arrays(
                {
                    "id": np.array([1]),
                    "name": np.array([b"a", b"b"], dtype="S4"),
                    "price": np.array([1]),
                    "qty": np.array([1], dtype=np.int32),
                }
            )

    def test_wrong_columns_rejected(self):
        table = Table(SCHEMA)
        with pytest.raises(SchemaError):
            table.append_arrays({"id": np.array([1])})

    def test_bulk_then_row_append_interleave(self):
        table = Table(SCHEMA)
        table.append_arrays(
            {
                "id": np.array([1, 2]),
                "name": np.array([b"aa", b"bb"], dtype="S4"),
                "price": np.array([100, 200]),
                "qty": np.array([1, 2], dtype=np.int32),
            }
        )
        table.append_row({"id": 3, "name": "cc", "price": 3.0, "qty": 3})
        assert table.column_values("id").tolist() == [1, 2, 3]


class TestReads:
    def test_column_raw_vs_values(self):
        table = Table(SCHEMA)
        table.append_row({"id": 1, "name": "a", "price": 12.5, "qty": 1})
        assert table.column("price")[0] == 1250
        assert table.column_values("price")[0] == 12.5

    def test_frame_shape_and_bytes(self):
        table = Table(SCHEMA)
        table.append_row({"id": 1, "name": "a", "price": 1.0, "qty": 1})
        assert table.frame.shape == (1, SCHEMA.row_stride)
        assert table.nbytes == SCHEMA.row_stride

    def test_rows_iterator(self):
        table = Table(SCHEMA)
        table.append_row({"id": 1, "name": "a", "price": 1.0, "qty": 1})
        table.append_row({"id": 2, "name": "b", "price": 2.0, "qty": 2})
        assert [r["id"] for r in table.rows()] == [1, 2]

    def test_row_out_of_range(self):
        with pytest.raises(IndexError):
            Table(SCHEMA).row(0)


class TestMvccColumns:
    def schema(self):
        return TableSchema("m", [Column("a", INT64)], mvcc=True)

    def test_defaults_invisible(self):
        table = Table(self.schema())
        table.append_row({"a": 1})
        assert table.begin_ts[0] == NEVER_TS
        assert table.end_ts[0] == LIVE_TS

    def test_stamping(self):
        table = Table(self.schema())
        table.append_row({"a": 1})
        table.stamp_begin(0, 5)
        table.stamp_end(0, 9)
        assert table.begin_ts[0] == 5 and table.end_ts[0] == 9

    def test_non_mvcc_table_rejects_ts_access(self):
        table = Table(SCHEMA)
        with pytest.raises(SchemaError):
            _ = table.begin_ts

    def test_retain_compacts(self):
        table = Table(self.schema())
        for i in range(10):
            table.append_row({"a": i})
        keep = np.array([i % 2 == 0 for i in range(10)])
        table.retain(keep)
        assert table.nrows == 5
        assert table.column_values("a").tolist() == [0, 2, 4, 6, 8]

    def test_retain_shape_check(self):
        table = Table(self.schema())
        table.append_row({"a": 1})
        with pytest.raises(SchemaError):
            table.retain(np.array([True, False]))


MVCC_SCHEMA = TableSchema("m", SCHEMA.user_columns, mvcc=True)


def _row(i):
    return {"id": i, "name": f"r{i}", "price": i + 0.25, "qty": 10 * i}


def _arrays(ids):
    return {
        "id": np.array(ids),
        "name": np.array([b"b%d" % i for i in ids], dtype="S4"),
        "price": np.array([100 * i for i in ids]),
        "qty": np.array(ids, dtype=np.int32),
    }


#: Every mutator of a Table, each applied to the 4-row fixture below.
MUTATIONS = {
    "append_row": lambda t: t.append_row(_row(9)),
    "append_rows": lambda t: t.append_rows([_row(7), _row(8)]),
    "append_arrays": lambda t: t.append_arrays(_arrays([5, 6])),
    "set_value": lambda t: t.set_value(1, "qty", 99),
    "stamp_begin": lambda t: t.stamp_begin(1, 7),
    "stamp_end": lambda t: t.stamp_end(2, 8),
    "write_row_bytes": lambda t: t.write_row_bytes(0, t.row_bytes(3)),
    "pad_to": lambda t: t.pad_to(t.nrows + 3),
    "retain": lambda t: t.retain(np.array([True, False, True, True])),
}


def _stamped_table():
    table = Table(MVCC_SCHEMA)
    table.append_rows([_row(i) for i in range(4)])
    for i in range(4):
        table.stamp_begin(i, i + 1)
    return table


def _read_all(table):
    return [
        (name, table.column(name), table.column_values(name))
        for name in (c.name for c in table.schema.columns)
    ]


def _assert_reads_fresh(table):
    """Cached reads equal a fresh decode of the frame, repeat reads share
    one read-only object, and the O(1) stamps agree with the columns."""
    geometry = table.schema.full_geometry()
    twin = Table.restore(table.schema, table.frame.tobytes(), table.nrows)
    for name, raw, values in _read_all(table):
        np.testing.assert_array_equal(
            raw, decode_frame_field(table.frame, geometry, name)
        )
        np.testing.assert_array_equal(values, twin.column_values(name))
        assert table.column(name) is raw
        assert table.column_values(name) is values
        for arr in (raw, values):
            with pytest.raises(ValueError):
                arr[:1] = arr[:1]
    for stamps, name in ((table.begin_ts, MVCC_BEGIN), (table.end_ts, MVCC_END)):
        np.testing.assert_array_equal(
            stamps, decode_frame_field(table.frame, geometry, name)
        )
    assert [table.stamps(i) for i in range(table.nrows)] == list(
        zip(table.begin_ts.tolist(), table.end_ts.tolist())
    )


class TestDecodeCache:
    @pytest.mark.parametrize("mutate", list(MUTATIONS.values()), ids=list(MUTATIONS))
    def test_version_bumps_on_mutation(self, mutate):
        table = _stamped_table()
        _assert_reads_fresh(table)  # warm the cache with the old version
        version, misses = table.version, table.decode_misses
        mutate(table)
        assert table.version > version
        _assert_reads_fresh(table)
        assert table.decode_misses > misses

    def test_unchanged_table_decodes_once(self):
        table = _stamped_table()
        _read_all(table)
        misses, hits = table.decode_misses, table.decode_hits
        _read_all(table)
        assert table.decode_misses == misses
        assert table.decode_hits == hits + 2 * len(MVCC_SCHEMA.columns)

    def test_restore_round_trip(self):
        table = _stamped_table()
        _read_all(table)
        clone = Table.restore(
            table.schema, table.frame.tobytes(), table.nrows, table.version
        )
        assert clone.version == table.version
        _assert_reads_fresh(clone)
        for name, raw, values in _read_all(table):
            np.testing.assert_array_equal(clone.column(name), raw)
            np.testing.assert_array_equal(clone.column_values(name), values)
        clone.set_value(0, "qty", -1)
        _assert_reads_fresh(clone)
        assert clone.column_values("qty")[0] == -1
        assert table.column_values("qty")[0] == 0

    def test_frame_is_read_only(self):
        table = _stamped_table()
        with pytest.raises(ValueError):
            table.frame[0, 0] = 1

    def test_stamps_bounds(self):
        table = _stamped_table()
        with pytest.raises(IndexError):
            table.stamps(table.nrows)
        with pytest.raises(SchemaError):
            Table(SCHEMA).stamps(0)


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-(2**62), max_value=2**62),
                st.text(
                    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                    max_size=4,
                ),
                st.integers(min_value=-(10**6), max_value=10**6),
                st.integers(min_value=-(2**31), max_value=2**31 - 1),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_row_roundtrip(self, rows):
        table = Table(SCHEMA)
        for rid, name, cents, qty in rows:
            table.append_row(
                {"id": rid, "name": name, "price": cents / 100, "qty": qty}
            )
        for i, (rid, name, cents, qty) in enumerate(rows):
            row = table.row(i)
            assert row["id"] == rid
            assert row["name"] == name.rstrip("\x00")
            assert row["price"] == pytest.approx(cents / 100)
            assert row["qty"] == qty
