"""Tests for the type system and table schemas."""

import datetime

import numpy as np
import pytest

from repro.core.geometry import DataGeometry
from repro.db.schema import MVCC_BEGIN, MVCC_END, Column, TableSchema
from repro.db.types import (
    CHAR,
    DATE,
    DECIMAL,
    FLOAT64,
    INT32,
    INT64,
    parse_type,
)
from repro.errors import SchemaError


class TestTypes:
    def test_widths(self):
        assert INT32.width == 4
        assert INT64.width == 8
        assert CHAR(12).width == 12
        assert DECIMAL(2).width == 8
        assert DATE.width == 4

    def test_decimal_roundtrip(self):
        d = DECIMAL(2)
        assert d.encode(12.34) == 1234
        assert d.decode(1234) == pytest.approx(12.34)

    def test_decimal_rounding(self):
        assert DECIMAL(2).encode(0.009) == 1
        assert DECIMAL(2).encode(0.005) == 0  # round-half-even

    def test_decimal_decode_array_rescales(self):
        vals = np.array([100, 250], dtype=np.int64)
        assert DECIMAL(2).decode_array(vals).tolist() == [1.0, 2.5]

    def test_date_roundtrip(self):
        day = datetime.date(1998, 12, 1)
        raw = DATE.encode(day)
        assert DATE.decode(raw) == day

    def test_date_accepts_day_number(self):
        assert DATE.encode(100) == 100

    def test_char_pads_and_strips(self):
        c = CHAR(6)
        raw = c.encode("ab")
        assert raw == b"ab\x00\x00\x00\x00"
        assert c.decode(raw) == "ab"

    def test_char_overflow_rejected(self):
        with pytest.raises(SchemaError):
            CHAR(2).encode("abc")

    def test_parse_type(self):
        assert parse_type("int64") is INT64
        assert parse_type("CHAR(12)").width == 12
        assert parse_type("DECIMAL(4)").scale == 4
        assert parse_type("decimal").scale == 2
        with pytest.raises(SchemaError):
            parse_type("VARCHAR(9)")


class TestSchema:
    def test_offsets_back_to_back(self):
        schema = TableSchema(
            "t", [Column("a", INT64), Column("b", INT32), Column("c", CHAR(3))]
        )
        assert schema.offset_of("a") == 0
        assert schema.offset_of("b") == 8
        assert schema.offset_of("c") == 12
        assert schema.row_stride == 15

    def test_row_alignment_pads(self):
        schema = TableSchema("t", [Column("a", INT32)], row_align=64)
        assert schema.row_stride == 64

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", INT32), Column("a", INT64)])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_reserved_names_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column(MVCC_BEGIN, INT64)])

    def test_mvcc_appends_hidden_columns(self):
        schema = TableSchema("t", [Column("a", INT64)], mvcc=True)
        assert schema.row_stride == 8 + 16
        assert schema.column_names == ("a",)  # user view
        assert schema.has_column(MVCC_BEGIN) and schema.has_column(MVCC_END)

    def test_geometry_selected_columns(self):
        schema = TableSchema(
            "t", [Column("a", INT64), Column("b", INT32), Column("c", INT64)]
        )
        g = schema.geometry(["c", "a"])
        assert g.field_names == ("c", "a")
        assert g.packed_width == 16
        assert g.field("c").offset == 12

    def test_geometry_default_all_user_columns(self):
        schema = TableSchema("t", [Column("a", INT64)], mvcc=True)
        g = schema.geometry()
        assert g.field_names == ("a",)
        full = schema.full_geometry()
        assert MVCC_END in full.field_names

    def test_full_geometry_is_memoised(self):
        schema = TableSchema(
            "t", [Column("a", INT64), Column("c", CHAR(3))], row_align=16, mvcc=True
        )
        first = schema.full_geometry()
        assert schema.full_geometry() is first
        fresh = DataGeometry(
            row_stride=schema.row_stride,
            fields=tuple(schema.field_slice(c.name) for c in schema.columns),
        )
        assert first == fresh

    def test_bytes_of(self):
        schema = TableSchema("t", [Column("a", INT64), Column("b", INT32)])
        assert schema.bytes_of(["a", "b"]) == 12

    def test_unknown_column_raises(self):
        schema = TableSchema("t", [Column("a", INT64)])
        with pytest.raises(SchemaError):
            schema.offset_of("zz")
        with pytest.raises(SchemaError):
            schema.column("zz")

    def test_field_slice_carries_dtype(self):
        schema = TableSchema("t", [Column("p", DECIMAL(2)), Column("c", CHAR(4))])
        assert schema.field_slice("p").dtype == "<i8"
        assert schema.field_slice("c").dtype is None
