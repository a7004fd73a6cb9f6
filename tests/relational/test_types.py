"""Unit tests for column types and validation."""

import pytest

from repro.relational import integer
from repro.relational.types import Column, ColumnType


class TestColumnType:
    def test_integer_accepts_int(self):
        assert ColumnType.INTEGER.validate(5) == 5

    def test_integer_rejects_bool(self):
        with pytest.raises(TypeError):
            ColumnType.INTEGER.validate(True)

    def test_integer_rejects_float(self):
        with pytest.raises(TypeError):
            ColumnType.INTEGER.validate(1.5)

    def test_real_coerces_int_to_float(self):
        value = ColumnType.REAL.validate(3)
        assert value == 3.0 and isinstance(value, float)

    def test_real_rejects_string(self):
        with pytest.raises(TypeError):
            ColumnType.REAL.validate("3.0")

    def test_text_accepts_str(self):
        assert ColumnType.TEXT.validate("hi") == "hi"

    def test_text_rejects_int(self):
        with pytest.raises(TypeError):
            ColumnType.TEXT.validate(7)

    def test_null_passes_every_type(self):
        for t in ColumnType:
            assert t.validate(None) is None


class TestColumn:
    def test_not_null_enforced(self):
        with pytest.raises(TypeError, match="NOT NULL"):
            integer("id", nullable=False).validate(None)

    def test_nullable_accepts_none(self):
        assert integer("id").validate(None) is None

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Column("bad name", ColumnType.TEXT)
        with pytest.raises(ValueError):
            Column("", ColumnType.TEXT)

    def test_underscore_names_allowed(self):
        assert Column("value_num", ColumnType.REAL).name == "value_num"
