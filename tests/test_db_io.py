"""Unit tests for database persistence (CSV and JSON)."""

import json

import pytest

from repro.db import (
    Database,
    PrimaryKeySet,
    database_from_json,
    database_to_json,
    fact,
    load_csv_directory,
    load_json,
    save_csv_directory,
    save_json,
)
from repro.errors import SchemaError


class TestCsvRoundTrip:
    def test_save_and_load(self, tmp_path, employee_db):
        save_csv_directory(employee_db, tmp_path)
        loaded, keys = load_csv_directory(tmp_path, keys={"Employee": [1]})
        assert loaded.facts() == employee_db.facts()
        assert keys.has_key("Employee")

    def test_numeric_cells_are_coerced(self, tmp_path):
        (tmp_path / "R.csv").write_text("a,b\n1,2.5\nx,y\n")
        database, _ = load_csv_directory(tmp_path)
        assert fact("R", 1, 2.5) in database
        assert fact("R", "x", "y") in database

    def test_ragged_rows_are_rejected(self, tmp_path):
        (tmp_path / "R.csv").write_text("a,b\n1\n")
        with pytest.raises(SchemaError):
            load_csv_directory(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv_directory(tmp_path / "nope")


class TestJsonRoundTrip:
    def test_dict_round_trip(self, employee_db, employee_keys):
        payload = database_to_json(employee_db, employee_keys)
        # The payload must be JSON-serialisable as is.
        json.dumps(payload)
        loaded, keys = database_from_json(payload)
        assert loaded.facts() == employee_db.facts()
        assert keys == employee_keys

    def test_file_round_trip(self, tmp_path, employee_db, employee_keys):
        path = tmp_path / "employee.json"
        save_json(employee_db, path, employee_keys)
        loaded, keys = load_json(path)
        assert loaded.facts() == employee_db.facts()
        assert keys == employee_keys

    def test_round_trip_without_keys(self, employee_db):
        loaded, keys = database_from_json(database_to_json(employee_db))
        assert loaded.facts() == employee_db.facts()
        assert len(keys) == 0

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="broken.json is not valid JSON"):
            load_json(path)
