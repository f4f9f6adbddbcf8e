"""Loading and saving databases.

Inconsistent databases typically come from integrating conflicting sources;
in practice that means CSV dumps or JSON documents.  This module provides a
small, dependency-free persistence layer:

* :func:`load_csv_directory` / :func:`save_csv_directory` — one CSV file per
  relation, first row is the header (attribute names).
* :func:`database_to_json` / :func:`database_from_json` — a single JSON
  document holding schema, key constraints and facts, convenient for
  fixtures and for shipping example scenarios.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import SchemaError
from .constraints import KeyConstraint, PrimaryKeySet
from .database import Database
from .facts import Constant, Fact, canonical_order
from .schema import RelationSchema, Schema

__all__ = [
    "load_csv_directory",
    "save_csv_directory",
    "database_to_json",
    "database_from_json",
    "load_json",
    "save_json",
]


def _coerce(value: str) -> Constant:
    """Best-effort conversion of a CSV cell to int, float or str."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def load_csv_directory(
    directory: Union[str, Path],
    keys: Optional[Mapping[str, Sequence[int]]] = None,
) -> Tuple[Database, PrimaryKeySet]:
    """Load every ``*.csv`` file in ``directory`` as one relation each.

    The file stem is the relation name and the first row is the header.
    ``keys`` optionally maps relation names to 1-based key positions; when
    omitted an empty :class:`PrimaryKeySet` is returned.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    schema = Schema()
    facts: List[Fact] = []
    for csv_path in sorted(directory.glob("*.csv")):
        relation_name = csv_path.stem
        with csv_path.open(newline="") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
        if not rows:
            continue
        header, *data_rows = rows
        schema.add_relation(RelationSchema(relation_name, len(header), tuple(header)))
        for row in data_rows:
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"{csv_path}: row {row!r} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
            facts.append(Fact(relation_name, tuple(_coerce(cell) for cell in row)))
    database = Database(facts, schema=schema)
    key_set = PrimaryKeySet(
        KeyConstraint(name, positions) for name, positions in (keys or {}).items()
    )
    return database, key_set


def save_csv_directory(database: Database, directory: Union[str, Path]) -> None:
    """Write the database as one CSV file per relation into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for relation_name in database.relation_names():
        relation_schema = database.schema.relation(relation_name)
        path = directory / f"{relation_name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(relation_schema.attributes)
            for item in canonical_order(database.relation(relation_name)):
                writer.writerow(list(item.arguments))


def database_to_json(
    database: Database, keys: Optional[PrimaryKeySet] = None
) -> Dict[str, object]:
    """Serialise a database (and optionally its keys) to a JSON-able dict."""
    relations = {
        relation.name: list(relation.attributes) for relation in database.schema
    }
    facts = [
        {"relation": item.relation, "arguments": list(item.arguments)}
        for item in database.sorted_facts()
    ]
    payload: Dict[str, object] = {"relations": relations, "facts": facts}
    if keys is not None:
        payload["keys"] = {
            constraint.relation: list(constraint.sorted_positions)
            for constraint in keys
        }
    return payload


def database_from_json(payload: Mapping[str, object]) -> Tuple[Database, PrimaryKeySet]:
    """Inverse of :func:`database_to_json`.

    A document of the wrong shape raises :class:`~repro.errors.SchemaError`
    naming the part that is wrong; constants are taken as they come.
    """
    if not isinstance(payload, Mapping):
        raise SchemaError(
            f"a database document must be a JSON object, got {type(payload).__name__}"
        )
    relations = payload.get("relations", {})
    if not _maps_to_lists_of(relations, str):
        raise SchemaError(
            "database 'relations' must be an object mapping each relation "
            "name to a list of attribute names"
        )
    entries = payload.get("facts", [])
    if not isinstance(entries, list):
        raise SchemaError("database 'facts' must be a list of fact objects")
    facts: List[Fact] = []
    for entry in entries:
        try:
            relation, arguments = entry["relation"], entry["arguments"]
        except (TypeError, KeyError):
            relation = arguments = None
        if not (isinstance(relation, str) and isinstance(arguments, list)):
            raise SchemaError(
                f"database fact {len(facts)} must be an object with a string "
                f"'relation' and a list 'arguments'"
            )
        facts.append(Fact(relation, tuple(arguments)))
    keys_payload = payload.get("keys", {}) or {}
    if not _maps_to_lists_of(keys_payload, int):
        raise SchemaError(
            "database 'keys' must be an object mapping each relation to a "
            "list of key positions"
        )
    schema = Schema()
    for name, attributes in relations.items():  # type: ignore[union-attr]
        schema.add_relation(RelationSchema(name, len(attributes), tuple(attributes)))
    database = Database(facts, schema=schema if len(schema) else None)
    key_set = PrimaryKeySet(
        KeyConstraint(name, positions)
        for name, positions in keys_payload.items()  # type: ignore[union-attr]
    )
    return database, key_set


def _maps_to_lists_of(value: object, kind: type) -> bool:
    """Whether ``value`` maps names to lists whose items are all ``kind``."""
    return isinstance(value, Mapping) and all(
        isinstance(items, list)
        and all(isinstance(item, kind) and not isinstance(item, bool) for item in items)
        for items in value.values()
    )


def save_json(
    database: Database, path: Union[str, Path], keys: Optional[PrimaryKeySet] = None
) -> None:
    """Write the JSON serialisation of a database to ``path``."""
    Path(path).write_text(json.dumps(database_to_json(database, keys), indent=2))


def load_json(path: Union[str, Path]) -> Tuple[Database, PrimaryKeySet]:
    """Load a database (and its keys) from a JSON file written by :func:`save_json`.

    A file that is not valid JSON raises :class:`~repro.errors.SchemaError`
    naming the path.
    """
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"database file {path} is not valid JSON: {exc}") from exc
    return database_from_json(payload)
