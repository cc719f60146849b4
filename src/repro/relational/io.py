"""Persistence: save/load a database to a directory of TSV files.

Layout::

    <dir>/schema.json      # tables, columns, types, keys
    <dir>/<table>.tsv      # header row + one line per tuple

Values are TSV-escaped (tab/newline/backslash) with ``\\N`` for NULL, the
conventions PostgreSQL's COPY uses, so dumps are greppable and diffable.
Loading validates against the embedded schema and re-checks foreign keys.
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Iterator

from repro.errors import DatasetError
from repro.relational.database import Database
from repro.relational.schema import Column, ColumnType, ForeignKey, Schema, TableSchema

__all__ = ["save_database", "load_database"]

_NULL = "\\N"


def save_database(database: Database, directory: str | pathlib.Path) -> pathlib.Path:
    """Write the database; returns the directory path."""
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / "schema.json").write_text(
        json.dumps(_schema_to_json(database), indent=2) + "\n"
    )
    for table_schema in database.schema.tables:
        table = database.table(table_schema.name)
        lines = ["\t".join(table_schema.column_names)]
        for row in table:
            lines.append("\t".join(
                _encode(row[name]) for name in table_schema.column_names
            ))
        (path / f"{table_schema.name}.tsv").write_text("\n".join(lines) + "\n")
    return path


def load_database(directory: str | pathlib.Path) -> Database:
    """Read a database previously written by :func:`save_database`."""
    path = pathlib.Path(directory)
    schema_file = path / "schema.json"
    if not schema_file.exists():
        raise DatasetError(f"no schema.json under {path}")
    spec = json.loads(schema_file.read_text())
    schema = _schema_from_json(spec)
    database = Database(schema, name=spec.get("name", "db"))
    for table_schema in schema.tables:
        table_file = path / f"{table_schema.name}.tsv"
        if not table_file.exists():
            raise DatasetError(f"missing table file {table_file}")
        lines = table_file.read_text().splitlines()
        if not lines:
            raise DatasetError(f"table file {table_file} is empty (no header)")
        header = lines[0].split("\t")
        if header != table_schema.column_names:
            raise DatasetError(
                f"{table_file}: header {header} does not match schema "
                f"columns {table_schema.column_names}"
            )
        database.insert_many(table_schema.name,
                             _decode_rows(table_file, table_schema, lines[1:]))
    database.assert_consistent()
    return database


def _decode_rows(table_file: pathlib.Path, table_schema: TableSchema,
                 lines: list[str]) -> Iterator[dict[str, object]]:
    """Yield one value mapping per data line (the header already matched
    the schema's columns)."""
    columns = table_schema.columns
    for line_number, line in enumerate(lines, start=2):
        cells = line.split("\t")
        if len(cells) != len(columns):
            raise DatasetError(
                f"{table_file}:{line_number}: expected {len(columns)} "
                f"cells, found {len(cells)}"
            )
        yield {
            column.name: _decode(cell, column.type)
            for column, cell in zip(columns, cells)
        }


# ---------------------------------------------------------------------------
# schema (de)serialization
# ---------------------------------------------------------------------------

def _schema_to_json(database: Database) -> dict:
    return {
        "name": database.name,
        "tables": [
            {
                "name": table.name,
                "primary_key": table.primary_key,
                "columns": [
                    {
                        "name": column.name,
                        "type": column.type.value,
                        "nullable": column.nullable,
                        "searchable": column.searchable,
                    }
                    for column in table.columns
                ],
                "foreign_keys": [
                    {
                        "column": fk.column,
                        "ref_table": fk.ref_table,
                        "ref_column": fk.ref_column,
                    }
                    for fk in table.foreign_keys
                ],
            }
            for table in database.schema.tables
        ],
    }


def _schema_from_json(spec: dict) -> Schema:
    tables = []
    for table_spec in spec["tables"]:
        columns = [
            Column(
                name=column["name"],
                type=ColumnType(column["type"]),
                nullable=column["nullable"],
                searchable=column["searchable"],
            )
            for column in table_spec["columns"]
        ]
        foreign_keys = [
            ForeignKey(fk["column"], fk["ref_table"], fk["ref_column"])
            for fk in table_spec["foreign_keys"]
        ]
        tables.append(TableSchema(
            table_spec["name"], columns,
            primary_key=table_spec["primary_key"],
            foreign_keys=foreign_keys,
        ))
    return Schema(tables)


# ---------------------------------------------------------------------------
# value (de)serialization
# ---------------------------------------------------------------------------

def _encode(value: object) -> str:
    if value is None:
        return _NULL
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    return (text.replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\n", "\\n").replace("\r", "\\r"))


def _decode(cell: str, column_type: ColumnType) -> object:
    if cell == _NULL:
        return None
    if column_type is ColumnType.INTEGER:
        return int(cell)
    if column_type is ColumnType.FLOAT:
        return float(cell)
    if column_type is ColumnType.BOOLEAN:
        if cell not in ("true", "false"):
            raise DatasetError(f"invalid boolean cell {cell!r}")
        return cell == "true"
    out = []
    index = 0
    while index < len(cell):
        char = cell[index]
        if char == "\\" and index + 1 < len(cell):
            escape = cell[index + 1]
            mapping = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
            if escape in mapping:
                out.append(mapping[escape])
                index += 2
                continue
        out.append(char)
        index += 1
    return "".join(out)
