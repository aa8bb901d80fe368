"""The curated JSON tables, and the checks every table file passes on load.

A bad table is rejected whole, never half-read: an unreadable file, invalid
JSON, a row with a missing or mistyped field, and a key listed twice with
different values each raise WelschingerError naming the file and the row.
"""

import json

from ..errors import WelschingerError

def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise WelschingerError(f"{path}: cannot read table: {exc}") from None


def _field(row: dict, name: str, kind: type, default=None):
    value = row.get(name, default)
    if type(value) is kind and (kind is not list or set(map(type, value)) <= {int}):
        return value
    if value is None:
        raise ValueError(f"missing field {name!r}")
    raise ValueError(f"field {name!r} must be {'a list of ints' if kind is list else kind.__name__}, got {value!r}")


def _table_entries(payload, fields, key_of, where: str) -> dict:
    """``{key_of(*fields): value}`` over the rows of a table payload.

    ``fields`` lists ``(name, type)`` for each mandatory field a key is made
    of and ``(name, type, default)`` for each optional one; the type is int,
    str, bool or list (of ints).  Every row also needs an int ``value``.
    key_of returns None for a row the caller skips, after the row is checked.
    """
    rows = payload.get("entries") if isinstance(payload, dict) else None
    if type(rows) is not list:
        raise WelschingerError(f"{where}: a table is an object with an 'entries' list")
    entries: dict = {}
    for i, row in enumerate(rows):
        try:
            if type(row) is not dict:
                raise ValueError("a row must be an object")
            value = _field(row, "value", int)
            key = key_of(*[_field(row, *spec) for spec in fields])
        except ValueError as exc:
            raise WelschingerError(f"{where}: row {i}: {exc}") from None
        if key is not None and entries.setdefault(key, value) != value:
            raise WelschingerError(f"{where}: row {i} lists a key again with value {value}, not {entries[key]}")
    return entries
