"""The curated tables, and the checks every table passes on load.

The packaged tables are the Python literals ``f_invariants.py`` and
``relative_invariants.py`` in this package: each one's ``payload()`` is in
the format of the JSON file that overrides it (``--f-table``,
``--invariant-table`` or WELSCHINGER_TABLE_DIR), an object with an
``entries`` list of rows, and passes the same checks.  Loading them imports
no ``json``; only an override file does.

A bad table is rejected whole, never half-read: an unreadable file, invalid
JSON, a row with a missing or mistyped field, a row whose key means nothing
(a ruled surface or Lagrangian that does not occur, a contact weight that
differs from the class, a negative real-point count), and a key listed twice
with different values each raise WelschingerError naming the file and the row.
"""

from ..errors import NegativeDimension, WelschingerError

# The override files' names in WELSCHINGER_TABLE_DIR, which also name the packaged tables.
RELATIVE_TABLE = "relative_invariants.json"
F_TABLE = "f_invariants.json"


def _packaged_payload(name: str) -> dict:
    """A new copy of the payload of the packaged table that the file
    ``name`` overrides."""
    if name == F_TABLE:
        from .f_invariants import payload
    else:
        from .relative_invariants import payload
    return payload()


def _read_json(path):
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise WelschingerError(f"{str(path)!r}: cannot read table: {exc}") from None


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
    key_of raises ValueError or NegativeDimension for a key that means nothing.
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
        except (ValueError, NegativeDimension) as exc:
            raise WelschingerError(f"{where}: row {i}: {exc}") from None
        if entries.setdefault(key, value) != value:
            raise WelschingerError(f"{where}: row {i} lists a key again with value {value}, not {entries[key]}")
    return entries
