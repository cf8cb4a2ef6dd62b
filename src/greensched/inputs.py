"""Reading outside files: every file greensched reads comes through here.

Errors read ``<file>: <field>: <problem>`` for JSON (fields such as
``cluster[0].count``, ``modes[0][1]``, ``soft_constraints['5']``) and
``<file>: row <line>: <problem>`` for CSV, ``<line>`` being the physical line.
Only types are checked here; ranges are checked by the dataclasses that hold the values.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .errors import ConfigurationError, ParseError

_REQUIRED = object()


def is_finite_number(value: Any) -> bool:
    """Whether ``value`` is an int or float, not a bool, of finite float value:
    what a file's number field and a value type's float field take."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass
class Field:
    """One JSON value, with the file and the field path it was read from."""

    path: Path
    name: str  # "" for the top level
    value: Any

    def error(self, problem: str) -> ConfigurationError:
        return ConfigurationError(f"{self.path}: {self.name or 'top level'}: {problem}")

    def _expect(self, ok: bool, what: str) -> Any:
        v = self.value
        if not ok:
            got = "a JSON object" if type(v) is dict else (
                f"a list of {len(v)}" if type(v) is list else json.dumps(v))
            raise self.error(f"expected {what}, got {got}")
        return v

    def integer(self) -> int:
        """A JSON integer: not a bool, a fractional number or a string."""
        return self._expect(type(self.value) is int, "an integer")

    def number(self) -> float:
        """A finite JSON number, integer or not, as a float."""
        return float(self._expect(is_finite_number(self.value), "a number"))

    def string(self) -> str:
        return self._expect(type(self.value) is str, "a string")

    def object(self) -> dict[str, Field]:
        """The members of a JSON object by key, each named ``name[key]``."""
        members = self._expect(type(self.value) is dict, "a JSON object")
        return {k: Field(self.path, f"{self.name}[{k!r}]", v) for k, v in members.items()}

    def items(self, size: int | None = None) -> list[Field]:
        """The elements of a list (of ``size`` elements when given), named ``name[i]``."""
        ok = type(self.value) is list and size in (None, len(self.value))
        values = self._expect(ok, "a list" if size is None else f"a list of {size}")
        return [Field(self.path, f"{self.name}[{i}]", v) for i, v in enumerate(values)]

    def numbers(self, size: int | None = None) -> tuple[float, ...]:
        return tuple(f.number() for f in self.items(size))

    def get(self, key: str, default: Any = _REQUIRED) -> Field:
        """Member ``key`` of this object, named ``name.key``; if missing, ``default``
        (a value, or a Field read elsewhere), which when not given makes it an error."""
        members = self._expect(type(self.value) is dict, "a JSON object")
        name = f"{self.name}.{key}" if self.name else key
        if key in members:
            return Field(self.path, name, members[key])
        if default is _REQUIRED:
            raise Field(self.path, name, None).error("required field is missing")
        return default if isinstance(default, Field) else Field(self.path, name, default)


def read_json(path: str | Path) -> Field:
    """The top-level object of a JSON file."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            top = Field(path, "", json.load(fh))
    except ValueError as exc:  # a syntax error (with line and column) or bad UTF-8
        raise ParseError(path, str(exc)) from exc
    top._expect(type(top.value) is dict, "a JSON object")
    return top


def int64(text: str) -> int:
    """A CSV integer cell that fits the int64 column it is stored in."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} does not fit in 64 bits")
    return value


def read_table(
    path: str | Path, columns: dict[str, Callable[[str], Any]]
) -> list[tuple[int, tuple]]:
    """The data rows of a CSV file as ``(line, values)``, values cast per ``columns``.

    Blank and ``#`` lines are skipped.  The header names every key of ``columns``
    in any order (other columns are ignored); at least one row follows, each with
    as many fields as the header.  Cells are stripped before the cast."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        # a comment becomes a blank line, so line_num stays the physical line number
        reader = csv.reader("\n" if line.startswith("#") else line for line in fh)
        try:
            rows = [(reader.line_num, cells) for cells in reader if any(c.strip() for c in cells)]
        except (ValueError, csv.Error) as exc:  # bad UTF-8 or bad quoting
            raise ParseError(path, str(exc)) from exc
    if not rows:
        raise ParseError(path, f"expected a header row {','.join(columns)}, found none")
    (header_line, header), *data = rows
    names = [c.strip() for c in header]
    missing = [c for c in columns if c not in names]
    if missing:
        raise ParseError(path, f"header lacks column(s) {', '.join(missing)}", header_line)
    if not data:
        raise ParseError(path, "the header is followed by no data rows", header_line)
    index = [(names.index(c), c, cast) for c, cast in columns.items()]
    table = []
    for line, cells in data:
        if len(cells) != len(names):
            raise ParseError(path, f"expected {len(names)} fields, got {len(cells)}", line)
        values = []
        for i, column, cast in index:
            try:
                values.append(cast(cells[i].strip()))
            except ValueError as exc:
                raise ParseError(path, f"{column}: {exc}", line) from exc
        table.append((line, tuple(values)))
    return table
