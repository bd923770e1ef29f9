"""Segdet's text files: every CSV and model file is read and written here.

CSVs hold one comma-separated record per line, written by `write_csv`: text
as it is, ints and floats by repr, so every value reads back exactly. Blank
lines and lines whose first non-blank character is '#' are skipped on
reading. Model files are versioned sectioned-text containers: a magic first
line, then `[section]` headers with `key = value` lines. Readers parse a
record or an entry with `fields`, so every malformed input raises ParseError
naming `path:line` or `path: [section] key`. Float arrays are stored either
as decimal floats (space separated, repr round-trip) or as base64
little-endian float64 blobs for large parameter tensors.
"""

from __future__ import annotations

import base64
import math
from contextlib import contextmanager
from itertools import repeat

import numpy as np

from .errors import MissingInputError, ModelVersionMismatchError, ParseError
from .imaging import BoxI


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path, rows, header: str | None = None) -> None:
    """One comma-joined line per row after an optional header line."""
    lines = [] if header is None else [header]
    lines.extend(",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows)
    write_lines(path, lines)


def _text_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except IsADirectoryError:
        raise MissingInputError(f"{path}: a directory, not a file") from None


def records(path):
    """(where, fields) for each record of a CSV, where is `path:line`. Values
    keep their whitespace, so every text value reads back as written."""
    for lineno, line in enumerate(_text_lines(path), start=1):
        head = line.lstrip()
        if head and not head.startswith("#"):
            yield f"{path}:{lineno}", line.split(",")


def fields(values: list[str], types, where: str) -> list:
    """`values` parsed by `types`: a tuple with one type per value, or one
    type for any number of values. Floats must be finite."""
    if isinstance(types, tuple):
        if len(values) != len(types):
            raise ParseError(f"{where}: expected {len(types)} fields, got {len(values)}")
    else:
        types = repeat(types)
    out = []
    for text, typ in zip(values, types):
        try:
            value = typ(text)
        except ValueError:
            raise ParseError(f"{where}: cannot parse {text!r} as {typ.__name__}") from None
        if typ is float and not math.isfinite(value):
            raise ParseError(f"{where}: {text!r} is not finite")
        out.append(value)
    return out


def image_rows(path, extra=()) -> dict[str, tuple | None]:
    """Per-image rows `image_id,x,y,w,h` plus one field per `extra` type, as
    (box, *extras) by image id in file order. A row whose fields after the id
    are all empty has no box (None); an id listed twice is a ParseError."""
    types = (str, int, int, int, int, *extra)
    out: dict[str, tuple | None] = {}
    for where, parts in records(path):
        if len(parts) == len(types) and not any(parts[1:]):
            image_id, row = parts[0], None
        else:
            image_id, x, y, w, h, *rest = fields(parts, types, where)
            with checked(where):
                row = (BoxI(x, y, w, h), *rest)
        if image_id in out:
            raise ParseError(f"{where}: repeated image {image_id!r}")
        out[image_id] = row
    return out


def entry_text(entries: dict[str, str], key: str, where: str) -> str:
    """The text of one `key = value` entry of the section at `where`."""
    if key not in entries:
        raise ParseError(f"{where} {key}: missing key")
    return entries[key]


def entry(entries: dict[str, str], key: str, types, where: str) -> list:
    """One entry's space-separated values, parsed by `fields`."""
    return fields(entry_text(entries, key, where).split(), types, f"{where} {key}")


@contextmanager
def checked(where: str):
    """Turn a ValueError raised by a value's own invariants into ParseError."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def write_sections(path, magic: str, sections: list[tuple[str, list[tuple[str, str]]]]) -> None:
    lines = [magic]
    for name, entries in sections:
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {text}" for key, text in entries)
    write_lines(path, lines)


def read_sections(path, magic: str) -> dict[str, dict[str, str]]:
    """Each section's entries by section name, in file order. A repeated
    section or key is a ParseError: no copy silently overrides another."""
    raw = _text_lines(path)
    if not raw or raw[0].strip() != magic:
        found = raw[0].strip() if raw else "<empty file>"
        raise ModelVersionMismatchError(
            f"{path}: expected magic '{magic}', found '{found}'"
        )
    sections: dict[str, dict[str, str]] = {}
    name = current = None
    for lineno, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name in sections:
                raise ParseError(f"{path}:{lineno}: repeated section [{name}]")
            current = sections[name] = {}
            continue
        if current is None or "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected '[section]' or 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        if key in current:
            raise ParseError(f"{path}:{lineno}: repeated key {key!r} in [{name}]")
        current[key] = text.strip()
    return sections


def model_sections(path, magic: str):
    """`section(name)` over a model file: that section's entries and its
    `path: [name]` prefix for errors; a missing section is a ParseError."""
    sections = read_sections(path, magic)

    def section(name: str) -> tuple[dict[str, str], str]:
        if name not in sections:
            raise ParseError(f"{path}: missing section [{name}]")
        return sections[name], f"{path}: [{name}]"

    return section


def floats_to_text(values) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values, dtype=np.float64).ravel())


def array_to_blob(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr, dtype="<f8")
    shape = ",".join(str(d) for d in a.shape)
    return shape + " " + base64.b64encode(a.tobytes()).decode("ascii")


def blob_to_array(text: str, where: str = "blob") -> np.ndarray:
    shape_txt, _, payload = text.partition(" ")
    shape = fields([d for d in shape_txt.split(",") if d], int, where)
    with checked(where):
        data = np.frombuffer(base64.b64decode(payload, validate=True), dtype="<f8")
        arr = data.reshape(shape).astype(np.float64)
    if not np.isfinite(arr).all():
        raise ParseError(f"{where}: array holds a non-finite value")
    return arr
