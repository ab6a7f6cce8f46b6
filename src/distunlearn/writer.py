"""Row writer: CSV or JSON-lines files from row mappings.

It needs only the standard library and numpy, so commands that write rows
without running a sweep (``frontier``, ``bounds``) load nothing more.
"""

from __future__ import annotations

import csv
import json

import numpy as np

FORMATS = ("csv", "json-lines")


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def write_rows(rows, format: str, path, fieldnames: list[str]) -> None:
    """Write row mappings to disk, one column per name in ``fieldnames``
    (a missing key is an empty or null cell).

    Bit-deterministic: fixed column order and LF line endings.  CSV writes
    floats at 17 significant digits and quotes only fields holding a comma,
    a double quote or a newline (every field of a row holding a carriage
    return).  JSON-lines writes one ``json.dumps`` object
    per row: floats in their shortest round-trip form, non-finite floats as
    ``NaN``, ``Infinity`` and ``-Infinity``.  ``format`` is ``csv`` or
    ``json-lines``.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; use 'csv' or 'json-lines'")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if format == "csv":
                writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
                # QUOTE_MINIMAL does not quote a bare carriage return, which
                # readers take for a line end, so such a row is quoted whole.
                quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
                writer.writerow(fieldnames)
                for row in rows:
                    cells = [_format_value(row.get(name)) for name in fieldnames]
                    (quoted if any("\r" in c for c in cells) else writer).writerow(cells)
            else:
                for row in rows:
                    record = {name: row.get(name) for name in fieldnames}
                    fh.write(json.dumps(record, default=np.generic.item) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc
