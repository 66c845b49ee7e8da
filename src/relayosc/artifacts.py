"""The artifact formats shared by the library's writers and the CLI.

A CSV artifact starts with a comment line naming the toolkit version and
the units, then a header row, then one row per entry of its columns: an
integer or boolean column as integers, a float column as the repr of each
float, which round-trips; every line ends in "\n".
A JSON artifact carries ``schema_version`` 1 and the toolkit version, and
is indented with its keys sorted; arrays are written as lists, complex
numbers as ``[re, im]`` and numpy scalars as their Python values.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np


#: Rows formatted and written at a time.
_CSV_CHUNK = 256


def write_csv(dest, version: str, units: str, header: list[str], columns) -> None:
    """Write ``columns``, one numeric array per header entry, as a CSV
    artifact to a path or a text stream.  The cells are the reprs of the
    columns' Python values, as ``csv.writer`` writes them, formatted a chunk
    of rows at a time as one list repr per column."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", newline="") as fh:
            write_csv(fh, version, units, header, columns)
        return
    columns = [c.astype(int) if c.dtype == bool else c for c in map(np.asarray, columns)]
    dest.write(f"# relayosc {version}; {units}\n")
    csv.writer(dest, lineterminator="\n").writerow(header)
    for start in range(0, min(map(len, columns), default=0), _CSV_CHUNK):
        cells = [repr(c[start:start + _CSV_CHUNK].tolist())[1:-1].split(", ") for c in columns]
        dest.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _encode(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not an artifact value")


def dumps(payload: dict) -> str:
    """``payload`` as indented JSON with sorted keys."""
    return json.dumps(payload, indent=2, sort_keys=True, default=_encode)


def json_artifact(payload: dict, version: str) -> str:
    """``payload`` under the JSON artifact header."""
    return dumps({"schema_version": 1, "toolkit_version": version, **payload})
