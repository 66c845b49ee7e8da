"""The artifact formats shared by the library's writers and the CLI.

A CSV artifact starts with a comment line naming the toolkit version and
the units, then a header row; a Python ``int`` cell is written as an
integer and every other cell as the repr of a float, which round-trips;
every line ends in "\n".
A JSON artifact carries ``schema_version`` 1 and the toolkit version, and
is indented with its keys sorted.
"""

from __future__ import annotations

import csv
import json
import os


def write_csv(dest, version: str, units: str, header: list[str], rows) -> None:
    """Write ``rows`` under ``header`` as a CSV artifact to a path or a text
    stream."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", newline="") as fh:
            write_csv(fh, version, units, header, rows)
        return
    dest.write(f"# relayosc {version}; {units}\n")
    w = csv.writer(dest, lineterminator="\n")
    w.writerow(header)
    w.writerows([c if type(c) is int else repr(float(c)) for c in row] for row in rows)


def dumps(payload: dict) -> str:
    """``payload`` as indented JSON with sorted keys."""
    return json.dumps(payload, indent=2, sort_keys=True)


def json_artifact(payload: dict, version: str) -> str:
    """``payload`` under the JSON artifact header."""
    return dumps({"schema_version": 1, "toolkit_version": version, **payload})
