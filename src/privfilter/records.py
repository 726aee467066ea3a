"""On-disk records: single arrays and JSON lines.

A record is one JSON header line (utf-8, sorted keys) followed by the raw
array as little-endian 64-bit floats.  The header carries a version number
so old checkpoints stay readable if the layout ever changes.  A JSON-lines
file (``write_jsonl``/``read_jsonl``) holds one sorted-key JSON object per
line; sweep results and training reports are written in it.
"""

import json

import numpy as np

from .errors import DataError

RECORD_VERSION = 1


def write_record(path, header: dict, values) -> None:
    header = dict(header)
    header["record_version"] = RECORD_VERSION
    blob = np.asarray(values, dtype=np.float64).ravel().astype("<f8")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob.tobytes())


def read_record(path):
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: not a record file ({exc})") from exc
        if not isinstance(header, dict):
            raise DataError(f"{path}: not a record file (its header is not "
                            "a JSON object)")
        if header.get("record_version") != RECORD_VERSION:
            raise DataError(
                f"{path}: unsupported record version {header.get('record_version')!r}"
            )
        payload = fh.read()
    if len(payload) % 8:
        raise DataError(f"{path}: payload of {len(payload)} bytes is not a "
                        "whole number of 64-bit floats")
    return header, np.frombuffer(payload, dtype="<f8").astype(np.float64)


def write_jsonl(path, rows) -> None:
    """One ``json.dumps(row, sort_keys=True)`` line per row."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")


def read_jsonl(path, required=()) -> list:
    """The rows of a JSON-lines file; blank lines are skipped.  A line that
    is not UTF-8 JSON, or not a JSON object, raises ``DataError`` naming
    the path and the line's 1-based number; so does, once every line has
    parsed, an object without one of the ``required`` keys."""
    rows = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
                raise DataError(f"{path}: line {number}: not JSON ({exc})") from None
            if not isinstance(row, dict):
                raise DataError(f"{path}: line {number}: not a JSON object")
            rows.append((number, row))
    for number, row in rows:
        if missing := [key for key in required if key not in row]:
            raise DataError(f"{path}: line {number}: missing {', '.join(missing)}")
    return [row for _, row in rows]
