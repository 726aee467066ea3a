"""Single-array on-disk records.

A record is one JSON header line (utf-8, sorted keys) followed by the raw
array as little-endian 64-bit floats.  The header carries a version number
so old checkpoints stay readable if the layout ever changes.
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
