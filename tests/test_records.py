import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from privfilter import (gen_synthetic, identity_filter, load_csv, load_filter,
                        load_results, save_csv, save_filter)
from privfilter.errors import DataError
from privfilter.minimax_opt import IterationRecord, load_report_records
from privfilter.records import read_record, write_record


def test_round_trip(tmp_path):
    path = tmp_path / "blob.rec"
    values = np.linspace(-3.0, 7.0, 17)
    write_record(path, {"record": "demo", "rows": 17}, values)
    header, loaded = read_record(path)
    assert header["record"] == "demo"
    assert header["rows"] == 17
    assert header["record_version"] == 1
    assert loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded, values)


def test_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.rec"
    path.write_bytes(b"\xff\xfe not a record")
    with pytest.raises(DataError):
        read_record(path)


@pytest.mark.parametrize("header", [b"[1, 2]", b'"x"', b"3", b"null"])
def test_rejects_a_header_that_is_not_an_object(tmp_path, header):
    path = tmp_path / "list.rec"
    path.write_bytes(header + b"\n")
    with pytest.raises(DataError, match="list.rec: not a record file"):
        read_record(path)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "future.rec"
    path.write_bytes(b'{"record_version": 99}\n')
    with pytest.raises(DataError):
        read_record(path)


def test_rejects_a_truncated_payload(tmp_path):
    path = tmp_path / "cut.rec"
    write_record(path, {"record": "demo"}, np.arange(3.0))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(DataError, match="cut.rec.*21 bytes"):
        read_record(path)


def _csv_cut_mid_row(path):
    save_csv(gen_synthetic(3, 2, 2, 4, seed=0), path)
    path.write_bytes(path.read_bytes()[:-4])


def _filter_one_float_short(path):
    save_filter(identity_filter(3), path)
    path.write_bytes(path.read_bytes()[:-8])


_RECORD = asdict(IterationRecord(0, 1.0, 0.5, 0.5, 0.0, 3, 0.1))


# (loader, file name, how the file is broken, what the message says after
# the path): each load raises DataError naming the file
_BROKEN_FILES = {
    "csv-not-utf8": (load_csv, "data.csv", lambda p: p.write_bytes(
        b"f0,y,subject\n\xff,1,1\n"), "not UTF-8"),
    "csv-cut": (load_csv, "data.csv", _csv_cut_mid_row, "row 7 has 5 fields, expected 6"),
    "filter-not-utf8": (load_filter, "filter.rec", lambda p: p.write_bytes(
        b"\xff\xfe\n"), "not a record file"),
    "filter-cut": (load_filter, "filter.rec", _filter_one_float_short,
                   "expected 9 parameters, got 8"),
    "results-not-utf8": (load_results, "cells.jsonl", lambda p: p.write_bytes(
        b'{"trial": 0}\n\xff\n'), "line 2: not JSON"),
    "results-cut": (load_results, "cells.jsonl", lambda p: p.write_text(
        '{"trial": 0}\n\n{"tri'), "line 3: not JSON"),
    "results-list": (load_results, "cells.jsonl", lambda p: p.write_text(
        "[1, 2]\n"), "line 1: not a JSON object"),
    "results-no-cell": (load_results, "cells.jsonl", lambda p: p.write_text(
        '{"trial": 0}\n'), "line 1: missing filter, dim, epsilon_inverse"),
    "report-not-utf8": (load_report_records, "run.jsonl", lambda p: p.write_bytes(
        b"\xff\n"), "line 1: not JSON"),
    "report-foreign-key": (load_report_records, "run.jsonl", lambda p: p.write_text(
        json.dumps({**_RECORD, "foreign": 1}) + "\n"), "foreign"),
    "report-missing-key": (load_report_records, "run.jsonl", lambda p: p.write_text(
        json.dumps({k: v for k, v in _RECORD.items() if k != "grad_norm"}) + "\n"),
        "grad_norm"),
}


@pytest.mark.parametrize("case", _BROKEN_FILES)
def test_every_loader_names_the_file_it_rejects(tmp_path, case):
    load, name, damage, detail = _BROKEN_FILES[case]
    path = tmp_path / name
    damage(path)
    with pytest.raises(DataError, match=re.escape(str(path)) + ".*" + detail):
        load(path)
