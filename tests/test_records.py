import numpy as np
import pytest

from privfilter.errors import DataError
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
