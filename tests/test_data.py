import math
import tracemalloc

import numpy as np
import pytest
from oracles import gen_synthetic_reference

from privfilter import data as data_mod
from privfilter.data import (Dataset, gen_synthetic, load_csv, save_csv,
                             split_per_subject)
from privfilter.errors import DataError, ShapeError


def test_dataset_validation():
    X = np.ones((4, 2))
    good = Dataset(X, np.array([1, 1, 2, 2]), np.array([1, 1, 2, 2]))
    assert good.n_samples == 4 and good.dim == 2 and good.z is None
    assert good.num_private_classes == 2 and good.n_subjects == 2
    with pytest.raises(DataError):
        good.num_target_classes
    with pytest.raises(ShapeError):
        Dataset(np.ones(4), np.array([1]), np.array([1]))
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([1]), np.array([1]))
    with pytest.raises(DataError):
        Dataset(X, np.array([0, 1, 2, 2]), np.array([1, 1, 2, 2]))
    with pytest.raises(DataError):
        Dataset(X, np.array([1.5, 1, 2, 2]), np.array([1, 1, 2, 2]))
    with pytest.raises(ShapeError):
        Dataset(X, np.array([1, 1, 2]), np.array([1, 1, 2, 2]))
    with pytest.raises(ShapeError):
        Dataset(X, np.array([1, 1, 2, 2]), np.array([1, 1, 2, 2]),
                z=np.array([1, 2]))


def test_take_preserves_fields():
    data = gen_synthetic(3, 2, 2, 6, seed=0, name="toy")
    sub = data.take(np.array([0, 2, 4]))
    assert sub.n_samples == 3
    np.testing.assert_array_equal(sub.X, data.X[[0, 2, 4]])
    np.testing.assert_array_equal(sub.z, data.z[[0, 2, 4]])
    assert sub.name == "toy"


def test_generator_noise_free_geometry():
    data = gen_synthetic(dim=4, n_subjects=3, n_target_classes=2,
                         per_subject=4, angle_deg=90.0, subject_sep=2.0,
                         target_sep=1.0, noise=0.0, seed=1)
    assert data.n_samples == 12
    # subject means sit at -2, 0, 2 along axis 0; class offsets +-0.5 on axis 1
    for s in (1, 2, 3):
        rows = data.X[data.subject_ids == s]
        np.testing.assert_allclose(rows[:, 0], (s - 2) * 2.0, atol=1e-12)
    for cls, offset in ((1, -0.5), (2, 0.5)):
        rows = data.X[data.z == cls]
        np.testing.assert_allclose(rows[:, 1], offset, atol=1e-12)
    assert not data.X[:, 2:].any()
    # target labels cycle within each subject
    np.testing.assert_array_equal(data.z[:4], [1, 2, 1, 2])


def test_generator_angle_controls_conflict():
    collinear = gen_synthetic(3, 2, 2, 4, angle_deg=0.0, noise=0.0, seed=2)
    assert not collinear.X[:, 1:].any()  # everything lands on axis 0
    oblique = gen_synthetic(3, 2, 2, 4, angle_deg=45.0, target_sep=2.0,
                            noise=0.0, seed=2)
    spread = oblique.X[:, 1]
    np.testing.assert_allclose(np.unique(np.round(spread, 12)),
                               [-math.sqrt(2) / 2, math.sqrt(2) / 2])


@pytest.mark.parametrize("args, kwargs", [
    ((20, 8, 2, 500), {}),
    ((50, 20, 4, 400), dict(noise=1.0)),
    ((6, 3, 3, 7), dict(angle_deg=37.0, subject_sep=1.5, target_sep=0.7)),
    ((5, 4, 3, 6), dict(angle_deg=37.0, noise=0.0)),
    ((2, 1, 1, 1), dict(angle_deg=180.0, noise=2.0)),
])
def test_generator_matches_the_row_by_row_reference_bit_for_bit(args, kwargs):
    data = gen_synthetic(*args, **kwargs, seed=11)
    X, y, z, subjects = gen_synthetic_reference(*args, **kwargs, seed=11)
    # byte equality also tells 0.0 from -0.0
    assert data.X.tobytes() == X.tobytes()
    np.testing.assert_array_equal(data.y, y)
    np.testing.assert_array_equal(data.z, z)
    np.testing.assert_array_equal(data.subject_ids, subjects)


def test_generator_seeded_and_validated():
    a = gen_synthetic(5, 2, 2, 10, noise=0.3, seed=7)
    b = gen_synthetic(5, 2, 2, 10, noise=0.3, seed=7)
    assert np.array_equal(a.X, b.X)
    c = gen_synthetic(5, 2, 2, 10, noise=0.3, seed=8)
    assert not np.array_equal(a.X, c.X)
    with pytest.raises(DataError, match="dim must be at least 2"):
        gen_synthetic(1, 2, 2, 4)
    with pytest.raises(DataError, match="n_subjects"):
        gen_synthetic(3, 0, 2, 4)
    with pytest.raises(DataError):
        gen_synthetic(3, 2, 2, 4, angle_deg=200.0)
    with pytest.raises(DataError):
        gen_synthetic(3, 2, 2, 4, noise=-1.0)


def test_csv_round_trip(tmp_path):
    data = gen_synthetic(dim=6, n_subjects=3, n_target_classes=2,
                         per_subject=5, noise=0.4, seed=3)
    path = tmp_path / "toy.csv"
    save_csv(data, path)
    loaded = load_csv(path)
    np.testing.assert_array_equal(loaded.X, data.X)  # .17g survives exactly
    np.testing.assert_array_equal(loaded.y, data.y)
    np.testing.assert_array_equal(loaded.z, data.z)
    np.testing.assert_array_equal(loaded.subject_ids, data.subject_ids)


def test_csv_round_trip_wide(tmp_path):
    # many columns, so f10 must sort after f9, not between f1 and f2
    rng = np.random.default_rng(4)
    data = Dataset(rng.standard_normal((8, 561)),
                   rng.integers(1, 3, size=8) * 0 + np.array([1, 2] * 4),
                   np.arange(8) % 2 + 1)
    path = tmp_path / "wide.csv"
    save_csv(data, path)
    loaded = load_csv(path)
    assert loaded.z is None
    np.testing.assert_array_equal(loaded.X, data.X)


def test_csv_relabels_to_contiguous(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("f0,f1,y,z,subject\n"
                    "0.5,1.0,10,7,100\n"
                    "1.5,2.0,30,7,100\n"
                    "2.5,3.0,10,9,200\n")
    data = load_csv(path)
    np.testing.assert_array_equal(data.y, [1, 2, 1])
    np.testing.assert_array_equal(data.z, [1, 1, 2])
    np.testing.assert_array_equal(data.subject_ids, [100, 100, 200])


def test_csv_errors_carry_row_numbers(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(empty)
    headers_only = tmp_path / "h.csv"
    headers_only.write_text("f0,y,subject\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(headers_only)
    no_features = tmp_path / "nf.csv"
    no_features.write_text("x,y,subject\n1,1,1\n")
    with pytest.raises(DataError, match="f0..fD"):
        load_csv(no_features)
    bad_value = tmp_path / "bad.csv"
    bad_value.write_text("f0,y,subject\n1.0,1,1\noops,2,1\n")
    with pytest.raises(DataError, match="row 1"):
        load_csv(bad_value)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("f0,y,subject\n1.0,1\n")
    with pytest.raises(DataError, match="row 0"):
        load_csv(ragged)
    non_finite = tmp_path / "inf.csv"
    non_finite.write_text("f0,y,subject\ninf,1,1\n")
    with pytest.raises(DataError, match="non-finite"):
        load_csv(non_finite)


def test_csv_rejects_non_integer_labels_with_row_numbers(tmp_path):
    for text, row in (("f0,y,subject\n1.0,1,1\n2.0,1.5,1\n", 1),
                      ("f0,y,z,subject\n1.0,1,2.0,1\n", 0),
                      ("f0,y,subject\n1.0,1,1\n2.0,2,x\n", 1)):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"row {row}"):
            load_csv(path)


def test_csv_irregular_files_parse_row_by_row(tmp_path):
    plain = "f0,f1,y,note,subject\n0.5,1,3,a,12345678901234567\n-2e3,4,1,b,7\n"
    path = tmp_path / "plain.csv"
    path.write_text(plain)
    expected = load_csv(path)
    # a subject id beyond 2**53 survives exactly; unused text columns are skipped
    np.testing.assert_array_equal(expected.subject_ids, [12345678901234567, 7])
    np.testing.assert_array_equal(expected.X, [[0.5, 1.0], [-2000.0, 4.0]])
    quoted = plain.replace("0.5,1,3", '"0.5","1",3')
    path.write_text(quoted)
    data = load_csv(path)
    np.testing.assert_array_equal(data.X, expected.X)
    np.testing.assert_array_equal(data.y, expected.y)
    np.testing.assert_array_equal(data.subject_ids, expected.subject_ids)
    for text, message in ((plain + "\n", "row 2 has 0 fields"),
                          (plain + "1,2,3,c,4,5\n", "row 2 has 6 fields"),
                          (plain.replace("-2e3", "nan"), "row 1 contains a non-finite")):
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            load_csv(path)


def test_csv_skips_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbff0,f1,y,subject\n1.0,2.0,1,1\n3.0,4.0,2,1\n")
    data = load_csv(path)
    np.testing.assert_array_equal(data.X, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(data.y, [1, 2])


def test_csv_line_endings_parse_alike(tmp_path):
    lines = ["f0,f1,y,z,subject", "0.5,1.0,1,2,3", "-1.5,2e3,2,1,3",
             "4.25,-0.0,1,1,4"]
    loaded = []
    for ending in ("\n", "\r\n", "\r"):
        path = tmp_path / "endings.csv"
        path.write_bytes((ending.join(lines) + ending).encode())
        loaded.append(load_csv(path))
    for data in loaded:
        np.testing.assert_array_equal(data.X, loaded[0].X)
        np.testing.assert_array_equal(data.y, loaded[0].y)
        np.testing.assert_array_equal(data.z, loaded[0].z)
        np.testing.assert_array_equal(data.subject_ids, [3, 3, 4])
    path.write_bytes(b"f0,y,subject\r\n1.0,1,1\r\n2.0,1\r\n")
    with pytest.raises(DataError, match="row 1 has 2 fields"):
        load_csv(path)


def test_csv_chunks_parse_like_one_table(tmp_path, monkeypatch):
    data = gen_synthetic(dim=7, n_subjects=3, n_target_classes=2,
                         per_subject=30, noise=0.4, seed=6)
    path = tmp_path / "chunks.csv"
    save_csv(data, path)
    whole = load_csv(path)
    monkeypatch.setattr(data_mod, "_CSV_CHUNK", 300)  # a few rows per chunk
    chunked = load_csv(path)
    np.testing.assert_array_equal(chunked.X, whole.X)
    np.testing.assert_array_equal(chunked.X, data.X)
    np.testing.assert_array_equal(chunked.y, whole.y)
    np.testing.assert_array_equal(chunked.z, whole.z)
    np.testing.assert_array_equal(chunked.subject_ids, whole.subject_ids)


def test_csv_errors_past_the_first_chunk_keep_file_row_numbers(tmp_path, monkeypatch):
    monkeypatch.setattr(data_mod, "_CSV_CHUNK", 40)  # about four rows per chunk
    rows = [f"{r}.5,1,{r % 3 + 1}" for r in range(30)]
    path = tmp_path / "late.csv"
    for bad_row, line, message in (
            (17, "2.0,1", "row 17 has 2 fields, expected 3"),
            (22, "", "row 22 has 0 fields, expected 3"),
            (19, "oops,1,1", "row 19: could not convert string to float: 'oops'"),
            (25, "inf,1,1", "row 25 contains a non-finite feature"),
            (13, "1.0,2.5,1", "row 13: invalid literal for int"),
            (28, '"1.0",1,1', None)):
        body = rows.copy()
        body[bad_row] = line
        path.write_text("f0,y,subject\n" + "\n".join(body) + "\n")
        if message is None:  # quoted: parsed row by row, and correctly
            data = load_csv(path)
            assert data.n_samples == 30 and data.X[28, 0] == 1.0
            assert data.X[29, 0] == 29.5
            continue
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value).startswith(f"{path}: {message}")
    huge = tmp_path / "huge.csv"
    huge.write_text("f0,y,subject\n1.0,1,1\n\"" + "9" * 200_000 + "\",1,1\n")
    with pytest.raises(DataError, match="field larger than field limit"):
        load_csv(huge)


def test_csv_load_memory_is_bounded(tmp_path):
    data = gen_synthetic(dim=50, n_subjects=20, n_target_classes=4,
                         per_subject=400, noise=1.0, seed=0)
    path = tmp_path / "wide.csv"
    save_csv(data, path)
    tracemalloc.start()
    try:
        loaded = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded.X, data.X)
    # 8,000 x 50 features are 3.2 MB as float64 and 8.1 MB as text; holding
    # the whole text, its split lines and a UCS-4 copy of it peaked at 50 MB
    assert peak < 16 * 2**20


def test_irregular_csv_load_memory_is_bounded(tmp_path):
    data = gen_synthetic(dim=50, n_subjects=20, n_target_classes=4,
                         per_subject=400, noise=1.0, seed=0)
    path = tmp_path / "quoted.csv"
    save_csv(data, path)
    text = path.read_text()
    first = text.index("\n") + 1
    comma = text.index(",", first)
    # quoting the first feature sends the whole file through the row parser
    path.write_text(text[:first] + '"' + text[first:comma] + '"' + text[comma:])
    tracemalloc.start()
    try:
        loaded = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded.X, data.X)
    np.testing.assert_array_equal(loaded.subject_ids, data.subject_ids)
    # holding all 8,000 rows as lists of strings first peaked at 34 MB
    assert peak < 16 * 2**20


def test_row_parser_blocks_keep_values_and_row_numbers(tmp_path, monkeypatch):
    monkeypatch.setattr(data_mod, "_ROW_BLOCK", 4)
    rows = [f"{r}.5,1,{r % 3 + 1}" for r in range(30)]
    path = tmp_path / "blocks.csv"
    path.write_text('f0,y,subject\n"0.5",1,1\n' + "\n".join(rows[1:]) + "\n")
    data = load_csv(path)
    assert data.n_samples == 30
    np.testing.assert_array_equal(data.X[:, 0], np.arange(30) + 0.5)
    np.testing.assert_array_equal(data.subject_ids, np.arange(30) % 3 + 1)
    for bad_row, line, message in (
            (9, "2.0,1", "row 9 has 2 fields, expected 3"),
            (12, "oops,1,1", "row 12: could not convert string to float"),
            (23, "inf,1,1", "row 23 contains a non-finite feature")):
        body = rows.copy()
        body[0] = '"0.5",1,1'
        body[bad_row] = line
        path.write_text("f0,y,subject\n" + "\n".join(body) + "\n")
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value).startswith(f"{path}: {message}")


def test_split_covers_every_subject_and_partitions():
    data = gen_synthetic(4, 5, 2, 11, noise=0.2, seed=5)
    train, test = split_per_subject(data, 0.8, seed=0)
    assert train.n_samples + test.n_samples == data.n_samples
    # ceil(0.8 * 11) = 9 per subject
    assert train.n_samples == 45 and test.n_samples == 10
    assert set(np.unique(train.subject_ids)) == set(np.unique(test.subject_ids))
    # partition: each original row appears exactly once
    joined = np.vstack([train.X, test.X])
    assert np.unique(joined, axis=0).shape[0] == data.n_samples


def test_split_holds_out_at_least_one_sample():
    data = gen_synthetic(3, 2, 2, 3, noise=0.1, seed=6)
    train, test = split_per_subject(data, 0.99, seed=1)
    # cap: ceil(0.99 * 3) = 3 would leave nothing, so 2 go to train
    assert train.n_samples == 4 and test.n_samples == 2
    tiny = Dataset(np.ones((2, 2)), np.array([1, 2]), np.array([1, 2]))
    with pytest.raises(DataError):
        split_per_subject(tiny, 0.5)
    with pytest.raises(DataError):
        split_per_subject(data, 1.0)


def test_split_seed_behavior():
    data = gen_synthetic(4, 3, 2, 10, noise=0.2, seed=7)
    t1, e1 = split_per_subject(data, 0.7, seed=42)
    t2, e2 = split_per_subject(data, 0.7, seed=42)
    assert np.array_equal(t1.X, t2.X) and np.array_equal(e1.X, e2.X)
    t3, _ = split_per_subject(data, 0.7, seed=43)
    assert not np.array_equal(t1.X, t3.X)
    # a Generator is honored in place of an integer seed
    g = np.random.default_rng(42)
    t4, _ = split_per_subject(data, 0.7, seed=g)
    assert t4.n_samples == t1.n_samples
