"""Datasets: container, CSV round-tripping, synthetic generation, splitting.

The on-disk format is a plain CSV with a header row: feature columns
f0..f{D-1}, an integer private label column y, an optional integer target
label column z, and an integer subject column.  Labels are relabeled to
be contiguous from 1 on load (original order preserved); floats are
written with 17 significant digits so a save/load round trip is
bit-exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE_INT, DataError, Setting,
                     ShapeError, check_features, check_labels)

_CSV_CHUNK = 1 << 20  # characters of whole lines per load_csv chunk
_ROW_BLOCK = 4096     # rows per array block of the row-by-row parser
_SYNTH_DIM = Setting(int, 2)  # the target direction lies in (e1, e2)
_ANGLE = Setting(float, 0.0, maximum=180.0)
_FRACTION = Setting(float, 0.0, maximum=1.0, exclusive=True)


@dataclass(frozen=True)
class Dataset:
    """Features with private labels y, optional target labels z, subjects.
    Labels are positive integers; a subset may lose a class, so they need
    not be contiguous (load and generation relabel them from 1)."""

    X: np.ndarray
    y: np.ndarray
    subject_ids: np.ndarray
    z: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        X = check_features("X", self.X)
        y = check_labels("y", self.y)
        subjects = np.asarray(self.subject_ids)
        if not np.issubdtype(subjects.dtype, np.integer):
            raise DataError("subject_ids must be integers")
        subjects = subjects.astype(np.int64)
        n = X.shape[0]
        if y.size != n or subjects.size != n:
            raise ShapeError("labels and subject ids must match the sample count")
        z = self.z
        if z is not None:
            z = check_labels("z", z)
            if z.size != n:
                raise ShapeError("z must match the sample count")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "subject_ids", subjects)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def num_private_classes(self) -> int:
        return int(self.y.max())

    @property
    def num_target_classes(self) -> int:
        if self.z is None:
            raise DataError("dataset has no target labels")
        return int(self.z.max())

    @property
    def n_subjects(self) -> int:
        return int(np.unique(self.subject_ids).size)

    def take(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(self.X[indices], self.y[indices],
                       self.subject_ids[indices],
                       None if self.z is None else self.z[indices],
                       self.name)


def _relabel_contiguous(values) -> np.ndarray:
    """Map sorted distinct values onto 1..K."""
    values = np.asarray(values, dtype=np.int64)
    _, inverse = np.unique(values, return_inverse=True)
    return (inverse + 1).astype(np.int64)


def load_csv(path) -> Dataset:
    """Read a dataset written by ``save_csv`` (or any CSV with that header).

    A UTF-8 byte-order mark before the header is skipped.  A plain numeric
    table, one line per row with every field present, is parsed in chunks
    of about ``_CSV_CHUNK`` characters, one vectorized call per chunk, so
    the text held at any time is one chunk however long the file is.
    Anything else (a parse failure, a ragged or blank line, quoted fields)
    sends the whole file through the row-by-row parser, which names the
    first bad row in its error.  Feature values parse as floats and must be
    finite; label and subject columns must hold integers.  A file that is
    not UTF-8 text raises ``DataError`` like any other malformed file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header_line = fh.readline()
            if not header_line:
                raise DataError(f"{path}: empty file")
            header = next(csv.reader([header_line]))
            body_start = fh.tell()
            if not fh.read(1):
                raise DataError(f"{path}: no data rows")
            fh.seek(body_start)
            index = {name: i for i, name in enumerate(header)}
            feature_cols = [name for name in header
                            if name.startswith("f") and name[1:].isdigit()]
            feature_cols.sort(key=lambda name: int(name[1:]))
            if not feature_cols:
                raise DataError(f"{path}: no f0..fD feature columns found")
            for name in ("y", "subject"):
                if name not in index:
                    raise DataError(f"{path}: missing column {name!r}")
            has_z = "z" in index
            feature_idx = [index[name] for name in feature_cols]
            label_cols = ["y", "subject"] + (["z"] if has_z else [])
            label_idx = [index[name] for name in label_cols]

            parsed = _parse_table(path, fh, len(header), feature_idx, label_idx)
            if parsed is None:
                fh.seek(body_start)
                parsed = _parse_rows(path, csv.reader(fh), len(header),
                                     feature_idx, label_idx)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    X, labels = parsed
    y, subjects = labels[:, 0], labels[:, 1]
    z = _relabel_contiguous(labels[:, 2]) if has_z else None
    return Dataset(X, _relabel_contiguous(y), subjects, z, name=str(path))


def _parse_table(path, fh, n_fields, feature_idx, label_idx):
    """(X, labels) from a plain numeric table, or None when the text from
    ``fh`` on is not one (the caller then parses row by row).

    Reads about ``_CSV_CHUNK`` characters of whole lines at a time and
    parses each chunk with one ``np.loadtxt`` call.  A non-finite feature
    in a plain chunk raises at once: the row parser, which would otherwise
    take over, stops at the same row with the same message.
    """
    dtype = np.dtype([("X", np.float64, (len(feature_idx),)),
                      ("labels", np.int64, (len(label_idx),))])
    X_parts, label_parts = [], []
    rows = 0
    while lines := fh.readlines(_CSV_CHUNK):
        if any(line.count(",") != n_fields - 1 for line in lines):
            return None
        try:
            table = np.loadtxt(lines, dtype=dtype, delimiter=",",
                               comments=None, usecols=feature_idx + label_idx,
                               ndmin=1)
        except ValueError:
            return None
        if table.shape[0] != len(lines):
            return None
        finite = np.isfinite(table["X"]).all(axis=1)
        if not finite.all():
            raise DataError(f"{path}: row {rows + int(np.argmin(finite))} "
                            "contains a non-finite feature")
        X_parts.append(table["X"])
        label_parts.append(table["labels"])
        rows += len(lines)
    return np.concatenate(X_parts), np.concatenate(label_parts)


def _parse_rows(path, reader, n_fields, feature_idx, label_idx):
    """Row-by-row parse of the records from ``reader``; raises ``DataError``
    naming the first bad row.

    Each row is converted as it is read into blocks of ``_ROW_BLOCK``
    rows, so no row outlives its own iteration as text.
    """
    X_blocks = [np.empty((0, len(feature_idx)))]
    label_blocks = [np.empty((0, len(label_idx)), dtype=np.int64)]
    rows = 0
    try:
        for r, row in enumerate(reader):
            i = r % _ROW_BLOCK
            if i == 0:
                X_blocks.append(np.empty((_ROW_BLOCK, len(feature_idx))))
                label_blocks.append(np.empty((_ROW_BLOCK, len(label_idx)),
                                             dtype=np.int64))
            X, labels = X_blocks[-1], label_blocks[-1]
            if len(row) != n_fields:
                raise DataError(f"{path}: row {r} has {len(row)} fields, "
                                f"expected {n_fields}")
            try:
                for c, col in enumerate(feature_idx):
                    X[i, c] = float(row[col])
                for c, col in enumerate(label_idx):
                    labels[i, c] = int(row[col])
            except ValueError as exc:
                raise DataError(f"{path}: row {r}: {exc}") from None
            if not np.all(np.isfinite(X[i])):
                raise DataError(f"{path}: row {r} contains a non-finite feature")
            rows = r + 1
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return (np.concatenate(X_blocks)[:rows],
            np.concatenate(label_blocks)[:rows])


def save_csv(data: Dataset, path) -> None:
    header = [f"f{j}" for j in range(data.dim)] + ["y"]
    if data.z is not None:
        header.append("z")
    header.append("subject")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n_samples):
            row = [format(v, ".17g") for v in data.X[i]]
            row.append(int(data.y[i]))
            if data.z is not None:
                row.append(int(data.z[i]))
            row.append(int(data.subject_ids[i]))
            writer.writerow(row)


def gen_synthetic(dim, n_subjects, n_target_classes, per_subject,
                  angle_deg=90.0, subject_sep=3.0, target_sep=3.0,
                  noise=0.5, seed=None, name="synthetic") -> Dataset:
    """Gaussian clusters with controllable subject/target geometry.

    Subject means are spaced ``subject_sep`` apart along e1 (centered at
    the origin); target-class offsets are spaced ``target_sep`` apart
    along the unit direction at ``angle_deg`` degrees from e1 in the
    (e1, e2) plane.  angle 90 makes the two factors orthogonal (fully
    separable), angle 0 makes them collinear (maximally conflicting).
    Private labels y are the subject index; target labels z cycle through
    the classes within each subject.
    """
    dim = _SYNTH_DIM.check("dim", dim)
    n_subjects = POSITIVE_INT.check("n_subjects", n_subjects)
    n_target_classes = POSITIVE_INT.check("n_target_classes", n_target_classes)
    per_subject = POSITIVE_INT.check("per_subject", per_subject)
    angle_deg = _ANGLE.check("angle_deg", angle_deg)
    subject_sep = NON_NEGATIVE.check("subject_sep", subject_sep)
    target_sep = NON_NEGATIVE.check("target_sep", target_sep)
    noise = NON_NEGATIVE.check("noise", noise)
    rng = np.random.default_rng(seed)
    angle = math.radians(angle_deg)
    target_dir = np.zeros(dim)
    target_dir[0] = math.cos(angle)
    target_dir[1] = math.sin(angle)

    n = n_subjects * per_subject
    subjects = np.repeat(np.arange(1, n_subjects + 1, dtype=np.int64),
                         per_subject)
    z = np.tile(np.arange(per_subject, dtype=np.int64) % n_target_classes + 1,
                n_subjects)
    X = np.zeros((n, dim))
    X[:, 0] = (subjects - 0.5 * (n_subjects + 1)) * subject_sep
    X += ((z - 0.5 * (n_target_classes + 1)) * target_sep)[:, None] * target_dir
    if noise > 0:
        draws = rng.standard_normal((n, dim))
        draws *= noise
        X += draws
    return Dataset(X, subjects, subjects, z, name=name)


def split_per_subject(data: Dataset, fraction: float, seed=None):
    """Seeded per-subject split; every subject lands in both halves.

    ceil(fraction * n_s) samples of each subject go to the training half
    (capped so at least one sample is held out), after a per-subject
    shuffle.  Identical seeds give identical splits.
    """
    fraction = _FRACTION.check("fraction", fraction)
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for subject in np.unique(data.subject_ids):
        rows = np.flatnonzero(data.subject_ids == subject)
        if rows.size < 2:
            raise DataError(
                f"subject {subject} has {rows.size} sample(s); need at least 2 to split"
            )
        order = rng.permutation(rows.size)
        n_train = min(math.ceil(fraction * rows.size), rows.size - 1)
        shuffled = rows[order]
        train_idx.extend(shuffled[:n_train])
        test_idx.extend(shuffled[n_train:])
    return data.take(np.array(train_idx)), data.take(np.array(test_idx))
