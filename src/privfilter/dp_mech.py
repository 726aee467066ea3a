"""Local differential-privacy release layer.

Filter outputs (or raw features) are passed through a norm-bounding map b
with ||b(h)|| <= 1, so any two bounded vectors differ by at most S = 2 in
Euclidean norm, then perturbed with additive noise drawn from the density

    p(xi) proportional to exp(-(epsilon / S) ||xi||)  on R^d.

For any two inputs the output densities then differ by a factor of at
most exp(epsilon) pointwise, which is the local differential-privacy
guarantee.  The noise is sampled in polar form: a uniform direction on
the unit sphere times a Gamma(shape=d, scale=S/epsilon) radius, which is
exactly the radial marginal of the density above (the r^{d-1} area factor
turns the exponential into a Gamma).  In one dimension this reduces to
the scalar Laplace distribution.

That bound (acceptance criterion 5, on ``log_density``) holds for the
real-valued mechanism, not the float64 release, whose reachable outputs
can depend on the input (Mironov, "On significance of the least
significant bits for differential privacy", CCS 2012).

``sample_noise`` and ``log_density`` take the noise level as
``epsilon_inverse`` = 1 / epsilon, the value a sweep's config lists, with
0 meaning release without noise.  The release, which bounds and perturbs
rows in one of two orders, is in ``harness``: a sweep stage bounds the
rows once and each cell adds its noise.  This module needs numpy alone;
in particular it does not load ``scipy.special``.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, POSITIVE_INT, DataError,
                     NumericError, Setting, ShapeError, check_features)

DEFAULT_SENSITIVITY = 2.0
_NORMALIZE_FLOOR = 1e-300
_SCAN_BLOCK = 1 << 16  # distance entries per block of the diameter scan
_SIZE = Setting(int, 0, optional=True)


class BoundKind(str, enum.Enum):
    CLIP = "clip"
    SQUASH = "squash"
    NORMALIZE = "normalize"


_BOUND_KIND = Setting(str, choices=tuple(kind.value for kind in BoundKind))


def bound(kind, scale, h) -> np.ndarray:
    """Map vectors into the unit ball; rows are bounded independently.

    clip       min(1/scale, 1/||h||) h  (linear up to ||h|| = scale, then
               direction only)
    squash     tanh(scale ||h||) h / ||h||
    normalize  h / ||h||, with near-zero inputs mapped to zero

    A row whose norm is not finite has no image in the ball: a NaN or
    infinite entry raises ``DataError``, and a finite row whose norm
    overflows ``NumericError``.
    """
    kind = BoundKind(_BOUND_KIND.check("kind", kind))
    scale = POSITIVE.check("scale", scale)
    h = np.asarray(h, dtype=np.float64)
    single = h.ndim == 1
    rows = np.atleast_2d(h)
    if rows.ndim != 2:
        raise ShapeError("bound expects a vector or a matrix of row vectors")
    norms = np.linalg.norm(rows, axis=1)
    if not np.all(np.isfinite(norms)):
        check_features("h", rows)  # a non-finite entry is the caller's
        raise NumericError("cannot bound a row whose norm is not finite "
                           "(it overflows)")
    if kind is BoundKind.NORMALIZE:
        degenerate = norms < _NORMALIZE_FLOOR
        if np.any(degenerate):
            warnings.warn("normalize bound hit a (near-)zero vector; emitting zeros",
                          RuntimeWarning, stacklevel=2)
        factors = np.where(degenerate, 0.0, 1.0 / np.where(degenerate, 1.0, norms))
    else:
        safe_norms = np.where(norms > 0, norms, 1.0)
        if kind is BoundKind.CLIP:
            factors = np.minimum(1.0 / scale, 1.0 / safe_norms)
        else:
            factors = np.tanh(scale * norms) / safe_norms
        factors = np.where(norms > 0, factors, 0.0)
    out = rows * factors[:, None]
    # Rounding in factor * row can leave a norm an ulp or two above 1,
    # which would leak past the sensitivity budget; pull those rows back
    # strictly inside the ball (the 1e-15 undershoot dominates rounding).
    out_norms = np.linalg.norm(out, axis=1)
    over = out_norms > 1.0
    while np.any(over):
        out[over] *= (1.0 - 1e-15) / out_norms[over, None]
        out_norms = np.linalg.norm(out, axis=1)
        over = out_norms > 1.0
    return out[0] if single else out


def bound_scale_from_norms(norms) -> float:
    """Default bounding scale, the reciprocal 95th percentile of ||g(x)||."""
    norms = np.asarray(norms, dtype=np.float64)
    if norms.size == 0:
        raise DataError("cannot derive a bound scale from no samples")
    if not np.all(np.isfinite(norms)):
        raise DataError("norms contains non-finite values")
    reference = float(np.percentile(norms, 95.0))
    if reference <= 0:
        return 1.0
    return 1.0 / reference


def sample_noise(epsilon_inverse, dim: int, rng=None, size=None) -> np.ndarray:
    """Draw noise vectors at ``epsilon_inverse`` = 1 / epsilon; returns
    (dim,) or (size, dim).

    ``rng`` is a Generator, a seed or None (fresh entropy).  At
    ``epsilon_inverse`` = 0 (no noise) this returns exact zeros without
    consuming random state; a negative, NaN or infinite value raises
    ``DataError``.
    """
    epsilon_inverse = NON_NEGATIVE.check("epsilon_inverse", epsilon_inverse)
    dim = POSITIVE_INT.check("dim", dim)
    size = _SIZE.check("size", size)
    n = 1 if size is None else size
    if epsilon_inverse == 0:
        out = np.zeros((n, dim))
        return out[0] if size is None else out
    rate = (1.0 / epsilon_inverse) / DEFAULT_SENSITIVITY  # epsilon / S
    rng = np.random.default_rng(rng)
    directions = rng.standard_normal((n, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    # A zero draw from a continuous density has probability zero but would
    # divide by zero; its norm is set to 1, so that row's noise is zero.
    norms[norms == 0] = 1.0
    directions /= norms
    radii = rng.gamma(shape=dim, scale=1.0 / rate, size=n)
    directions *= radii[:, None]
    return directions[0] if size is None else directions


def log_density(xi, epsilon_inverse) -> float | np.ndarray:
    """Log of the noise density at ``epsilon_inverse`` = 1 / epsilon,
    evaluated at xi (rows of xi if 2-d).

    Only a positive, finite ``epsilon_inverse`` has a density; any other
    value raises ``DataError``.  The normalizer of exp(-rate ||xi||) over
    R^d is surface(S^{d-1}) * Gamma(d) / rate^d with
    surface(S^{d-1}) = 2 pi^{d/2} / Gamma(d/2).  The log-Gammas come from
    ``math.lgamma``, so the release layer needs no ``scipy.special``.
    """
    epsilon_inverse = POSITIVE.check("epsilon_inverse", epsilon_inverse)
    rate = (1.0 / epsilon_inverse) / DEFAULT_SENSITIVITY
    xi = np.asarray(xi, dtype=np.float64)
    single = xi.ndim == 1
    rows = np.atleast_2d(xi)
    dim = rows.shape[1]
    log_norm = (math.log(2.0) + 0.5 * dim * math.log(math.pi)
                - math.lgamma(0.5 * dim) + math.lgamma(dim)
                - dim * math.log(rate))
    values = -rate * np.linalg.norm(rows, axis=1) - log_norm
    return float(values[0]) if single else values


@dataclass(frozen=True)
class DiameterReport:
    """Data diameters that calibrate the mechanism without bounding.

    ``cross_subject`` is the largest distance between samples with
    different private labels but the same target label; ``within_subject``
    the largest between samples sharing a private label but differing in
    target label.  When no pair qualifies the diameter is reported as 0,
    its pair as None and its ``*_attained`` flag as False.
    """

    cross_subject: float
    within_subject: float
    cross_pair: tuple | None
    within_pair: tuple | None

    @property
    def cross_attained(self) -> bool:
        return self.cross_pair is not None

    @property
    def within_attained(self) -> bool:
        return self.within_pair is not None


def compute_diameters(X, y, z) -> DiameterReport:
    """Exact scan for the two calibration diameters.

    A cross-subject pair shares its target label, so it is searched only
    inside each z group, and a within-subject pair only inside each y
    group.  Squared distances are ||x_i||^2 + ||x_j||^2 - 2 x_i.x_j,
    clamped at 0.  Among pairs at the maximal distance the report names
    the smallest (i, j), i < j, in row-major order.  Any values serve as
    labels: only their equality defines the groups.  Non-finite features
    raise ``DataError``, and so does ``z`` None: the cross-subject pairs
    are defined by the target labels.

    Each group is scanned farthest-from-centre first and pruned exactly
    (see ``_farthest_pair``), in blocks of about ``_SCAN_BLOCK`` distance
    entries, so the working memory is a few block-sized arrays plus one
    copy of the largest group's features.  The work is at most
    O(sum of squared group sizes) distance entries, and on data with a
    few far-out rows per group it is far less.
    """
    if z is None:
        raise DataError("the diameters need target labels z (a z column)")
    X = check_features("X", X, finite=False)  # scanned block by block below
    y = np.asarray(y)
    z = np.asarray(z)
    if y.shape != (X.shape[0],) or z.shape != (X.shape[0],):
        raise ShapeError("labels must be 1-d with one entry per sample")
    rows = max(1, _SCAN_BLOCK // X.shape[1])
    sq_norms = np.empty(X.shape[0])
    for r in range(0, X.shape[0], rows):
        block = X[r:r + rows]
        if not np.all(np.isfinite(block)):
            raise DataError("X contains non-finite values")
        np.sum(block * block, axis=1, out=sq_norms[r:r + rows])
    cross, cross_pair = _farthest_pair(X, sq_norms, z, y)
    within, within_pair = _farthest_pair(X, sq_norms, y, z)
    return DiameterReport(cross, within, cross_pair, within_pair)


def _centre_distances(X, members, rows):
    """||x_i - c|| for each member row, c the members' mean, ``rows`` rows
    at a time."""
    centre = X[members].mean(axis=0)
    out = np.empty(members.size)
    for r in range(0, members.size, rows):
        diff = X[members[r:r + rows]] - centre
        diff *= diff
        np.sqrt(diff.sum(axis=1), out=out[r:r + rows])
    return out


def _farthest_pair(X, sq_norms, group_labels, pair_labels):
    """(distance, (i, j)) for the farthest pair i < j sharing
    ``group_labels`` and differing in ``pair_labels``, or (0.0, None) if no
    pair qualifies.  Ties go to the smallest (i, j) in row-major order."""
    best = None
    order = np.argsort(group_labels, kind="stable")
    sorted_labels = group_labels[order]
    cuts = np.flatnonzero(sorted_labels[1:] != sorted_labels[:-1]) + 1
    for members in np.split(order, cuts):
        labels = pair_labels[members]
        if members.size > 1 and np.any(labels != labels[0]):
            best = _scan_group(X, sq_norms, members, labels, best)
    if best is None:
        return 0.0, None
    return float(np.sqrt(best[0])), best[1]


def _scan_group(X, sq_norms, members, labels, best):
    """The best (squared distance, (i, j)) over ``best`` (or None) and the
    pairs of ``members`` whose ``labels`` differ.

    The rows are ordered by their distance r_i from the group centre,
    farthest first, and the scan walks the upper triangle of that order in
    blocks of rows.  By the triangle inequality a pair is no farther apart
    than r_i + r_j, so a block's columns stop where that bound, widened
    for the rounding in the squared distances and in r, falls strictly
    below the best squared distance so far; once no column is left, no
    later row can reach it either.  Skipped pairs are strictly shorter
    than the best, so the maximum and its smallest-(i, j) tie-break are
    those of the full scan.
    """
    m, dim = members.size, X.shape[1]
    radii = _centre_distances(X, members, max(1, _SCAN_BLOCK // dim))
    visit = np.argsort(-radii, kind="stable")
    members, radii, labels = members[visit], radii[visit], labels[visit]
    Xg = X[members]
    norms = sq_norms[members]
    # The computed squared distance of a pair is within about
    # (dim + 3) eps (||x_i||^2 + ||x_j||^2) of the exact one, and each r
    # within (dim + 3) eps / 2 of its exact value; ``rel`` covers both
    # several times over.
    rel = 8 * (dim + 4) * np.finfo(np.float64).eps
    slack = rel * 2.0 * norms.max()
    p, q = 0, m
    while True:
        if best is not None and q - p >= 2:
            reach = radii[p] + radii[p + 1:q]
            reach *= reach
            reach *= 1.0 + rel
            reach += slack
            q = p + 1 + int(np.count_nonzero(reach >= best[0]))
        if q - p < 2:
            return best
        r, p = p, min(p + max(2, _SCAN_BLOCK // (q - p)), q)
        # Rows r..p-1 against columns r..q-1: with two or more rows on each
        # side BLAS takes a matrix-matrix kernel, as the dense X @ X.T does,
        # and not a vector kernel, which sums in another order.
        dots = Xg[r:p] @ Xg[r:q].T
        dots *= 2.0
        sq_dist = norms[r:p, None] + norms[None, r:q]
        sq_dist -= dots
        np.maximum(sq_dist, 0.0, out=sq_dist)
        drop = labels[r:p, None] == labels[None, r:q]
        drop[:, :p - r] |= np.tri(p - r, dtype=bool)
        np.copyto(sq_dist, -np.inf, where=drop)
        value = sq_dist.max()
        if value == -np.inf or (best is not None and value < best[0]):
            continue
        a, c = np.nonzero(sq_dist == value)
        first, second = members[r + a], members[r + c]
        lo, hi = np.minimum(first, second), np.maximum(first, second)
        k = np.lexsort((hi, lo))[0]
        pair = (int(lo[k]), int(hi[k]))
        if best is None or value > best[0] or pair < best[1]:
            best = (value, pair)
