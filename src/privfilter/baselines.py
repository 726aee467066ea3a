"""Reference linear filters to compare trained filters against.

All are plain linear filters, so they drop into the same release and
evaluation pipeline: a full-rank random projection, principal
components, a partial-least-squares-style filter whose directions favor
target-label covariance while penalizing private-label covariance, and
a discriminant-style spectral filter (``privacy_lds``, which returns the
filter matrix) that maximizes target-class scatter relative to
private-class scatter, usable directly or as a minimax initializer.
``harness.fit_filter`` dispatches to them by filter kind.

Only ``privacy_lds`` uses scipy: on its first call it loads LAPACK's
generalized symmetric eigensolver ``dsygvd`` from scipy's compiled
``scipy.linalg._flapack`` alone (``kernels.scipy_kernel``), without
importing ``scipy.linalg``; numpy does not reproduce its basis of a
repeated eigenvalue (see its docstring).  Importing this module and
calling its other functions need numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, POSITIVE_INT, DataError,
                     NumericError, ShapeError, check_dim, check_features,
                     check_labels)
from .filters import FilterState, linear_filter
from .kernels import scipy_kernel

_RANK_TOL = 1e-10
_MAX_RANK_RETRIES = 10
DEFAULT_LDS_RIDGE_FACTOR = 1e-3


def _check_square_symmetric(a, name) -> np.ndarray:
    a = check_features(name, a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-10 * scale:
        raise ShapeError(f"{name} must be symmetric")
    return a


def fix_eigvec_signs(vectors) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    vectors = np.array(vectors, dtype=np.float64)
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        lead = col[np.argmax(np.abs(col))]
        if lead < 0:
            vectors[:, j] = -col
    return vectors


def fit_rand(input_dim: int, d: int, seed=None) -> FilterState:
    """Standard-normal projection, resampled until numerically full rank."""
    d = check_dim("d", d, POSITIVE_INT.check("input_dim", input_dim))
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RANK_RETRIES):
        matrix = rng.standard_normal((input_dim, d))
        if np.linalg.svd(matrix, compute_uv=False)[-1] > _RANK_TOL:
            return linear_filter(matrix)
    raise NumericError("could not draw a full-rank random projection")


def fit_pca(X, d: int) -> FilterState:
    """Top-d principal directions of the mean-centered features."""
    X = check_features("X", X, rows=2)
    d = check_dim("d", d, X.shape[1])
    centered = X - X.mean(axis=0)
    covariance = centered.T @ centered / X.shape[0]
    eigvals, eigvecs = np.linalg.eigh(covariance)
    top = eigvecs[:, ::-1][:, :d]
    return linear_filter(fix_eigvec_signs(top))


def fit_ppls(X, y_onehot, z_onehot, ppls_lambda: float, d: int) -> FilterState:
    """Greedy directions trading target covariance against private covariance.

    Each column is the top unit eigenvector of
    M = C_xz C_xz' - lambda_p C_xy C_xy', after which M is deflated by
    projecting out the chosen direction.

    Only the leading columns are fixed by the data: M has at most K_z
    positive eigenvalues (rank C_xz C_xz' <= K_z, and the private term is
    negative semidefinite), and later columns are LAPACK's pick of a basis
    of the repeated eigenvalue 0.  On ``release-sweep``'s training half M
    has 4 eigenvalues above 1e-12 and 27 within 1e-12 of zero, so every
    ``ppls`` filter's 5th column there is LAPACK's pick.
    """
    X = check_features("X", X)
    y_onehot = check_features("y_onehot", y_onehot)
    z_onehot = check_features("z_onehot", z_onehot)
    n, input_dim = X.shape
    if y_onehot.shape[0] != n or z_onehot.shape[0] != n:
        raise ShapeError("one-hot labels must have one row per sample")
    d = check_dim("d", d, input_dim)
    ppls_lambda = NON_NEGATIVE.check("ppls_lambda", ppls_lambda)
    c_xy = X.T @ y_onehot / n
    c_xz = X.T @ z_onehot / n
    m = c_xz @ c_xz.T - ppls_lambda * (c_xy @ c_xy.T)
    m = 0.5 * (m + m.T)
    columns = np.zeros((input_dim, d))
    for j in range(d):
        _, eigvecs = np.linalg.eigh(m)
        # The deflated matrix keeps chosen directions in its null space, so
        # when the top eigenvalue hits zero the returned eigenvector can
        # overlap them; re-orthogonalize and fall back down the spectrum to
        # keep the columns an orthonormal set.
        direction = None
        for candidate in eigvecs[:, ::-1].T:
            residual = candidate - columns[:, :j] @ (columns[:, :j].T @ candidate)
            norm = np.linalg.norm(residual)
            if norm > 1e-8:
                direction = fix_eigvec_signs((residual / norm)[:, None])[:, 0]
                break
        if direction is None:
            raise NumericError("ppls deflation exhausted independent directions")
        columns[:, j] = direction
        projector = np.eye(input_dim) - np.outer(direction, direction)
        m = projector @ m @ projector
        m = 0.5 * (m + m.T)
    return linear_filter(columns)


@dataclass(frozen=True)
class ScatterSet:
    """Between-class scatter matrices for the target and private labelings."""

    between_target: np.ndarray   # scatter of target-class means
    between_private: np.ndarray  # scatter of private-class means
    ridge: float

    def __post_init__(self):
        bt = _check_square_symmetric(self.between_target, "between_target")
        bp = _check_square_symmetric(self.between_private, "between_private")
        if bt.shape != bp.shape:
            raise ShapeError("scatter matrices must share a shape")
        for name, mat in (("between_target", bt), ("between_private", bp)):
            floor = -1e-10 * max(1.0, float(np.trace(mat)))
            if float(np.linalg.eigvalsh(mat).min()) < floor:
                raise DataError(f"{name} must be positive semidefinite")
        object.__setattr__(self, "between_target", bt)
        object.__setattr__(self, "between_private", bp)
        object.__setattr__(self, "ridge", POSITIVE.check("ridge", self.ridge))

    @property
    def dim(self) -> int:
        return self.between_target.shape[0]


def _between_class_scatter(X, labels):
    labels = np.asarray(labels)
    overall = X.mean(axis=0)
    scatter = np.zeros((X.shape[1], X.shape[1]))
    for cls in np.unique(labels):
        rows = X[labels == cls]
        centered = rows.mean(axis=0) - overall
        scatter += rows.shape[0] * np.outer(centered, centered)
    return 0.5 * (scatter + scatter.T)


def build_scatters(X, y, z) -> ScatterSet:
    """Between-class scatters of the private (y) and target (z) labelings,
    with the ridge ``DEFAULT_LDS_RIDGE_FACTOR`` times the private scatter's
    mean eigenvalue (the factor itself when that trace is 0)."""
    X = check_features("X", X)
    y = check_labels("y", y)
    z = check_labels("z", z)
    if y.size != X.shape[0] or z.size != X.shape[0]:
        raise ShapeError("labels must have one entry per sample")
    bp = _between_class_scatter(X, y)
    bt = _between_class_scatter(X, z)
    trace = float(np.trace(bp))
    ridge = (DEFAULT_LDS_RIDGE_FACTOR * trace / X.shape[1] if trace > 0
             else DEFAULT_LDS_RIDGE_FACTOR)
    return ScatterSet(between_target=bt, between_private=bp, ridge=ridge)


def privacy_lds(s: ScatterSet, d: int) -> np.ndarray:
    """Directions maximizing target scatter relative to private scatter.

    Solves the generalized eigenproblem
    (C_target + ridge I) u = nu (C_private + ridge I) u and returns the d
    eigenvectors of largest nu, each normalized to unit Euclidean norm,
    largest quotient first.

    Only the leading directions are fixed by the data.  A between-class
    scatter of K classes has rank at most K - 1, so on the subspace
    orthogonal to both scatters' ranges the pencil is ridge I against
    ridge I and nu is exactly 1, repeated.  The columns past the quotients
    above 1 are then whatever basis of that eigenspace LAPACK returns.
    On the training half of the benchmark's ``linear-sweep`` data the
    quotients are 662.27, 1, 1, ... (12 of 20 equal to 1); on
    ``release-sweep``'s they are 1234.0, 2.71, 1.95, 1, ... (28 of 50).
    The solver is LAPACK ``dsygvd`` called as ``scipy.linalg.eigh(numer,
    denom)`` calls it (itype 1, lower triangle), so the columns equal
    ``eigh``'s bit for bit.  scipy's ``gv``, ``gvd`` and ``gvx`` drivers
    return the same columns to within 6e-16, but numpy formulations of the
    same problem (a Cholesky or an inverse-square-root whitening, ``eig``
    of the solved pencil) return other bases of the unit eigenspace, which
    moves a minimax fit that starts from them.
    """
    d = check_dim("d", d, s.dim)
    eye = np.eye(s.dim)
    numer = s.between_target + s.ridge * eye
    denom = s.between_private + s.ridge * eye
    dsygvd = scipy_kernel("scipy.linalg._flapack", "dsygvd",
                          "scipy.linalg.lapack")
    eigvals, eigvecs, info = dsygvd(numer, denom, itype=1, jobz="V", uplo="L")
    if info != 0:
        raise NumericError(f"generalized eigenproblem failed: dsygvd info {info}")
    order = np.argsort(eigvals)[::-1][:d]
    vectors = eigvecs[:, order]
    values = eigvals[order]
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    vectors = fix_eigvec_signs(vectors)
    scale = np.linalg.norm(numer) + np.abs(values).max() * np.linalg.norm(denom)
    for j in range(d):
        residual = numer @ vectors[:, j] - values[j] * (denom @ vectors[:, j])
        if np.linalg.norm(residual) > 1e-8 * max(1.0, scale):
            raise NumericError("generalized eigenvector residual is too large")
    return vectors
