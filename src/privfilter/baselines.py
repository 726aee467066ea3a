"""Reference linear filters to compare trained filters against.

All three return plain linear FilterStates so they drop into the same
release and evaluation pipeline: a full-rank random projection, principal
components, and a partial-least-squares-style filter whose directions
favor target-label covariance while penalizing private-label covariance.
``harness.fit_filter`` dispatches to them by filter kind.
"""

from __future__ import annotations

import numpy as np

from .closed_form import fix_eigvec_signs
from .errors import DataError, NumericError, ShapeError
from .filters import FilterState, linear_filter

_RANK_TOL = 1e-10
_MAX_RANK_RETRIES = 10


def fit_rand(input_dim: int, d: int, seed=None) -> FilterState:
    """Standard-normal projection, resampled until numerically full rank."""
    if not 1 <= d <= input_dim:
        raise ShapeError(f"d must lie in 1..{input_dim}, got {d}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RANK_RETRIES):
        matrix = rng.standard_normal((input_dim, d))
        if np.linalg.svd(matrix, compute_uv=False)[-1] > _RANK_TOL:
            return linear_filter(matrix)
    raise NumericError("could not draw a full-rank random projection")


def fit_pca(X, d: int) -> FilterState:
    """Top-d principal directions of the mean-centered features."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ShapeError("PCA needs at least two samples")
    if not 1 <= d <= X.shape[1]:
        raise ShapeError(f"d must lie in 1..{X.shape[1]}, got {d}")
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
    """
    X = np.asarray(X, dtype=np.float64)
    y_onehot = np.asarray(y_onehot, dtype=np.float64)
    z_onehot = np.asarray(z_onehot, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ShapeError("features must be a non-empty 2-d array")
    n, input_dim = X.shape
    if y_onehot.shape[:1] != (n,) or z_onehot.shape[:1] != (n,):
        raise ShapeError("one-hot labels must have one row per sample")
    if not 1 <= d <= input_dim:
        raise ShapeError(f"d must lie in 1..{input_dim}, got {d}")
    if ppls_lambda < 0:
        raise DataError("ppls_lambda must be non-negative")
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
