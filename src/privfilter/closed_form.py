"""Closed-form solutions for the linear least-squares filter problem.

With a linear filter and least-squares heads the best-response risks have
closed forms, and the filter tradeoff objective collapses to

    Tr[ (U'(C_xx + delta I)U)^{-1} U'(C_xy C_xy' - rho C_xz C_xz')U ]

whose minimum over U is the sum of the d smallest eigenvalues of the
whitened contrast matrix.  This module computes that exact solution (an
oracle for iterative training) and a discriminant-style spectral filter
that maximizes target-class scatter relative to private-class scatter,
usable directly or as an initializer.

Only ``privacy_lds`` uses scipy: it imports ``scipy.linalg`` on its first
call for the generalized symmetric eigensolver, whose basis of a repeated
eigenvalue numpy does not reproduce (see its docstring).  Importing this
module and calling its other functions need numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, ShapeError

DEFAULT_WHITEN_RIDGE_FACTOR = 1e-8
DEFAULT_LDS_RIDGE_FACTOR = 1e-3


def _check_square_symmetric(a, name) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-10 * scale:
        raise ShapeError(f"{name} must be symmetric")
    return a


@dataclass(frozen=True)
class MomentSet:
    """Uncentered second moments of features against one-hot labels."""

    xx: np.ndarray  # (D, D), (1/N) X'X
    xy: np.ndarray  # (D, K_private), (1/N) X'Y
    xz: np.ndarray  # (D, K_target), (1/N) X'Z
    n_samples: int
    ridge: float    # whitening ridge delta added to xx

    def __post_init__(self):
        xx = _check_square_symmetric(self.xx, "xx")
        xy = np.asarray(self.xy, dtype=np.float64)
        xz = np.asarray(self.xz, dtype=np.float64)
        d = xx.shape[0]
        if xy.ndim != 2 or xy.shape[0] != d or xz.ndim != 2 or xz.shape[0] != d:
            raise ShapeError("cross moments must have one row per feature")
        if self.n_samples < 1:
            raise ShapeError("n_samples must be positive")
        if self.ridge < 0:
            raise DataError("ridge must be non-negative")
        object.__setattr__(self, "xx", xx)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "xz", xz)

    @property
    def dim(self) -> int:
        return self.xx.shape[0]


def default_whitening_ridge(xx) -> float:
    xx = np.asarray(xx, dtype=np.float64)
    return DEFAULT_WHITEN_RIDGE_FACTOR * float(np.trace(xx)) / xx.shape[0]


def compute_moments(X, y_onehot, z_onehot, ridge=None) -> MomentSet:
    X = np.asarray(X, dtype=np.float64)
    y_onehot = np.asarray(y_onehot, dtype=np.float64)
    z_onehot = np.asarray(z_onehot, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ShapeError("features must be a non-empty 2-d array")
    n = X.shape[0]
    if y_onehot.ndim != 2 or y_onehot.shape[0] != n:
        raise ShapeError("y_onehot must have one row per sample")
    if z_onehot.ndim != 2 or z_onehot.shape[0] != n:
        raise ShapeError("z_onehot must have one row per sample")
    xx = X.T @ X / n
    xx = 0.5 * (xx + xx.T)
    if ridge is None:
        ridge = default_whitening_ridge(xx)
    return MomentSet(xx=xx, xy=X.T @ y_onehot / n, xz=X.T @ z_onehot / n,
                     n_samples=n, ridge=float(ridge))


def fix_eigvec_signs(vectors) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    vectors = np.array(vectors, dtype=np.float64)
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        lead = col[np.argmax(np.abs(col))]
        if lead < 0:
            vectors[:, j] = -col
    return vectors


def _inv_sqrt_psd(matrix, floor) -> np.ndarray:
    """Inverse square root via symmetric eigendecomposition.

    Eigenvalues are clamped below at ``floor`` so near-singular inputs
    stay bounded.
    """
    eigvals, eigvecs = np.linalg.eigh(matrix)
    clamped = np.maximum(eigvals, floor)
    if np.any(clamped <= 0):
        raise NumericError("matrix is singular and no positive ridge was given")
    return (eigvecs / np.sqrt(clamped)) @ eigvecs.T


def contrast_matrix(m: MomentSet, tradeoff_weight: float) -> np.ndarray:
    """C_xy C_xy' - rho C_xz C_xz', the signed information contrast."""
    return m.xy @ m.xy.T - tradeoff_weight * (m.xz @ m.xz.T)


def least_squares_minimax(m: MomentSet, tradeoff_weight: float, d: int):
    """Exact minimizer of the linear least-squares filter objective.

    Returns
    -------
    U : array, shape (D, d)
        Filter matrix, whitened so U'(C_xx + delta I)U = I.
    phi_min : float
        The attained objective value, the sum of the d smallest
        eigenvalues of the whitened contrast matrix.
    """
    if not 1 <= d <= m.dim:
        raise ShapeError(f"d must lie in 1..{m.dim}, got {d}")
    regularized = m.xx + m.ridge * np.eye(m.dim)
    inv_sqrt = _inv_sqrt_psd(regularized, floor=m.ridge)
    whitened = inv_sqrt @ contrast_matrix(m, tradeoff_weight) @ inv_sqrt
    whitened = 0.5 * (whitened + whitened.T)
    eigvals, eigvecs = np.linalg.eigh(whitened)  # ascending
    basis = fix_eigvec_signs(eigvecs[:, :d])
    phi_min = float(eigvals[:d].sum())
    return inv_sqrt @ basis, phi_min


def trace_objective(m: MomentSet, tradeoff_weight: float, U) -> float:
    """The least-squares filter objective evaluated at an arbitrary U.

    Right-invariant: any invertible recombination of U's columns gives the
    same value.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[0] != m.dim:
        raise ShapeError("U must have one row per feature dimension")
    regularized = m.xx + m.ridge * np.eye(m.dim)
    gram = U.T @ regularized @ U
    projected = U.T @ contrast_matrix(m, tradeoff_weight) @ U
    return float(np.trace(np.linalg.solve(gram, projected)))


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
                raise NumericError(f"{name} must be positive semidefinite")
        if self.ridge <= 0:
            raise DataError("ridge must be positive")
        object.__setattr__(self, "between_target", bt)
        object.__setattr__(self, "between_private", bp)

    @property
    def dim(self) -> int:
        return self.between_target.shape[0]


def default_lds_ridge(between_private) -> float:
    between_private = np.asarray(between_private, dtype=np.float64)
    trace = float(np.trace(between_private))
    dim = between_private.shape[0]
    return DEFAULT_LDS_RIDGE_FACTOR * trace / dim if trace > 0 else DEFAULT_LDS_RIDGE_FACTOR


def _between_class_scatter(X, labels):
    labels = np.asarray(labels)
    overall = X.mean(axis=0)
    scatter = np.zeros((X.shape[1], X.shape[1]))
    for cls in np.unique(labels):
        rows = X[labels == cls]
        centered = rows.mean(axis=0) - overall
        scatter += rows.shape[0] * np.outer(centered, centered)
    return 0.5 * (scatter + scatter.T)


def build_scatters(X, y, z, ridge=None) -> ScatterSet:
    """Between-class scatters of the private (y) and target (z) labelings."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ShapeError("features must be a non-empty 2-d array")
    y = np.asarray(y)
    z = np.asarray(z)
    if y.shape != (X.shape[0],) or z.shape != (X.shape[0],):
        raise ShapeError("labels must be 1-d with one entry per sample")
    bp = _between_class_scatter(X, y)
    bt = _between_class_scatter(X, z)
    if ridge is None:
        ridge = default_lds_ridge(bp)
    return ScatterSet(between_target=bt, between_private=bp, ridge=float(ridge))


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
    scipy's ``gv``, ``gvd`` and ``gvx`` drivers return the same columns to
    within 6e-16, but numpy formulations of the same problem (a Cholesky
    or an inverse-square-root whitening, ``eig`` of the solved pencil)
    return other bases of the unit eigenspace, which moves a minimax fit
    that starts from them.
    """
    if not 1 <= d <= s.dim:
        raise ShapeError(f"d must lie in 1..{s.dim}, got {d}")
    eye = np.eye(s.dim)
    numer = s.between_target + s.ridge * eye
    denom = s.between_private + s.ridge * eye
    import scipy.linalg  # loaded by the first LDS solve only
    try:
        eigvals, eigvecs = scipy.linalg.eigh(numer, denom)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"generalized eigenproblem failed: {exc}") from exc
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
