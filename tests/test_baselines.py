import numpy as np
import pytest

from privfilter.baselines import fit_pca, fit_ppls, fit_rand
from privfilter.data import Dataset
from privfilter.errors import DataError, ShapeError
from privfilter.filters import FilterKind, apply_filter
from privfilter.harness import ExperimentConfig, fit_filter
from privfilter.heads import one_hot


def test_rand_is_full_rank_and_seeded():
    a = fit_rand(10, 4, seed=3)
    b = fit_rand(10, 4, seed=3)
    assert a.kind is FilterKind.LINEAR
    assert np.array_equal(a.params, b.params)
    matrix = a.as_matrix()
    assert matrix.shape == (10, 4)
    assert np.linalg.matrix_rank(matrix) == 4
    c = fit_rand(10, 4, seed=4)
    assert not np.array_equal(a.params, c.params)


def test_pca_recovers_dominant_axes():
    rng = np.random.default_rng(0)
    n = 500
    X = rng.standard_normal((n, 5)) * np.array([10.0, 5.0, 0.1, 0.1, 0.1])
    X += rng.uniform(-3, 3, size=5)  # mean offset must not matter
    V = fit_pca(X, 2).as_matrix()
    np.testing.assert_allclose(np.abs(V[0, 0]), 1.0, atol=1e-2)
    np.testing.assert_allclose(np.abs(V[1, 1]), 1.0, atol=1e-2)
    np.testing.assert_allclose(V.T @ V, np.eye(2), atol=1e-12)


def test_pca_matches_eigendecomposition():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((60, 4)) @ rng.standard_normal((4, 4))
    V = fit_pca(X, 4).as_matrix()
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / X.shape[0]
    # columns are eigenvectors, in descending eigenvalue order
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    for j in range(4):
        v = V[:, j]
        np.testing.assert_allclose(cov @ v, eigvals[j] * v, atol=1e-9)
    projected_var = np.var(centered @ V, axis=0)
    assert np.all(np.diff(projected_var) <= 1e-9)


def test_ppls_prefers_target_covariance():
    rng = np.random.default_rng(2)
    n = 400
    y = rng.integers(1, 3, size=n)
    z = rng.integers(1, 3, size=n)
    X = 0.1 * rng.standard_normal((n, 4))
    X[:, 0] += 2.0 * (2 * z - 3)  # target axis, +-2
    X[:, 1] += 2.0 * (2 * y - 3)  # private axis, +-2
    filt = fit_ppls(X, one_hot(y, 2), one_hot(z, 2), ppls_lambda=5.0, d=1)
    v = filt.as_matrix()[:, 0]
    assert abs(v[0]) > 0.95
    assert abs(v[1]) < 0.2


def test_ppls_zero_lambda_reduces_to_target_covariance_directions():
    rng = np.random.default_rng(3)
    n = 300
    y = rng.integers(1, 4, size=n)
    z = rng.integers(1, 3, size=n)
    X = rng.standard_normal((n, 5))
    X[:, 2] += 3.0 * z
    yh = one_hot(y, 3)
    zh = one_hot(z, 2)
    filt = fit_ppls(X, yh, zh, ppls_lambda=0.0, d=2)
    c_xz = X.T @ zh / n
    m = c_xz @ c_xz.T
    top = np.linalg.eigh(m)[1][:, -1]
    v = filt.as_matrix()[:, 0]
    assert abs(float(v @ top)) > 1 - 1e-8


def test_ppls_columns_are_orthonormal():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((80, 6))
    y = rng.integers(1, 3, size=80)
    z = rng.integers(1, 4, size=80)
    filt = fit_ppls(X, one_hot(y, 2), one_hot(z, 3), ppls_lambda=1.0, d=4)
    V = filt.as_matrix()
    np.testing.assert_allclose(V.T @ V, np.eye(4), atol=1e-8)


def test_ppls_greedy_deflation_oracle():
    # d=2 second direction equals the top eigenvector of the deflated matrix
    rng = np.random.default_rng(5)
    X = rng.standard_normal((100, 4))
    y = rng.integers(1, 3, size=100)
    z = rng.integers(1, 3, size=100)
    yh, zh = one_hot(y, 2), one_hot(z, 2)
    lam = 0.7
    V = fit_ppls(X, yh, zh, lam, d=2).as_matrix()
    c_xy = X.T @ yh / 100
    c_xz = X.T @ zh / 100
    m = c_xz @ c_xz.T - lam * (c_xy @ c_xy.T)
    m = 0.5 * (m + m.T)
    first = np.linalg.eigh(m)[1][:, -1]
    assert abs(float(V[:, 0] @ first)) > 1 - 1e-10
    proj = np.eye(4) - np.outer(V[:, 0], V[:, 0])
    deflated = proj @ m @ proj
    second = np.linalg.eigh(0.5 * (deflated + deflated.T))[1][:, -1]
    assert abs(float(V[:, 1] @ second)) > 1 - 1e-10


def test_dispatcher_and_validation():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 5))
    y = rng.integers(1, 3, size=30)
    z = rng.integers(1, 3, size=30)
    train = Dataset(X, y, np.arange(30), z)
    cfg = ExperimentConfig()
    for kind in ("rand", "pca", "ppls"):
        filt, report = fit_filter(kind, train, 2, cfg, 1)
        assert report is None
        assert apply_filter(filt, X).shape == (30, 2)
    with pytest.raises(DataError):
        fit_filter("ppls", Dataset(X, y, np.arange(30)), 2, cfg, 1)
    with pytest.raises(DataError, match="d must be at least 1"):
        fit_filter("pca", train, 0, cfg, 1)
    with pytest.raises(DataError, match="d must be at least 1"):
        fit_rand(4, 0)
    with pytest.raises(ShapeError):
        fit_rand(4, 5)
    with pytest.raises(ShapeError):
        fit_pca(X[:1], 2)
    with pytest.raises(ShapeError):
        fit_ppls(X, one_hot(y, 2), one_hot(z, 2), 1.0, 6)
    with pytest.raises(DataError):
        fit_ppls(X, one_hot(y, 2), one_hot(z, 2), -0.5, 2)


def test_baselines_are_deterministic_given_inputs():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((50, 4))
    y = one_hot(rng.integers(1, 3, size=50), 2)
    z = one_hot(rng.integers(1, 3, size=50), 2)
    a = fit_ppls(X, y, z, 2.0, 2)
    b = fit_ppls(X.copy(), y.copy(), z.copy(), 2.0, 2)
    assert np.array_equal(a.params, b.params)
    assert np.array_equal(fit_pca(X, 3).params, fit_pca(X.copy(), 3).params)
