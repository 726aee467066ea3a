import numpy as np
import pytest

from oracles import (compute_moments, contrast_matrix, least_squares_minimax,
                     random_orthonormal, rel_error, trace_objective,
                     trace_objectives)
from privfilter.baselines import ScatterSet, build_scatters, privacy_lds
from privfilter.data import gen_synthetic
from privfilter.errors import DataError, NumericError, ShapeError
from privfilter.heads import one_hot


def _random_moments(rng, n=80, dim=6, k_priv=4, k_tgt=3, ridge=None):
    X = rng.standard_normal((n, dim))
    y = rng.integers(1, k_priv + 1, size=n)
    z = rng.integers(1, k_tgt + 1, size=n)
    y[:k_priv] = np.arange(1, k_priv + 1)
    z[:k_tgt] = np.arange(1, k_tgt + 1)
    return compute_moments(X, one_hot(y, k_priv), one_hot(z, k_tgt), ridge=ridge)


def test_minimizer_is_whitened():
    rng = np.random.default_rng(0)
    m = _random_moments(rng, ridge=1e-3)
    for d in (1, 3, 6):
        U, _ = least_squares_minimax(m, 2.0, d)
        gram = U.T @ (m.xx + m.ridge * np.eye(m.dim)) @ U
        np.testing.assert_allclose(gram, np.eye(d), atol=1e-10)


def test_minimizer_attains_reported_value():
    rng = np.random.default_rng(1)
    for trial in range(10):
        m = _random_moments(rng, ridge=1e-2)
        rho = float(rng.uniform(0.2, 5.0))
        d = int(rng.integers(1, m.dim + 1))
        U, phi_min = least_squares_minimax(m, rho, d)
        assert trace_objective(m, rho, U) == pytest.approx(phi_min, rel=1e-9, abs=1e-11)


def test_no_search_direction_beats_the_minimizer():
    rng = np.random.default_rng(2)
    m = _random_moments(rng, ridge=1e-2)
    rho = 1.5
    d = 2
    _, phi_min = least_squares_minimax(m, rho, d)
    for _ in range(200):
        U = random_orthonormal(rng, m.dim, d)
        assert trace_objective(m, rho, U) >= phi_min - 1e-9


@pytest.mark.parametrize("dim", [6, 10])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("ridge", [0.0, 1e-2])
def test_batched_trace_objective_equals_the_scalar_one(dim, d, ridge):
    # one stacked draw and QR give the same U as one random_orthonormal
    # call per U, and the batched objective the scalar values bit for bit
    m = _random_moments(np.random.default_rng(dim + d), dim=dim, ridge=ridge)
    looped, stacked = np.random.default_rng(9), np.random.default_rng(9)
    singles = [random_orthonormal(looped, dim, d) for _ in range(300)]
    Us, _ = np.linalg.qr(stacked.standard_normal((300, dim, d)))
    assert np.array_equal(Us, np.stack(singles))
    expected = [trace_objective(m, 1.5, U) for U in singles]
    assert trace_objectives(m, 1.5, Us).tolist() == expected
    with pytest.raises(ShapeError):
        trace_objectives(m, 1.5, Us[0])


def test_trace_objective_right_invariance():
    rng = np.random.default_rng(3)
    m = _random_moments(rng, ridge=1e-2)
    for _ in range(20):
        U = rng.standard_normal((m.dim, 3))
        R = rng.standard_normal((3, 3))
        while abs(np.linalg.det(R)) < 1e-3:
            R = rng.standard_normal((3, 3))
        a = trace_objective(m, 2.0, U)
        b = trace_objective(m, 2.0, U @ R)
        assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


def test_phi_min_equals_sum_of_smallest_eigenvalues():
    rng = np.random.default_rng(4)
    m = _random_moments(rng, ridge=5e-3)
    rho = 0.7
    reg = m.xx + m.ridge * np.eye(m.dim)
    # whole-space eigenvalues of the pencil (contrast, regularized gram)
    import scipy.linalg

    pencil = np.sort(scipy.linalg.eigh(contrast_matrix(m, rho), reg,
                                       eigvals_only=True))
    for d in range(1, m.dim + 1):
        _, phi_min = least_squares_minimax(m, rho, d)
        assert phi_min == pytest.approx(float(pencil[:d].sum()), rel=1e-9, abs=1e-11)


def test_full_rank_filter_keeps_all_information():
    # with d = D the objective no longer depends on the filter
    rng = np.random.default_rng(5)
    m = _random_moments(rng, ridge=1e-2)
    U, phi_min = least_squares_minimax(m, 2.0, m.dim)
    for _ in range(10):
        V = rng.standard_normal((m.dim, m.dim))
        assert trace_objective(m, 2.0, V) == pytest.approx(phi_min, rel=1e-8)
    assert trace_objective(m, 2.0, np.eye(m.dim)) == pytest.approx(phi_min, rel=1e-8)


def test_moment_validation():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 3))
    y1 = one_hot(np.ones(10, dtype=int), 1)
    with pytest.raises(ShapeError):
        compute_moments(X, y1[:5], y1)
    with pytest.raises(ShapeError):
        compute_moments(np.zeros((0, 3)), y1, y1)
    m = compute_moments(X, y1, y1, ridge=1e-6)
    with pytest.raises(ShapeError):
        least_squares_minimax(m, 1.0, 0)
    with pytest.raises(ShapeError):
        least_squares_minimax(m, 1.0, 4)
    with pytest.raises(ShapeError):
        trace_objective(m, 1.0, np.zeros((4, 2)))


def test_singular_moments_need_a_ridge():
    # rank-1 features with a zero ridge cannot be whitened
    X = np.outer(np.arange(1.0, 9.0), np.array([1.0, 2.0, 3.0]))
    y = one_hot(np.tile([1, 2], 4), 2)
    m = compute_moments(X, y, y, ridge=0.0)
    with pytest.raises(NumericError):
        least_squares_minimax(m, 1.0, 2)


def test_scatter_enumeration_oracle():
    # hand-enumerable dataset: two private classes, two target classes
    X = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 6.0]])
    y = np.array([1, 1, 2, 2])
    z = np.array([1, 2, 1, 2])
    s = build_scatters(X, y, z, ridge=0.5)
    overall = X.mean(axis=0)
    expected_priv = np.zeros((2, 2))
    for cls, rows in ((1, X[:2]), (2, X[2:])):
        diff = rows.mean(axis=0) - overall
        expected_priv += 2 * np.outer(diff, diff)
    expected_tgt = np.zeros((2, 2))
    for cls in (1, 2):
        diff = X[z == cls].mean(axis=0) - overall
        expected_tgt += 2 * np.outer(diff, diff)
    np.testing.assert_allclose(s.between_private, expected_priv, atol=1e-12)
    np.testing.assert_allclose(s.between_target, expected_tgt, atol=1e-12)


def test_lds_solves_generalized_eigenproblem():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((120, 5))
    X[:, 0] += 3.0 * rng.integers(0, 4, size=120)  # private structure on axis 0
    y = rng.integers(1, 5, size=120)
    z = rng.integers(1, 3, size=120)
    y[:4] = [1, 2, 3, 4]
    z[:2] = [1, 2]
    s = build_scatters(X, y, z, ridge=1e-2)
    eye = np.eye(5)
    numer = s.between_target + s.ridge * eye
    denom = s.between_private + s.ridge * eye
    for d in (1, 2, 5):
        V = privacy_lds(s, d)
        assert V.shape == (5, d)
        np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-12)
        quotients = [float(v @ numer @ v) / float(v @ denom @ v) for v in V.T]
        # eigenvector property: numer v parallel to denom v
        for v, q in zip(V.T, quotients):
            residual = numer @ v - q * (denom @ v)
            assert np.linalg.norm(residual) <= 1e-6 * np.linalg.norm(numer @ v)
        assert all(quotients[i] >= quotients[i + 1] - 1e-9
                   for i in range(d - 1))


def test_lds_quotient_is_one_past_the_leading_directions():
    # 2 target classes and 3 subjects give scatters of rank 1 and 2, so on
    # the 5 directions orthogonal to both ranges the pencil is ridge I
    # against ridge I: those columns are any basis of a unit eigenspace
    data = gen_synthetic(8, 3, 2, 30, noise=0.5, seed=0)
    s = build_scatters(data.X, data.y, data.z)
    eye = np.eye(8)
    V = privacy_lds(s, 8)
    quotients = (np.einsum("ij,ij->j", V, (s.between_target + s.ridge * eye) @ V)
                 / np.einsum("ij,ij->j", V, (s.between_private + s.ridge * eye) @ V))
    assert quotients[0] > 2.0
    np.testing.assert_allclose(quotients[1:6], 1.0, rtol=0.0, atol=1e-9)
    assert np.all(quotients[6:] < 0.5)


def test_lds_beats_random_directions_on_the_quotient():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((150, 6))
    y = rng.integers(1, 4, size=150)
    z = rng.integers(1, 3, size=150)
    y[:3] = [1, 2, 3]
    z[:2] = [1, 2]
    X[:, 1] += 2.0 * y
    X[:, 3] += 2.0 * z
    s = build_scatters(X, y, z, ridge=1e-2)
    eye = np.eye(6)
    numer = s.between_target + s.ridge * eye
    denom = s.between_private + s.ridge * eye
    top = privacy_lds(s, 1)[:, 0]
    best = float(top @ numer @ top) / float(top @ denom @ top)
    for _ in range(300):
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        assert float(v @ numer @ v) / float(v @ denom @ v) <= best + 1e-9


def test_lds_prefers_target_axis():
    # target variation on axis 0, private variation on axis 1
    rng = np.random.default_rng(9)
    n = 200
    z = rng.integers(1, 3, size=n)
    y = rng.integers(1, 3, size=n)
    X = 0.05 * rng.standard_normal((n, 3))
    X[:, 0] += 4.0 * z
    X[:, 1] += 4.0 * y
    s = build_scatters(X, y, z)
    v = privacy_lds(s, 1)[:, 0]
    assert abs(v[0]) > 0.99
    assert abs(v[1]) < 0.1


def test_scatter_validation():
    X = np.ones((4, 2))
    with pytest.raises(ShapeError):
        build_scatters(X, np.array([1, 1, 2]), np.array([1, 2, 1, 2]))
    s = build_scatters(X + np.arange(4)[:, None], np.array([1, 1, 2, 2]),
                       np.array([1, 2, 1, 2]))
    with pytest.raises(ShapeError):
        privacy_lds(s, 0)
    with pytest.raises(ShapeError):
        privacy_lds(s, 3)


@pytest.mark.parametrize("field, value, error", [
    ("between_target", np.nan, NumericError),
    ("between_private", np.nan, NumericError),
    ("between_target", np.inf, NumericError),
    ("between_private", -np.inf, NumericError),
    ("ridge", np.nan, DataError),
    ("ridge", np.inf, DataError),
    ("ridge", 0.0, DataError),
])
def test_scatter_set_rejects_non_finite_input(field, value, error):
    # NaN compares False against every bound and inf made eigvalsh raise a
    # bare LinAlgError; the eigensolver itself no longer checks its input
    fields = {"between_target": np.eye(3), "between_private": np.eye(3),
              "ridge": 0.1}
    if field == "ridge":
        fields[field] = value
    else:
        fields[field] = np.eye(3)
        fields[field][1, 1] = value
    with pytest.raises(error, match=field):
        ScatterSet(**fields)


def test_lds_solver_failure_is_a_numeric_error():
    # an eigenvalue of -5e-11 passes the semidefinite check's tolerance, but
    # the ridge 1e-12 leaves the private pencil indefinite: dsygvd's
    # Cholesky factorization fails (info > n)
    s = ScatterSet(np.eye(2), np.diag([1.0, -5e-11]), ridge=1e-12)
    with pytest.raises(NumericError, match="dsygvd info 4"):
        privacy_lds(s, 1)


def test_determinism():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((60, 4))
    y = rng.integers(1, 3, size=60)
    z = rng.integers(1, 3, size=60)
    y[:2] = [1, 2]
    z[:2] = [1, 2]
    m1 = compute_moments(X, one_hot(y, 2), one_hot(z, 2))
    m2 = compute_moments(X.copy(), one_hot(y, 2), one_hot(z, 2))
    U1, p1 = least_squares_minimax(m1, 2.0, 2)
    U2, p2 = least_squares_minimax(m2, 2.0, 2)
    assert np.array_equal(U1, U2) and p1 == p2
    s1 = build_scatters(X, y, z)
    s2 = build_scatters(X.copy(), y.copy(), z.copy())
    assert np.array_equal(privacy_lds(s1, 2), privacy_lds(s2, 2))
