import numpy as np
import pytest

from oracles import (central_diff, lbfgs_softmax_reference, rel_error,
                     softmax_core_reference)
from privfilter import heads
from privfilter.errors import DataError, NumericError, ShapeError
from privfilter.heads import (_NEWTON_MAX_WEIGHTS, _class_sum, _label_index,
                              _softmax_core, _softmax_hessian,
                              ReconstructionHead, SoftmaxHead, accuracy,
                              fit_reconstruction, fit_softmax,
                              fit_softmax_with_info, load_reconstruction_head,
                              load_softmax_head, one_hot, predict_labels,
                              reconstruction_risk, save_reconstruction_head,
                              save_softmax_head, softmax_risk)


def _random_instance(rng, n=50, d=5, num_classes=3):
    n = max(n, num_classes)
    G = rng.standard_normal((n, d))
    labels = rng.integers(1, num_classes + 1, size=n)
    labels[:num_classes] = np.arange(1, num_classes + 1)
    return G, labels


def test_zero_weights_give_log_k():
    rng = np.random.default_rng(0)
    for num_classes in (2, 43):
        G, labels = _random_instance(rng, n=30, d=4, num_classes=num_classes)
        head = SoftmaxHead(np.zeros((num_classes, 4)), reg_lambda=0.0)
        risk, grad_head, _ = softmax_risk(head, G, labels)
        assert risk == pytest.approx(np.log(num_classes), rel=1e-12)
        # uniform predictions: residual rows are 1/K - one_hot
        n = G.shape[0]
        expected = (np.full((n, num_classes), 1.0 / num_classes)
                    - one_hot(labels, num_classes)).T @ G / n
        np.testing.assert_allclose(grad_head, expected, atol=1e-12)


def test_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    G, labels = _random_instance(rng)
    head = SoftmaxHead(0.3 * rng.standard_normal((3, 5)), reg_lambda=0.01)
    _, grad_head, grad_features = softmax_risk(head, G, labels)

    def risk_of_weights(flat):
        h = SoftmaxHead(flat.reshape(3, 5), reg_lambda=0.01)
        return softmax_risk(h, G, labels)[0]

    def risk_of_features(flat):
        return softmax_risk(head, flat.reshape(50, 5), labels)[0]

    assert rel_error(grad_head.ravel(),
                     central_diff(risk_of_weights, head.weights.ravel())) <= 1e-5
    assert rel_error(grad_features.ravel(),
                     central_diff(risk_of_features, G.ravel())) <= 1e-5


def test_softmax_risk_is_convex_in_weights():
    rng = np.random.default_rng(2)
    G, labels = _random_instance(rng, n=40, d=4)
    for _ in range(25):
        w1 = rng.standard_normal((3, 4))
        w2 = rng.standard_normal((3, 4))
        t = rng.uniform()
        lam = rng.choice([0.0, 0.1])
        mid = SoftmaxHead(t * w1 + (1 - t) * w2, reg_lambda=lam)
        left = SoftmaxHead(w1, reg_lambda=lam)
        right = SoftmaxHead(w2, reg_lambda=lam)
        assert (softmax_risk(mid, G, labels)[0]
                <= t * softmax_risk(left, G, labels)[0]
                + (1 - t) * softmax_risk(right, G, labels)[0] + 1e-12)


def test_softmax_logit_shift_invariance():
    rng = np.random.default_rng(3)
    G, labels = _random_instance(rng, n=35, d=4)
    weights = rng.standard_normal((3, 4))
    shift = rng.standard_normal(4)
    base = softmax_risk(SoftmaxHead(weights, 0.0), G, labels)[0]
    shifted = softmax_risk(SoftmaxHead(weights + shift, 0.0), G, labels)[0]
    assert shifted == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_softmax_risk_input_validation():
    head = SoftmaxHead(np.zeros((3, 4)))
    with pytest.raises(DataError):
        softmax_risk(head, np.zeros((2, 4)), np.array([1, 4]))  # label range
    with pytest.raises(NumericError):
        softmax_risk(head, np.array([[np.inf, 0, 0, 0]]), np.array([1]))
    with pytest.raises(ShapeError):
        softmax_risk(head, np.zeros((2, 3)), np.array([1, 2]))
    with pytest.raises(ShapeError):
        SoftmaxHead(np.zeros((1, 4)))


def test_fit_softmax_separable_data():
    rng = np.random.default_rng(4)
    n = 60
    G = np.vstack([rng.standard_normal((n, 3)) + np.array([4.0, 0, 0]),
                   rng.standard_normal((n, 3)) - np.array([4.0, 0, 0])])
    labels = np.repeat([1, 2], n)
    head = fit_softmax(G, labels, 2, reg_lambda=1e-6)
    assert accuracy(head, G, labels) == 1.0


def test_fit_softmax_reaches_stationarity():
    rng = np.random.default_rng(5)
    G, labels = _random_instance(rng, n=80, d=4)
    tol = 1e-8
    head, _ = fit_softmax_with_info(G, labels, 3, reg_lambda=1e-3, tol=tol)
    _, grad_head, _ = softmax_risk(head, G, labels)
    assert np.linalg.norm(grad_head) <= tol


def test_fit_softmax_warm_start_helps():
    rng = np.random.default_rng(6)
    G, labels = _random_instance(rng, n=100, d=5)
    head, cold_iters = fit_softmax_with_info(G, labels, 3, reg_lambda=1e-3)
    _, warm_iters = fit_softmax_with_info(G, labels, 3, reg_lambda=1e-3, init=head)
    assert warm_iters <= cold_iters


def test_fit_softmax_random_labels_near_chance():
    rng = np.random.default_rng(7)
    G = rng.standard_normal((2000, 5))
    labels = rng.integers(1, 5, size=2000)
    held_G = rng.standard_normal((2000, 5))
    held_labels = rng.integers(1, 5, size=2000)
    head = fit_softmax(G, labels, 4, reg_lambda=1e-3, tol=1e-6)
    assert abs(accuracy(head, held_G, held_labels) - 0.25) <= 0.1


def test_fit_softmax_rejects_single_class():
    with pytest.raises(DataError):
        fit_softmax(np.zeros((5, 2)), np.ones(5, dtype=int), 1)


def test_reconstruction_risk_known_values():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 4))
    identity = ReconstructionHead(np.eye(4), np.zeros(4), reg_lambda=0.0)
    assert reconstruction_risk(identity, X, X)[0] == 0.0
    means = ReconstructionHead(np.zeros((4, 4)), X.mean(axis=0), reg_lambda=0.0)
    expected = float(((X - X.mean(axis=0)) ** 2).sum() / 20)
    assert reconstruction_risk(means, X, X)[0] == pytest.approx(expected, rel=1e-12)


def test_reconstruction_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    G = rng.standard_normal((15, 3))
    T = rng.standard_normal((15, 4))
    head = ReconstructionHead(rng.standard_normal((3, 4)),
                              rng.standard_normal(4), reg_lambda=0.05)
    _, (grad_w, grad_b), grad_features = reconstruction_risk(head, G, T)

    def risk_of_params(flat):
        h = ReconstructionHead(flat[:12].reshape(3, 4), flat[12:], reg_lambda=0.05)
        return reconstruction_risk(h, G, T)[0]

    def risk_of_features(flat):
        return reconstruction_risk(head, flat.reshape(15, 3), T)[0]

    packed = np.concatenate([head.weights.ravel(), head.bias])
    fd = central_diff(risk_of_params, packed)
    assert rel_error(np.concatenate([grad_w.ravel(), grad_b]), fd) <= 1e-5
    assert rel_error(grad_features.ravel(),
                     central_diff(risk_of_features, G.ravel())) <= 1e-5


def test_fit_reconstruction_exact_recovery():
    rng = np.random.default_rng(10)
    G = rng.standard_normal((30, 4))
    W0 = rng.standard_normal((4, 6))
    b0 = rng.standard_normal(6)
    T = G @ W0 + b0
    head = fit_reconstruction(G, T, reg_lambda=0.0)
    risk, _, _ = reconstruction_risk(head, G, T)
    assert risk <= 1e-20
    np.testing.assert_allclose(head.weights, W0, atol=1e-9)
    np.testing.assert_allclose(head.bias, b0, atol=1e-9)


def test_fit_reconstruction_huge_ridge_collapses_to_means():
    rng = np.random.default_rng(11)
    G = rng.standard_normal((40, 3))
    T = rng.standard_normal((40, 2))
    head = fit_reconstruction(G, T, reg_lambda=1e9)
    assert np.abs(head.weights).max() <= 1e-6
    np.testing.assert_allclose(head.bias, T.mean(axis=0), atol=1e-6)
    risk, _, _ = reconstruction_risk(head, G, T)
    variance = float(((T - T.mean(axis=0)) ** 2).sum() / 40)
    assert risk == pytest.approx(variance, rel=1e-5)


def test_fit_reconstruction_solves_normal_equations():
    rng = np.random.default_rng(12)
    G = rng.standard_normal((25, 5))
    T = rng.standard_normal((25, 3))
    lam = 0.3
    head = fit_reconstruction(G, T, reg_lambda=lam)
    g_c = G - G.mean(axis=0)
    t_c = T - T.mean(axis=0)
    lhs = (g_c.T @ g_c + 0.5 * 25 * lam * np.eye(5)) @ head.weights
    rhs = g_c.T @ t_c
    assert rel_error(lhs, rhs) <= 1e-10
    # exact minimizer beats nearby perturbations
    base = reconstruction_risk(head, G, T)[0]
    for _ in range(10):
        other = ReconstructionHead(head.weights + 1e-3 * rng.standard_normal((5, 3)),
                                   head.bias + 1e-3 * rng.standard_normal(3),
                                   reg_lambda=lam)
        assert reconstruction_risk(other, G, T)[0] >= base


def test_fit_reconstruction_brute_force_oracle():
    # joint solve over (W, bias) stacked as an augmented least-squares system
    rng = np.random.default_rng(13)
    G = rng.standard_normal((18, 3))
    T = rng.standard_normal((18, 2))
    lam = 0.12
    aug = np.hstack([G, np.ones((18, 1))])
    ridge = 0.5 * 18 * lam * np.diag([1.0, 1.0, 1.0, 0.0])
    packed = np.linalg.solve(aug.T @ aug + ridge, aug.T @ T)
    head = fit_reconstruction(G, T, reg_lambda=lam)
    np.testing.assert_allclose(head.weights, packed[:3], atol=1e-10)
    np.testing.assert_allclose(head.bias, packed[3], atol=1e-10)


def test_fit_reconstruction_needs_enough_samples():
    with pytest.raises(ShapeError):
        fit_reconstruction(np.zeros((2, 5)), np.zeros((2, 1)))


def test_predict_tie_break_lowest_index():
    head = SoftmaxHead(np.zeros((2, 3)))
    G = np.ones((4, 3))
    labels = np.array([1, 2, 1, 1])
    np.testing.assert_array_equal(predict_labels(head, G), np.ones(4, dtype=int))
    assert accuracy(head, G, labels) == 0.75


def test_head_serialization_round_trips(tmp_path):
    rng = np.random.default_rng(14)
    soft = SoftmaxHead(rng.standard_normal((3, 4)), reg_lambda=0.5)
    save_softmax_head(soft, tmp_path / "s.head")
    loaded = load_softmax_head(tmp_path / "s.head")
    np.testing.assert_array_equal(loaded.weights, soft.weights)
    assert loaded.reg_lambda == soft.reg_lambda

    rec = ReconstructionHead(rng.standard_normal((4, 2)),
                             rng.standard_normal(2), reg_lambda=0.25)
    save_reconstruction_head(rec, tmp_path / "r.head")
    loaded = load_reconstruction_head(tmp_path / "r.head")
    np.testing.assert_array_equal(loaded.weights, rec.weights)
    np.testing.assert_array_equal(loaded.bias, rec.bias)
    assert loaded.reg_lambda == rec.reg_lambda


@pytest.mark.parametrize("num_classes", [2, 4, 8, 20])
def test_softmax_core_matches_reference_bit_for_bit(num_classes):
    rng = np.random.default_rng(30 + num_classes)
    for n, d in ((1, 3), (37, 5), (640, 51)):
        G = rng.standard_normal((n, d)) * 3.0
        weights = rng.standard_normal((num_classes, d)) * 2.0
        labels = rng.integers(1, num_classes + 1, size=n)
        nll, residual = _softmax_core(weights, np.ascontiguousarray(G.T),
                                      _label_index(labels, num_classes))
        ref_nll, ref_residual = softmax_core_reference(weights, G, labels)
        assert nll == ref_nll
        assert np.array_equal(residual.T, ref_residual)

        head = SoftmaxHead(weights, reg_lambda=1e-3)
        risk, grad_head, grad_features = softmax_risk(head, G, labels)
        lam = head.reg_lambda
        assert risk == ref_nll + 0.5 * lam * float((head.weights ** 2).sum())
        # BLAS rounds a product according to its operands' memory layout,
        # so the gradients are checked against the reference residual laid
        # out class-major, as the core stores it
        class_major = np.ascontiguousarray(ref_residual.T)
        assert np.array_equal(grad_head, class_major @ G / n + lam * head.weights)
        assert np.array_equal(grad_features, class_major.T @ head.weights / n)


@pytest.mark.parametrize("num_classes",
                         [2, 3, 7, 8, 9, 16, 17, 20, 64, 128, 129, 200])
def test_class_sum_matches_numpy_row_sum_bit_for_bit(num_classes):
    rng = np.random.default_rng(50 + num_classes)
    for n in (1, 37, 640):
        # magnitudes spread over twelve decades make every change of
        # summation order visible in the last bits
        rows = (rng.standard_normal((num_classes, n))
                * 10.0 ** rng.integers(-6, 7, size=(num_classes, 1)))
        expected = np.ascontiguousarray(rows.T).sum(axis=1)
        assert np.array_equal(_class_sum(rows), expected)


def _fit_grad_norm(G, labels, num_classes, tol):
    head, _ = fit_softmax_with_info(G, labels, num_classes, tol=tol)
    assert np.all(np.isfinite(head.weights))
    return float(np.linalg.norm(softmax_risk(head, G, labels)[1]))


def test_softmax_fit_with_an_empty_class_converges():
    rng = np.random.default_rng(60)
    G = rng.standard_normal((50, 4))
    labels = rng.integers(1, 3, size=50)  # class 3 has no rows
    assert _fit_grad_norm(G, labels, 3, tol=1e-8) <= 1e-8


@pytest.mark.parametrize("value", [0.0, 2.5])
def test_softmax_fit_on_constant_features_converges(value):
    rng = np.random.default_rng(61)
    labels = rng.integers(1, 4, size=40)
    G = np.full((40, 3), value)
    assert _fit_grad_norm(G, labels, 3, tol=1e-8) <= 1e-8


@pytest.mark.parametrize("num_classes", [2, 4])
def test_softmax_fit_on_one_sample_converges(num_classes):
    rng = np.random.default_rng(62)
    G = rng.standard_normal((1, 5))
    assert _fit_grad_norm(G, np.array([2]), num_classes, tol=1e-8) <= 1e-8


def test_softmax_fit_rejects_empty_and_mismatched_inputs():
    with pytest.raises(ShapeError):
        fit_softmax_with_info(np.zeros((0, 3)), np.array([], dtype=int), 2)
    with pytest.raises(ShapeError):
        fit_softmax_with_info(np.zeros((3, 2)), np.array([1, 2]), 2)


def _warm_problem(rng, num_classes, d, n=200, drift=0.05):
    """Overlapping classes, a head fit to them, and nearby features.

    The head is the warm start for the drifted features, as in a minimax
    line-search probe.
    """
    centers = rng.standard_normal((num_classes, d))
    labels = rng.integers(1, num_classes + 1, size=n)
    labels[:num_classes] = np.arange(1, num_classes + 1)
    G = centers[labels - 1] + 1.5 * rng.standard_normal((n, d))
    warm = fit_softmax(G, labels, num_classes, reg_lambda=1e-6, tol=1e-6)
    return G + drift * rng.standard_normal((n, d)), labels, warm


def _no_lbfgs(*args, **kwargs):
    raise AssertionError("a small warm fit must not run L-BFGS-B")


def _centered(weights):
    # the risk at lam = 0 is flat along a shift shared by all class rows
    return weights - weights.mean(axis=0)


@pytest.mark.parametrize("num_classes,d", [(2, 5), (8, 5)])
@pytest.mark.parametrize("lam", [0.0, 1e-6, 1e-4])
def test_newton_warm_fit_reaches_tol_and_the_lbfgs_optimum(
        monkeypatch, num_classes, d, lam):
    rng = np.random.default_rng(70 + num_classes)
    G, labels, warm = _warm_problem(rng, num_classes, d)
    ref_weights, _ = lbfgs_softmax_reference(G, labels, num_classes, lam,
                                             tol=1e-11, max_iter=5000)
    tol = 1e-8
    monkeypatch.setattr(heads, "minimize", _no_lbfgs)
    head, steps = fit_softmax_with_info(G, labels, num_classes, lam, tol=tol,
                                        init=warm)
    assert 1 <= steps <= 5
    assert np.linalg.norm(softmax_risk(head, G, labels)[1]) <= tol
    ref_risk = softmax_risk(SoftmaxHead(ref_weights, lam), G, labels)[0]
    assert abs(softmax_risk(head, G, labels)[0] - ref_risk) <= 1e-14
    # ||W - W*|| <= ||grad|| / mu, and mu (the smallest curvature off the
    # shift direction) is above 0.01 on these problems
    assert np.abs(_centered(head.weights) - _centered(ref_weights)).max() <= 1e-6


def test_newton_at_zero_ridge_on_rank_deficient_features(monkeypatch):
    # constant rows: every direction but the one along the row is flat, so
    # the Hessian is singular far beyond the class shift; the fit must
    # take least-squares steps instead of raising LinAlgError
    rng = np.random.default_rng(80)
    labels = rng.integers(1, 5, size=60)
    labels[:4] = np.arange(1, 5)
    G = np.full((60, 5), 2.5)
    warm = SoftmaxHead(rng.standard_normal((4, 5)))
    monkeypatch.setattr(heads, "minimize", _no_lbfgs)
    head, steps = fit_softmax_with_info(G, labels, 4, reg_lambda=0.0,
                                        tol=1e-10, init=warm)
    assert steps >= 1
    assert np.linalg.norm(softmax_risk(head, G, labels)[1]) <= 1e-10
    # the fitted probabilities are the class frequencies
    logits = G[0] @ head.weights.T
    probs = np.exp(logits - logits.max())
    np.testing.assert_allclose(probs / probs.sum(),
                               np.bincount(labels, minlength=5)[1:] / 60,
                               atol=1e-10)


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_newton_honours_max_iter(monkeypatch, max_iter):
    rng = np.random.default_rng(81)
    G, labels, _ = _warm_problem(rng, 8, 5)
    far = SoftmaxHead(5.0 * rng.standard_normal((8, 5)))
    monkeypatch.setattr(heads, "minimize", _no_lbfgs)
    head, steps = fit_softmax_with_info(G, labels, 8, 1e-6, tol=1e-12,
                                        max_iter=max_iter, init=far)
    assert steps == max_iter
    assert np.linalg.norm(softmax_risk(head, G, labels)[1]) > 1e-12
    # a warm start that already meets tol takes no step
    _, steps = fit_softmax_with_info(G, labels, 8, 1e-6, tol=1e3, init=far)
    assert steps == 0


def test_softmax_hessian_matches_finite_differences():
    rng = np.random.default_rng(82)
    G, labels = _random_instance(rng, n=60, d=4, num_classes=3)
    weights = 0.5 * rng.standard_normal((3, 4))
    lam = 1e-3
    G_t = np.ascontiguousarray(G.T)
    label_index = _label_index(labels, 3)
    _, residual = _softmax_core(weights, G_t, label_index)
    residual.reshape(-1)[label_index] += 1.0
    hessian = _softmax_hessian(residual, G, G_t, lam)

    def grad_of(flat):
        return softmax_risk(SoftmaxHead(flat.reshape(3, 4), lam), G,
                            labels)[1].ravel()

    columns = [central_diff(lambda x: grad_of(x)[i], weights.ravel())
               for i in range(12)]
    assert rel_error(hessian, np.array(columns)) <= 1e-6
    # symmetric up to the rounding of the diagonal blocks' product
    np.testing.assert_allclose(hessian, hessian.T, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("num_classes,d,warm", [
    (3, 4, False), (8, 5, False), (20, 7, False), (10, 7, True),
    (20, 5, True)])
def test_cold_and_large_fits_match_the_lbfgs_path_bit_for_bit(
        num_classes, d, warm):
    rng = np.random.default_rng(90 + num_classes * d)
    G, labels, warm_head = _warm_problem(rng, num_classes, d, n=150)
    init = warm_head if warm else None
    if warm:
        assert num_classes * d > _NEWTON_MAX_WEIGHTS
    for lam, tol, max_iter in ((1e-6, 1e-8, 500), (1e-3, 1e-6, 7)):
        head, nit = fit_softmax_with_info(G, labels, num_classes, lam, tol=tol,
                                          max_iter=max_iter, init=init)
        ref_weights, ref_nit = lbfgs_softmax_reference(
            G, labels, num_classes, lam, tol, max_iter, init=init)
        assert np.array_equal(head.weights, ref_weights)
        assert nit == ref_nit
