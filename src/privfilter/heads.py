"""Task heads fitted on filter outputs.

Two head families cover the tasks used throughout:

* SoftmaxHead, a multinomial logistic classifier.  Its regularized
  empirical risk is

      (1/N) sum_i [ -w(y_i)'g_i + log sum_k exp(w(k)'g_i) ]
          + (lambda/2) sum_k ||w(k)||^2

  which is convex in the weights, so the fitted head is the unique
  best-response classifier for fixed features.  No intercept column is
  used; heads act on raw filter outputs.  Two solvers minimize it: a
  warm-started fit with few weights (the minimax inner heads, refit from
  the last iterate's head thousands of times per training run) takes
  damped Newton steps, and every other fit (cold starts such as the
  evaluation heads, and heads with many weights) runs scipy's L-BFGS-B;
  ``fit_softmax_with_info`` says why.

* ReconstructionHead, an affine least-squares decoder G -> X with ridge
  penalty (lambda/2)||W||_F^2.  It doubles as a least-squares classifier
  when the targets are one-hot label vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv
from scipy.optimize import minimize

from .errors import DataError, NumericError, ShapeError
from .records import read_record, write_record


@dataclass(frozen=True)
class SoftmaxHead:
    """Per-class weight rows for a multinomial logistic classifier."""

    weights: np.ndarray  # (num_classes, feature_dim)
    reg_lambda: float = 0.0

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] < 2:
            raise ShapeError("softmax weights must be (num_classes >= 2, feature_dim)")
        if not np.all(np.isfinite(weights)):
            raise NumericError("softmax weights must be finite")
        if self.reg_lambda < 0:
            raise DataError("reg_lambda must be non-negative")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class ReconstructionHead:
    """Affine decoder mapping filter outputs back to a target matrix."""

    weights: np.ndarray  # (feature_dim, target_dim)
    bias: np.ndarray     # (target_dim,)
    reg_lambda: float = 0.0

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        bias = np.array(self.bias, dtype=np.float64)
        if weights.ndim != 2:
            raise ShapeError("decoder weights must be 2-d")
        if bias.shape != (weights.shape[1],):
            raise ShapeError("bias length must match the decoder's target dimension")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise NumericError("decoder parameters must be finite")
        if self.reg_lambda < 0:
            raise DataError("reg_lambda must be non-negative")
        weights.flags.writeable = False
        bias.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = _check_labels(labels, num_classes)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels - 1] = 1.0
    return out


def _check_labels(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ShapeError("labels must be a non-empty 1-d array")
    if not np.issubdtype(labels.dtype, np.integer):
        if not np.all(labels == labels.astype(np.int64)):
            raise DataError("labels must be integers")
    labels = labels.astype(np.int64)
    if labels.min() < 1 or labels.max() > num_classes:
        raise DataError(
            f"labels must lie in 1..{num_classes}, got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def _check_feature_matrix(G, dim=None) -> np.ndarray:
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] == 0:
        raise ShapeError("features must be a non-empty 2-d array")
    if dim is not None and G.shape[1] != dim:
        raise ShapeError(f"feature dimension {G.shape[1]} does not match head ({dim})")
    if not np.all(np.isfinite(G)):
        raise NumericError("features contain non-finite values")
    return G


def _label_index(labels, num_classes) -> np.ndarray:
    """Flat indices of the labelled entries of a (num_classes, n) array."""
    return (labels - 1) * labels.size + np.arange(labels.size)


def _class_sum(rows):
    """Sum of the K rows of a (K, n) array, added as numpy adds a length-K axis.

    Bit for bit ``np.ascontiguousarray(rows.T).sum(axis=1)``: numpy's
    pairwise summation adds fewer than 8 terms in sequence, up to 128 in
    8 interleaved accumulators combined as a tree and then the remainder,
    and halves longer runs at a multiple of 8.
    """
    k = rows.shape[0]
    if k < 8:
        total = rows[0].copy()
        for i in range(1, k):
            total += rows[i]
        return total
    if k <= 128:
        blocked = k - k % 8
        acc = rows[:8].copy()
        for i in range(8, blocked, 8):
            acc += rows[i:i + 8]
        pairs = acc[0::2] + acc[1::2]
        total = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
        for i in range(blocked, k):
            total += rows[i]
        return total
    half = k // 2
    half -= half % 8
    return _class_sum(rows[:half]) + _class_sum(rows[half:])


def _softmax_core(weights, G_t, label_index):
    """Mean negative log-likelihood and the class-major residual (P - Y)'.

    ``G_t`` is the (feature_dim, n) transpose of the features, C-contiguous,
    and ``label_index`` comes from ``_label_index``.  The (num_classes, n)
    logits buffer is shifted, exponentiated and normalized in place to
    become the residual, so every per-sample step runs over a contiguous
    row of n values.  The arithmetic is that of the row-major form
    (``tests/oracles.py::softmax_core_reference``), bit for bit.
    """
    logits = weights @ G_t
    flat = logits.reshape(-1)
    picked = flat[label_index]
    shift = logits[0].copy()
    for row in logits[1:]:
        np.maximum(shift, row, out=shift)
    logits -= shift
    np.exp(logits, out=logits)
    norms = _class_sum(logits)
    log_norm = shift + np.log(norms)
    nll = float(np.mean(log_norm - picked))
    logits /= norms
    flat[label_index] -= 1.0
    return nll, logits


def softmax_risk(head: SoftmaxHead, G, labels):
    """Regularized risk and its gradients.

    Returns
    -------
    risk : float
    grad_head : array, shape (num_classes, feature_dim)
    grad_features : array, shape (n_samples, feature_dim)
    """
    G = _check_feature_matrix(G, head.feature_dim)
    labels = _check_labels(labels, head.num_classes)
    if labels.size != G.shape[0]:
        raise ShapeError("labels and features disagree on the sample count")
    n = G.shape[0]
    lam = head.reg_lambda
    nll, residual = _softmax_core(head.weights, np.ascontiguousarray(G.T),
                                  _label_index(labels, head.num_classes))
    risk = nll + 0.5 * lam * float((head.weights ** 2).sum())
    grad_head = residual @ G / n + lam * head.weights
    grad_features = residual.T @ head.weights / n
    return risk, grad_head, grad_features


# Warm-started fits with at most this many weights (num_classes * dim) take
# damped Newton steps; all other fits run L-BFGS-B.  Timed on one warm fit
# (features moved by 1% since the start was fit; one BLAS thread, 2-core
# Xeon VM), Newton took 2-3 steps and 0.15-0.3x the time of L-BFGS-B at
# K*d = 10 to 200 with n = 256, 0.3-0.9x with n = 6,400, but 1.2-2.9x at
# K*d = 200 to 1,020 with n = 6,400.  A step's Hessian costs about
# n*(K*d)^2 flops against about 4n*K*d per L-BFGS-B iteration, so Newton's
# lead shrinks as n grows; the bound sits well below the crossover.
_NEWTON_MAX_WEIGHTS = 64
_ARMIJO = 1e-4        # sufficient-decrease constant of the Newton line search
_MAX_HALVINGS = 40    # step halvings before a Newton line search gives up


def fit_softmax_with_info(G, labels, num_classes, reg_lambda=1e-6, tol=1e-8,
                          max_iter=500, init=None):
    """Fit a softmax head; also report the solver iteration count.

    Deterministic minimization of the convex risk, started from zero
    weights (or ``init`` for warm starts).  Stops when the risk gradient
    norm is at most ``tol`` or after ``max_iter`` iterations.

    A warm start with at most ``_NEWTON_MAX_WEIGHTS`` weights is solved by
    damped Newton (``_newton_fit``), and the iteration count is its Newton
    steps.  Such a start sits close to the optimum, where Newton needs one
    or two steps and the small Hessian costs less than the per-iteration
    overhead of scipy.  Every other fit runs L-BFGS-B and counts its
    iterations: from zero weights Newton needs more steps, and a Newton
    step costs n * (K*d)^2 flops, which grows past L-BFGS-B's cheap
    iterations on heads with many weights.
    """
    if num_classes < 2:
        raise DataError("softmax heads need at least two classes")
    G = _check_feature_matrix(G)
    labels = _check_labels(labels, num_classes)
    if labels.size != G.shape[0]:
        raise ShapeError("labels and features disagree on the sample count")
    n, d = G.shape
    if init is not None and init.weights.shape != (num_classes, d):
        raise ShapeError("warm-start head has the wrong shape")
    lam = float(reg_lambda)
    G_t = np.ascontiguousarray(G.T)
    label_index = _label_index(labels, num_classes)

    def value_and_grad(weights):
        nll, residual = _softmax_core(weights, G_t, label_index)
        risk = nll + 0.5 * lam * float((weights ** 2).sum())
        return risk, residual @ G / n + lam * weights, residual

    if init is not None and num_classes * d <= _NEWTON_MAX_WEIGHTS:
        weights, risk, nit = _newton_fit(value_and_grad, init.weights, G, G_t,
                                         label_index, lam, tol, max_iter)
    else:
        if init is None:
            x0 = np.zeros(num_classes * d)
        else:
            x0 = init.weights.ravel().copy()

        def flat_value_and_grad(flat):
            risk, grad, _ = value_and_grad(flat.reshape(num_classes, d))
            return risk, grad.ravel()

        # L-BFGS-B's gtol bounds the max gradient component; scale it so
        # the Euclidean norm of the full gradient lands at or below tol.
        gtol = tol / np.sqrt(num_classes * d)
        result = minimize(flat_value_and_grad, x0, jac=True, method="L-BFGS-B",
                          options={"maxiter": max_iter, "gtol": gtol,
                                   "ftol": 0.0})
        weights = result.x.reshape(num_classes, d)
        risk, nit = result.fun, result.nit
    if not np.isfinite(risk):
        raise NumericError("softmax fit diverged to a non-finite risk")
    head = SoftmaxHead(weights, reg_lambda=lam)
    return head, int(nit)


def _newton_fit(value_and_grad, weights, G, G_t, label_index, lam, tol,
                max_iter):
    """Damped Newton minimization of the softmax risk from ``weights``.

    Each step solves H s = -grad and backtracks from t = 1, halving t until
    the Armijo condition holds.  Stops at ||grad|| <= tol, after
    ``max_iter`` steps, or when no halving decreases the risk.  Returns
    (weights, risk, steps).
    """
    risk, grad, residual = value_and_grad(weights)
    steps = 0
    while steps < max_iter and np.linalg.norm(grad) > tol:
        probs = residual  # P - Y, turned into P in place
        probs.reshape(-1)[label_index] += 1.0
        step = -_newton_step(_softmax_hessian(probs, G, G_t, lam), grad, lam)
        slope = float((grad * step).sum())
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = weights + t * step
            trial_risk, trial_grad, trial_residual = value_and_grad(trial)
            if trial_risk <= risk + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break
        weights, risk, grad, residual = (trial, trial_risk, trial_grad,
                                          trial_residual)
        steps += 1
    return weights, risk, steps


def _softmax_hessian(probs, G, G_t, lam):
    """Hessian of the softmax risk in the row-major flattened weights.

    H = (1/n) [blockdiag_k(G' diag(p_k) G) - M'M] + lam I, where
    M[i, (k, a)] = p_ik g_ia and ``probs`` holds the class-major (K, n)
    probabilities p.
    """
    num_classes, n = probs.shape
    d = G.shape[1]
    size = num_classes * d
    # M' built class-major from contiguous rows: M'[(k, a), i] = p_ik g_ia
    weighted = (probs[:, None, :] * G_t).reshape(size, n)
    hessian = -(weighted @ weighted.T)
    blocks = (weighted @ G).reshape(num_classes, d, d)  # G' diag(p_k) G
    diagonal = np.arange(num_classes)
    by_class = hessian.reshape(num_classes, d, num_classes, d)
    by_class[diagonal, :, diagonal, :] += blocks
    hessian /= n
    hessian.reshape(-1)[::size + 1] += lam
    return hessian


def _newton_step(hessian, grad, lam):
    """Solve hessian @ s = grad for s, shaped like ``grad``.

    With a ridge (lam > 0) the Hessian is positive definite and the solve
    is a Cholesky factorization (LAPACK dposv).  At lam = 0 it is singular
    along the shift shared by all class rows, which changes no
    probability; the gradient has no component there, so the step is the
    minimum-norm least-squares solution.  A Cholesky that fails on a
    numerically indefinite Hessian falls back to the same solve.
    """
    rhs = grad.reshape(-1)
    if lam > 0:
        _, solution, info = dposv(hessian, rhs)
        if info == 0:
            return solution.reshape(grad.shape)
    return np.linalg.lstsq(hessian, rhs, rcond=None)[0].reshape(grad.shape)


def fit_softmax(G, labels, num_classes, reg_lambda=1e-6, tol=1e-8,
                max_iter=500, init=None) -> SoftmaxHead:
    head, _ = fit_softmax_with_info(G, labels, num_classes, reg_lambda, tol,
                                    max_iter, init)
    return head


def reconstruction_risk(head: ReconstructionHead, G, target):
    """Mean squared reconstruction error plus ridge penalty, with gradients.

    Returns
    -------
    risk : float
    grad_head : (grad_weights, grad_bias)
    grad_features : array, shape (n_samples, feature_dim)
    """
    G = _check_feature_matrix(G, head.feature_dim)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (G.shape[0], head.weights.shape[1]):
        raise ShapeError(
            f"target shape {target.shape} does not match "
            f"({G.shape[0]}, {head.weights.shape[1]})"
        )
    n = G.shape[0]
    lam = head.reg_lambda
    residual = G @ head.weights + head.bias - target
    risk = float((residual * residual).sum() / n)
    risk += 0.5 * lam * float((head.weights ** 2).sum())
    grad_weights = (2.0 / n) * (G.T @ residual) + lam * head.weights
    grad_bias = (2.0 / n) * residual.sum(axis=0)
    grad_features = (2.0 / n) * (residual @ head.weights.T)
    return risk, (grad_weights, grad_bias), grad_features


def fit_reconstruction(G, target, reg_lambda=0.0, fit_intercept=True
                       ) -> ReconstructionHead:
    """Exact minimizer of the ridge reconstruction risk.

    Solved in closed form from the normal equations.  With
    ``fit_intercept`` the bias absorbs the target means and the weights
    are fit on centered data, which is the joint optimum; without it the
    bias is pinned at zero.
    """
    G = _check_feature_matrix(G)
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 2 or target.shape[0] != G.shape[0]:
        raise ShapeError("target must be 2-d with one row per sample")
    if not np.all(np.isfinite(target)):
        raise NumericError("target contains non-finite values")
    n, d = G.shape
    if n < d:
        raise ShapeError(f"need at least as many samples ({n}) as features ({d})")
    if reg_lambda < 0:
        raise DataError("reg_lambda must be non-negative")
    if fit_intercept:
        g_mean = G.mean(axis=0)
        t_mean = target.mean(axis=0)
        g_c = G - g_mean
        t_c = target - t_mean
    else:
        g_c, t_c = G, target
    # Stationarity of (1/N)||GW + 1b' - T||^2 + (lam/2)||W||^2 gives
    # (G_c'G_c + (N lam / 2) I) W = G_c'T_c.
    if reg_lambda > 0:
        gram = g_c.T @ g_c + (0.5 * n * reg_lambda) * np.eye(d)
        weights = np.linalg.solve(gram, g_c.T @ t_c)
    else:
        weights, *_ = np.linalg.lstsq(g_c, t_c, rcond=None)
    if fit_intercept:
        bias = t_mean - weights.T @ g_mean
    else:
        bias = np.zeros(target.shape[1])
    return ReconstructionHead(weights, bias, reg_lambda=reg_lambda)


def predict_labels(head: SoftmaxHead, G) -> np.ndarray:
    """Argmax class per row; ties go to the lowest class index."""
    G = _check_feature_matrix(G, head.feature_dim)
    return np.argmax(G @ head.weights.T, axis=1) + 1


def accuracy(head: SoftmaxHead, G, labels) -> float:
    labels = _check_labels(labels, head.num_classes)
    predictions = predict_labels(head, G)
    if labels.size != predictions.size:
        raise ShapeError("labels and features disagree on the sample count")
    return float(np.mean(predictions == labels))


def save_softmax_head(head: SoftmaxHead, path) -> None:
    header = {
        "record": "softmax_head",
        "num_classes": head.num_classes,
        "feature_dim": head.feature_dim,
        "reg_lambda": head.reg_lambda,
    }
    write_record(path, header, head.weights)


def load_softmax_head(path) -> SoftmaxHead:
    header, values = read_record(path)
    if header.get("record") != "softmax_head":
        raise DataError(f"{path}: not a softmax head record")
    shape = (int(header["num_classes"]), int(header["feature_dim"]))
    return SoftmaxHead(values.reshape(shape), reg_lambda=float(header["reg_lambda"]))


def save_reconstruction_head(head: ReconstructionHead, path) -> None:
    header = {
        "record": "reconstruction_head",
        "feature_dim": head.weights.shape[0],
        "target_dim": head.weights.shape[1],
        "reg_lambda": head.reg_lambda,
    }
    write_record(path, header, np.concatenate([head.weights.ravel(), head.bias]))


def load_reconstruction_head(path) -> ReconstructionHead:
    header, values = read_record(path)
    if header.get("record") != "reconstruction_head":
        raise DataError(f"{path}: not a reconstruction head record")
    d = int(header["feature_dim"])
    t = int(header["target_dim"])
    return ReconstructionHead(values[:d * t].reshape(d, t), values[d * t:],
                              reg_lambda=float(header["reg_lambda"]))
