"""Task heads fitted on filter outputs.

Two head families cover the tasks used throughout:

* SoftmaxHead, a multinomial logistic classifier.  Its regularized
  empirical risk is

      (1/N) sum_i [ -w(y_i)'g_i + log sum_k exp(w(k)'g_i) ]
          + (lambda/2) sum_k ||w(k)||^2

  which is convex in the weights, so the fitted head is the unique
  best-response classifier for fixed features.  No intercept column is
  used; heads act on raw filter outputs.  One solver minimizes it, damped
  Newton from zero weights or a warm start (the minimax inner heads,
  refit from the last iterate's head).  Heads with few weights solve each
  Newton step densely with numpy's LU solve, and larger ones by truncated
  conjugate gradients; ``fit_softmax_with_info`` says why.  The module
  needs numpy only.

* ReconstructionHead, an affine least-squares decoder G -> X with ridge
  penalty (lambda/2)||W||_F^2.  It doubles as a least-squares classifier
  when the targets are one-hot label vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (NON_NEGATIVE, NON_NEGATIVE_INT, POSITIVE_INT, DataError,
                     NumericError, Setting, ShapeError, check_features,
                     check_labels)

_SOFTMAX_CLASSES = Setting(int, 2)
_INTERCEPT = Setting(bool)


@dataclass(frozen=True)
class SoftmaxHead:
    """Per-class weight rows for a multinomial logistic classifier."""

    weights: np.ndarray  # (num_classes, feature_dim)
    reg_lambda: float = 0.0

    def __post_init__(self):
        weights = check_features(
            "weights", np.array(self.weights, dtype=np.float64), rows=2)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "reg_lambda",
                           NON_NEGATIVE.check("reg_lambda", self.reg_lambda))

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
        weights = check_features("weights", np.array(self.weights, dtype=np.float64))
        bias = np.array(self.bias, dtype=np.float64)
        if bias.shape != (weights.shape[1],):
            raise ShapeError("bias length must match the decoder's target dimension")
        if not np.all(np.isfinite(bias)):
            raise DataError("bias must be finite")
        weights.flags.writeable = False
        bias.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "reg_lambda",
                           NON_NEGATIVE.check("reg_lambda", self.reg_lambda))

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]


def one_hot(labels, num_classes: int) -> np.ndarray:
    num_classes = POSITIVE_INT.check("num_classes", num_classes)
    labels = check_labels("labels", labels, num_classes)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels - 1] = 1.0
    return out


def _label_index(labels) -> np.ndarray:
    """Flat indices of the labelled entries of a (num_classes, n) array."""
    return (labels - 1) * labels.size + np.arange(labels.size)


def _softmax_problem(G, labels, num_classes, dim=None):
    """Checked softmax inputs: the features, their C-contiguous (dim, n)
    transpose and their ``_label_index``."""
    G = check_features("G", G, dim=dim)
    labels = check_labels("labels", labels, num_classes)
    if labels.size != G.shape[0]:
        raise ShapeError("labels and features disagree on the sample count")
    return G, np.ascontiguousarray(G.T), _label_index(labels)


def _softmax_core(weights, G_t, label_index):
    """Mean negative log-likelihood and the class-major residual (P - Y)'.

    ``G_t`` and ``label_index`` come from ``_softmax_problem``.  The
    (num_classes, n) logits buffer is shifted, exponentiated and normalized
    in place to become the residual, so every per-sample step runs over a
    contiguous row of n values.  The result equals the row-major form
    (``tests/oracles.py::softmax_core_reference``) up to the rounding of
    the class sums, which run in another order.
    """
    logits = weights @ G_t
    flat = logits.reshape(-1)
    picked = flat[label_index]
    shift = logits.max(axis=0)
    logits -= shift
    np.exp(logits, out=logits)
    norms = logits.sum(axis=0)
    log_norm = shift + np.log(norms)
    nll_terms = log_norm - picked
    nll = float(nll_terms.sum() / nll_terms.size)  # np.mean's bits
    logits /= norms
    flat[label_index] -= 1.0
    return nll, logits


def _risk_and_grad(weights, lam, G, G_t, label_index):
    """Regularized softmax risk, its gradient in ``weights`` and the
    residual (P - Y)' of ``_softmax_core``."""
    nll, residual = _softmax_core(weights, G_t, label_index)
    risk = nll + 0.5 * lam * float((weights ** 2).sum())
    return risk, residual @ G / G.shape[0] + lam * weights, residual


def softmax_risk(head: SoftmaxHead, G, labels):
    """Regularized risk and its gradients.

    Returns
    -------
    risk : float
    grad_head : array, shape (num_classes, feature_dim)
    grad_features : array, shape (n_samples, feature_dim)
    """
    G, G_t, label_index = _softmax_problem(G, labels, head.num_classes,
                                           head.feature_dim)
    risk, grad_head, residual = _risk_and_grad(head.weights, head.reg_lambda,
                                               G, G_t, label_index)
    grad_features = residual.T @ head.weights / G.shape[0]
    return risk, grad_head, grad_features


# Fits with at most this many weights (num_classes * dim) solve each Newton
# step densely; larger fits solve it by truncated conjugate gradients.
# Timed on the cold evaluation heads of a 6,400-row training split (one
# BLAS thread, 2-core Xeon VM, best of three): sixteen K*d = 120 heads took
# 0.49-0.56 s dense and 0.53 s by CG, four K*d = 204 heads 0.44-0.48 s
# dense and 0.13-0.15 s by CG, and four K*d = 1,020 heads 1.2 s by CG.
_NEWTON_MAX_WEIGHTS = 128
_HESSIAN_BLOCK = 8192  # samples per block of the dense Hessian's products
_ARMIJO = 1e-4        # sufficient-decrease constant of the Newton line search
_MAX_HALVINGS = 40    # step halvings before a Newton line search gives up
_EPS = np.finfo(np.float64).eps


def fit_softmax_with_info(G, labels, num_classes, reg_lambda=1e-6, tol=1e-8,
                          max_iter=500, init=None, final=None):
    """Fit a softmax head; also report the number of Newton steps taken.

    Deterministic minimization of the convex risk by damped Newton
    (``_newton_fit``), started from zero weights (or ``init`` for warm
    starts).  Stops when the risk gradient norm is at most ``tol``, after
    ``max_iter`` Newton steps, or when the line search accepts no step.

    With at most ``_NEWTON_MAX_WEIGHTS`` weights each step solves the dense
    K*d x K*d Newton system, which costs n * (K*d)^2 flops to build.  Above
    that bound a step is a truncated conjugate-gradient solve from
    Hessian-vector products at about 4n*K*d flops each, stopped at the
    forcing term min(0.5, sqrt(||grad||)) of Nocedal & Wright (Sec. 7.1),
    so steps far from the optimum are cheap and steps near it are exact
    enough for superlinear convergence.  The 24 evaluation heads of the
    criterion-7 sweep (K*d = 12 and 48, n = 256) take 0.02 s in all.

    ``final``, when given, is a list to which the fit appends
    ``(risk, grad_head, residual)`` at the returned head, taken from the
    solver's last evaluation instead of a second pass over the samples:
    the risk and weight gradient of ``softmax_risk(head, G, labels)`` bit
    for bit, and the (num_classes, n) residual P - Y from which
    ``residual.T @ head.weights / n`` is its feature gradient.
    """
    num_classes = _SOFTMAX_CLASSES.check("num_classes", num_classes)
    lam = NON_NEGATIVE.check("reg_lambda", reg_lambda)
    tol = NON_NEGATIVE.check("tol", tol)
    max_iter = NON_NEGATIVE_INT.check("max_iter", max_iter)
    G, G_t, label_index = _softmax_problem(G, labels, num_classes)
    d = G.shape[1]
    if init is not None and init.weights.shape != (num_classes, d):
        raise ShapeError("warm-start head has the wrong shape")
    start = np.zeros((num_classes, d)) if init is None else init.weights
    weights, risk, grad, residual, steps = _newton_fit(
        start, G, G_t, label_index, lam, tol, max_iter)
    if not np.isfinite(risk):
        raise NumericError("softmax fit diverged to a non-finite risk")
    head = SoftmaxHead(weights, reg_lambda=lam)
    if final is not None:
        final.append((risk, grad, residual))
    return head, steps


def _newton_fit(weights, G, G_t, label_index, lam, tol, max_iter):
    """Damped Newton minimization of the softmax risk from ``weights``.

    Each step solves H s = -grad, densely (``_newton_step``) for at most
    ``_NEWTON_MAX_WEIGHTS`` weights and by truncated conjugate gradients
    (``_newton_cg_step``) above, and backtracks from t = 1, halving t until
    the Armijo condition holds or, where the predicted decrease is below
    rounding level, until the gradient norm falls.  Stops at
    ||grad|| <= tol, after ``max_iter`` steps, or when no halving is
    accepted.  Returns (weights, risk, grad, residual, steps), where risk,
    grad and residual are ``_risk_and_grad`` at the returned weights.
    """
    dense = weights.size <= _NEWTON_MAX_WEIGHTS
    risk, grad, residual = _risk_and_grad(weights, lam, G, G_t, label_index)
    grad_norm = _norm(grad)
    steps = 0
    while steps < max_iter and grad_norm > tol:
        probs = residual  # P - Y, turned into P in place
        probs.reshape(-1)[label_index] += 1.0
        if dense:
            step = -_newton_step(_softmax_hessian(probs, G, G_t, lam), grad, lam)
        else:
            step = _newton_cg_step(probs, G, G_t, lam, grad, grad_norm, tol)
        slope = float((grad * step).sum())
        # Once the predicted decrease is below the risk's rounding error,
        # Armijo cannot tell progress from noise; accept a step that
        # shrinks the gradient instead (Hager & Zhang's approximate Wolfe).
        flat = -slope <= 4.0 * _EPS * abs(risk)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = weights + t * step
            trial_risk, trial_grad, trial_residual = _risk_and_grad(
                trial, lam, G, G_t, label_index)
            trial_norm = _norm(trial_grad)
            if trial_risk <= risk + _ARMIJO * t * slope or (
                    flat and trial_norm < grad_norm):
                break
            t *= 0.5
        else:
            # the residual now holds P; recompute it at the kept weights
            risk, grad, residual = _risk_and_grad(weights, lam, G, G_t,
                                                  label_index)
            break
        weights, risk, grad, grad_norm, residual = (
            trial, trial_risk, trial_grad, trial_norm, trial_residual)
        steps += 1
    return weights, risk, grad, residual, steps


def _norm(grad):
    """``np.linalg.norm(grad)`` bit for bit, without its dispatch."""
    flat = grad.reshape(-1)
    return math.sqrt(flat @ flat)


def _softmax_hessian(probs, G, G_t, lam):
    """Hessian of the softmax risk in the row-major flattened weights.

    H = (1/n) [blockdiag_k(G' diag(p_k) G) - M'M] + lam I, where
    M[i, (k, a)] = p_ik g_ia and ``probs`` holds the class-major (K, n)
    probabilities p.  The sums over samples run in ``_HESSIAN_BLOCK`` blocks.
    """
    num_classes, n = probs.shape
    d = G.shape[1]
    size = num_classes * d
    for start in range(0, n, _HESSIAN_BLOCK):
        part = slice(start, start + _HESSIAN_BLOCK)
        # M' built class-major from contiguous rows: M'[(k, a), i] = p_ik g_ia
        weighted = (probs[:, None, part] * G_t[:, part]).reshape(size, -1)
        if start == 0:
            hessian = -(weighted @ weighted.T)
            blocks = weighted @ G[part]
        else:
            hessian -= weighted @ weighted.T
            blocks += weighted @ G[part]
        del weighted  # else the next block is built while this one lives
    blocks = blocks.reshape(num_classes, d, d)  # G' diag(p_k) G
    diagonal = np.arange(num_classes)
    by_class = hessian.reshape(num_classes, d, num_classes, d)
    by_class[diagonal, :, diagonal, :] += blocks
    hessian /= n
    hessian.reshape(-1)[::size + 1] += lam
    return hessian


def _newton_step(hessian, grad, lam):
    """Solve hessian @ s = grad for s, shaped like ``grad``.

    With a ridge (lam > 0) the Hessian is positive definite and the solve
    is a dense LU solve (``np.linalg.solve``).  At lam = 0 it is singular
    along the shift shared by all class rows, which changes no
    probability; the gradient has no component there, so the step is the
    minimum-norm least-squares solution.  A singular matrix, or a solution
    s with s'grad <= 0, which only a numerically indefinite Hessian gives
    and which would make -s an ascent direction, falls back to the same
    solve.
    """
    rhs = grad.reshape(-1)
    if lam > 0:
        try:
            solution = np.linalg.solve(hessian, rhs)
        except np.linalg.LinAlgError:
            pass
        else:
            if solution @ rhs > 0:
                return solution.reshape(grad.shape)
    return np.linalg.lstsq(hessian, rhs, rcond=None)[0].reshape(grad.shape)


def _softmax_hvp(probs, G, G_t, lam, v, work):
    """Hessian of the softmax risk times the (num_classes, feature_dim) ``v``.

    Hv = (1/n) sum_i (diag(p_i) - p_i p_i') (V g_i) g_i' + lam V, built
    class-major from the (K, n) probabilities ``probs`` without forming H.
    ``work`` is a (K, n) scratch array that a conjugate-gradient solve
    reuses for all its products: fresh (K, n) temporaries on every call
    cost a third of the product's time in page faults at K = 20,
    n = 6,400.  The term p_k * sum_j a_j is subtracted one class row at a
    time, so no second (K, n) array is needed.
    """
    a = work
    np.matmul(v, G_t, out=a)
    a *= probs
    s = a.sum(axis=0)
    for a_k, p_k in zip(a, probs):
        a_k -= p_k * s
    hv = a @ G
    hv /= probs.shape[1]
    hv += lam * v
    return hv


def _newton_cg_step(probs, G, G_t, lam, grad, grad_norm, tol):
    """Truncated conjugate-gradient solve of H s = -grad (Nocedal & Wright,
    Algorithm 7.1).

    Iterates from s = 0 until the residual ||H s + grad|| falls to
    min(0.5, sqrt(||grad||)) ||grad||, or to tol / 2, below which the fit
    has no use for a more exact step, or after one pass per weight.  Every
    iterate is a descent direction.  On a direction of non-positive
    curvature (rounding at lam = 0, where H is singular along the class
    shift) it returns the iterate so far, or -grad if there is none yet.
    """
    forcing = max(min(0.5, np.sqrt(grad_norm)) * grad_norm, 0.5 * tol)
    work = np.empty(probs.shape)
    step = np.zeros_like(grad)
    residual = grad.copy()
    direction = -grad
    rr = grad_norm * grad_norm
    for _ in range(grad.size):
        hd = _softmax_hvp(probs, G, G_t, lam, direction, work)
        curvature = float((direction * hd).sum())
        if curvature <= 0.0:
            return step if step.any() else -grad
        alpha = rr / curvature
        step += alpha * direction
        residual += alpha * hd
        rr_next = float((residual * residual).sum())
        if rr_next <= forcing * forcing:
            break
        direction *= rr_next / rr
        direction -= residual
        rr = rr_next
    return step


def fit_softmax(G, labels, num_classes, reg_lambda=1e-6, tol=1e-8,
                max_iter=500, init=None, final=None) -> SoftmaxHead:
    """``fit_softmax_with_info`` without the step count."""
    head, _ = fit_softmax_with_info(G, labels, num_classes, reg_lambda, tol,
                                    max_iter, init, final)
    return head


def reconstruction_risk(head: ReconstructionHead, G, target):
    """Mean squared reconstruction error plus ridge penalty, with gradients.

    Returns
    -------
    risk : float
    grad_head : (grad_weights, grad_bias)
    grad_features : array, shape (n_samples, feature_dim)
    """
    G = check_features("G", G, dim=head.feature_dim)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (G.shape[0], head.weights.shape[1]):
        raise ShapeError(
            f"target shape {target.shape} does not match "
            f"({G.shape[0]}, {head.weights.shape[1]})"
        )
    n = G.shape[0]
    lam = head.reg_lambda
    # One n-row buffer for the residual and one for grad_features; the
    # residual is squared in place once the gradients have used it.
    residual = G @ head.weights
    residual += head.bias
    residual -= target
    grad_weights = (2.0 / n) * (G.T @ residual) + lam * head.weights
    grad_bias = (2.0 / n) * residual.sum(axis=0)
    grad_features = residual @ head.weights.T
    grad_features *= 2.0 / n
    residual *= residual
    risk = float(residual.sum() / n)
    risk += 0.5 * lam * float((head.weights ** 2).sum())
    return risk, (grad_weights, grad_bias), grad_features


def fit_reconstruction(G, target, reg_lambda=0.0, fit_intercept=True
                       ) -> ReconstructionHead:
    """Exact minimizer of the ridge reconstruction risk.

    Solved in closed form from the normal equations, which a ridge
    (``reg_lambda`` > 0) makes nonsingular for any sample count; without
    one, fewer samples than features is refused.  With ``fit_intercept``
    the bias absorbs the target means and the weights are fit on centered
    data, which is the joint optimum; without it the bias is pinned at
    zero.
    """
    reg_lambda = NON_NEGATIVE.check("reg_lambda", reg_lambda)
    fit_intercept = _INTERCEPT.check("fit_intercept", fit_intercept)
    G = check_features("G", G)
    target = check_features("target", target, rows=G.shape[0])
    if target.shape[0] != G.shape[0]:
        raise ShapeError("target must have one row per sample")
    n, d = G.shape
    if n < d and reg_lambda == 0:
        raise ShapeError(f"need at least as many samples ({n}) as features ({d})"
                         " without a ridge")
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
    G = check_features("G", G, dim=head.feature_dim)
    return np.argmax(G @ head.weights.T, axis=1) + 1


def accuracy(head: SoftmaxHead, G, labels) -> float:
    labels = check_labels("labels", labels, head.num_classes)
    predictions = predict_labels(head, G)
    if labels.size != predictions.size:
        raise ShapeError("labels and features disagree on the sample count")
    return float(np.mean(predictions == labels))
