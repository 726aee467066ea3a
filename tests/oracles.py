"""Shared numerical oracles for the test suite.

Central finite differences and a scale-aware relative error, used to
check every analytic gradient against an independent computation, plus
the straightforward forms of optimized code that the library must
reproduce: the dense diameter scan, the allocating softmax core and the
L-BFGS-B softmax fit that cold and large heads still run.
"""

import numpy as np
from scipy.optimize import minimize


def central_diff(fn, x, step=1e-6):
    """Central finite-difference gradient of scalar ``fn`` at flat ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = step
        grad[i] = (fn(x + bump) - fn(x - bump)) / (2.0 * step)
    return grad


def rel_error(a, b):
    """Norm of the difference over the larger norm (floored away from 0)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / scale)


def random_orthonormal(rng, rows, cols):
    """Uniformly distributed orthonormal columns via QR."""
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q[:, :cols]


def dense_diameters(X, y, z):
    """Reference diameter scan over the full N x N distance matrix.

    The distance formula and the row-major argmax tie-break are the ones
    ``dp_mech.compute_diameters`` must reproduce bit for bit.
    """
    from privfilter.dp_mech import DiameterReport

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    z = np.asarray(z)
    sq_norms = (X * X).sum(axis=1)
    sq_dist = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (X @ X.T)
    np.maximum(sq_dist, 0.0, out=sq_dist)
    y_differs = y[:, None] != y[None, :]
    z_differs = z[:, None] != z[None, :]
    upper = np.triu(np.ones_like(y_differs, dtype=bool), k=1)

    def best(mask):
        mask = mask & upper
        if not mask.any():
            return 0.0, None, False
        masked = np.where(mask, sq_dist, -np.inf)
        flat = int(np.argmax(masked))
        i, j = divmod(flat, X.shape[0])
        return float(np.sqrt(masked[i, j])), (i, j), True

    cross, cross_pair, cross_ok = best(y_differs & ~z_differs)
    within, within_pair, within_ok = best(~y_differs & z_differs)
    return DiameterReport(cross, within, cross_pair, within_pair,
                          cross_ok, within_ok)


def softmax_core_reference(weights, G, labels):
    """The allocating softmax core: mean NLL and the residual P - Y."""
    n = G.shape[0]
    logits = G @ weights.T
    shift = logits.max(axis=1, keepdims=True)
    exp_shifted = np.exp(logits - shift)
    norms = exp_shifted.sum(axis=1)
    log_norm = shift[:, 0] + np.log(norms)
    picked = logits[np.arange(n), labels - 1]
    nll = float(np.mean(log_norm - picked))
    residual = exp_shifted / norms[:, None]
    residual[np.arange(n), labels - 1] -= 1.0
    return nll, residual


def lbfgs_softmax_reference(G, labels, num_classes, reg_lambda, tol, max_iter,
                            init=None):
    """The softmax head fit by L-BFGS-B alone: (weights, iterations).

    Cold fits, and warm fits with more weights than the Newton bound, must
    reproduce it bit for bit.
    """
    from privfilter.heads import _label_index, _softmax_core

    n, d = G.shape
    x0 = (np.zeros(num_classes * d) if init is None
          else init.weights.ravel().copy())
    G_t = np.ascontiguousarray(G.T)
    label_index = _label_index(labels, num_classes)

    def value_and_grad(flat):
        weights = flat.reshape(num_classes, d)
        nll, residual = _softmax_core(weights, G_t, label_index)
        risk = nll + 0.5 * reg_lambda * float((weights ** 2).sum())
        grad = residual @ G / n + reg_lambda * weights
        return risk, grad.ravel()

    gtol = tol / np.sqrt(num_classes * d)
    result = minimize(value_and_grad, x0, jac=True, method="L-BFGS-B",
                      options={"maxiter": max_iter, "gtol": gtol, "ftol": 0.0})
    return result.x.reshape(num_classes, d), int(result.nit)
