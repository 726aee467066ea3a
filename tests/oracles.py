"""Shared numerical oracles for the test suite.

Central finite differences and a scale-aware relative error, used to
check every analytic gradient against an independent computation, plus
the straightforward forms of optimized code that the library must
reproduce: the dense diameter scan, the allocating softmax core and
reconstruction risk, an L-BFGS-B softmax fit whose risk the Newton fits
must match, the allocating MLP forward pass, MLP vector-Jacobian product
and denoising-autoencoder layer, the dense BFGS inverse-Hessian update
behind the minimax L-BFGS direction, the minimax loop along the
negated gradient alone (steepest descent), the tradeoff objective at
fixed heads (``evaluate_objective``), and the row-by-row synthetic data
generator.  ``mean_metric`` averages one metric of a sweep's cells.

It also holds the exact solution of the linear least-squares filter
problem, against which iterative training is checked.  With a linear
filter and least-squares heads the best-response risks have closed
forms, and the filter tradeoff objective collapses to

    Tr[ (U'(C_xx + delta I)U)^{-1} U'(C_xy C_xy' - rho C_xz C_xz')U ]

whose minimum over U is the sum of the d smallest eigenvalues of the
whitened contrast matrix (``least_squares_minimax``; the objective at
any U is ``trace_objective``).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from privfilter.baselines import _check_square_symmetric, fix_eigvec_signs
from privfilter.errors import DataError, NumericError, ShapeError

DEFAULT_WHITEN_RIDGE_FACTOR = 1e-8


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
            return 0.0, None
        masked = np.where(mask, sq_dist, -np.inf)
        flat = int(np.argmax(masked))
        i, j = divmod(flat, X.shape[0])
        return float(np.sqrt(masked[i, j])), (i, j)

    cross, cross_pair = best(y_differs & ~z_differs)
    within, within_pair = best(~y_differs & z_differs)
    return DiameterReport(cross, within, cross_pair, within_pair)


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


def reconstruction_risk_reference(head, G, target):
    """The allocating reconstruction risk: (risk, (grad_w, grad_b), grad_G)."""
    n = G.shape[0]
    lam = head.reg_lambda
    residual = G @ head.weights + head.bias - target
    risk = float((residual * residual).sum() / n)
    risk += 0.5 * lam * float((head.weights ** 2).sum())
    grad_weights = (2.0 / n) * (G.T @ residual) + lam * head.weights
    grad_bias = (2.0 / n) * residual.sum(axis=0)
    grad_features = (2.0 / n) * (residual @ head.weights.T)
    return risk, (grad_weights, grad_bias), grad_features


def lbfgs_softmax_reference(G, labels, num_classes, reg_lambda, tol, max_iter,
                            init=None):
    """The softmax head fit by scipy's L-BFGS-B: (weights, iterations).

    An independent solver for the Newton fits to be checked against: run to
    a tight ``tol``, its risk bounds the optimum from above.
    """
    from privfilter.heads import _label_index, _softmax_core

    n, d = G.shape
    x0 = (np.zeros(num_classes * d) if init is None
          else init.weights.ravel().copy())
    G_t = np.ascontiguousarray(G.T)
    label_index = _label_index(labels)

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


def bfgs_inverse_hessian_reference(pairs):
    """Dense inverse-Hessian estimate from curvature ``pairs`` (s, y, s.y),
    oldest first: H = (s.y / y.y) I for the newest pair, then the BFGS
    update H <- (I - s y'/s.y) H (I - y s'/s.y) + s s'/s.y per pair."""
    _, y_new, sy_new = pairs[-1]
    eye = np.eye(y_new.size)
    H = (sy_new / float(y_new @ y_new)) * eye
    for s, y, sy in pairs:
        V = eye - np.outer(y, s) / sy
        H = V.T @ H @ V + np.outer(s, s) / sy
    return H


def steepest_descent_reference(init, data, cfg):
    """The minimax loop with every step along the negated gradient.

    Searches the step grid 0.5**k (k <= ``minimax_opt._MAX_BACKTRACKS``)
    with a warm-started schedule suited to steepest descent: start one grid
    point above the last accepted step, backtrack on rejection (wrapping
    round to the larger steps), otherwise expand toward the unit step.
    Same Armijo test and stopping rule as ``minimax_opt.train_minimax``,
    without curvature memory.
    Returns (objectives, step sizes, final parameters, joint_objective
    calls, stop reason), the objectives and steps of the accepted
    iterates only.
    """
    from privfilter import minimax_opt
    from privfilter.minimax_opt import descent_direction, joint_objective

    grid = [minimax_opt._UNIT_STEP * minimax_opt._SHRINK ** k
            for k in range(minimax_opt._MAX_BACKTRACKS + 1)]
    state = init
    objective, _, _, fitted = joint_objective(state, data, cfg)
    direction = descent_direction(state, fitted, data)
    objectives, steps, calls = [], [], 1
    start, slow_count, stop_reason = 0, 0, "max_iter"

    def probe(k):
        trial = state.with_params(state.params + grid[k] * direction)
        values = joint_objective(trial, data, cfg, warm=fitted)
        margin = minimax_opt._ARMIJO * grid[k] * float(direction @ direction)
        return (k, trial, values) if values[0] < objective - margin else None

    for _ in range(cfg.max_iter):
        accepted = None
        for k in [*range(start, len(grid)), *range(start)]:
            calls += 1
            accepted = probe(k)
            if accepted is not None:
                break
        if accepted is None:
            stop_reason = "stalled"
            break
        if accepted[0] == start:
            for k in range(start - 1, -1, -1):
                calls += 1
                larger = probe(k)
                if larger is None:
                    break
                accepted = larger
        k, state, (trial_objective, _, _, fitted) = accepted
        start = max(k - 1, 0)
        decrease = objective - trial_objective
        objective = trial_objective
        direction = descent_direction(state, fitted, data)
        objectives.append(objective)
        steps.append(grid[k])
        slow_count = slow_count + 1 if decrease < cfg.convergence_tol else 0
        if slow_count >= cfg.slow_iterations:
            stop_reason = "converged"
            break
    return objectives, steps, state.params, calls, stop_reason


def evaluate_objective(state, fitted, data, cfg):
    """The tradeoff objective at fixed heads (no refit).

    Returns (objective, privacy_value, utility_value) of the heads in
    ``fitted`` (from ``minimax_opt.joint_objective``) on ``data``, summed
    in ``joint_objective``'s order, so on the data the heads were fit to
    it equals that call's values bit for bit.  On held-out data it is the
    empirical objective of the training heads.  A least-squares head's
    one-hot targets take the head's column count.
    """
    from privfilter import heads
    from privfilter.filters import apply_filter
    from privfilter.minimax_opt import TASK_LEAST_SQUARES, TASK_SOFTMAX

    G = apply_filter(state, data.X)
    values = [0.0, 0.0]  # privacy_value, utility_value
    tasks = (*cfg.private_tasks, *cfg.utility_tasks)
    fixed = (*fitted.private, *fitted.utility)
    for i, ((task, weight), head) in enumerate(zip(tasks, fixed)):
        if task.kind == TASK_SOFTMAX:
            labels = np.asarray(getattr(data, task.label_field))
            risk = heads.softmax_risk(head, G, labels)[0]
        else:
            if task.kind == TASK_LEAST_SQUARES:
                target = heads.one_hot(getattr(data, task.label_field),
                                       head.weights.shape[1])
            else:
                target = np.asarray(data.X, dtype=np.float64)
            risk = heads.reconstruction_risk(head, G, target)[0]
        values[i >= len(cfg.private_tasks)] += weight * (-risk)
    privacy_value, utility_value = values
    return (privacy_value - cfg.utility_weight * utility_value,
            privacy_value, utility_value)


def mean_metric(report, filter_kind, name, dim=None, epsilon_inverse=None):
    """Mean of one metric over the successful cells of ``report`` (an
    ``EvalReport``) for ``filter_kind``, optionally at one dim and noise."""
    values = [r[name] for r in report.records
              if r["filter"] == filter_kind and r["error"] is None
              and (dim is None or r["dim"] == dim)
              and (epsilon_inverse is None
                   or r["epsilon_inverse"] == epsilon_inverse)]
    if not values:
        raise DataError(f"no successful cells for {filter_kind!r}/{name!r}")
    return float(np.mean(values))


def mlp_forward_reference(f, X):
    """The allocating MLP forward pass: (outputs, h1, h2)."""
    from scipy.special import expit

    from privfilter.filters import _unpack_mlp

    (w1, b1), (w2, b2), (w3, b3) = _unpack_mlp(f)
    h1 = expit(X @ w1 + b1)
    h2 = expit(h1 @ w2 + b2)
    out = h2 @ w3 + b3
    return out, h1, h2


def mlp_param_grad_reference(f, X, upstream):
    """The MLP vector-Jacobian product with its own forward pass."""
    from privfilter.filters import _pack_mlp, _unpack_mlp

    X = np.asarray(X, dtype=np.float64)
    (w1, b1), (w2, b2), (w3, b3) = _unpack_mlp(f)
    _, h1, h2 = mlp_forward_reference(f, X)
    delta = upstream
    g_w3 = h2.T @ delta
    g_b3 = delta.sum(axis=0)
    delta = (delta @ w3.T) * h2 * (1.0 - h2)
    g_w2 = h1.T @ delta
    g_b2 = delta.sum(axis=0)
    delta = (delta @ w2.T) * h1 * (1.0 - h1)
    g_w1 = X.T @ delta
    g_b1 = delta.sum(axis=0)
    return _pack_mlp([(g_w1, g_b1), (g_w2, g_b2), (g_w3, g_b3)])


def _dae_eval_loss_reference(H, w, b, w_dec, c, sigmoid_out):
    from scipy.special import expit

    z = expit(H @ w + b) if sigmoid_out else H @ w + b
    r = z @ w_dec + c - H
    return float((r * r).sum() / H.shape[0])


def train_dae_layer_reference(H, w, b, rng, noise_level, epochs, step,
                              sigmoid_out, track_losses):
    """The allocating denoising-autoencoder layer: (w, b, losses or None)."""
    from scipy.special import expit

    n_samples = H.shape[0]
    n_hidden = w.shape[1]
    bound = 1.0 / np.sqrt(n_hidden)
    w_dec = rng.uniform(-bound, bound, size=(n_hidden, H.shape[1]))
    c = np.zeros(H.shape[1])
    losses = []
    if track_losses:
        losses.append(_dae_eval_loss_reference(H, w, b, w_dec, c, sigmoid_out))
    for _ in range(epochs):
        corrupted = H + noise_level * rng.standard_normal(H.shape)
        pre = corrupted @ w + b
        z = expit(pre) if sigmoid_out else pre
        r = z @ w_dec + c - H
        d_r = (2.0 / n_samples) * r
        g_wdec = z.T @ d_r
        g_c = d_r.sum(axis=0)
        d_z = d_r @ w_dec.T
        d_pre = d_z * z * (1.0 - z) if sigmoid_out else d_z
        g_w = corrupted.T @ d_pre
        g_b = d_pre.sum(axis=0)
        w = w - step * g_w
        b = b - step * g_b
        w_dec = w_dec - step * g_wdec
        c = c - step * g_c
        if track_losses:
            losses.append(_dae_eval_loss_reference(H, w, b, w_dec, c,
                                                   sigmoid_out))
    return w, b, np.array(losses) if track_losses else None


def gen_synthetic_reference(dim, n_subjects, n_target_classes, per_subject,
                            angle_deg=90.0, subject_sep=3.0, target_sep=3.0,
                            noise=0.5, seed=None):
    """(X, y, z, subjects) of ``data.gen_synthetic``, built one row at a
    time with one noise draw per row."""
    rng = np.random.default_rng(seed)
    angle = math.radians(angle_deg)
    target_dir = np.zeros(dim)
    target_dir[0] = math.cos(angle)
    target_dir[1] = math.sin(angle)
    n = n_subjects * per_subject
    X = np.empty((n, dim))
    y = np.empty(n, dtype=np.int64)
    z = np.empty(n, dtype=np.int64)
    subjects = np.empty(n, dtype=np.int64)
    row = 0
    for s in range(1, n_subjects + 1):
        mean = np.zeros(dim)
        mean[0] = (s - 0.5 * (n_subjects + 1)) * subject_sep
        for j in range(per_subject):
            cls = j % n_target_classes + 1
            offset = (cls - 0.5 * (n_target_classes + 1)) * target_sep
            point = mean + offset * target_dir
            if noise > 0:
                point = point + noise * rng.standard_normal(dim)
            X[row] = point
            y[row] = s
            z[row] = cls
            subjects[row] = s
            row += 1
    return X, y, z, subjects


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


def trace_objectives(m: MomentSet, tradeoff_weight: float, Us) -> np.ndarray:
    """``trace_objective`` of each U in the stack ``Us`` (shape (k, D, d)),
    by the same operations batched, so each value is bit for bit the
    scalar one."""
    Us = np.asarray(Us, dtype=np.float64)
    if Us.ndim != 3 or Us.shape[1] != m.dim:
        raise ShapeError("Us must be a stack of matrices with one row per "
                         "feature dimension")
    regularized = m.xx + m.ridge * np.eye(m.dim)
    Us_t = Us.transpose(0, 2, 1)
    gram = Us_t @ regularized @ Us
    projected = Us_t @ contrast_matrix(m, tradeoff_weight) @ Us
    return np.trace(np.linalg.solve(gram, projected), axis1=1, axis2=2)
