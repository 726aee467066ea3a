"""Alternating minimax training of feature filters.

The filter u is scored by the tradeoff objective

    Phi(u) = sum_i kappa_i * Phi_priv_i(u)
             - rho * sum_j omega_j * Phi_util_j(u)

where Phi_priv_i(u) = -min_v f_i(u, v) is the negated best-response risk
of an adversary head on a private task, and Phi_util_j likewise for a
utility head on a target task.  Minimizing Phi drives every adversary's
best achievable risk up while keeping the utility heads' risks low.

Because each inner problem is strongly convex (ridge terms), the inner
minimizers are unique and Phi is differentiable with

    grad Phi(u) = -[ sum_i kappa_i grad_u f_i(u, v_i*)
                     - rho sum_j omega_j grad_u f_j(u, w_j*) ]

so the bracketed quantity is the negated gradient once the heads are fit
to optimality.  Training alternates exact head refits with an Armijo
line search along a limited-memory BFGS direction (Liu & Nocedal, Math.
Prog. 1989; Nocedal & Wright, ch. 7): the two-loop recursion over the
last ``_LBFGS_MEMORY`` pairs (s, y) of parameter and gradient changes,
scaled by s.y / y.y of the newest pair.  Pairs with s.y <= 0 are
skipped.  With an empty memory the direction is the negated gradient.
The memory is cleared whenever a probe of a step counts an unconverged
inner fit, since the gradient is then inexact, and whenever a search
accepts no step, so the next search from the same iterate runs along
the negated gradient; only a failed search along the negated gradient
stalls the run.  A direction that is not a descent direction also falls
back to the negated gradient.

Every search is plain backtracking: it probes the unit step, the natural
scale of a quasi-Newton direction, then halves the step until the Armijo
test passes, at most ``_MAX_BACKTRACKS`` times.  Every probe refits all
heads, warm-started from the current iterate's heads, so recorded
objective values are true Phi evaluations and the accepted sequence
decreases monotonically.  The accepted probe's forward pass also yields
the next gradient's feature gradient and, for an MLP filter, the hidden
activations, so each accepted step costs one backward pass through the
filter and no extra forward pass or head work.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from . import heads as heads_mod
from .errors import DataError, ShapeError
from .filters import FilterState, apply_filter, filter_param_grad

_LBFGS_MEMORY = 10  # curvature pairs (s, y) behind each outer direction
_UNIT_STEP = 1.0     # first step of every line search
_SHRINK = 0.5        # step factor of each backtrack
_MAX_BACKTRACKS = 30  # backtracks before a line search gives up
_ARMIJO = 1e-4       # sufficient-decrease constant c of the line search

TASK_SOFTMAX = "softmax"
TASK_LEAST_SQUARES = "least_squares"
TASK_RECONSTRUCTION = "reconstruction"
_TASK_KINDS = (TASK_SOFTMAX, TASK_LEAST_SQUARES, TASK_RECONSTRUCTION)


@dataclass(frozen=True)
class TaskSpec:
    """One inner problem: which head family, which labels, which ridge."""

    kind: str
    label_field: str = "y"   # "y" (private labels) or "z" (target labels)
    reg_lambda: float = 1e-6

    def __post_init__(self):
        if self.kind not in _TASK_KINDS:
            raise DataError(f"unknown task kind {self.kind!r}")
        if self.kind != TASK_RECONSTRUCTION and self.label_field not in ("y", "z"):
            raise DataError("label_field must be 'y' or 'z'")
        if self.reg_lambda < 0 or not math.isfinite(self.reg_lambda):
            raise DataError("reg_lambda must be non-negative and finite")


def softmax_task(label_field="y", reg_lambda=1e-6) -> TaskSpec:
    return TaskSpec(TASK_SOFTMAX, label_field, reg_lambda)


def least_squares_task(label_field="y", reg_lambda=0.0) -> TaskSpec:
    return TaskSpec(TASK_LEAST_SQUARES, label_field, reg_lambda)


def reconstruction_task(reg_lambda=0.0) -> TaskSpec:
    return TaskSpec(TASK_RECONSTRUCTION, "y", reg_lambda)


@dataclass(frozen=True)
class TradeoffConfig:
    """Weights, task lists, and optimizer settings for minimax training."""

    utility_weight: float = 10.0
    private_tasks: tuple = ((TaskSpec(TASK_SOFTMAX, "y"), 1.0),)
    utility_tasks: tuple = ((TaskSpec(TASK_SOFTMAX, "z"), 1.0),)
    max_iter: int = 200
    convergence_tol: float = 1e-6
    slow_iterations: int = 3  # consecutive small decreases that count as converged
    inner_tol: float = 1e-8
    inner_max_iter: int = 500  # Newton steps per softmax inner head

    def __post_init__(self):
        if self.utility_weight <= 0 or not math.isfinite(self.utility_weight):
            raise DataError("utility_weight must be positive and finite")
        if not self.private_tasks:
            raise DataError("at least one private task is required")
        for task, weight in (*self.private_tasks, *self.utility_tasks):
            if not isinstance(task, TaskSpec):
                raise DataError("tasks must be TaskSpec instances")
            if weight <= 0 or not math.isfinite(weight):
                raise DataError("task weights must be positive and finite")
        if self.max_iter < 1:
            raise DataError("max_iter must be at least 1")
        if any(tol <= 0 or not math.isfinite(tol)
               for tol in (self.convergence_tol, self.inner_tol)):
            raise DataError("tolerances must be positive and finite")
        if self.slow_iterations < 1 or self.inner_max_iter < 1:
            raise DataError("iteration limits must be at least 1")


def classification_tradeoff(utility_weight=10.0, reg_lambda=1e-6,
                            **kwargs) -> TradeoffConfig:
    """Standard setup: softmax adversary on y, softmax utility head on z."""
    return TradeoffConfig(
        utility_weight=utility_weight,
        private_tasks=((softmax_task("y", reg_lambda), 1.0),),
        utility_tasks=((softmax_task("z", reg_lambda), 1.0),),
        **kwargs,
    )


def least_squares_tradeoff(utility_weight=10.0, reg_lambda=0.0,
                           **kwargs) -> TradeoffConfig:
    """Least-squares heads on one-hot labels for both tasks."""
    return TradeoffConfig(
        utility_weight=utility_weight,
        private_tasks=((least_squares_task("y", reg_lambda), 1.0),),
        utility_tasks=((least_squares_task("z", reg_lambda), 1.0),),
        **kwargs,
    )


@dataclass(frozen=True)
class FittedHeads:
    """Best-response heads for every task at one filter state.

    ``feature_grad`` is sum_i kappa_i grad_G f_priv_i - rho sum_j omega_j
    grad_G f_util_j at the filter outputs G the heads were scored on; its
    vector-Jacobian product through the filter is -grad Phi.
    ``hidden`` holds an MLP filter's hidden activations (h1, h2) from the
    same pass (empty for a linear filter), so that product needs no
    second forward pass.  ``worst_inner_grad`` is the largest
    risk-gradient norm of a softmax head fit in this pass and
    ``inner_unconverged`` the number of those fits that ended above
    ``inner_tol`` (least-squares and reconstruction heads are solved
    exactly and count as 0).
    """

    private: tuple
    utility: tuple
    inner_iterations: int = 0
    feature_grad: np.ndarray | None = field(default=None, repr=False,
                                            compare=False)
    worst_inner_grad: float = 0.0
    inner_unconverged: int = 0
    hidden: tuple = field(default=(), repr=False, compare=False)


def _task_labels(task: TaskSpec, data):
    labels = getattr(data, task.label_field, None)
    if labels is None:
        raise DataError(f"data has no '{task.label_field}' labels but a task needs them")
    return np.asarray(labels)


def _task_target(task: TaskSpec, data, num_classes=None):
    """What a least-squares or reconstruction head is scored against: the
    one-hot labels (``num_classes`` columns, by default the largest label)
    or the features."""
    if task.kind == TASK_LEAST_SQUARES:
        labels = _task_labels(task, data)
        if num_classes is None:
            num_classes = int(labels.max())
        return heads_mod.one_hot(labels, num_classes)
    return np.asarray(data.X, dtype=np.float64)


def _task_targets(cfg: TradeoffConfig, data):
    """``_task_target`` of every private then utility task (None for a
    softmax task), built once for the many passes over fixed data."""
    return tuple(None if task.kind == TASK_SOFTMAX else _task_target(task, data)
                 for task, _ in (*cfg.private_tasks, *cfg.utility_tasks))


def _task_pass(task: TaskSpec, head, G, data, cfg: TradeoffConfig, refit,
               target=None):
    """Score one head at features ``G``.

    Returns (head, risk, grad_G, iterations, inner_grad).  With ``refit``
    the head is first fit to inner optimality (``head`` is the warm start,
    or None); otherwise ``head`` is held fixed.  ``inner_grad`` is the norm
    of the risk gradient in the head's weights after a softmax refit, and
    0.0 otherwise.  ``target`` is the task's ``_task_target``, built here
    when None.
    """
    if task.kind == TASK_SOFTMAX:
        labels = _task_labels(task, data)
        nit = 0
        if refit:
            head, nit = heads_mod.fit_softmax_with_info(
                G, labels, int(labels.max()), task.reg_lambda,
                tol=cfg.inner_tol, max_iter=cfg.inner_max_iter, init=head)
        risk, grad_head, grad_features = heads_mod.softmax_risk(head, G, labels)
        inner_grad = float(np.linalg.norm(grad_head)) if refit else 0.0
        return head, risk, grad_features, nit, inner_grad
    if target is None:
        target = _task_target(task, data,
                              None if refit else head.weights.shape[1])
    if refit:
        # least-squares heads fit no intercept, reconstruction heads one
        head = heads_mod.fit_reconstruction(
            G, target, task.reg_lambda, task.kind == TASK_RECONSTRUCTION)
    risk, _, grad_features = heads_mod.reconstruction_risk(head, G, target)
    return head, risk, grad_features, 1 if refit else 0, 0.0


def _tradeoff_pass(state: FilterState, heads, data, cfg: TradeoffConfig, refit,
                   targets=None):
    """One forward pass over every task at ``state``.

    Returns (objective, privacy_value, utility_value, FittedHeads) with the
    heads' ``feature_grad`` and ``hidden`` filled in; ``heads`` are warm
    starts (or None) when ``refit`` is set and the fixed heads otherwise.
    ``targets`` are ``_task_targets(cfg, data)`` or None.
    """
    n_private = len(cfg.private_tasks)
    tasks = (*cfg.private_tasks, *cfg.utility_tasks)
    given = ((None,) * len(tasks) if heads is None
             else (*heads.private, *heads.utility))
    if targets is None:
        targets = (None,) * len(tasks)
    hidden = []
    G = apply_filter(state, data.X, hidden)
    upstream = np.zeros_like(G)
    iterations = 0
    inner_grads = []
    values = [0.0, 0.0]  # privacy_value, utility_value
    fitted_heads = []
    for i, (task, weight) in enumerate(tasks):
        utility = i >= n_private
        head, risk, grad_features, nit, inner_grad = _task_pass(
            task, given[i], G, data, cfg, refit, targets[i])
        fitted_heads.append(head)
        values[utility] += weight * (-risk)
        # kappa_i for a private task, -rho * omega_j for a utility task
        scale = -cfg.utility_weight * weight if utility else weight
        upstream += scale * grad_features
        iterations += nit
        inner_grads.append(inner_grad)
    privacy_value, utility_value = values
    objective = privacy_value - cfg.utility_weight * utility_value
    fitted = FittedHeads(tuple(fitted_heads[:n_private]),
                         tuple(fitted_heads[n_private:]), iterations,
                         upstream, max(inner_grads),
                         sum(g > cfg.inner_tol for g in inner_grads),
                         tuple(hidden))
    return objective, privacy_value, utility_value, fitted


def joint_objective(state: FilterState, data, cfg: TradeoffConfig, warm=None,
                    targets=None):
    """Fit all heads at ``state`` and evaluate the tradeoff objective.

    Returns (objective, privacy_value, utility_value, fitted_heads) where
    privacy_value = sum_i kappa_i * (-best private risk_i) and
    utility_value = sum_j omega_j * (-best utility risk_j).  The fitted
    heads carry the feature gradient at ``state`` (see ``FittedHeads``).
    ``targets`` (``_task_targets(cfg, data)``) spares rebuilding the fixed
    least-squares and reconstruction targets on every call.
    """
    return _tradeoff_pass(state, warm, data, cfg, refit=True, targets=targets)


def evaluate_objective(state: FilterState, fitted: FittedHeads, data,
                       cfg: TradeoffConfig):
    """The tradeoff objective at fixed heads (no refit).

    Useful for scoring held-out data with the heads fit on training data.
    """
    return _tradeoff_pass(state, fitted, data, cfg, refit=False)[:3]


def descent_direction(state: FilterState, fitted: FittedHeads, data,
                      cfg: TradeoffConfig) -> np.ndarray:
    """The negated objective gradient at ``state`` given best-response heads.

    q = sum_i kappa_i grad_u f_priv_i - rho sum_j omega_j grad_u f_util_j,
    assembled as one vector-Jacobian product through the filter.
    """
    at_state = _tradeoff_pass(state, fitted, data, cfg, refit=False)[3]
    return filter_param_grad(state, data.X, at_state.feature_grad,
                             at_state.hidden)


@dataclass(frozen=True)
class IterationRecord:
    """State after ``iteration`` accepted steps.

    ``objective`` and ``grad_norm`` (the norm of grad Phi) are measured at
    the recorded iterate; ``step_size`` is the accepted step along
    that outer step's direction, the L-BFGS direction or the negated
    gradient (0 for the initial record), and ``inner_iterations`` counts
    head-solver iterations spent during that outer step, line-search
    probes included.  A softmax head counts its damped Newton steps (see
    ``heads.fit_softmax_with_info``); an exact least-squares or
    reconstruction solve counts 1.  ``probes`` is the number of
    ``joint_objective`` calls in that outer step (1 for the initial
    record), including those of a failed L-BFGS search before the
    search along the negated gradient that accepted the step.
    ``worst_inner_grad`` is the largest risk-gradient norm of a softmax
    head fit over the same probes: above ``inner_tol``, some head was not
    a best response and the step's gradient is inexact.  Reports saved
    before a field existed load it as 0.
    """

    iteration: int
    objective: float
    privacy_value: float
    utility_value: float
    step_size: float
    inner_iterations: int
    grad_norm: float
    probes: int = 0
    worst_inner_grad: float = 0.0


@dataclass(frozen=True)
class TrainReport:
    """Records of one training run and why it stopped.

    ``stop_reason`` is ``"converged"`` (slow progress), ``"stalled"`` (no
    step passed the Armijo test along the negated gradient) or
    ``"max_iter"``.  The ``joint_objective`` calls and head-solver
    iterations after the last record (the failed search along the negated
    gradient, and a failed L-BFGS search before it) belong to no record,
    so they are kept in ``stall_probes`` and ``stall_inner_iterations``
    (0 otherwise).
    ``inner_unconverged`` counts the softmax head fits of the whole run,
    stalled search included, that ended above ``inner_tol``.
    """

    records: tuple
    final_state: FilterState
    stop_reason: str
    stall_probes: int = 0
    stall_inner_iterations: int = 0
    inner_unconverged: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration

    @property
    def final_objective(self) -> float:
        return self.records[-1].objective

    @property
    def objective_calls(self) -> int:
        """``joint_objective`` calls of the whole run, stalled search included."""
        return sum(r.probes for r in self.records) + self.stall_probes


def save_report(report: TrainReport, path) -> None:
    """One JSON object per iteration record, for convergence plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in report.records:
            fh.write(json.dumps(asdict(record), sort_keys=True))
            fh.write("\n")


def load_report_records(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(IterationRecord(**json.loads(line)))
    return tuple(records)


def _lbfgs_direction(neg_grad, pairs):
    """The L-BFGS direction -H grad Phi, given ``neg_grad`` = -grad Phi.

    Two-loop recursion (Nocedal & Wright, Algorithm 7.4) over ``pairs``
    of (s, y, s.y), oldest first, whose initial inverse Hessian is
    (s.y / y.y) I from the newest pair.  With no pairs the direction is
    ``neg_grad`` itself.
    """
    if not pairs:
        return neg_grad
    q = neg_grad.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        alpha = float(s @ q) / sy
        q -= alpha * y
        alphas.append(alpha)
    _, y, sy = pairs[-1]
    q *= sy / float(y @ y)
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - float(y @ q) / sy) * s
    return q


def _line_search(state, direction, slope, objective, fitted, data, cfg,
                 targets, work):
    """Armijo backtracking along ``direction`` from the unit step.

    ``slope`` is -grad Phi . direction (positive for a descent direction);
    a step t passes when it lowers the objective by more than
    ``_ARMIJO * t * slope``.  Probes t = 1, 1/2, 1/4, ... and takes the
    first step that passes, after at most ``_MAX_BACKTRACKS`` halvings.
    Every probe warm-starts from the heads ``fitted`` at ``state`` and
    appends its ``_probe_work`` to ``work``.  Returns (step, trial_state,
    trial_values) for the accepted step, or None when no step passes.
    """
    step = _UNIT_STEP
    for _ in range(_MAX_BACKTRACKS + 1):
        trial = state.with_params(state.params + step * direction)
        values = joint_objective(trial, data, cfg, warm=fitted, targets=targets)
        work.append(_probe_work(values[3]))
        if values[0] < objective - _ARMIJO * step * slope:
            return step, trial, values
        step *= _SHRINK
    return None


def _probe_work(fitted: FittedHeads):
    """(inner iterations, worst inner gradient, unconverged inner fits) of
    one ``joint_objective`` call."""
    return (fitted.inner_iterations, fitted.worst_inner_grad,
            fitted.inner_unconverged)


def train_minimax(init: FilterState, data, cfg: TradeoffConfig) -> TrainReport:
    """Alternating L-BFGS descent on the tradeoff objective from ``init``.

    Deterministic given the initial state.  Each iteration fits all heads,
    takes the L-BFGS direction from the last ``_LBFGS_MEMORY`` curvature
    pairs (the negated gradient while the memory is empty, or when the
    L-BFGS direction is not a descent direction), and backtracks from the
    unit step, halving it until the objective decreases by the Armijo
    margin (see ``_line_search``).  If no step passes along an L-BFGS
    direction, the memory is cleared and the loop searches again from the
    same iterate, now along the negated gradient; only a failed search
    along the negated gradient stalls the run.  The memory is also
    cleared after any step with an unconverged inner fit.  The run stops
    after ``cfg.slow_iterations`` consecutive decreases below
    ``cfg.convergence_tol`` (converged), when no step is accepted along
    the negated gradient (stalled), or at ``cfg.max_iter``;
    the report's ``stop_reason`` says which.
    """
    X = np.asarray(data.X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != init.input_dim:
        raise ShapeError("initial filter does not match the data dimension")
    targets = _task_targets(cfg, data)
    # the initial record has step 0 ...
    accepted = (0.0, init, joint_objective(init, data, cfg, targets=targets))
    objective = math.inf  # ... and is no slow decrease
    # _probe_work of every joint_objective call since the last record
    work = [_probe_work(accepted[2][3])]
    records = []
    pairs = deque(maxlen=_LBFGS_MEMORY)
    unconverged = slow_count = 0
    stop_reason = "max_iter"
    while True:
        if accepted is not None:
            step, trial, (trial_objective, privacy_value, utility_value,
                          fitted) = accepted
            trial_neg_grad = filter_param_grad(trial, data.X, fitted.feature_grad,
                                               fitted.hidden)
            step_unconverged = sum(w[2] for w in work)
            if step_unconverged:
                pairs.clear()
            elif records:
                s = trial.params - state.params
                y = neg_grad - trial_neg_grad
                sy = float(s @ y)
                if sy > 0:
                    pairs.append((s, y, sy))
            slow = objective - trial_objective < cfg.convergence_tol
            slow_count = slow_count + 1 if slow else 0
            state, objective, neg_grad = trial, trial_objective, trial_neg_grad
            records.append(IterationRecord(
                len(records), objective, privacy_value, utility_value, step,
                sum(w[0] for w in work), float(np.linalg.norm(neg_grad)),
                len(work), max(w[1] for w in work)))
            unconverged += step_unconverged
            work = []
            if slow_count >= cfg.slow_iterations:
                stop_reason = "converged"
                break
            if len(records) > cfg.max_iter:
                break
        elif direction is neg_grad:
            # No productive step along the gradient; at (or numerically
            # indistinguishable from) a stationary point.
            stop_reason = "stalled"
            break
        else:
            pairs.clear()  # the next direction is the negated gradient
        direction = _lbfgs_direction(neg_grad, pairs)
        slope = float(neg_grad @ direction)
        if direction is not neg_grad and not slope > 0:
            direction, slope = neg_grad, float(neg_grad @ neg_grad)
        accepted = _line_search(state, direction, slope, objective, fitted, data,
                                cfg, targets, work)
    unconverged += sum(w[2] for w in work)
    return TrainReport(tuple(records), state, stop_reason, len(work),
                       sum(w[0] for w in work), unconverged)
