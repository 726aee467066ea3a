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

so the bracketed quantity is a descent direction once the heads are fit
to optimality.  Training alternates exact head refits with an Armijo
line search along that direction over the fixed step grid
initial_step * shrink**k.  The first search starts at initial_step and
backtracks; each later search starts one grid point above the last
accepted step, backtracks if that probe is rejected, and otherwise
expands toward initial_step while the larger step is still accepted.
Every probe refits all heads, warm-started from the current iterate's
heads, so recorded objective values are true Phi evaluations and the
accepted sequence decreases monotonically.  The accepted probe's forward
pass also yields the next direction's feature gradient, so each accepted
step costs one extra vector-Jacobian product and no extra head work.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import heads as heads_mod
from .errors import DataError, ShapeError
from .filters import FilterState, apply_filter, filter_param_grad

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
    fit_intercept: bool = False  # least-squares and reconstruction heads only

    def __post_init__(self):
        if self.kind not in _TASK_KINDS:
            raise DataError(f"unknown task kind {self.kind!r}")
        if self.kind != TASK_RECONSTRUCTION and self.label_field not in ("y", "z"):
            raise DataError("label_field must be 'y' or 'z'")
        if self.reg_lambda < 0:
            raise DataError("reg_lambda must be non-negative")


def softmax_task(label_field="y", reg_lambda=1e-6) -> TaskSpec:
    return TaskSpec(TASK_SOFTMAX, label_field, reg_lambda)


def least_squares_task(label_field="y", reg_lambda=0.0,
                       fit_intercept=False) -> TaskSpec:
    return TaskSpec(TASK_LEAST_SQUARES, label_field, reg_lambda, fit_intercept)


def reconstruction_task(reg_lambda=0.0, fit_intercept=True) -> TaskSpec:
    return TaskSpec(TASK_RECONSTRUCTION, "y", reg_lambda, fit_intercept)


@dataclass(frozen=True)
class LineSearchConfig:
    """Armijo search over the steps initial_step * shrink**k, k <= max_backtracks.

    ``initial_step`` is the largest step any search tries.
    """

    initial_step: float = 1.0
    shrink: float = 0.5
    max_backtracks: int = 30
    sufficient_decrease: float = 1e-4

    def __post_init__(self):
        if self.initial_step <= 0 or not 0 < self.shrink < 1:
            raise DataError("line search needs initial_step > 0 and 0 < shrink < 1")
        if self.max_backtracks < 0 or self.sufficient_decrease <= 0:
            raise DataError("line search constants must be positive")


@dataclass(frozen=True)
class TradeoffConfig:
    """Weights, task lists, and optimizer settings for minimax training."""

    utility_weight: float = 10.0
    private_tasks: tuple = ((TaskSpec(TASK_SOFTMAX, "y"), 1.0),)
    utility_tasks: tuple = ((TaskSpec(TASK_SOFTMAX, "z"), 1.0),)
    max_iter: int = 200
    line_search: LineSearchConfig = LineSearchConfig()
    convergence_tol: float = 1e-6
    slow_iterations: int = 3  # consecutive small decreases that count as converged
    inner_tol: float = 1e-8
    inner_max_iter: int = 500

    def __post_init__(self):
        if self.utility_weight <= 0:
            raise DataError("utility_weight must be positive")
        if not self.private_tasks:
            raise DataError("at least one private task is required")
        for task, weight in (*self.private_tasks, *self.utility_tasks):
            if not isinstance(task, TaskSpec):
                raise DataError("tasks must be TaskSpec instances")
            if weight <= 0:
                raise DataError("task weights must be positive")
        if self.max_iter < 1:
            raise DataError("max_iter must be at least 1")
        if self.convergence_tol <= 0 or self.inner_tol <= 0:
            raise DataError("tolerances must be positive")
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
    vector-Jacobian product through the filter is the descent direction.
    ``worst_inner_grad`` is the largest risk-gradient norm of a softmax
    head fit in this pass and ``inner_unconverged`` the number of those
    fits that ended above ``inner_tol`` (least-squares and reconstruction
    heads are solved exactly and count as 0).
    """

    private: tuple
    utility: tuple
    inner_iterations: int = 0
    feature_grad: np.ndarray | None = field(default=None, repr=False,
                                            compare=False)
    worst_inner_grad: float = 0.0
    inner_unconverged: int = 0


def _task_labels(task: TaskSpec, data):
    labels = getattr(data, task.label_field, None)
    if labels is None:
        raise DataError(f"data has no '{task.label_field}' labels but a task needs them")
    return np.asarray(labels)


def _task_pass(task: TaskSpec, head, G, data, cfg: TradeoffConfig, refit):
    """Score one head at features ``G``.

    Returns (head, risk, grad_G, iterations, inner_grad).  With ``refit``
    the head is first fit to inner optimality (``head`` is the warm start,
    or None); otherwise ``head`` is held fixed.  ``inner_grad`` is the norm
    of the risk gradient in the head's weights after a softmax refit, and
    0.0 otherwise.
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
    if task.kind == TASK_LEAST_SQUARES:
        labels = _task_labels(task, data)
        num_classes = int(labels.max()) if refit else head.weights.shape[1]
        target = heads_mod.one_hot(labels, num_classes)
    else:
        target = np.asarray(data.X, dtype=np.float64)
    if refit:
        head = heads_mod.fit_reconstruction(G, target, task.reg_lambda,
                                            task.fit_intercept)
    risk, _, grad_features = heads_mod.reconstruction_risk(head, G, target)
    return head, risk, grad_features, 1 if refit else 0, 0.0


def _tradeoff_pass(state: FilterState, heads, data, cfg: TradeoffConfig, refit):
    """One forward pass over every task at ``state``.

    Returns (objective, privacy_value, utility_value, FittedHeads) with the
    heads' ``feature_grad`` filled in; ``heads`` are warm starts (or None)
    when ``refit`` is set and the fixed heads otherwise.
    """
    G = apply_filter(state, data.X)
    upstream = np.zeros_like(G)
    iterations = 0
    inner_grads = []
    privacy_value = 0.0
    private_heads = []
    for i, (task, weight) in enumerate(cfg.private_tasks):
        given = heads.private[i] if heads is not None else None
        head, risk, grad_features, nit, inner_grad = _task_pass(
            task, given, G, data, cfg, refit)
        private_heads.append(head)
        privacy_value += weight * (-risk)
        upstream += weight * grad_features
        iterations += nit
        inner_grads.append(inner_grad)
    utility_value = 0.0
    utility_heads = []
    for j, (task, weight) in enumerate(cfg.utility_tasks):
        given = heads.utility[j] if heads is not None else None
        head, risk, grad_features, nit, inner_grad = _task_pass(
            task, given, G, data, cfg, refit)
        utility_heads.append(head)
        utility_value += weight * (-risk)
        upstream -= cfg.utility_weight * weight * grad_features
        iterations += nit
        inner_grads.append(inner_grad)
    objective = privacy_value - cfg.utility_weight * utility_value
    fitted = FittedHeads(tuple(private_heads), tuple(utility_heads), iterations,
                         upstream, max(inner_grads),
                         sum(g > cfg.inner_tol for g in inner_grads))
    return objective, privacy_value, utility_value, fitted


def joint_objective(state: FilterState, data, cfg: TradeoffConfig, warm=None):
    """Fit all heads at ``state`` and evaluate the tradeoff objective.

    Returns (objective, privacy_value, utility_value, fitted_heads) where
    privacy_value = sum_i kappa_i * (-best private risk_i) and
    utility_value = sum_j omega_j * (-best utility risk_j).  The fitted
    heads carry the feature gradient at ``state`` (see ``FittedHeads``).
    """
    return _tradeoff_pass(state, warm, data, cfg, refit=True)


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
    upstream = _tradeoff_pass(state, fitted, data, cfg, refit=False)[3].feature_grad
    return filter_param_grad(state, data.X, upstream)


@dataclass(frozen=True)
class IterationRecord:
    """State after ``iteration`` accepted steps.

    ``objective`` and ``grad_norm`` are measured at the recorded iterate;
    ``step_size`` is the accepted step that produced it (0 for the initial
    record) and ``inner_iterations`` counts head-solver iterations spent
    during that outer step, line-search probes included.  A softmax head
    counts damped Newton steps when it is warm-started (every probe after
    the initial record) and has few weights (see
    ``heads.fit_softmax_with_info``), and L-BFGS-B iterations otherwise;
    an exact least-squares or reconstruction solve counts 1.  ``probes``
    is the number of ``joint_objective`` calls in that outer step (1 for
    the initial record).  ``worst_inner_grad`` is the largest risk-gradient
    norm of a softmax head fit over the same probes: above
    ``inner_tol``, some head was not a best response and the step's
    direction is not the exact gradient.  Reports saved before a field
    existed load it as 0.
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
    grid step passed the Armijo test) or ``"max_iter"``; None in reports
    made before the field existed.  A stalled search's ``joint_objective``
    calls and head-solver iterations belong to no record, so they are
    kept in ``stall_probes`` and ``stall_inner_iterations`` (0 otherwise).
    ``inner_unconverged`` counts the softmax head fits of the whole run,
    stalled search included, that ended above ``inner_tol``.
    """

    records: tuple
    final_state: FilterState
    converged: bool
    stop_reason: str | None = None
    stall_probes: int = 0
    stall_inner_iterations: int = 0
    inner_unconverged: int = 0

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration

    @property
    def final_objective(self) -> float:
        return self.records[-1].objective


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


def _step_grid(ls: LineSearchConfig):
    """The candidate steps initial_step * shrink**k for k = 0..max_backtracks."""
    grid = [ls.initial_step]
    for _ in range(ls.max_backtracks):
        grid.append(grid[-1] * ls.shrink)
    return grid


def _line_search(state, direction, objective, fitted, data, cfg, grid, start):
    """Armijo search along ``direction`` over the decreasing step ``grid``.

    Probes ``grid[start]`` first.  If it is rejected, backtracks down the
    grid, and only when every smaller step fails too tries the larger ones
    top-down, so a stall means that no grid step passes.  If the first
    probe is accepted, expands up the grid while the larger step is
    accepted as well.  Every probe warm-starts from the heads ``fitted`` at
    ``state``, so an accepted probe does not depend on the probes before
    it.  Returns (accepted, probes, inner_iterations, worst_inner_grad,
    inner_unconverged) where accepted is (k, trial_state, trial_values), or
    None when no step is accepted; the last four sum (or maximize) over
    every probe.
    """
    grad_norm_sq = float(direction @ direction)
    probes = 0
    inner_used = 0
    worst_grad = 0.0
    unconverged = 0

    def probe(k):
        nonlocal probes, inner_used, worst_grad, unconverged
        step = grid[k]
        trial = state.with_params(state.params + step * direction)
        values = joint_objective(trial, data, cfg, warm=fitted)
        probes += 1
        inner_used += values[3].inner_iterations
        worst_grad = max(worst_grad, values[3].worst_inner_grad)
        unconverged += values[3].inner_unconverged
        margin = cfg.line_search.sufficient_decrease * step * grad_norm_sq
        return (k, trial, values) if values[0] < objective - margin else None

    accepted = None
    for k in [*range(start, len(grid)), *range(start)]:
        accepted = probe(k)
        if accepted is not None:
            break
    if accepted is not None and accepted[0] == start:
        for k in range(start - 1, -1, -1):
            larger = probe(k)
            if larger is None:
                break
            accepted = larger
    return accepted, probes, inner_used, worst_grad, unconverged


def train_minimax(init: FilterState, data, cfg: TradeoffConfig) -> TrainReport:
    """Alternating descent on the tradeoff objective from ``init``.

    Deterministic given the initial state.  Each iteration fits all heads,
    takes the steepest-descent direction, and line-searches the step grid
    ``initial_step * shrink**k`` (k <= ``max_backtracks``) for a step that
    decreases the objective by the Armijo margin.  The first
    search probes ``initial_step`` and backtracks from there; each later
    search starts one grid point above the last accepted step (capped at
    ``initial_step``), backtracks if that probe is rejected and otherwise
    expands up the grid while the larger step is still accepted.  The run
    stops after ``cfg.slow_iterations`` consecutive decreases below
    ``cfg.convergence_tol`` (converged), when no grid step is accepted
    (stalled), or at ``cfg.max_iter``; the report's ``stop_reason`` says
    which.
    """
    X = np.asarray(data.X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != init.input_dim:
        raise ShapeError("initial filter does not match the data dimension")
    grid = _step_grid(cfg.line_search)
    state = init
    objective, privacy_value, utility_value, fitted = joint_objective(state, data, cfg)
    direction = filter_param_grad(state, data.X, fitted.feature_grad)
    records = [IterationRecord(0, objective, privacy_value, utility_value,
                               0.0, fitted.inner_iterations,
                               float(np.linalg.norm(direction)), probes=1,
                               worst_inner_grad=fitted.worst_inner_grad)]
    unconverged = fitted.inner_unconverged
    stop_reason = "max_iter"
    stall_probes = stall_inner = 0
    slow_count = 0
    start = 0
    for iteration in range(1, cfg.max_iter + 1):
        accepted, probes, inner_used, worst_grad, step_unconverged = _line_search(
            state, direction, objective, fitted, data, cfg, grid, start)
        unconverged += step_unconverged
        if accepted is None:
            # No productive step along the gradient; at (or numerically
            # indistinguishable from) a stationary point.
            stop_reason = "stalled"
            stall_probes, stall_inner = probes, inner_used
            break
        k, state, (trial_objective, privacy_value, utility_value, fitted) = accepted
        start = max(k - 1, 0)
        decrease = objective - trial_objective
        objective = trial_objective
        direction = filter_param_grad(state, data.X, fitted.feature_grad)
        records.append(IterationRecord(iteration, objective, privacy_value,
                                       utility_value, grid[k], inner_used,
                                       float(np.linalg.norm(direction)),
                                       probes, worst_grad))
        if decrease < cfg.convergence_tol:
            slow_count += 1
            if slow_count >= cfg.slow_iterations:
                stop_reason = "converged"
                break
        else:
            slow_count = 0
    return TrainReport(tuple(records), state, stop_reason == "converged",
                       stop_reason, stall_probes, stall_inner, unconverged)
