"""Alternating minimax training of feature filters.

The filter u is scored by the tradeoff objective

    Phi(u) = sum_i kappa_i * Phi_priv_i(u)
             - rho * sum_j omega_j * Phi_util_j(u)

where Phi_priv_i(u) = -min_v f_i(u, v) is the negated best-response risk
of an adversary head on a private task, and Phi_util_j likewise for a
utility head on a target task.  Minimizing Phi drives every adversary's
best achievable risk up while keeping the utility heads' risks low.
Each task is a ``TaskSpec(kind, label_field, reg_lambda)``: a softmax
head on the labels ``label_field``, a least-squares head on their one-hot
codes or a reconstruction head on the features, with ridge ``reg_lambda``.

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
decreases monotonically.  ``joint_objective`` is the one way heads are
fit and scored: there is no fixed-head pass.  The accepted probe's
forward pass also yields the next gradient's feature gradient and, for
an MLP filter, the hidden activations, so each accepted step's gradient
is one backward pass through the filter (``descent_direction``) and no
extra forward pass or head work.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from . import heads as heads_mod
from .errors import (POSITIVE, DataError, Setting, check_features,
                     check_settings, setting)
from .filters import FilterState, apply_filter, filter_param_grad
from .records import read_jsonl, write_jsonl

_LBFGS_MEMORY = 10  # curvature pairs (s, y) behind each outer direction
_UNIT_STEP = 1.0     # first step of every line search
_SHRINK = 0.5        # step factor of each backtrack
_MAX_BACKTRACKS = 30  # backtracks before a line search gives up
_ARMIJO = 1e-4       # sufficient-decrease constant c of the line search

TASK_SOFTMAX = "softmax"
TASK_LEAST_SQUARES = "least_squares"
TASK_RECONSTRUCTION = "reconstruction"
_TASK_KINDS = (TASK_SOFTMAX, TASK_LEAST_SQUARES, TASK_RECONSTRUCTION)
_TASK_KIND = Setting(str, choices=_TASK_KINDS)


@dataclass(frozen=True)
class TaskSpec:
    """One inner problem: which head family, which labels ("y" or "z"; a
    reconstruction task reads neither), which ridge."""

    kind: str
    label_field: str = setting("y", str, choices=("y", "z"))
    reg_lambda: float = setting(1e-6, float, 0.0)

    def __post_init__(self):
        check_settings(self)
        _TASK_KIND.check("kind", self.kind)


@dataclass(frozen=True)
class TradeoffConfig:
    """Weights, task lists, and optimizer settings for minimax training."""

    utility_weight: float = setting(10.0, float, 0.0, exclusive=True)
    private_tasks: tuple = ((TaskSpec(TASK_SOFTMAX, "y"), 1.0),)
    utility_tasks: tuple = ((TaskSpec(TASK_SOFTMAX, "z"), 1.0),)
    max_iter: int = setting(200, int, 1)
    convergence_tol: float = setting(1e-6, float, 0.0, exclusive=True)
    # consecutive small decreases that count as converged
    slow_iterations: int = setting(3, int, 1)
    inner_tol: float = setting(1e-8, float, 0.0, exclusive=True)
    # Newton steps per softmax inner head
    inner_max_iter: int = setting(500, int, 1)

    def __post_init__(self):
        check_settings(self)
        for name in ("private_tasks", "utility_tasks"):
            try:
                pairs = [(task, weight) for task, weight in getattr(self, name)]
            except (TypeError, ValueError):
                raise DataError(f"{name} must be a sequence of (TaskSpec, "
                                f"weight) pairs, got {getattr(self, name)!r}") from None
            if not all(isinstance(task, TaskSpec) for task, _ in pairs):
                raise DataError("tasks must be TaskSpec instances")
            object.__setattr__(self, name, tuple(
                (task, POSITIVE.check(f"{name} weight", weight))
                for task, weight in pairs))
        if not self.private_tasks:
            raise DataError("at least one private task is required")


def _label_pair(kind, utility_weight, reg_lambda, kwargs) -> TradeoffConfig:
    """A ``kind`` head on y against a ``kind`` head on z, weighted 1 each."""
    return TradeoffConfig(
        utility_weight=utility_weight,
        private_tasks=((TaskSpec(kind, "y", reg_lambda), 1.0),),
        utility_tasks=((TaskSpec(kind, "z", reg_lambda), 1.0),), **kwargs)


def classification_tradeoff(utility_weight=10.0, reg_lambda=1e-6,
                            **kwargs) -> TradeoffConfig:
    """Standard setup: softmax adversary on y, softmax utility head on z."""
    return _label_pair(TASK_SOFTMAX, utility_weight, reg_lambda, kwargs)


def least_squares_tradeoff(utility_weight=10.0, reg_lambda=0.0,
                           **kwargs) -> TradeoffConfig:
    """Least-squares heads on one-hot labels for both tasks."""
    return _label_pair(TASK_LEAST_SQUARES, utility_weight, reg_lambda, kwargs)


@dataclass(frozen=True)
class FittedHeads:
    """Best-response heads for every task at one filter state.

    ``feature_grad`` is sum_i kappa_i grad_G f_priv_i - rho sum_j omega_j
    grad_G f_util_j at the filter outputs G the heads were fit on; its
    vector-Jacobian product through the filter (``descent_direction``) is
    -grad Phi.
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


def _task_targets(cfg: TradeoffConfig, data):
    """What each private then utility task's head is fit to: a softmax
    task's labels, a least-squares task's one-hot labels (as many columns
    as the largest label) or a reconstruction task's features.  Built once
    for the many head passes over fixed data."""
    targets = []
    for task, _ in (*cfg.private_tasks, *cfg.utility_tasks):
        if task.kind == TASK_RECONSTRUCTION:
            target = np.asarray(data.X, dtype=np.float64)
        else:
            labels = getattr(data, task.label_field, None)
            if labels is None:
                raise DataError(f"data has no '{task.label_field}' labels "
                                "but a task needs them")
            target = np.asarray(labels)
            if task.kind == TASK_LEAST_SQUARES:
                target = heads_mod.one_hot(target, int(target.max()))
        targets.append(target)
    return tuple(targets)


def _task_pass(task: TaskSpec, target, warm, G, cfg: TradeoffConfig):
    """Fit one head to inner optimality at features ``G``.

    Returns (head, risk, grad_G, iterations, inner_grad).  ``target`` is
    the task's entry of ``_task_targets``; ``warm`` is a softmax head's
    warm start (or None); ``inner_grad`` is the norm of a softmax head's
    risk gradient in its weights, and 0.0 for the exact least-squares and
    reconstruction solves.
    """
    if task.kind == TASK_SOFTMAX:
        final = []  # the fit's (risk, grad_head, residual)
        head, nit = heads_mod.fit_softmax_with_info(
            G, target, int(target.max()), task.reg_lambda,
            tol=cfg.inner_tol, max_iter=cfg.inner_max_iter, init=warm,
            final=final)
        risk, grad_head, residual = final[0]
        grad_features = residual.T @ head.weights / residual.shape[1]
        return head, risk, grad_features, nit, float(np.linalg.norm(grad_head))
    # least-squares heads fit no intercept, reconstruction heads one
    head = heads_mod.fit_reconstruction(
        G, target, task.reg_lambda, task.kind == TASK_RECONSTRUCTION)
    risk, _, grad_features = heads_mod.reconstruction_risk(head, G, target)
    return head, risk, grad_features, 1, 0.0


def joint_objective(state: FilterState, data, cfg: TradeoffConfig, warm=None,
                    targets=None):
    """Fit all heads at ``state`` and evaluate the tradeoff objective.

    Returns (objective, privacy_value, utility_value, fitted_heads) where
    privacy_value = sum_i kappa_i * (-best private risk_i) and
    utility_value = sum_j omega_j * (-best utility risk_j).  ``warm``
    (``FittedHeads`` or None) warm-starts the softmax heads.  The fitted
    heads carry the feature gradient and hidden activations at ``state``
    (see ``FittedHeads``).  ``targets`` (``_task_targets(cfg, data)``,
    built here when None) spares rebuilding the fixed labels and targets
    on every call.
    """
    n_private = len(cfg.private_tasks)
    tasks = (*cfg.private_tasks, *cfg.utility_tasks)
    starts = ((None,) * len(tasks) if warm is None
              else (*warm.private, *warm.utility))
    if targets is None:
        targets = _task_targets(cfg, data)
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
            task, targets[i], starts[i], G, cfg)
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


def descent_direction(state: FilterState, fitted: FittedHeads,
                      data) -> np.ndarray:
    """The negated objective gradient at ``state``.

    ``fitted`` must hold the heads ``joint_objective`` fit at ``state``: the
    direction is their ``feature_grad``, sum_i kappa_i grad_G f_priv_i -
    rho sum_j omega_j grad_G f_util_j, pulled back through the filter in
    one vector-Jacobian product, with the pass's hidden activations.  It
    refits and rescores nothing.
    """
    return filter_param_grad(state, data.X, fitted.feature_grad, fitted.hidden)


@dataclass(frozen=True, slots=True)
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
    before a field existed load it as 0.  The class has slots and no
    per-instance dict, since a run keeps one record per accepted step.
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
    stall_probes: int = setting(0, int, 0)
    stall_inner_iterations: int = setting(0, int, 0)
    inner_unconverged: int = setting(0, int, 0)

    def __post_init__(self):
        check_settings(self)

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
    write_jsonl(path, (asdict(record) for record in report.records))


def load_report_records(path):
    """The IterationRecords that ``save_report`` wrote to ``path``."""
    rows = read_jsonl(path)
    try:
        return tuple(IterationRecord(**row) for row in rows)
    except TypeError as exc:  # a missing or foreign key
        raise DataError(f"{path}: not an iteration record ({exc})") from None


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
    check_features("data.X", data.X, dim=init.input_dim)
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
            trial_neg_grad = descent_direction(trial, fitted, data)
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
