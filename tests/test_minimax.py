from dataclasses import replace

import numpy as np
import pytest

from oracles import (bfgs_inverse_hessian_reference, central_diff,
                     compute_moments, least_squares_minimax, rel_error,
                     steepest_descent_reference, trace_objective)
from privfilter import filters, heads, minimax_opt
from privfilter.data import Dataset
from privfilter.errors import DataError, ShapeError
from privfilter.filters import FilterKind, init_filter, linear_filter
from privfilter.heads import one_hot
from privfilter.minimax_opt import (IterationRecord, TradeoffConfig,
                                    classification_tradeoff,
                                    descent_direction, evaluate_objective,
                                    joint_objective, least_squares_task,
                                    least_squares_tradeoff,
                                    load_report_records, reconstruction_task,
                                    save_report, softmax_task, train_minimax)


def _toy_dataset(rng, n=60, dim=6, k_priv=3, k_tgt=2, seed_offset=0):
    X = rng.standard_normal((n, dim))
    y = rng.integers(1, k_priv + 1, size=n)
    z = rng.integers(1, k_tgt + 1, size=n)
    y[:k_priv] = np.arange(1, k_priv + 1)
    z[:k_tgt] = np.arange(1, k_tgt + 1)
    X[:, 0] += 1.5 * y
    X[:, 1] += 1.5 * z
    return Dataset(X=X, y=y, subject_ids=y.astype(np.int64), z=z)


def _tight_tradeoff(**kwargs):
    return classification_tradeoff(2.0, 1e-4, inner_tol=1e-10,
                                   inner_max_iter=2000, **kwargs)


def test_objective_combines_privacy_and_utility():
    rng = np.random.default_rng(0)
    data = _toy_dataset(rng)
    state = init_filter(FilterKind.LINEAR, 6, 3, seed=1)
    cfg = _tight_tradeoff()
    objective, privacy_value, utility_value, fitted = joint_objective(state, data, cfg)
    assert objective == privacy_value - cfg.utility_weight * utility_value
    assert len(fitted.private) == 1 and len(fitted.utility) == 1
    # risks are positive, so both signed values sit below zero
    assert privacy_value < 0 and utility_value < 0


def test_split_task_weights_match_single_task():
    rng = np.random.default_rng(1)
    data = _toy_dataset(rng)
    state = init_filter(FilterKind.LINEAR, 6, 3, seed=2)
    single = _tight_tradeoff()
    task = single.private_tasks[0][0]
    split = TradeoffConfig(
        utility_weight=single.utility_weight,
        private_tasks=((task, 0.5), (task, 0.5)),
        utility_tasks=single.utility_tasks,
        inner_tol=single.inner_tol, inner_max_iter=single.inner_max_iter)
    obj_a, priv_a, util_a, _ = joint_objective(state, data, single)
    obj_b, priv_b, util_b, _ = joint_objective(state, data, split)
    assert priv_a == priv_b and util_a == util_b and obj_a == obj_b


def test_objective_is_the_weighted_sum_of_its_tasks_bit_for_bit():
    rng = np.random.default_rng(4)
    data = _toy_dataset(rng)
    state = init_filter(FilterKind.LINEAR, 6, 3, seed=5)
    cfg = TradeoffConfig(
        utility_weight=2.5,
        private_tasks=((softmax_task("y", 1e-4), 0.7),
                       (least_squares_task("y", 1e-3), 0.3)),
        utility_tasks=((softmax_task("z", 1e-4), 1.5),
                       (reconstruction_task(1e-3), 0.25)),
        inner_tol=1e-10, inner_max_iter=2000)
    objective, privacy_value, utility_value, fitted = joint_objective(
        state, data, cfg)
    G = filters.apply_filter(state, data.X)

    def risk(task, head):
        if task.kind == "softmax":
            labels = getattr(data, task.label_field)
            return heads.softmax_risk(head, G, labels)
        if task.kind == "least_squares":
            labels = getattr(data, task.label_field)
            target = one_hot(labels, int(labels.max()))
        else:
            target = data.X
        return heads.reconstruction_risk(head, G, target)

    privacy, utility, feature_grad = 0.0, 0.0, np.zeros_like(G)
    for (task, weight), head in zip(cfg.private_tasks, fitted.private):
        value, _, grad = risk(task, head)
        privacy += weight * (-value)
        feature_grad += weight * grad
    for (task, weight), head in zip(cfg.utility_tasks, fitted.utility):
        value, _, grad = risk(task, head)
        utility += weight * (-value)
        feature_grad -= cfg.utility_weight * weight * grad
    assert len(fitted.private) == len(fitted.utility) == 2
    assert privacy_value == privacy and utility_value == utility
    assert objective == privacy - cfg.utility_weight * utility
    assert np.array_equal(fitted.feature_grad, feature_grad)


def test_matching_labels_collapse_the_tradeoff():
    # when z equals y the same head solves both tasks
    rng = np.random.default_rng(2)
    data = _toy_dataset(rng)
    same = Dataset(X=data.X, y=data.y, subject_ids=data.subject_ids, z=data.y)
    state = init_filter(FilterKind.LINEAR, 6, 3, seed=3)
    for rho in (0.5, 2.0):
        cfg = classification_tradeoff(rho, 1e-4, inner_tol=1e-10,
                                      inner_max_iter=2000)
        objective, privacy_value, utility_value, _ = joint_objective(state, same, cfg)
        assert privacy_value == utility_value
        assert objective == pytest.approx((1 - rho) * privacy_value, rel=1e-12)


def test_descent_direction_matches_finite_differences_linear():
    rng = np.random.default_rng(3)
    data = _toy_dataset(rng, n=40, dim=5)
    state = init_filter(FilterKind.LINEAR, 5, 2, seed=4)
    cfg = _tight_tradeoff()
    _, _, _, fitted = joint_objective(state, data, cfg)
    q = descent_direction(state, fitted, data, cfg)

    def phi(params):
        return joint_objective(state.with_params(params), data, cfg)[0]

    fd_grad = central_diff(phi, state.params, step=1e-6)
    assert rel_error(q, -fd_grad) <= 1e-4
    assert float(q @ fd_grad) < 0


def test_descent_direction_matches_finite_differences_mlp():
    rng = np.random.default_rng(4)
    data = _toy_dataset(rng, n=30, dim=4)
    state = init_filter(FilterKind.TWO_LAYER_SIGMOID, 4, 2, (5, 4), seed=5)
    cfg = least_squares_tradeoff(1.5, 0.0, inner_tol=1e-10)
    _, _, _, fitted = joint_objective(state, data, cfg)
    q = descent_direction(state, fitted, data, cfg)

    def phi(params):
        return joint_objective(state.with_params(params), data, cfg)[0]

    fd_grad = central_diff(phi, state.params, step=1e-6)
    assert rel_error(q, -fd_grad) <= 1e-4


def test_least_squares_objective_agrees_with_trace_form():
    # with least-squares heads (no intercept, no ridge) the joint objective
    # equals -T_y + rho T_z up to the label-dependent constant, where T are
    # the per-task trace objectives of the moment formulation
    rng = np.random.default_rng(5)
    data = _toy_dataset(rng, n=70, dim=6)
    U = rng.standard_normal((6, 3))
    state = linear_filter(U)
    cfg = least_squares_tradeoff(2.5, 0.0)
    objective, privacy_value, utility_value, _ = joint_objective(state, data, cfg)
    ky = int(data.y.max())
    kz = int(data.z.max())
    my = compute_moments(data.X, one_hot(data.y, ky), one_hot(data.z, kz),
                         ridge=0.0)
    t_y = trace_objective(my, 0.0, U)  # rho 0 isolates the y cross term
    m_swapped = compute_moments(data.X, one_hot(data.z, kz),
                                one_hot(data.y, ky), ridge=0.0)
    t_z = trace_objective(m_swapped, 0.0, U)
    mean_y = float((one_hot(data.y, ky) ** 2).sum() / data.n_samples)
    mean_z = float((one_hot(data.z, kz) ** 2).sum() / data.n_samples)
    # best least-squares risk = E|Y|^2 - T, so privacy = T_y - 1, etc.
    assert privacy_value == pytest.approx(t_y - mean_y, rel=1e-9)
    assert utility_value == pytest.approx(t_z - mean_z, rel=1e-9)
    assert objective == pytest.approx((t_y - mean_y)
                                      - 2.5 * (t_z - mean_z), rel=1e-9)


def test_training_descends_and_records_are_consistent(monkeypatch):
    rng = np.random.default_rng(6)
    data = _toy_dataset(rng)
    cfg = _tight_tradeoff(max_iter=25)
    slopes = []  # -grad Phi . direction of every search that accepted a step
    search = minimax_opt._line_search

    def recorded(state, direction, slope, *args):
        result = search(state, direction, slope, *args)
        if result is not None:
            slopes.append(slope)
        return result

    monkeypatch.setattr(minimax_opt, "_line_search", recorded)
    report = train_minimax(init_filter(FilterKind.LINEAR, 6, 2, seed=7), data, cfg)
    records = report.records
    assert records[0].iteration == 0 and records[0].step_size == 0.0
    assert len(slopes) == len(records) - 1
    for prev, cur, slope in zip(records, records[1:], slopes):
        assert cur.iteration == prev.iteration + 1
        assert cur.step_size > 0 and slope > 0
        # accepted steps satisfy the sufficient-decrease test
        margin = minimax_opt._ARMIJO * cur.step_size * slope
        assert cur.objective < prev.objective - margin + 1e-12
    assert report.final_objective == records[-1].objective
    assert report.iterations == records[-1].iteration


def _at_least_squares_optimum():
    """Toy data and the exact least-squares minimax filter for rho = 3."""
    rng = np.random.default_rng(7)
    data = _toy_dataset(rng, n=80, dim=5)
    ky = int(data.y.max())
    kz = int(data.z.max())
    m = compute_moments(data.X, one_hot(data.y, ky), one_hot(data.z, kz))
    U, _ = least_squares_minimax(m, 3.0, 2)
    return data, U


def test_training_from_exact_optimum_stops_immediately():
    data, U = _at_least_squares_optimum()
    cfg = least_squares_tradeoff(3.0, 0.0, max_iter=50)
    report = train_minimax(linear_filter(U), data, cfg)
    # either the line search finds nothing or only vanishing slow steps
    assert report.iterations <= cfg.slow_iterations
    total_drop = report.records[0].objective - report.final_objective
    assert total_drop <= cfg.slow_iterations * cfg.convergence_tol


def test_stalled_search_is_accounted_for(monkeypatch):
    data, U = _at_least_squares_optimum()
    # three rounding-level decreases come before the stall, so more than
    # three slow iterations are needed to reach it
    cfg = least_squares_tradeoff(3.0, 0.0, max_iter=50, slow_iterations=5)
    monkeypatch.setattr(minimax_opt, "_MAX_BACKTRACKS", 3)
    calls = []
    original = minimax_opt.joint_objective

    def counted(*args, **kwargs):
        values = original(*args, **kwargs)
        calls.append(values[3].inner_iterations)
        return values

    monkeypatch.setattr(minimax_opt, "joint_objective", counted)
    report = train_minimax(linear_filter(U), data, cfg)
    assert report.stop_reason == "stalled" and not report.converged
    assert len(calls) == 18
    # the stalled iteration tried each of the _MAX_BACKTRACKS + 1 steps
    # once along the L-BFGS direction and once along the negated gradient
    assert report.stall_probes == 8
    assert sum(r.probes for r in report.records) + report.stall_probes == len(calls)
    assert report.objective_calls == len(calls)
    assert (sum(r.inner_iterations for r in report.records)
            + report.stall_inner_iterations) == sum(calls)


def test_stop_reason_names_max_iter_and_convergence():
    rng = np.random.default_rng(9)
    data = _toy_dataset(rng)
    init = init_filter(FilterKind.LINEAR, 6, 2, seed=10)
    short = train_minimax(init, data, classification_tradeoff(2.0, 1e-4, max_iter=2))
    assert short.stop_reason == "max_iter" and short.iterations == 2
    assert short.stall_probes == 0 and short.stall_inner_iterations == 0
    loose = classification_tradeoff(2.0, 1e-4, max_iter=400, convergence_tol=1e3)
    done = train_minimax(init, data, loose)
    assert done.stop_reason == "converged" and done.converged
    assert done.iterations == loose.slow_iterations


def test_training_is_deterministic():
    rng = np.random.default_rng(8)
    data = _toy_dataset(rng)
    cfg = _tight_tradeoff(max_iter=10)
    init = init_filter(FilterKind.LINEAR, 6, 2, seed=9)
    a = train_minimax(init, data, cfg)
    b = train_minimax(init.with_params(init.params.copy()), data, cfg)
    assert np.array_equal(a.final_state.params, b.final_state.params)
    assert a.records == b.records
    assert a.converged == b.converged


def test_convergence_flag_set_by_slow_progress():
    rng = np.random.default_rng(9)
    data = _toy_dataset(rng)
    cfg = classification_tradeoff(2.0, 1e-4, max_iter=400,
                                  convergence_tol=1e-3, slow_iterations=3)
    report = train_minimax(init_filter(FilterKind.LINEAR, 6, 2, seed=10),
                           data, cfg)
    if report.converged:
        drops = [p.objective - c.objective
                 for p, c in zip(report.records, report.records[1:])]
        assert all(d < cfg.convergence_tol for d in drops[-cfg.slow_iterations:])
    else:
        assert report.iterations == cfg.max_iter or report.records[-1].step_size > 0


def test_evaluate_objective_matches_joint_on_training_data():
    rng = np.random.default_rng(10)
    data = _toy_dataset(rng)
    state = init_filter(FilterKind.LINEAR, 6, 3, seed=11)
    cfg = _tight_tradeoff()
    objective, privacy_value, utility_value, fitted = joint_objective(state, data, cfg)
    held = evaluate_objective(state, fitted, data, cfg)
    assert held == (objective, privacy_value, utility_value)


def test_evaluate_objective_on_fresh_data_uses_fixed_heads():
    rng = np.random.default_rng(11)
    train = _toy_dataset(rng)
    test = _toy_dataset(rng)
    state = init_filter(FilterKind.LINEAR, 6, 3, seed=12)
    cfg = _tight_tradeoff()
    _, _, _, fitted = joint_objective(state, train, cfg)
    test_obj = evaluate_objective(state, fitted, test, cfg)[0]
    refit_obj = joint_objective(state, test, cfg)[0]
    # refitting heads on the test data can only drive risks down, raising
    # the privacy term and the utility term alike; the objective built from
    # best responses is reached from fixed heads only at the best response
    _, test_priv, _ = evaluate_objective(state, fitted, test, cfg)
    refit_priv = joint_objective(state, test, cfg)[1]
    assert refit_priv >= test_priv - 1e-9
    assert np.isfinite(test_obj) and np.isfinite(refit_obj)


def test_reconstruction_task_uses_raw_features_as_target():
    rng = np.random.default_rng(12)
    data = _toy_dataset(rng, n=50, dim=5)
    cfg = TradeoffConfig(
        utility_weight=1.0,
        private_tasks=((reconstruction_task(reg_lambda=1e-3), 1.0),),
        utility_tasks=((softmax_task("z", 1e-4), 1.0),),
        inner_tol=1e-8)
    state = init_filter(FilterKind.LINEAR, 5, 5, seed=13)
    _, privacy_value, _, fitted = joint_objective(state, data, cfg)
    # a full-rank linear filter leaves reconstruction nearly lossless
    assert privacy_value > -0.05
    assert fitted.private[0].weights.shape == (5, 5)


def test_config_validation():
    with pytest.raises(DataError):
        TradeoffConfig(utility_weight=0.0)
    with pytest.raises(DataError):
        TradeoffConfig(private_tasks=())
    with pytest.raises(DataError):
        TradeoffConfig(private_tasks=((softmax_task(), -1.0),))
    with pytest.raises(DataError):
        TradeoffConfig(private_tasks=(("softmax", 1.0),))
    with pytest.raises(DataError):
        classification_tradeoff(max_iter=0)
    with pytest.raises(DataError):
        classification_tradeoff(convergence_tol=0.0)
    # NaN slips past a sign check: a NaN tolerance ran silently to
    # max_iter, an infinite one stopped after 0 iterations
    for bad in (float("nan"), float("inf")):
        for kwargs in (dict(convergence_tol=bad), dict(inner_tol=bad),
                       dict(utility_weight=bad)):
            with pytest.raises(DataError):
                classification_tradeoff(**kwargs)
        with pytest.raises(DataError):
            TradeoffConfig(private_tasks=((softmax_task(), bad),))
        with pytest.raises(DataError):
            softmax_task(reg_lambda=bad)
    with pytest.raises(DataError):
        least_squares_task(label_field="w")
    with pytest.raises(ShapeError):
        train_minimax(init_filter(FilterKind.LINEAR, 4, 2, seed=0),
                      _toy_dataset(np.random.default_rng(0), dim=6),
                      classification_tradeoff())


def test_missing_target_labels_raise():
    rng = np.random.default_rng(13)
    data = _toy_dataset(rng)
    no_z = Dataset(X=data.X, y=data.y, subject_ids=data.subject_ids)
    with pytest.raises(DataError):
        joint_objective(init_filter(FilterKind.LINEAR, 6, 2, seed=1),
                        no_z, classification_tradeoff())


def test_report_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    data = _toy_dataset(rng)
    cfg = _tight_tradeoff(max_iter=5)
    report = train_minimax(init_filter(FilterKind.LINEAR, 6, 2, seed=15),
                           data, cfg)
    path = tmp_path / "run.report.jsonl"
    save_report(report, path)
    assert load_report_records(path) == report.records
    assert report.records[0].probes == 1
    assert all(r.probes >= 1 for r in report.records)


def test_report_without_probes_still_loads(tmp_path):
    # reports saved before records counted line-search probes
    path = tmp_path / "old.report.jsonl"
    path.write_text('{"grad_norm": 0.5, "inner_iterations": 12, "iteration": 0, '
                    '"objective": -1.0, "privacy_value": -0.5, "step_size": 0.0, '
                    '"utility_value": 0.05}\n', encoding="utf-8")
    (record,) = load_report_records(path)
    assert record == IterationRecord(0, -1.0, -0.5, 0.05, 0.0, 12, 0.5, probes=0)


def test_report_without_worst_inner_grad_still_loads(tmp_path):
    # reports saved before records kept the inner solves' gradient norms
    path = tmp_path / "old.report.jsonl"
    path.write_text('{"grad_norm": 0.5, "inner_iterations": 12, "iteration": 3, '
                    '"objective": -1.0, "privacy_value": -0.5, "probes": 2, '
                    '"step_size": 0.25, "utility_value": 0.05}\n',
                    encoding="utf-8")
    (record,) = load_report_records(path)
    assert record == IterationRecord(3, -1.0, -0.5, 0.05, 0.25, 12, 0.5,
                                     probes=2, worst_inner_grad=0.0)


def test_inner_solve_quality_is_recorded(monkeypatch):
    rng = np.random.default_rng(16)
    data = _toy_dataset(rng)
    # one solver iteration per head fit leaves the heads far from optimal
    cfg = classification_tradeoff(2.0, 1e-4, max_iter=4, inner_max_iter=1)
    fit_grads = []  # risk-gradient norm after every softmax head fit
    original = heads.fit_softmax_with_info

    def checked(G, labels, *args, **kwargs):
        head, nit = original(G, labels, *args, **kwargs)
        fit_grads.append(float(np.linalg.norm(
            heads.softmax_risk(head, G, labels)[1])))
        return head, nit

    monkeypatch.setattr(heads, "fit_softmax_with_info", checked)
    report = train_minimax(init_filter(FilterKind.LINEAR, 6, 2, seed=17), data, cfg)
    assert report.inner_unconverged > 0
    assert report.inner_unconverged == sum(g > cfg.inner_tol for g in fit_grads)
    # each probe refits one private and one utility head, in record order
    fits_per_probe = len(cfg.private_tasks) + len(cfg.utility_tasks)
    used = 0
    for record in report.records:
        fits = fits_per_probe * record.probes
        assert record.worst_inner_grad == max(fit_grads[used:used + fits])
        used += fits
    assert used + fits_per_probe * report.stall_probes == len(fit_grads)


def test_exact_inner_solves_record_no_failures():
    rng = np.random.default_rng(18)
    data = _toy_dataset(rng)
    report = train_minimax(init_filter(FilterKind.LINEAR, 6, 2, seed=19), data,
                           least_squares_tradeoff(2.0, 1e-3, max_iter=3))
    assert report.inner_unconverged == 0
    assert all(r.worst_inner_grad == 0.0 for r in report.records)


def _top_down_reference(init, data, cfg):
    """Plain backtracking from the unit step, written out independently.

    Takes the directions ``train_minimax`` takes: the L-BFGS direction from
    the curvature pairs of the accepted steps (the negated gradient while
    there are none), and after a failed L-BFGS search a retry along the
    negated gradient with the pairs cleared.  Returns the accepted steps,
    the objectives after them, the final parameters, the number of
    joint_objective calls spent and the number of retries.
    """
    state = init
    objective, _, _, fitted = joint_objective(state, data, cfg)
    neg_grad = descent_direction(state, fitted, data, cfg)
    pairs = []
    steps, objectives, probes, retries, slow_count = [], [], 1, 0, 0

    def search(direction):
        nonlocal probes
        slope = float(neg_grad @ direction)
        for k in range(minimax_opt._MAX_BACKTRACKS + 1):
            step = 0.5 ** k
            trial = state.with_params(state.params + step * direction)
            values = joint_objective(trial, data, cfg, warm=fitted)
            probes += 1
            if values[0] < objective - minimax_opt._ARMIJO * step * slope:
                return step, trial, values
        return None

    for _ in range(cfg.max_iter):
        direction = minimax_opt._lbfgs_direction(
            neg_grad, pairs[-minimax_opt._LBFGS_MEMORY:])
        assert float(neg_grad @ direction) > 0
        accepted = search(direction)
        if accepted is None and pairs:
            pairs, retries = [], retries + 1
            accepted = search(neg_grad)
        if accepted is None:
            break
        step, trial, (trial_objective, _, _, fitted) = accepted
        trial_neg_grad = descent_direction(trial, fitted, data, cfg)
        s = trial.params - state.params
        sy = float(s @ (neg_grad - trial_neg_grad))
        if sy > 0:
            pairs.append((s, neg_grad - trial_neg_grad, sy))
        state, neg_grad = trial, trial_neg_grad
        decrease = objective - trial_objective
        objective = trial_objective
        steps.append(step)
        objectives.append(objective)
        slow_count = slow_count + 1 if decrease < cfg.convergence_tol else 0
        if slow_count >= cfg.slow_iterations:
            break
    return steps, objectives, state.params, probes, retries


@pytest.mark.parametrize("seed", [0, 2])
def test_warm_started_search_matches_top_down_backtracking(seed):
    # least-squares heads through an MLP filter: the accepted step moves
    # between 1 and several halvings, so the searches backtrack by
    # different amounts
    data = _toy_dataset(np.random.default_rng(seed), n=40, dim=5)
    cfg = least_squares_tradeoff(3.0, 1e-3, max_iter=30)
    init = init_filter(FilterKind.TWO_LAYER_SIGMOID, 5, 2, (6, 4), seed=seed)
    report = train_minimax(init, data, cfg)
    steps, objectives, params, probes, retries = _top_down_reference(
        init, data, cfg)
    accepted = report.records[1:]
    assert len(set(steps)) >= 3
    assert retries == 0  # one search per step, so each record is one search
    assert [r.step_size for r in accepted] == steps
    assert [r.objective for r in accepted] == objectives
    assert np.array_equal(report.final_state.params, params)
    # a step of 0.5**k is accepted after the k rejected probes above it
    ks = [int(np.log2(1.0 / r.step_size)) for r in accepted]
    assert [0.5 ** k for k in ks] == steps
    assert [r.probes for r in accepted] == [k + 1 for k in ks]
    assert report.objective_calls == probes == 1 + sum(k + 1 for k in ks)


@pytest.mark.parametrize("max_iter, max_backtracks", [(12, 30), (1000, 30)])
def test_training_runs_one_forward_pass_per_objective_call(
        monkeypatch, max_iter, max_backtracks):
    # the accepted probe's hidden activations feed the vector-Jacobian
    # product, so filter_param_grad runs no forward pass of its own; with
    # a vanishing convergence_tol the long run ends in a stall
    data = _toy_dataset(np.random.default_rng(6), n=40, dim=5)
    cfg = least_squares_tradeoff(3.0, 1e-3, max_iter=max_iter,
                                 convergence_tol=1e-16)
    monkeypatch.setattr(minimax_opt, "_MAX_BACKTRACKS", max_backtracks)
    init = init_filter(FilterKind.TWO_LAYER_SIGMOID, 5, 2, (6, 4), seed=6)
    forwards, objectives = [], []
    forward = filters._mlp_forward
    objective = minimax_opt.joint_objective

    def counted_forward(*args, **kwargs):
        forwards.append(1)
        return forward(*args, **kwargs)

    def counted_objective(*args, **kwargs):
        objectives.append(1)
        return objective(*args, **kwargs)

    monkeypatch.setattr(filters, "_mlp_forward", counted_forward)
    monkeypatch.setattr(minimax_opt, "joint_objective", counted_objective)
    report = train_minimax(init, data, cfg)
    calls = sum(r.probes for r in report.records) + report.stall_probes
    assert len(forwards) == len(objectives) == calls
    assert report.stop_reason == ("max_iter" if max_iter == 12 else "stalled")

    # recomputing the activations inside the product changes nothing
    grad = filters.filter_param_grad
    monkeypatch.setattr(minimax_opt, "filter_param_grad",
                        lambda f, X, upstream, hidden=None: grad(f, X, upstream))
    recomputed = train_minimax(init, data, cfg)
    assert recomputed.records == report.records
    assert np.array_equal(recomputed.final_state.params, report.final_state.params)
    assert len(forwards) == 2 * calls + len(report.records)


def test_fitted_heads_keep_activations_out_of_repr_and_equality():
    data = _toy_dataset(np.random.default_rng(7), n=30, dim=5)
    cfg = least_squares_tradeoff(3.0, 1e-3)
    state = init_filter(FilterKind.TWO_LAYER_SIGMOID, 5, 2, (6, 4), seed=7)
    fitted = joint_objective(state, data, cfg)[3]
    assert [h.shape for h in fitted.hidden] == [(30, 6), (30, 4)]
    assert "hidden" not in repr(fitted)
    assert fitted == replace(fitted, hidden=())
    linear = joint_objective(init_filter(FilterKind.LINEAR, 5, 2, seed=7),
                             data, cfg)[3]
    assert linear.hidden == ()


def test_training_builds_least_squares_targets_once(monkeypatch):
    data = _toy_dataset(np.random.default_rng(8), n=40, dim=5)
    cfg = replace(least_squares_tradeoff(3.0, 1e-3, max_iter=8),
                  private_tasks=((least_squares_task("y", 1e-3), 1.0),
                                 (reconstruction_task(1e-3), 0.5)))
    init = init_filter(FilterKind.LINEAR, 5, 3, seed=8)
    built = []
    one_hot_fn = heads.one_hot

    def counted_one_hot(*args, **kwargs):
        built.append(1)
        return one_hot_fn(*args, **kwargs)

    monkeypatch.setattr(heads, "one_hot", counted_one_hot)
    report = train_minimax(init, data, cfg)
    assert len(built) == 2  # one per least-squares task, not one per probe
    calls = sum(r.probes for r in report.records) + report.stall_probes
    assert calls > 2

    # rebuilding the targets in every pass gives the same run bit for bit
    monkeypatch.setattr(minimax_opt, "_task_targets",
                        lambda cfg, data: (None,) * 3)
    rebuilt = train_minimax(init, data, cfg)
    assert len(built) == 2 + 2 * calls
    assert rebuilt.records == report.records
    assert np.array_equal(rebuilt.final_state.params, report.final_state.params)


def test_lbfgs_direction_matches_dense_bfgs_update():
    rng = np.random.default_rng(20)
    n = 7
    A = rng.standard_normal((n, n))
    A = A @ A.T + 0.5 * np.eye(n)  # curvature s.y = s'As > 0
    pairs = []
    for _ in range(4):
        s = rng.standard_normal(n)
        y = A @ s + 0.01 * rng.standard_normal(n)
        pairs.append((s, y, float(s @ y)))
    neg_grad = rng.standard_normal(n)
    for m in range(1, len(pairs) + 1):
        d = minimax_opt._lbfgs_direction(neg_grad, pairs[:m])
        H = bfgs_inverse_hessian_reference(pairs[:m])
        assert rel_error(d, H @ neg_grad) <= 1e-12
        assert float(neg_grad @ d) > 0
    assert minimax_opt._lbfgs_direction(neg_grad, []) is neg_grad


@pytest.mark.parametrize("problem", ["least_squares", "softmax"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lbfgs_beats_steepest_descent(problem, seed):
    data = _toy_dataset(np.random.default_rng(seed))
    init = init_filter(FilterKind.LINEAR, 6, 2, seed=seed)
    if problem == "least_squares":
        cfg = least_squares_tradeoff(3.0, 1e-3, max_iter=200)
    else:
        cfg = _tight_tradeoff(max_iter=200)
    report = train_minimax(init, data, cfg)
    objectives, _, _, calls, _ = steepest_descent_reference(init, data, cfg)
    assert report.stop_reason == "converged"
    assert report.final_objective <= objectives[-1]
    # objective calls until Phi first reaches the oracle's final value
    spent = np.cumsum([r.probes for r in report.records])
    reached = [r.objective <= objectives[-1] for r in report.records]
    assert spent[reached.index(True)] < calls


@pytest.mark.parametrize("bad", ["ascent", "nan"])
def test_non_descent_direction_falls_back_to_negated_gradient(monkeypatch, bad):
    # with every L-BFGS direction replaced by one that does not descend,
    # the run is the steepest-descent oracle's, step for step
    data = _toy_dataset(np.random.default_rng(21))
    init = init_filter(FilterKind.LINEAR, 6, 2, seed=21)
    cfg = least_squares_tradeoff(3.0, 1e-3, max_iter=40)
    broken = []

    def not_descent(neg_grad, pairs):
        if not pairs:
            return neg_grad
        broken.append(len(pairs))
        return -neg_grad if bad == "ascent" else np.full_like(neg_grad, np.nan)

    monkeypatch.setattr(minimax_opt, "_lbfgs_direction", not_descent)
    report = train_minimax(init, data, cfg)
    objectives, steps, params, calls, stop = steepest_descent_reference(
        init, data, cfg)
    assert len(broken) >= 10
    assert [r.objective for r in report.records[1:]] == objectives
    assert [r.step_size for r in report.records[1:]] == steps
    assert np.array_equal(report.final_state.params, params)
    assert sum(r.probes for r in report.records) + report.stall_probes == calls
    assert report.stop_reason == stop


def _watched_training(monkeypatch, data, cfg, init, fail=(), unconverged=()):
    """Train while recording the memory size behind every direction and
    every line search (whether it ran along the negated gradient, from
    which iterate, with how many probes).  Searches whose 0-based index is in
    ``fail`` report no accepted step; ``joint_objective`` calls whose
    0-based index is in ``unconverged`` report one unconverged inner fit.
    """
    memory, searches, objective_calls = [], [], []
    direction_fn = minimax_opt._lbfgs_direction
    search_fn = minimax_opt._line_search
    objective_fn = minimax_opt.joint_objective

    def direction(neg_grad, pairs):
        memory.append(len(pairs))
        return direction_fn(neg_grad, pairs)

    def search(state, direction, slope, objective, fitted, *args):
        neg_grad = descent_direction(state, fitted, data, cfg)
        work = args[-1]  # one entry per probe
        before = len(work)
        result = search_fn(state, direction, slope, objective, fitted, *args)
        searches.append({"along_gradient": np.array_equal(direction, neg_grad),
                         "params": state.params, "probes": len(work) - before})
        return None if len(searches) - 1 in fail else result

    def objective(*args, **kwargs):
        values = objective_fn(*args, **kwargs)
        objective_calls.append(1)
        if len(objective_calls) - 1 in unconverged:
            values = (*values[:3], replace(values[3], inner_unconverged=1))
        return values

    monkeypatch.setattr(minimax_opt, "_lbfgs_direction", direction)
    monkeypatch.setattr(minimax_opt, "_line_search", search)
    monkeypatch.setattr(minimax_opt, "joint_objective", objective)
    return train_minimax(init, data, cfg), memory, searches


def _watched_setup():
    data = _toy_dataset(np.random.default_rng(22))
    init = init_filter(FilterKind.LINEAR, 6, 2, seed=22)
    return data, init, least_squares_tradeoff(3.0, 1e-3, max_iter=12)


def test_memory_resets_after_an_unconverged_inner_fit(monkeypatch):
    data, init, cfg = _watched_setup()
    clean, clean_memory, _ = _watched_training(monkeypatch, data, cfg, init)
    assert clean.inner_unconverged == 0
    assert clean_memory == [min(i, minimax_opt._LBFGS_MEMORY)
                            for i in range(len(clean_memory))]
    # mark one probe of iteration 6 as an unconverged fit
    first = sum(r.probes for r in clean.records[:6])
    report, memory, _ = _watched_training(monkeypatch, data, cfg, init,
                                          unconverged=(first,))
    assert report.inner_unconverged == 1
    assert report.records[:6] == clean.records[:6]
    assert memory[:6] == clean_memory[:6] and memory[5] == 5
    # that step adds no pair and clears the five it had; the memory then
    # builds up again from the next step on
    assert memory[6:] == list(range(len(memory) - 6))


def test_failed_lbfgs_search_is_retried_along_the_negated_gradient(monkeypatch):
    data, init, cfg = _watched_setup()
    report, memory, searches = _watched_training(monkeypatch, data, cfg, init,
                                                 fail=(3,))
    assert report.stop_reason != "stalled" and report.iterations == cfg.max_iter
    # iteration 4: the L-BFGS search fails, and the same iteration
    # searches again from the same iterate along -grad Phi
    failed, retry = searches[3], searches[4]
    assert not failed["along_gradient"] and retry["along_gradient"]
    assert np.array_equal(failed["params"], retry["params"])
    assert report.records[4].probes == failed["probes"] + retry["probes"]
    assert len(searches) == cfg.max_iter + 1
    # the retry's direction comes from the cleared memory, and its accepted
    # step is the first new pair
    assert memory[3] == 3 and memory[4] == 0 and memory[5] == 1


def test_stall_is_reported_only_after_the_retry_fails(monkeypatch):
    data, init, cfg = _watched_setup()
    report, _, searches = _watched_training(monkeypatch, data, cfg, init,
                                            fail=(3, 4))
    assert report.stop_reason == "stalled" and report.iterations == 3
    assert [s["along_gradient"] for s in searches] == [True, False, False,
                                                        False, True]
    assert report.stall_probes == searches[3]["probes"] + searches[4]["probes"]
    # along -grad Phi from the start there is nothing to retry
    report, _, searches = _watched_training(monkeypatch, data, cfg, init,
                                            fail=(0,))
    assert report.stop_reason == "stalled" and report.iterations == 0
    assert len(searches) == 1 and searches[0]["along_gradient"]
    assert report.stall_probes == searches[0]["probes"]
