import copy
import json
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import mean_metric
from privfilter import harness, heads
from privfilter.data import Dataset, gen_synthetic, split_per_subject
from privfilter.dp_mech import (BoundKind, bound, bound_scale_from_norms,
                                sample_noise)
from privfilter.errors import DataError, ShapeError
from privfilter.filters import FilterKind, apply_filter, linear_filter
from privfilter.harness import (CHAIN_CHOICES, EVAL_TOL, FILTER_CHOICES,
                                EvalReport, ExperimentConfig, derive_rng,
                                export_results, fit_filter, load_results,
                                run_experiment)
from privfilter.heads import fit_softmax, softmax_risk
from privfilter.minimax_opt import classification_tradeoff


def _small_data(seed=0, dim=6, per_subject=12):
    return gen_synthetic(dim=dim, n_subjects=3, n_target_classes=2,
                         per_subject=per_subject, angle_deg=90.0,
                         subject_sep=2.0, target_sep=2.0, noise=0.4,
                         seed=seed)


def _fast_config(**kwargs):
    defaults = dict(
        filters=("raw", "pca"),
        dims=(2,),
        trials=2,
        tradeoff=classification_tradeoff(2.0, 1e-4, max_iter=8,
                                         inner_max_iter=80),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_derive_rng_streams_are_keyed():
    a = derive_rng(0, 1, 2, 3).standard_normal(5)
    b = derive_rng(0, 1, 2, 3).standard_normal(5)
    c = derive_rng(0, 1, 2, 4).standard_normal(5)
    d = derive_rng(1, 1, 2, 3).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_config_validation():
    with pytest.raises(DataError):
        ExperimentConfig(filters=("sparse-pca",))
    with pytest.raises(DataError):
        ExperimentConfig(filters=())
    with pytest.raises(DataError, match="dims"):
        ExperimentConfig(dims=(0,))
    with pytest.raises(DataError):
        ExperimentConfig(epsilon_inverses=(-0.5,))
    with pytest.raises(DataError):
        ExperimentConfig(chain="mid")
    with pytest.raises(ValueError):
        ExperimentConfig(bound_kind="fold")
    with pytest.raises(DataError):
        ExperimentConfig(bound_scale=0.0)
    # an infinite scale would release all-zero rows, a NaN one NaN rows
    for bad in (float("inf"), float("nan")):
        with pytest.raises(DataError, match="bound_scale"):
            ExperimentConfig(chain="pre", bound_scale=bad)
        with pytest.raises(DataError, match="epsilon_inverses"):
            ExperimentConfig(chain="pre", epsilon_inverses=(0.0, bad))
    with pytest.raises(DataError):
        ExperimentConfig(trials=0)
    with pytest.raises(DataError):
        ExperimentConfig(train_fraction=1.0)
    for bad in (float("nan"), float("inf"), -5.0):
        with pytest.raises(DataError, match="ppls_lambda"):
            ExperimentConfig(ppls_lambda=bad)
    with pytest.raises(DataError, match="pretrain_epochs"):
        ExperimentConfig(pretrain_epochs=-3)
    for bad in ((20,), (20, 10, 5), (20, 0)):
        with pytest.raises(DataError, match="mlp_hidden"):
            ExperimentConfig(mlp_hidden=bad)
    # int() truncated these: dims=(2.9,) ran a d = 2 sweep, and a float
    # trials count (or a negative seed) failed later with a bare
    # TypeError (ValueError)
    # ... and a scalar or a string where a list belongs failed with a bare
    # TypeError, or was split into characters ("unknown filter 'p'")
    for name, bad in (("dims", (2.9,)), ("dims", (2.0,)),
                      ("mlp_hidden", (20.7, 10.2)), ("trials", 1.5),
                      ("pretrain_epochs", 2.5), ("master_seed", 1.5),
                      ("trials", "3"), ("master_seed", -1), ("dims", 5),
                      ("epsilon_inverses", 0.1), ("filters", "pca"),
                      ("mlp_hidden", "20,10")):
        with pytest.raises(DataError, match=name):
            ExperimentConfig(**{name: bad})
    cfg = ExperimentConfig(dims=(np.int64(3),), mlp_hidden=np.array([8, 4]),
                           trials=np.int32(2), master_seed=np.uint8(7),
                           pretrain_epochs=np.int64(1))
    assert (cfg.dims, cfg.mlp_hidden, cfg.trials, cfg.master_seed,
            cfg.pretrain_epochs) == ((3,), (8, 4), 2, 7, 1)
    assert all(type(v) is int for v in (*cfg.dims, *cfg.mlp_hidden, cfg.trials,
                                        cfg.master_seed, cfg.pretrain_epochs))
    assert set(ExperimentConfig().filters) <= set(FILTER_CHOICES)
    assert ExperimentConfig().chain in CHAIN_CHOICES


def test_float_and_bool_config_fields_are_type_checked():
    # a string failed a comparison with a bare TypeError, except a noise
    # level, which float() parsed silently
    for name, bad in (("bound_scale", "0.5"), ("train_fraction", "0.5"),
                      ("ppls_lambda", "1"), ("epsilon_inverses", ("0.5",)),
                      ("epsilon_inverses", (0.0, True)),
                      ("train_fraction", None),
                      # a bare enum ValueError named no field
                      ("bound_kind", "bogus"), ("bound_kind", 1)):
        with pytest.raises(DataError, match=name):
            ExperimentConfig(chain="pre", **{name: bad})
    # the string 'no' is truthy and ran the LDS initialization
    for bad in ("no", 0, None, np.bool_(True)):
        with pytest.raises(DataError, match="lds_init"):
            ExperimentConfig(lds_init=bad)
    cfg = ExperimentConfig(chain="pre", bound_scale=np.float32(0.5),
                           train_fraction=np.float64(0.75), ppls_lambda=2,
                           epsilon_inverses=(0, np.int64(1)))
    assert (cfg.bound_scale, cfg.train_fraction, cfg.ppls_lambda,
            cfg.epsilon_inverses) == (0.5, 0.75, 2.0, (0.0, 1.0))
    assert all(type(v) is float for v in (cfg.bound_scale, cfg.train_fraction,
                                          cfg.ppls_lambda,
                                          *cfg.epsilon_inverses))
    assert ExperimentConfig(lds_init=True).lds_init is True


def test_noise_grid_needs_a_release_chain():
    # chain "none" adds no noise, so a nonzero level would label noiseless
    # cells as noisy
    for grid in ((0.0, 10.0), (1e-3,)):
        with pytest.raises(DataError, match="chain 'none'"):
            ExperimentConfig(epsilon_inverses=grid)
        with pytest.raises(DataError, match="chain 'none'"):
            ExperimentConfig(epsilon_inverses=grid, chain="none")
        for chain in ("pre", "post"):
            assert ExperimentConfig(epsilon_inverses=grid,
                                    chain=chain).epsilon_inverses == grid


def test_bound_kind_needs_a_release_chain():
    # chain "none" bounds no rows, so an explicit kind would be ignored
    for kind in ("clip", "squash"):
        with pytest.raises(DataError, match="a bound_kind needs chain"):
            ExperimentConfig(bound_kind=kind)
    assert ExperimentConfig().bound_kind is None
    for chain in ("pre", "post"):
        assert ExperimentConfig(chain=chain).bound_kind == "clip"
        assert ExperimentConfig(chain=chain,
                                bound_kind="squash").bound_kind == "squash"
    assert ExperimentConfig(epsilon_inverses=(0.0, 0.0)).chain == "none"


def test_bound_scale_needs_a_release_chain():
    # chain "none" bounds nothing, so the scale would be silently ignored
    with pytest.raises(DataError, match="chain 'none'"):
        ExperimentConfig(bound_scale=0.5)
    for chain in ("pre", "post"):
        assert ExperimentConfig(bound_scale=0.5, chain=chain).bound_scale == 0.5


def test_fit_filter_every_kind():
    data = _small_data()
    cfg = _fast_config()
    for kind in FILTER_CHOICES:
        filt, report = fit_filter(kind, data, 2, cfg, derive_rng(0, 1, 0))
        expected_dim = data.dim if kind == "raw" else 2
        out = apply_filter(filt, data.X)
        assert out.shape == (data.n_samples, expected_dim)
        if kind.startswith("minimax"):
            assert report is not None and report.records
        else:
            assert report is None
    assert fit_filter("minimax-mlp", data, 2, cfg,
                      derive_rng(0, 1, 1))[0].kind is FilterKind.TWO_LAYER_SIGMOID
    with pytest.raises(DataError):
        fit_filter("banded", data, 2, cfg, 0)
    with pytest.raises(ShapeError):
        fit_filter("pca", data, 9, cfg, 0)
    no_z = Dataset(data.X, data.y, data.subject_ids)
    with pytest.raises(DataError):
        fit_filter("ppls", no_z, 2, cfg, 0)


def test_fit_filter_lds_init_changes_minimax_start():
    data = _small_data()
    cfg = _fast_config()
    seeded = derive_rng(0, 1, 0)
    _, cold = fit_filter("minimax-linear", data, 2, cfg, seeded)
    cfg_lds = _fast_config(lds_init=True)
    _, warm = fit_filter("minimax-linear", data, 2, cfg_lds, derive_rng(0, 1, 0))
    assert cold.records[0].objective != warm.records[0].objective


def test_pretraining_flag_reaches_the_mlp():
    data = _small_data()
    plain = _fast_config(filters=("minimax-mlp",), pretrain_epochs=0)
    pre = _fast_config(filters=("minimax-mlp",), pretrain_epochs=3)
    a, _ = fit_filter("minimax-mlp", data, 2, plain, derive_rng(0, 1, 0))
    b, _ = fit_filter("minimax-mlp", data, 2, pre, derive_rng(0, 1, 0))
    assert not np.array_equal(a.params, b.params)


def test_run_experiment_record_grid_and_raw_dim():
    data = _small_data()
    cfg = _fast_config(filters=("raw", "pca"), dims=(2,),
                       epsilon_inverses=(0.0, 1.0), chain="pre", trials=2)
    report = run_experiment(cfg, data)
    # raw runs at the native dim once per (trial, epsilon)
    raw = [r for r in report.records if r["filter"] == "raw"]
    pca = [r for r in report.records if r["filter"] == "pca"]
    assert len(raw) == 4 and len(pca) == 4
    assert all(r["dim"] == data.dim for r in raw)
    assert all(r["dim"] == 2 for r in pca)
    for r in report.records:
        assert r["error"] is None
        assert 0.0 <= r["target_accuracy"] <= 1.0
        assert 0.0 <= r["private_accuracy"] <= 1.0
        assert r["tradeoff"] == r["target_accuracy"] - r["private_accuracy"]
        assert r["chance_target"] == 0.5
        assert r["chance_private"] == pytest.approx(1.0 / 3.0)
        assert r["wall_time_s"] >= 0.0


def test_run_experiment_validates_inputs():
    data = _small_data()
    with pytest.raises(ShapeError):
        run_experiment(_fast_config(dims=(7,)), data)
    no_z = Dataset(data.X, data.y, data.subject_ids)
    with pytest.raises(DataError):
        run_experiment(_fast_config(), no_z)


def test_run_experiment_is_deterministic_up_to_wall_time():
    data = _small_data()
    cfg = _fast_config(filters=("rand", "minimax-linear"), trials=2,
                       epsilon_inverses=(0.0, 0.5), chain="pre")
    a = run_experiment(cfg, data)
    b = run_experiment(cfg, data)
    assert a.scientific_payload() == b.scientific_payload()


def test_filter_fit_never_sees_the_test_half():
    # swap in garbage test-half features; the fitted filter must not move
    data = _small_data(per_subject=10)
    cfg = _fast_config(filters=("minimax-linear",), trials=1)
    # reproduce the harness split for trial 0 to find the test rows
    split_rng = derive_rng(cfg.master_seed, 0, 0)
    train, _ = split_per_subject(data, cfg.train_fraction, split_rng)
    train_rows = {tuple(row) for row in train.X}
    mask = np.array([tuple(row) not in train_rows for row in data.X])
    X_mutated = data.X.copy()
    X_mutated[mask] += 37.0
    mutated = Dataset(X_mutated, data.y, data.subject_ids, data.z)

    log_a, log_b = [], []
    run_experiment(cfg, data, training_log=log_a)
    run_experiment(cfg, mutated, training_log=log_b)
    assert len(log_a) == len(log_b) == 1
    assert np.array_equal(log_a[0].final_state.params,
                          log_b[0].final_state.params)


def test_no_noise_cells_unchanged_when_sweep_grows():
    data = _small_data()
    short = _fast_config(filters=("pca",), chain="pre",
                         epsilon_inverses=(0.0,))
    longer = _fast_config(filters=("pca",), chain="pre",
                          epsilon_inverses=(0.0, 2.0))
    a = run_experiment(short, data)
    b = run_experiment(longer, data)
    zero_a = [r for r in a.scientific_payload() if r["epsilon_inverse"] == 0.0]
    zero_b = [r for r in b.scientific_payload() if r["epsilon_inverse"] == 0.0]
    assert zero_a == zero_b


def test_noise_hurts_the_private_task():
    data = _small_data(per_subject=20)
    cfg = _fast_config(filters=("raw",), trials=3, chain="pre",
                       epsilon_inverses=(0.0, 50.0))
    report = run_experiment(cfg, data)
    clean = mean_metric(report, "raw", "private_accuracy", epsilon_inverse=0.0)
    noisy = mean_metric(report, "raw", "private_accuracy", epsilon_inverse=50.0)
    assert noisy < clean


def test_post_chain_filters_the_perturbed_features():
    data = _small_data()
    cfg = _fast_config(filters=("pca",), chain="post",
                       epsilon_inverses=(0.0, 1.0), trials=1)
    report = run_experiment(cfg, data)
    assert all(r["error"] is None for r in report.records)
    # the epsilon sweep refits on differently perturbed data, so both cells
    # stand alone; nothing to cache across the sweep
    assert len(report.records) == 2


def test_post_chain_cells_hold_only_their_own_arrays():
    data = gen_synthetic(dim=60, n_subjects=6, n_target_classes=3,
                         per_subject=100, noise=1.0, seed=0)
    cfg = ExperimentConfig(filters=("raw",), epsilon_inverses=(0.0, 0.1),
                           chain="post", trials=1)
    run_experiment(cfg, data)  # first-call allocations are not the cells'
    tracemalloc.start()
    try:
        report = run_experiment(cfg, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(record["error"] is None for record in report.records)
    # The split, the evaluation features and the release's temporaries
    # peak at about 4x the data.  Keeping the released raw rows and the
    # bare filter outputs alive through the head fits peaked at 6x.
    assert peak < 5 * data.X.nbytes


def _watch_bound(monkeypatch):
    """Every array ``harness.bound`` returns, in call order."""
    outputs = []
    original = harness.bound

    def watched(*args, **kwargs):
        outputs.append(original(*args, **kwargs))
        return outputs[-1]
    monkeypatch.setattr(harness, "bound", watched)
    return outputs


@pytest.mark.parametrize("chain", ["pre", "post"])
def test_each_release_bounds_its_rows_once(monkeypatch, chain):
    bounded = _watch_bound(monkeypatch)
    cfg = _fast_config(filters=("pca", "rand"), dims=(2, 3), trials=2,
                       epsilon_inverses=(0.0, 0.5, 1.0), chain=chain)
    report = run_experiment(cfg, _small_data())
    assert len(report.records) == 24
    assert all(r["error"] is None for r in report.records)
    # a post chain bounds its split (two halves) once per trial, a pre
    # chain the two halves' filter outputs once per (filter, dim, trial)
    assert len(bounded) == (2 * 2 if chain == "post" else 2 * 2 * 2 * 2)


def test_cells_share_read_only_bounded_rows(monkeypatch):
    bounded = _watch_bound(monkeypatch)
    applied = []
    original = harness.apply_filter

    def watched(filt, X, *args, **kwargs):
        applied.append(X)
        return original(filt, X, *args, **kwargs)
    monkeypatch.setattr(harness, "apply_filter", watched)
    cfg = _fast_config(filters=("pca",), trials=1, chain="post",
                       epsilon_inverses=(0.0, 1.0))
    report = run_experiment(cfg, _small_data())
    assert all(r["error"] is None for r in report.records)
    assert len(bounded) == 2
    for rows in bounded:
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0
    # at epsilon_inverse = 0 the filter sees the shared rows themselves;
    # at 1.0 it sees fresh arrays with noise
    assert applied[0] is bounded[0] and applied[1] is bounded[1]
    assert all(X is not rows for X in applied[2:] for rows in bounded)


def test_the_one_filter_entry_points_refuse_the_post_chain():
    # a post sweep fits one filter per cell, on that cell's released rows
    data = _small_data()
    filt, _ = harness.train_filter(data, _fast_config(filters=("pca",)))
    post = _fast_config(filters=("pca",), chain="post")
    with pytest.raises(DataError, match="post"):
        harness.train_filter(data, post)
    with pytest.raises(DataError, match="post"):
        harness.evaluate_filter(filt, data, post)


def _halves(rng, n_train, n_test, dim):
    """Training and test Datasets of Gaussian rows, for the release tests."""
    return tuple(Dataset(3.0 * rng.standard_normal((n, dim)),
                         np.ones(n, dtype=int), np.ones(n, dtype=int))
                 for n in (n_train, n_test))


def test_release_pre_shape_and_no_noise_path():
    rng = np.random.default_rng(5)
    filt = linear_filter(rng.standard_normal((6, 2)))
    train, test = _halves(rng, 10, 4, 6)
    g_train, g_test = apply_filter(filt, train.X), apply_filter(filt, test.X)
    cfg = ExperimentConfig(chain="pre", bound_kind="clip", bound_scale=0.5)
    stage = harness._stage(cfg, train, test, filt, {})
    # at epsilon_inverse = 0 the bounded rows pass through as they are
    silent = harness._add_noise(stage.rows, 0.0, np.random.default_rng(0))
    assert silent is stage.rows
    silent_train, silent_test = silent
    assert np.array_equal(silent_train, bound(BoundKind.CLIP, 0.5, g_train))
    assert np.array_equal(silent_test, bound(BoundKind.CLIP, 0.5, g_test))
    assert np.linalg.norm(silent_train, axis=1).max() <= 1.0
    assert np.linalg.norm(silent_test, axis=1).max() <= 1.0
    # without a configured scale it is fit on the training rows only
    scale = bound_scale_from_norms(np.linalg.norm(g_train, axis=1))
    auto = harness._stage(ExperimentConfig(chain="pre"), train, test, filt, {})
    assert np.array_equal(auto.rows[1], bound(BoundKind.CLIP, scale, g_test))
    assert auto.fields["bound_scale"] == scale
    # the training rows draw their noise first, the test rows second
    noisy_train, noisy_test = harness._add_noise(stage.rows, 1.0,
                                                 np.random.default_rng(3))
    check = np.random.default_rng(3)
    first = sample_noise(1.0, 2, rng=check, size=10)
    second = sample_noise(1.0, 2, rng=check, size=4)
    assert np.array_equal(noisy_train, silent_train + first)
    assert np.array_equal(noisy_test, silent_test + second)
    # chain "none" releases the filter outputs as they are, unbounded
    plain = harness._stage(ExperimentConfig(), train, test, filt, {})
    assert plain.fields == {}
    assert np.array_equal(plain.rows[0], g_train)
    assert np.array_equal(plain.rows[1], g_test)
    assert harness._add_noise(plain.rows, 0.0, None) is plain.rows


def test_release_post_filters_after_perturbing(monkeypatch):
    # a post cell fits its filter on the bounded, perturbed training rows
    # and applies it to both perturbed halves
    data = _small_data()
    cfg = _fast_config(filters=("pca",), chain="post", bound_kind="squash",
                       bound_scale=0.7, epsilon_inverses=(0.5,))
    train, test = harness._split(data, cfg, 0)
    stage = harness._stage(cfg, train, test, None, {})
    fitted, applied = [], []
    fit, apply = harness.fit_filter, harness.apply_filter

    def watched_fit(kind, half, *args):
        fitted.append(half.X.copy())
        return fit(kind, half, *args)

    def watched_apply(filt, X):
        applied.append((filt, X.copy()))
        return apply(filt, X)
    monkeypatch.setattr(harness, "fit_filter", watched_fit)
    monkeypatch.setattr(harness, "apply_filter", watched_apply)
    harness._run_cell(stage, "pca", 2, 0.5, (0, 0, 0, 0), data, cfg, None)
    check = derive_rng(cfg.master_seed, harness.ROLE_NOISE, 0, 0, 0, 0)
    expected = [bound(BoundKind.SQUASH, 0.7, half.X) + sample_noise(
        0.5, data.dim, rng=check, size=half.n_samples) for half in (train, test)]
    assert [X.tobytes() for X in fitted] == [expected[0].tobytes()]
    assert [X.tobytes() for _, X in applied] == [e.tobytes() for e in expected]
    assert applied[0][0] is applied[1][0]


@pytest.mark.parametrize("chain", ["pre", "post"])
@pytest.mark.parametrize("einv", [0.0, 0.5])
def test_release_matches_the_out_of_place_sum(chain, einv):
    # a cell adds its noise in place into a fresh noise array; the bits are
    # those of bound(...) + sample_noise(...) from the same stream, and
    # neither the inputs nor the stage's shared bounded rows change
    rng = np.random.default_rng(21)
    train, test = _halves(rng, 40, 9, 7)
    filt = linear_filter(rng.standard_normal((7, 7))) if chain == "pre" else None
    inputs = [half.X.tobytes() for half in (train, test)]
    cfg = ExperimentConfig(chain=chain, epsilon_inverses=(einv,))
    stage = harness._stage(cfg, train, test, filt, {})
    shared = [rows.tobytes() for rows in stage.rows]
    noise_rng = np.random.default_rng(4)
    check = copy.deepcopy(noise_rng)
    released = harness._add_noise(stage.rows, einv, noise_rng)
    rows = [half.X if filt is None else apply_filter(filt, half.X)
            for half in (train, test)]
    scale = bound_scale_from_norms(np.linalg.norm(rows[0], axis=1))
    for half, out in zip(rows, released):
        expected = bound(cfg.bound_kind, scale, half) + sample_noise(
            einv, 7, rng=check, size=half.shape[0])
        assert out.tobytes() == expected.tobytes()
    assert [half.X.tobytes() for half in (train, test)] == inputs
    assert [rows.tobytes() for rows in stage.rows] == shared


@pytest.mark.parametrize("chain, kind, scale", [
    ("pre", "clip", None), ("pre", "clip", 2.3), ("post", "clip", 2.3),
    ("post", "squash", None)])
def test_cells_record_their_bound_outside_the_payload(chain, kind, scale):
    data = _small_data()
    cfg = _fast_config(filters=("raw",), trials=2, chain=chain,
                       bound_kind=kind, bound_scale=scale,
                       epsilon_inverses=(0.0, 1.0))
    report = run_experiment(cfg, data)
    for r in report.records:
        # the raw filter releases the split's rows on either chain
        train, test = split_per_subject(
            data, cfg.train_fraction, derive_rng(cfg.master_seed, 0, r["trial"]))
        norms = np.linalg.norm(train.X, axis=1)
        used = bound_scale_from_norms(norms) if scale is None else scale
        assert r["bound_scale"] == used
        if kind == "clip":
            all_norms = np.concatenate([norms, np.linalg.norm(test.X, axis=1)])
            assert r["clip_frac"] == np.mean(all_norms > used)
            # the default reciprocal-percentile scale clips every row
            assert (r["clip_frac"] == 1.0) == (scale is None)
        else:
            assert r["clip_frac"] is None
    assert all(set(r) == _PAYLOAD_FIELDS for r in report.scientific_payload())
    plain = run_experiment(_fast_config(filters=("raw",), trials=1), data)
    assert all(r["bound_scale"] is None and r["clip_frac"] is None
               for r in plain.records)


def test_head_gradient_reads_the_transposed_features_bit_for_bit(monkeypatch):
    g = np.random.default_rng(8).standard_normal((70, 4))
    G = harness._with_intercept(g)
    # the (n, d + 1) features are a view of one C-contiguous (d + 1, n)
    # buffer, so neither the solver nor the gradient copies them
    assert np.array_equal(G, np.hstack([g, np.ones((70, 1))]))
    assert G.T.flags.c_contiguous
    # a sweep's recorded head gradients are the norms of softmax_risk's
    # weight gradient on the features each head was fit on
    fits = []

    def recording_fit(G, labels, *args, **kwargs):
        head = fit_softmax(G, labels, *args, **kwargs)
        fits.append((head, G, labels))
        return head

    monkeypatch.setattr(harness, "fit_softmax", recording_fit)
    cfg = _fast_config(epsilon_inverses=(0.0, 1.0), chain="pre", trials=1)
    report = run_experiment(cfg, _small_data())
    assert len(fits) == 2 * len(report.records)
    for r, target, private in zip(report.records, fits[::2], fits[1::2]):
        for name, (head, G, labels) in (("target_head_grad", target),
                                        ("private_head_grad", private)):
            assert G.T.flags.c_contiguous
            expected = float(np.linalg.norm(softmax_risk(head, G, labels)[1]))
            assert r[name] == expected


def test_a_sweep_scores_no_head_by_a_second_risk_pass(monkeypatch):
    # the evaluation heads' recorded gradients and the minimax refits both
    # come from the fits' final=, not from softmax_risk
    calls = []
    original = heads.softmax_risk

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(heads, "softmax_risk", counted)
    cfg = _fast_config(filters=("minimax-linear", "pca"), trials=1)
    report = run_experiment(cfg, _small_data())
    assert all(r["error"] is None for r in report.records)
    assert report.records[0]["train_objective_calls"] > 1
    assert not calls


def test_cell_errors_are_recorded_and_do_not_stop_the_run():
    data = _small_data()
    single_target = Dataset(data.X, data.y, data.subject_ids,
                            np.ones(data.n_samples, dtype=np.int64))
    cfg = _fast_config(filters=("pca", "raw"), trials=2)
    report = run_experiment(cfg, single_target)
    assert len(report.records) == 4
    for r in report.records:
        assert r["error"] is not None and "DataError" in r["error"]
        assert r["target_accuracy"] is None
    summary = report.summary()
    for row in summary:
        assert row["errors"] == 2
        assert row["target_accuracy_mean"] is None
    with pytest.raises(DataError):
        mean_metric(report, "pca", "target_accuracy")


def test_summary_matches_recomputation():
    data = _small_data()
    cfg = _fast_config(filters=("pca", "rand"), trials=3,
                       epsilon_inverses=(0.0, 1.0), chain="pre")
    report = run_experiment(cfg, data)
    rows = report.summary()
    assert len(rows) == 4  # 2 filters x 1 dim x 2 epsilons
    for row in rows:
        cells = [r for r in report.records
                 if (r["filter"], r["dim"], r["epsilon_inverse"])
                 == (row["filter"], row["dim"], row["epsilon_inverse"])]
        assert row["trials"] == 3 and row["errors"] == 0
        values = np.array([c["target_accuracy"] for c in cells])
        assert row["target_accuracy_mean"] == pytest.approx(values.mean())
        assert row["target_accuracy_std"] == pytest.approx(values.std(ddof=1))
        assert row["tradeoff_mean"] == pytest.approx(
            np.mean([c["tradeoff"] for c in cells]))
    direct = mean_metric(report, "pca", "target_accuracy", dim=2,
                         epsilon_inverse=0.0)
    match = [row for row in rows if row["filter"] == "pca"
             and row["epsilon_inverse"] == 0.0]
    assert direct == pytest.approx(match[0]["target_accuracy_mean"])


def test_export_and_load_round_trip(tmp_path):
    data = _small_data()
    cfg = _fast_config(trials=2)
    report = run_experiment(cfg, data)
    prefix = tmp_path / "run"
    export_results(report, prefix)
    loaded = load_results(prefix)
    assert loaded.records == report.records
    assert loaded.summary() == report.summary()
    csv_text = (tmp_path / "run.csv").read_text()
    assert csv_text.startswith("schema_version")
    assert len(csv_text.strip().splitlines()) == 1 + len(report.summary())
    with pytest.raises(FileNotFoundError):
        load_results(tmp_path / "run2")
    (tmp_path / "hollow.jsonl").write_text("\n")
    with pytest.raises(DataError):
        load_results(tmp_path / "hollow.jsonl")


def test_export_writes_neither_file_when_the_summary_fails(tmp_path):
    # the summary is built before either file is written, so a report it
    # fails on leaves no .jsonl without its .csv
    with pytest.raises(KeyError):
        export_results(EvalReport(({"trial": 0},)), tmp_path / "run")
    assert list(tmp_path.iterdir()) == []


def test_loaded_records_need_only_the_fields_the_summary_reads(tmp_path):
    # a file from before the run fields existed still loads and summarizes
    report = run_experiment(_fast_config(), _small_data())
    old = [{k: v for k, v in r.items() if k not in harness._RUN_FIELDS}
           for r in report.records]
    path = tmp_path / "old.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in old))
    assert load_results(path).summary() == report.summary()


_PAYLOAD_FIELDS = {"schema_version", "filter", "dim", "epsilon_inverse",
                   "trial", "target_accuracy", "private_accuracy", "tradeoff",
                   "chance_target", "chance_private", "error"}


def test_evaluation_head_convergence_is_recorded_outside_the_payload(
        monkeypatch):
    data = _small_data()
    cfg = _fast_config(filters=("raw", "pca"), epsilon_inverses=(0.0, 1.0),
                       chain="pre", trials=1)
    monkeypatch.setattr(harness, "EVAL_MAX_ITER", 1)
    stopped = run_experiment(cfg, data)
    monkeypatch.setattr(harness, "EVAL_MAX_ITER", 1000)
    converged = run_experiment(cfg, data)
    for r in stopped.records:
        assert r["error"] is None
        assert r["target_head_grad"] > EVAL_TOL
        assert r["private_head_grad"] > EVAL_TOL
    for r in converged.records:
        assert r["target_head_grad"] <= EVAL_TOL
        assert r["private_head_grad"] <= EVAL_TOL
    for report in (stopped, converged):
        assert all(set(r) == _PAYLOAD_FIELDS
                   for r in report.scientific_payload())


def test_each_finished_cell_logs_one_record(caplog):
    data = _small_data()
    single_target = Dataset(data.X, data.y, data.subject_ids,
                            np.ones(data.n_samples, dtype=np.int64))
    cfg = _fast_config(filters=("raw", "pca"), dims=(2,),
                       epsilon_inverses=(0.0, 1.0), chain="pre", trials=1)
    with caplog.at_level(logging.INFO, logger="privfilter.harness"):
        report = run_experiment(cfg, data)
        failed = run_experiment(replace(cfg, filters=("pca",)), single_target)
        # raw runs once per noise level beside pca's two dims: 2 * (1 + 2) cells
        wide = run_experiment(replace(cfg, dims=(1, 2)), data)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "privfilter.harness"]
    assert all(r.levelno == logging.INFO for r in caplog.records)
    records = report.records + failed.records + wide.records
    assert len(messages) == len(records) == 12
    for message, record in zip(messages, records):
        assert (f"filter={record['filter']} dim={record['dim']} "
                f"eps_inv={record['epsilon_inverse']:g} "
                f"trial={record['trial']} "
                f"wall={record['wall_time_s']:.3f}s ") in message
        assert message.endswith(f"error={record['error']}")
    assert messages[0].startswith("cell 1/4 ") and messages[3].startswith("cell 4/4 ")
    assert "error=DataError" in messages[5]
    assert [m.split(" ")[1] for m in messages[6:]] == [f"{i}/6" for i in range(1, 7)]
    assert [(r["filter"], r["dim"]) for r in wide.records] == [
        ("raw", data.dim)] * 2 + [("pca", 1)] * 2 + [("pca", 2)] * 2
    # the log is a side channel: the payload carries no trace of it
    assert report.scientific_payload() == run_experiment(cfg, data).scientific_payload()


_TRAIN_FIELDS = ("train_stop_reason", "train_iterations",
                 "train_objective_calls", "train_inner_unconverged")


@pytest.mark.parametrize("chain, einvs", [("pre", (0.0, 1.0)),
                                          ("post", (0.0, 1.0)),
                                          ("none", (0.0,))])
def test_minimax_cells_record_their_training_summary(caplog, chain, einvs):
    data = _small_data()
    cfg = _fast_config(filters=("minimax-linear", "pca"),
                       epsilon_inverses=einvs, chain=chain, trials=1)
    log = []
    with caplog.at_level(logging.INFO, logger="privfilter.harness"):
        report = run_experiment(cfg, data, training_log=log)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "privfilter.harness"]
    minimax = [r for r in report.records if r["filter"] == "minimax-linear"]
    # a pre or none chain fits one filter for all noise levels, a post
    # chain one per level; each cell names the fit behind its filter
    assert len(log) == (len(einvs) if chain == "post" else 1)
    fits = log if chain == "post" else log * len(einvs)
    for record, fit in zip(minimax, fits):
        assert record["train_stop_reason"] == fit.stop_reason
        assert record["train_iterations"] == fit.iterations
        assert record["train_objective_calls"] == fit.objective_calls
        assert record["train_inner_unconverged"] == fit.inner_unconverged
    for record, message in zip(report.records, messages):
        assert (f"stop={record['train_stop_reason']} "
                f"iters={record['train_iterations']} "
                f"calls={record['train_objective_calls']} "
                f"unconverged={record['train_inner_unconverged']} "
                f"error=") in message
        if record["filter"] == "pca":
            assert all(record[k] is None for k in _TRAIN_FIELDS)
        else:
            assert record["train_objective_calls"] > record["train_iterations"] > 0
    assert all(set(r) == _PAYLOAD_FIELDS for r in report.scientific_payload())


def test_failed_minimax_fit_leaves_the_training_summary_empty(monkeypatch):
    from privfilter import harness, heads

    def broken(*args, **kwargs):
        raise FloatingPointError("no fit")

    monkeypatch.setattr(harness, "train_minimax", broken)
    report = run_experiment(_fast_config(filters=("minimax-linear",),
                                         trials=1), _small_data())
    (record,) = report.records
    assert record["error"] == "FloatingPointError: no fit"
    assert all(record[k] is None for k in _TRAIN_FIELDS)


@pytest.mark.parametrize("chain, einvs", [("pre", (0.0, 0.5, 1.0)),
                                          ("none", (0.0,))])
def test_a_failed_filter_fit_runs_once_per_filter(monkeypatch, chain, einvs):
    attempts = []

    def broken(*args, **kwargs):
        attempts.append(args)
        raise FloatingPointError("no fit")

    monkeypatch.setattr(harness, "train_minimax", broken)
    cfg = _fast_config(filters=("minimax-linear", "pca"), dims=(2, 3),
                       epsilon_inverses=einvs, chain=chain, trials=2)
    log = ["earlier fit"]
    report = run_experiment(cfg, _small_data(), training_log=log)
    # one attempt per (filter, dim, trial), none repeated by later cells
    assert len(attempts) == 2 * 2
    assert log == ["earlier fit"]
    assert len(report.records) == 2 * 2 * 2 * len(einvs)
    for record in report.records:
        assert record["wall_time_s"] >= 0.0
        if record["filter"] == "pca":
            assert record["error"] is None
        else:
            assert record["error"] == "FloatingPointError: no fit"
            assert record["target_accuracy"] is None
            assert all(record[k] is None for k in _TRAIN_FIELDS)


def test_a_failed_split_bound_runs_once_per_trial(monkeypatch):
    attempts = []

    def broken(*args, **kwargs):
        attempts.append(args)
        raise FloatingPointError("no bound")

    monkeypatch.setattr(harness, "bound", broken)
    cfg = _fast_config(filters=("pca", "minimax-linear"), dims=(2, 3),
                       epsilon_inverses=(0.0, 0.5, 1.0), chain="post",
                       trials=2)
    log = []
    report = run_experiment(cfg, _small_data(), training_log=log)
    assert len(attempts) == 2
    assert log == []
    assert len(report.records) == 24
    for record in report.records:
        assert record["error"] == "FloatingPointError: no bound"
        assert record["wall_time_s"] >= 0.0
        assert record["bound_scale"] is None


def _degenerate_config(task):
    from privfilter.minimax_opt import (TaskSpec, TradeoffConfig,
                                        least_squares_tradeoff)
    tradeoff = {
        "softmax": classification_tradeoff(2.0, 1e-4, max_iter=10),
        "least_squares": least_squares_tradeoff(2.0, 1e-3, max_iter=10),
        "reconstruction": TradeoffConfig(
            1.0, ((TaskSpec("reconstruction", "y", 1e-3), 1.0),),
            ((TaskSpec("softmax", "z", 1e-4), 1.0),), max_iter=10),
    }[task]
    return _fast_config(tradeoff=tradeoff, mlp_hidden=(5, 4),
                        pretrain_epochs=3)


def _kinds_for(task):
    # the closed-form filters do not depend on the tradeoff's heads
    if task == "softmax":
        return [k for k in FILTER_CHOICES if k != "raw"]
    return ["minimax-linear", "minimax-mlp"]


def _check_fitted(kind, filt, report, data, d):
    G = apply_filter(filt, data.X)
    assert G.shape == (data.n_samples, d) and np.isfinite(G).all()
    if report is not None:
        objectives = [r.objective for r in report.records]
        assert all(b < a for a, b in zip(objectives, objectives[1:]))
        assert report.inner_unconverged == 0
    if kind in ("pca", "ppls"):
        U = filt.as_matrix()
        np.testing.assert_allclose(U.T @ U, np.eye(d), atol=1e-10)


@pytest.mark.parametrize("task", ["softmax", "least_squares", "reconstruction"])
def test_filters_fit_with_a_class_missing_from_the_training_split(task):
    data = _small_data(per_subject=20)
    train, _ = split_per_subject(data, 0.8, seed=0)
    # class 2 of 3 lost every row, so its one-hot column and head are empty
    y = train.y.copy()
    y[y == 2] = 3
    train = Dataset(train.X, y, train.subject_ids, train.z)
    cfg = _degenerate_config(task)
    for kind in _kinds_for(task):
        filt, report = fit_filter(kind, train, 2, cfg, derive_rng(0, 1, 0))
        _check_fitted(kind, filt, report, train, 2)


@pytest.mark.parametrize("task", ["softmax", "least_squares", "reconstruction"])
def test_filters_fit_with_a_constant_feature(task):
    base = _small_data(per_subject=20)
    X = base.X.copy()
    X[:, 3] = 4.0
    data = Dataset(X, base.y, base.subject_ids, base.z)
    cfg = _degenerate_config(task)
    for kind in _kinds_for(task):
        filt, report = fit_filter(kind, data, 2, cfg, derive_rng(0, 1, 0))
        _check_fitted(kind, filt, report, data, 2)
        if kind == "pca":
            # a feature without variance gets no weight in any component
            assert np.abs(filt.as_matrix()[3]).max() <= 1e-12


@pytest.mark.parametrize("task", ["softmax", "least_squares", "reconstruction"])
def test_filters_fit_at_full_dimension(task):
    data = _small_data(per_subject=20)
    cfg = _degenerate_config(task)
    for kind in _kinds_for(task):
        filt, report = fit_filter(kind, data, data.dim, cfg, derive_rng(0, 1, 0))
        _check_fitted(kind, filt, report, data, data.dim)
        if filt.kind == FilterKind.LINEAR:
            assert np.linalg.matrix_rank(filt.as_matrix()) == data.dim


@pytest.mark.parametrize("task", ["softmax", "least_squares", "reconstruction"])
def test_filters_with_more_outputs_than_samples(task):
    # N = 4 rows, d = 5 outputs of D = 6 features: every filter fits, the
    # minimax ones through ridge heads whose normal equations stay
    # nonsingular
    rng = np.random.default_rng(40)
    y = np.array([1, 2, 3, 1])
    data = Dataset(rng.standard_normal((4, 6)), y, y, np.array([1, 2, 1, 2]))
    cfg = _degenerate_config(task)
    for kind in _kinds_for(task):
        filt, report = fit_filter(kind, data, 5, cfg, derive_rng(0, 1, 0))
        _check_fitted(kind, filt, report, data, 5)
