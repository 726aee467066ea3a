from dataclasses import replace

import numpy as np
import pytest

from privfilter.data import Dataset, gen_synthetic, split_per_subject
from privfilter.errors import DataError, ShapeError
from privfilter.filters import FilterKind, apply_filter
from privfilter.harness import (CHAIN_CHOICES, FILTER_CHOICES,
                                ExperimentConfig, derive_rng, export_results,
                                fit_filter, load_results, run_experiment)
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
        eval_max_iter=120,
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
    with pytest.raises(ShapeError):
        ExperimentConfig(dims=(0,))
    with pytest.raises(DataError):
        ExperimentConfig(epsilon_inverses=(-0.5,))
    with pytest.raises(DataError):
        ExperimentConfig(chain="mid")
    with pytest.raises(ValueError):
        ExperimentConfig(bound_kind="fold")
    with pytest.raises(DataError):
        ExperimentConfig(bound_scale=0.0)
    with pytest.raises(DataError):
        ExperimentConfig(trials=0)
    with pytest.raises(DataError):
        ExperimentConfig(train_fraction=1.0)
    assert set(ExperimentConfig().filters) <= set(FILTER_CHOICES)
    assert ExperimentConfig().chain in CHAIN_CHOICES


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
    clean = report.mean_metric("raw", "private_accuracy", epsilon_inverse=0.0)
    noisy = report.mean_metric("raw", "private_accuracy", epsilon_inverse=50.0)
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
        report.mean_metric("pca", "target_accuracy")


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
    direct = report.mean_metric("pca", "target_accuracy", dim=2,
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


_PAYLOAD_FIELDS = {"schema_version", "filter", "dim", "epsilon_inverse",
                   "trial", "target_accuracy", "private_accuracy", "tradeoff",
                   "chance_target", "chance_private", "error"}


def test_evaluation_head_convergence_is_recorded_outside_the_payload():
    data = _small_data()
    cfg = _fast_config(filters=("raw", "pca"), epsilon_inverses=(0.0, 1.0),
                       chain="pre", trials=1)
    stopped = run_experiment(replace(cfg, eval_max_iter=1), data)
    converged = run_experiment(replace(cfg, eval_max_iter=1000), data)
    for r in stopped.records:
        assert r["error"] is None
        assert r["target_head_grad"] > cfg.eval_tol
        assert r["private_head_grad"] > cfg.eval_tol
    for r in converged.records:
        assert r["target_head_grad"] <= cfg.eval_tol
        assert r["private_head_grad"] <= cfg.eval_tol
    for report in (stopped, converged):
        assert all(set(r) == _PAYLOAD_FIELDS
                   for r in report.scientific_payload())
