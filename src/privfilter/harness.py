"""Desk-scale experiment harness.

Runs the full protocol over a grid of (filter kind, output dim,
epsilon_inverse, trial): split per subject, fit the filter on the
training half only, push both halves through the release chain, train
fresh softmax evaluation heads for the target task (z) and the private
task (y) on the released training features, and score both on the test
half.  Larger epsilon_inverse means more noise; epsilon_inverse = 0 is
the no-noise limit.

Evaluation heads are fit with an appended constant feature, giving the
attack model an intercept even though heads themselves are bias-free;
filters never see that column.

Per-cell failures are recorded in the cell's record and the run
continues.  All randomness is derived from the master seed and the cell
indices, so any cell is reproducible in isolation and the whole report is
deterministic; recorded wall times are the only non-deterministic field.
Each record also keeps the risk-gradient norm of both evaluation heads
(``target_head_grad``, ``private_head_grad``): above ``eval_tol``, the
head stopped at ``eval_max_iter`` short of the best-response attack.
These solver diagnostics and the wall time stay out of the scientific
payload.

Random streams (roles): 0 splits, keyed (trial); 1 filter fitting, keyed
(filter, dim, trial) plus the noise index for post chains since those
train on perturbed data; 2 release noise, keyed (filter, dim, noise,
trial), drawing the training rows before the test rows.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import fit_pca, fit_ppls, fit_rand
from .closed_form import build_scatters, privacy_lds
from .data import Dataset, split_per_subject
from .dp_mech import (BoundKind, NoiseConfig, bound, bound_scale_from_norms,
                      sample_noise)
from .errors import DataError, ShapeError
from .filters import (DEFAULT_HIDDEN, FilterKind, apply_filter,
                      identity_filter, init_filter, linear_filter,
                      pretrain_autoencoder)
from .heads import accuracy, fit_softmax, one_hot, softmax_risk
from .minimax_opt import TradeoffConfig, train_minimax

SCHEMA_VERSION = 1
FILTER_CHOICES = ("raw", "rand", "pca", "ppls", "minimax-linear",
                  "minimax-mlp", "lds-init")
CHAIN_CHOICES = ("none", "pre", "post")

# Record fields left out of EvalReport.scientific_payload()
_RUN_FIELDS = ("target_head_grad", "private_head_grad", "wall_time_s")

_ROLE_SPLIT = 0
_ROLE_FILTER = 1
_ROLE_NOISE = 2


def derive_rng(master_seed, *key) -> np.random.Generator:
    """Deterministic per-cell stream from the master seed and index key."""
    entropy = [int(master_seed)] + [int(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition plus every knob the protocol needs."""

    filters: tuple = ("minimax-linear", "pca")
    dims: tuple = (5,)
    epsilon_inverses: tuple = (0.0,)
    chain: str = "none"
    bound_kind: str = "clip"
    bound_scale: float | None = None  # None: reciprocal 95th-percentile rule
    sensitivity: float = 2.0
    trials: int = 10
    train_fraction: float = 0.8
    master_seed: int = 0
    tradeoff: TradeoffConfig = TradeoffConfig()
    lds_init: bool = False
    mlp_hidden: tuple = DEFAULT_HIDDEN
    pretrain_epochs: int = 0
    pretrain_noise: float = 0.1
    ppls_lambda: float = 1.0
    eval_reg_lambda: float = 1e-6
    eval_tol: float = 1e-6
    eval_max_iter: int = 300

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "epsilon_inverses",
                           tuple(float(e) for e in self.epsilon_inverses))
        object.__setattr__(self, "mlp_hidden", tuple(self.mlp_hidden))
        for kind in self.filters:
            if kind not in FILTER_CHOICES:
                raise DataError(f"unknown filter {kind!r}; choose from {FILTER_CHOICES}")
        if not self.filters or not self.dims or not self.epsilon_inverses:
            raise DataError("filters, dims, and epsilon_inverses must be non-empty")
        if any(d < 1 for d in self.dims):
            raise ShapeError("dims must be positive")
        if any(e < 0 for e in self.epsilon_inverses):
            raise DataError("epsilon_inverses must be non-negative")
        if self.chain not in CHAIN_CHOICES:
            raise DataError(f"chain must be one of {CHAIN_CHOICES}")
        BoundKind(self.bound_kind)
        if self.bound_scale is not None and self.bound_scale <= 0:
            raise DataError("bound_scale must be positive (or None for automatic)")
        if self.trials < 1:
            raise DataError("trials must be at least 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError("train_fraction must lie strictly between 0 and 1")


def fit_filter(kind: str, train: Dataset, d: int, cfg: ExperimentConfig, rng):
    """Fit one filter on the training half only.

    Returns (FilterState, TrainReport or None).  ``rng`` seeds whatever
    randomness the kind uses (random projections, minimax inits).
    """
    if kind not in FILTER_CHOICES:
        raise DataError(f"unknown filter {kind!r}")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if kind == "raw":
        return identity_filter(train.dim), None
    if not 1 <= d <= train.dim:
        raise ShapeError(f"filter dim must lie in 1..{train.dim}, got {d}")
    if kind == "rand":
        return fit_rand(train.dim, d, rng), None
    if kind == "pca":
        return fit_pca(train.X, d), None
    if train.z is None:
        raise DataError(f"filter {kind!r} needs target labels z")
    if kind == "ppls":
        y_hot = one_hot(train.y, train.num_private_classes)
        z_hot = one_hot(train.z, train.num_target_classes)
        return fit_ppls(train.X, y_hot, z_hot, cfg.ppls_lambda, d), None
    if kind == "lds-init":
        scatters = build_scatters(train.X, train.y, train.z)
        return linear_filter(privacy_lds(scatters, d)), None
    if kind == "minimax-linear":
        if cfg.lds_init:
            scatters = build_scatters(train.X, train.y, train.z)
            init = linear_filter(privacy_lds(scatters, d))
        else:
            init = init_filter(FilterKind.LINEAR, train.dim, d, seed=rng)
        report = train_minimax(init, train, cfg.tradeoff)
        return report.final_state, report
    # minimax-mlp
    if cfg.pretrain_epochs > 0:
        init = pretrain_autoencoder(train.X, d, cfg.mlp_hidden,
                                    cfg.pretrain_noise, cfg.pretrain_epochs,
                                    seed=rng)
    else:
        init = init_filter(FilterKind.TWO_LAYER_SIGMOID, train.dim, d,
                           cfg.mlp_hidden, seed=rng)
    report = train_minimax(init, train, cfg.tradeoff)
    return report.final_state, report


def _released_features(filt, train, test, cfg, einv, noise_rng):
    """Push both halves through the configured release chain."""
    g_train = apply_filter(filt, train.X)
    g_test = apply_filter(filt, test.X)
    if cfg.chain == "none":
        return g_train, g_test
    scale = cfg.bound_scale
    if scale is None:
        scale = bound_scale_from_norms(np.linalg.norm(g_train, axis=1))
    noise = NoiseConfig.from_epsilon_inverse(einv, sensitivity=cfg.sensitivity,
                                             bound_kind=cfg.bound_kind,
                                             bound_scale=scale)
    released_train = bound(noise.bound_kind, scale, g_train) + sample_noise(
        noise, filt.output_dim, rng=noise_rng, size=g_train.shape[0])
    released_test = bound(noise.bound_kind, scale, g_test) + sample_noise(
        noise, filt.output_dim, rng=noise_rng, size=g_test.shape[0])
    return released_train, released_test


def _perturb_raw(train, test, cfg, einv, noise_rng):
    """Post chain: bound and perturb the raw features of both halves."""
    scale = cfg.bound_scale
    if scale is None:
        scale = bound_scale_from_norms(np.linalg.norm(train.X, axis=1))
    noise = NoiseConfig.from_epsilon_inverse(einv, sensitivity=cfg.sensitivity,
                                             bound_kind=cfg.bound_kind,
                                             bound_scale=scale)
    released_train = bound(noise.bound_kind, scale, train.X) + sample_noise(
        noise, train.dim, rng=noise_rng, size=train.n_samples)
    released_test = bound(noise.bound_kind, scale, test.X) + sample_noise(
        noise, test.dim, rng=noise_rng, size=test.n_samples)
    return replace(train, X=released_train), replace(test, X=released_test)


def _with_intercept(G):
    return np.hstack([G, np.ones((G.shape[0], 1))])


def _evaluate_cell(g_train, g_test, train, test, data, cfg):
    # Heads have no intercept of their own; give the evaluation heads one
    # by appending a constant feature so the attack model is a full
    # logistic regression (filters never see this column).
    g_train = _with_intercept(g_train)
    g_test = _with_intercept(g_test)
    num_target = data.num_target_classes
    num_private = data.num_private_classes
    target_head = fit_softmax(g_train, train.z, num_target,
                              cfg.eval_reg_lambda, tol=cfg.eval_tol,
                              max_iter=cfg.eval_max_iter)
    private_head = fit_softmax(g_train, train.y, num_private,
                               cfg.eval_reg_lambda, tol=cfg.eval_tol,
                               max_iter=cfg.eval_max_iter)
    target_acc = accuracy(target_head, g_test, test.z)
    private_acc = accuracy(private_head, g_test, test.y)
    return {
        "target_accuracy": target_acc,
        "private_accuracy": private_acc,
        "tradeoff": target_acc - private_acc,
        "chance_target": 1.0 / num_target,
        "chance_private": 1.0 / num_private,
        "target_head_grad": _head_grad(target_head, g_train, train.z),
        "private_head_grad": _head_grad(private_head, g_train, train.y),
    }


def _head_grad(head, G, labels):
    """Norm of the head's risk gradient on the features it was fit on."""
    return float(np.linalg.norm(softmax_risk(head, G, labels)[1]))


@dataclass(frozen=True)
class EvalReport:
    """One record per grid cell, JSON-friendly."""

    records: tuple

    def scientific_payload(self):
        """Records minus wall times and evaluation-solver diagnostics, the
        part that must be reproducible."""
        return [{k: v for k, v in record.items() if k not in _RUN_FIELDS}
                for record in self.records]

    def summary(self):
        """Mean and sample std of the metrics per (filter, dim, noise) cell."""
        groups = {}
        order = []
        for record in self.records:
            key = (record["filter"], record["dim"], record["epsilon_inverse"])
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(record)
        rows = []
        for key in order:
            cells = groups[key]
            good = [c for c in cells if c["error"] is None]

            def stats(name):
                values = np.array([c[name] for c in good])
                if values.size == 0:
                    return None, None
                std = float(values.std(ddof=1)) if values.size > 1 else 0.0
                return float(values.mean()), std

            target_mean, target_std = stats("target_accuracy")
            private_mean, private_std = stats("private_accuracy")
            tradeoff_mean, tradeoff_std = stats("tradeoff")
            rows.append({
                "schema_version": SCHEMA_VERSION,
                "filter": key[0],
                "dim": key[1],
                "epsilon_inverse": key[2],
                "trials": len(cells),
                "errors": len(cells) - len(good),
                "target_accuracy_mean": target_mean,
                "target_accuracy_std": target_std,
                "private_accuracy_mean": private_mean,
                "private_accuracy_std": private_std,
                "tradeoff_mean": tradeoff_mean,
                "tradeoff_std": tradeoff_std,
                "chance_target": cells[0]["chance_target"],
                "chance_private": cells[0]["chance_private"],
            })
        return rows

    def mean_metric(self, filter_kind, name, dim=None, epsilon_inverse=None):
        """Convenience accessor for one averaged metric."""
        values = [r[name] for r in self.records
                  if r["filter"] == filter_kind and r["error"] is None
                  and (dim is None or r["dim"] == dim)
                  and (epsilon_inverse is None
                       or r["epsilon_inverse"] == epsilon_inverse)]
        if not values:
            raise DataError(f"no successful cells for {filter_kind!r}/{name!r}")
        return float(np.mean(values))


def run_experiment(cfg: ExperimentConfig, data: Dataset,
                   training_log=None) -> EvalReport:
    """Run the full grid.  ``training_log`` (a list, optional) collects the
    TrainReport of every minimax fit for convergence inspection."""
    if data.z is None:
        raise DataError("the experiment protocol needs target labels z")
    if any(d > data.dim for d in cfg.dims):
        raise ShapeError("a requested filter dim exceeds the data dimension")
    records = []
    for trial in range(cfg.trials):
        split_rng = derive_rng(cfg.master_seed, _ROLE_SPLIT, trial)
        train, test = split_per_subject(data, cfg.train_fraction, split_rng)
        for fi, kind in enumerate(cfg.filters):
            dims = (data.dim,) if kind == "raw" else cfg.dims
            for di, d in enumerate(dims):
                cached_filter = None
                for ei, einv in enumerate(cfg.epsilon_inverses):
                    start = time.perf_counter()
                    record = {
                        "schema_version": SCHEMA_VERSION,
                        "filter": kind,
                        "dim": int(d),
                        "epsilon_inverse": float(einv),
                        "trial": trial,
                        "target_accuracy": None,
                        "private_accuracy": None,
                        "tradeoff": None,
                        "chance_target": 1.0 / data.num_target_classes,
                        "chance_private": 1.0 / data.num_private_classes,
                        "error": None,
                        "target_head_grad": None,
                        "private_head_grad": None,
                    }
                    try:
                        noise_rng = derive_rng(cfg.master_seed, _ROLE_NOISE,
                                               fi, di, ei, trial)
                        if cfg.chain == "post":
                            train_rel, test_rel = _perturb_raw(
                                train, test, cfg, einv, noise_rng)
                            filt, report = fit_filter(
                                kind, train_rel, d, cfg,
                                derive_rng(cfg.master_seed, _ROLE_FILTER,
                                           fi, di, ei, trial))
                            if training_log is not None and report is not None:
                                training_log.append(report)
                            g_train = apply_filter(filt, train_rel.X)
                            g_test = apply_filter(filt, test_rel.X)
                        else:
                            if cached_filter is None:
                                filt, report = fit_filter(
                                    kind, train, d, cfg,
                                    derive_rng(cfg.master_seed, _ROLE_FILTER,
                                               fi, di, trial))
                                if training_log is not None and report is not None:
                                    training_log.append(report)
                                cached_filter = filt
                            g_train, g_test = _released_features(
                                cached_filter, train, test, cfg, einv, noise_rng)
                        record.update(_evaluate_cell(g_train, g_test, train,
                                                     test, data, cfg))
                    except Exception as exc:  # recorded, run continues
                        record["error"] = f"{type(exc).__name__}: {exc}"
                    record["wall_time_s"] = time.perf_counter() - start
                    records.append(record)
    return EvalReport(tuple(records))


def export_results(report: EvalReport, path_prefix) -> None:
    """Write per-cell JSON lines and a CSV summary next to each other."""
    if not report.records:
        raise DataError("refusing to export an empty report")
    path_prefix = str(path_prefix)
    with open(path_prefix + ".jsonl", "w", encoding="utf-8") as fh:
        for record in report.records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
    rows = report.summary()
    with open(path_prefix + ".csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def load_results(path) -> EvalReport:
    """Round-trip loader for the JSON-lines cell records."""
    path = str(path)
    if not path.endswith(".jsonl"):
        path = path + ".jsonl"
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not records:
        raise DataError(f"{path}: no records")
    return EvalReport(tuple(records))
