"""Desk-scale experiment harness.

Runs the full protocol over a grid of (filter kind, output dim,
epsilon_inverse, trial): split per subject (``_split``), fit the filter
on the training half only (``fit_filter``), release both halves, train
fresh softmax evaluation heads for the target task (z) and the private
task (y) on the released training features, and score both on the test
half (``_score_heads``).  Larger epsilon_inverse means more noise;
epsilon_inverse = 0 is the no-noise limit.  ``train_filter`` and
``evaluate_filter`` run the same code for trial 0 of a sweep of one
filter, and the CLI's ``train`` and ``eval`` call them, so a saved
filter and its scores are those of that sweep.

The release bounds rows into the unit ball and adds noise in one of two
orders: the "pre" chain bounds and perturbs the filter outputs (noise
dimension d); the "post" chain bounds and perturbs the raw features and
fits and applies the filter afterwards (noise dimension D).  Bounded
rows lie in the unit ball, so any two differ by at most 2 and the noise
uses the mechanism's sensitivity S = 2 (``dp_mech.DEFAULT_SENSITIVITY``).
Chain "none" releases the filter outputs as they are, so its configs
accept only epsilon_inverse = 0 and no ``bound_kind`` or ``bound_scale``.
A sweep runs the work its cells share once, in a stage before them
(``_stage``), whose halves hold as ``X`` the rows the cells release:
the post chain bounds the raw split once per trial, and these replace
the raw rows; the pre and none chains fit and apply each filter once
per (filter, dim, trial), and the pre chain bounds its outputs.  The
bounded rows are read-only, and each cell only draws and adds its noise
(none at epsilon_inverse = 0, where the rows pass through as they are).

Evaluation heads are softmax heads with ridge ``EVAL_REG_LAMBDA``, fit
to gradient norm ``EVAL_TOL`` in at most ``EVAL_MAX_ITER`` Newton steps
with an appended constant feature, giving the attack model an intercept
even though heads themselves are bias-free; filters never see that
column.

Each cell runs in its own call (``_run_cell``), so none of its arrays
outlives it, and each array dies as soon as the next stage has been
built from it: the release adds the bounded rows in place into its
noise, the post chain's released raw rows die once the fitted filter
has been applied to them, and the bare filter outputs die once the
intercept column is appended.  The evaluation features are stored
transposed, one (d + 1, n) buffer per half that both heads, the solver
and the gradient diagnostics read without a transposed copy.  The
largest head solve of a cell thus runs next to the split, the bounded
rows it shares with other cells and its own two evaluation matrices.

Failures are recorded in the cell's record and the run continues; a
failed stage is not retried, and each of its cells records its error.
All randomness is derived from the master seed and the cell indices, so
any cell is reproducible in isolation and the whole report is
deterministic; recorded wall times are the only non-deterministic field.
Each record also keeps the risk-gradient norm of both evaluation heads
(``target_head_grad``, ``private_head_grad``): above ``EVAL_TOL``, the
head stopped at ``EVAL_MAX_ITER`` Newton steps, or where its line search
made no progress, short of the best-response attack.  A
minimax cell records how the fit behind its filter ended
(``train_stop_reason``, ``train_iterations``, ``train_objective_calls``
and ``train_inner_unconverged``, all None for other filters), and every
cell the ``bound_scale`` its release used and its ``clip_frac``, the
share of the bounded rows of both halves that lay beyond the clip scale
(both None on chain "none"; ``clip_frac`` None for other bounds).  These
diagnostics and the wall time stay out of the scientific payload.

Importing the harness loads no scipy module, and no sweep loads
``scipy.special`` or ``scipy.linalg``.  An MLP filter loads the compiled
module of scipy's ``expit`` on its first forward pass
(``filters._affine``), and an LDS filter or ``lds_init`` that of LAPACK
``dsygvd`` on its first ``baselines.privacy_lds`` call, each on its own
(``kernels.scipy_kernel``); sweeps over the other linear filters and the
baselines load no scipy module.

Random streams (roles): ``ROLE_SPLIT`` = 0 splits, keyed (trial);
``ROLE_FILTER`` = 1 filter fitting, keyed (filter, dim, trial) plus the
noise index for post chains since those train on perturbed data;
``ROLE_NOISE`` = 2 release noise, keyed (filter, dim, noise, trial),
drawing the training rows before the test rows.  No other module keys them.
"""

from __future__ import annotations

import csv
import logging
import time
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .baselines import (build_scatters, fit_pca, fit_ppls, fit_rand,
                        privacy_lds)
from .data import Dataset, split_per_subject
from .dp_mech import BoundKind, bound, bound_scale_from_norms, sample_noise
from .errors import DataError, Setting, check_dim, check_settings, setting
from .filters import (DEFAULT_HIDDEN, FilterKind, apply_filter,
                      identity_filter, init_filter, linear_filter,
                      pretrain_autoencoder)
from .heads import accuracy, fit_softmax, one_hot
from .minimax_opt import TradeoffConfig, train_minimax
from .records import read_jsonl, write_jsonl

SCHEMA_VERSION = 1
FILTER_CHOICES = ("raw", "rand", "pca", "ppls", "minimax-linear",
                  "minimax-mlp", "lds-init")
CHAIN_CHOICES = ("none", "pre", "post")
_BOUND_KINDS = tuple(kind.value for kind in BoundKind)
_FILTER_KIND = Setting(str, choices=FILTER_CHOICES)

# How a cell's minimax fit ended: the TrainReport attributes named after
# the "train_" prefix (None for filters without one)
_TRAIN_FIELDS = ("train_stop_reason", "train_iterations",
                 "train_objective_calls", "train_inner_unconverged")
# The bound scale a cell's release used and the share of its rows clipped
# (``_bound_halves``; None on chain "none")
_BOUND_FIELDS = ("bound_scale", "clip_frac")
# Record fields left out of EvalReport.scientific_payload()
_RUN_FIELDS = ("target_head_grad", "private_head_grad", "wall_time_s",
               *_TRAIN_FIELDS, *_BOUND_FIELDS)
# The scores of a cell, averaged over trials by EvalReport.summary()
_SCORE_FIELDS = ("target_accuracy", "private_accuracy", "tradeoff")
# What EvalReport.summary() reads of each record, so what a loaded one needs
_SUMMARY_FIELDS = ("filter", "dim", "epsilon_inverse", "error",
                   "chance_target", "chance_private", *_SCORE_FIELDS)
# The start of every cell record: its scores and run fields stay None until
# the cell has run, and where it fails (``wall_time_s`` is always set)
_UNSCORED = dict.fromkeys(_SCORE_FIELDS + _RUN_FIELDS)

EVAL_REG_LAMBDA = 1e-6  # ridge of the evaluation heads
EVAL_TOL = 1e-6  # gradient-norm tolerance of the evaluation heads
EVAL_MAX_ITER = 300  # Newton steps per evaluation head

ROLE_SPLIT = 0
ROLE_FILTER = 1
ROLE_NOISE = 2

_log = logging.getLogger(__name__)


def derive_rng(master_seed, *key) -> np.random.Generator:
    """Deterministic per-cell stream from the master seed and index key."""
    entropy = [int(master_seed)] + [int(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition plus every knob the protocol needs."""

    filters: tuple = setting(("minimax-linear", "pca"), str,
                             choices=FILTER_CHOICES)
    dims: tuple = setting((5,), int, 1)
    epsilon_inverses: tuple = setting((0.0,), float, 0.0)
    chain: str = setting("none", str, choices=CHAIN_CHOICES)
    # None: "clip" under chain "pre"/"post"
    bound_kind: str | None = setting(None, str, choices=_BOUND_KINDS)
    # None: reciprocal 95th-percentile rule
    bound_scale: float | None = setting(None, float, 0.0, exclusive=True)
    trials: int = setting(10, int, 1)
    train_fraction: float = setting(0.8, float, 0.0, maximum=1.0,
                                    exclusive=True)
    master_seed: int = setting(0, int, 0)
    tradeoff: TradeoffConfig = TradeoffConfig()
    lds_init: bool = setting(False, bool)
    mlp_hidden: tuple = setting(DEFAULT_HIDDEN, int, 1)
    pretrain_epochs: int = setting(0, int, 0)
    ppls_lambda: float = setting(1.0, float, 0.0)

    def __post_init__(self):
        check_settings(self)
        if not isinstance(self.tradeoff, TradeoffConfig):
            raise DataError("tradeoff must be a TradeoffConfig, got "
                            f"{self.tradeoff!r}")
        for name in ("filters", "dims", "epsilon_inverses"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise DataError(f"{name} repeats a value: {values}")
        if len(self.mlp_hidden) != 2:
            raise DataError(f"mlp_hidden must be two positive ints, got {self.mlp_hidden}")
        if self.chain == "none" and any(self.epsilon_inverses):
            raise DataError("chain 'none' releases no noise; a nonzero "
                            "epsilon_inverse needs chain 'pre' or 'post'")
        for name in ("bound_kind", "bound_scale"):
            if self.chain == "none" and getattr(self, name) is not None:
                raise DataError(f"chain 'none' bounds no rows; a {name} "
                                "needs chain 'pre' or 'post'")
        if self.chain != "none" and self.bound_kind is None:
            object.__setattr__(self, "bound_kind", BoundKind.CLIP.value)


def fit_filter(kind: str, train: Dataset, d: int, cfg: ExperimentConfig, rng):
    """Fit one filter on the training half only.

    Returns (FilterState, TrainReport or None).  ``rng`` seeds whatever
    randomness the kind uses (random projections, minimax inits).
    """
    kind = _FILTER_KIND.check("kind", kind)
    rng = np.random.default_rng(rng)
    if kind == "raw":
        return identity_filter(train.dim), None
    d = check_dim("d", d, train.dim)
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
    if kind == "lds-init" or (kind == "minimax-linear" and cfg.lds_init):
        init = linear_filter(privacy_lds(
            build_scatters(train.X, train.y, train.z), d))
        if kind == "lds-init":
            return init, None
    elif kind == "minimax-linear":
        init = init_filter(FilterKind.LINEAR, train.dim, d, seed=rng)
    else:  # minimax-mlp; zero epochs return the seeded init
        init = pretrain_autoencoder(train.X, d, cfg.mlp_hidden,
                                    epochs=cfg.pretrain_epochs, seed=rng)
    report = train_minimax(init, train, cfg.tradeoff)
    return report.final_state, report


def _split(data, cfg, trial):
    """The per-subject (train, test) halves of ``trial``."""
    return split_per_subject(data, cfg.train_fraction,
                             derive_rng(cfg.master_seed, ROLE_SPLIT, trial))


def _bound_halves(train_rows, test_rows, cfg):
    """Both halves bounded into the unit ball, plus their bound fields.

    Returns the read-only bounded (train, test) rows, shared by every
    cell that releases them, and a dict with the ``bound_scale`` used and
    the ``clip_frac``: the share of rows of both halves beyond the clip
    scale, which ``clip`` maps to the unit sphere instead of scaling by
    1/scale (None for ``squash`` and ``normalize``, which have no linear
    region).
    """
    norms = np.linalg.norm(train_rows, axis=1)
    scale = cfg.bound_scale
    if scale is None:
        scale = bound_scale_from_norms(norms)
    bounded = []
    for rows in (train_rows, test_rows):
        out = bound(cfg.bound_kind, scale, rows)
        out.flags.writeable = False
        bounded.append(out)
    clip_frac = None
    if BoundKind(cfg.bound_kind) is BoundKind.CLIP:
        clipped = int(np.count_nonzero(norms > scale)) + int(np.count_nonzero(
            np.linalg.norm(test_rows, axis=1) > scale))
        clip_frac = clipped / (len(train_rows) + len(test_rows))
    return tuple(bounded), {"bound_scale": float(scale),
                            "clip_frac": clip_frac}


def _add_noise(rows, einv, noise_rng):
    """The (train, test) ``rows`` plus fresh noise at ``epsilon_inverse =
    einv``, the training rows drawing first.

    Each half's noise array gets its rows added in place; at ``einv = 0``
    no noise is drawn and ``rows`` come back as they are.
    """
    if einv == 0:
        return rows
    released = []
    for half in rows:
        out = sample_noise(einv, half.shape[1], rng=noise_rng,
                           size=half.shape[0])
        out += half
        released.append(out)
    return tuple(released)


def _with_intercept(G):
    """``G`` with a constant column appended.

    Heads have no intercept of their own; the evaluation heads get one
    from this column, so the attack model is a full logistic regression
    (filters never see it).  The result is the (n, d + 1) transpose of a
    C-contiguous (d + 1, n) buffer, the layout the softmax solver
    reads, so no fit makes a transposed copy.
    """
    n, d = G.shape
    out = np.empty((d + 1, n))
    out[:d] = G.T
    out[d] = 1.0
    return out.T


def _score_heads(G_train, G_test, train, test, data):
    """Score released features with fresh softmax attack heads.

    Fits target (z) and private (y) heads on the released training rows
    ``G_train`` (intercept column included) at ``EVAL_REG_LAMBDA``,
    ``EVAL_TOL`` and ``EVAL_MAX_ITER`` and scores them on ``G_test``.
    Returns the accuracies, their difference (``tradeoff``), chance levels
    and the norm of each head's risk gradient in its weights on ``G_train``,
    the one its solver stopped on (``fit_softmax``'s ``final``).
    """
    scores = {}
    for task, field, num_classes in (("target", "z", data.num_target_classes),
                                     ("private", "y", data.num_private_classes)):
        final = []  # the fit's (risk, grad_head, residual)
        head = fit_softmax(G_train, getattr(train, field), num_classes,
                           EVAL_REG_LAMBDA, tol=EVAL_TOL,
                           max_iter=EVAL_MAX_ITER, final=final)
        scores[f"{task}_accuracy"] = accuracy(head, G_test, getattr(test, field))
        scores[f"chance_{task}"] = 1.0 / num_classes
        scores[f"{task}_head_grad"] = float(np.linalg.norm(final[0][1]))
    scores["tradeoff"] = scores["target_accuracy"] - scores["private_accuracy"]
    return scores


@dataclass(frozen=True)
class EvalReport:
    """One record per grid cell, JSON-friendly."""

    records: tuple

    def __post_init__(self):
        for i, record in enumerate(self.records):
            missing = [k for k in _SUMMARY_FIELDS if k not in record]
            if missing:
                raise DataError(f"record {i} has no {', '.join(missing)}")

    def scientific_payload(self):
        """Records minus wall times and evaluation-solver diagnostics, the
        part that must be reproducible."""
        return [{k: v for k, v in record.items() if k not in _RUN_FIELDS}
                for record in self.records]

    def summary(self):
        """Mean and sample std of the scores per (filter, dim, noise) cell,
        in grid order."""
        groups = {}
        for record in self.records:
            key = (record["filter"], record["dim"], record["epsilon_inverse"])
            groups.setdefault(key, []).append(record)
        rows = []
        for (kind, d, einv), cells in groups.items():
            good = [c for c in cells if c["error"] is None]
            row = {"schema_version": SCHEMA_VERSION, "filter": kind, "dim": d,
                   "epsilon_inverse": einv, "trials": len(cells),
                   "errors": len(cells) - len(good)}
            for name in _SCORE_FIELDS:
                values = np.array([c[name] for c in good])
                mean = std = None
                if good:
                    mean = float(values.mean())
                    std = float(values.std(ddof=1)) if len(good) > 1 else 0.0
                row[f"{name}_mean"], row[f"{name}_std"] = mean, std
            rows.append({**row, "chance_target": cells[0]["chance_target"],
                         "chance_private": cells[0]["chance_private"]})
        return rows


_Stage = namedtuple("_Stage", "train test fields")


def _stage(cfg, train, test, filt, fields):
    """The split with, as ``X``, the rows its cells release, and the record
    fields they share (``_BOUND_FIELDS`` and ``fields``, a fit's
    ``_TRAIN_FIELDS``), built once before the cells.  The rows are the
    fitted ``filt``'s outputs, or the raw split when ``filt`` is None (as
    on the post chain), bounded on chains "pre" and "post"."""
    rows = (train.X, test.X)
    if filt is not None:
        rows = tuple(apply_filter(filt, X) for X in rows)
    if cfg.chain != "none":
        rows, bound_fields = _bound_halves(*rows, cfg)
        fields = {**fields, **bound_fields}
    return _Stage(replace(train, X=rows[0]), replace(test, X=rows[1]), fields)


def _fitted_stage(cfg, train, test, kind, d, key, training_log):
    """``_stage`` after, on a pre or none chain, fitting the filter of
    (filter, dim, trial) index ``key``."""
    fitted = (None, {}) if cfg.chain == "post" else _fit_logged(
        kind, d, derive_rng(cfg.master_seed, ROLE_FILTER, *key), train, cfg,
        training_log)
    return _stage(cfg, train, test, *fitted)


def _fit_logged(kind, d, rng, train, cfg, training_log):
    """``fit_filter`` with a minimax fit's TrainReport appended to
    ``training_log``; returns (filter, the fit's ``_TRAIN_FIELDS``)."""
    filt, report = fit_filter(kind, train, d, cfg, rng)
    if report is None:
        return filt, {}
    if training_log is not None:
        training_log.append(report)
    return filt, {k: getattr(report, k.removeprefix("train_"))
                  for k in _TRAIN_FIELDS}


def _run_cell(stage, kind, d, einv, key, data, cfg, training_log):
    """Release, filter and score the cell of ``stage`` at (filter, dim,
    noise, trial) index ``key``; returns its ``_score_heads`` scores and
    the ``_TRAIN_FIELDS`` of a post chain's fit, made here on the released
    rows.  Each array dies as soon as the next step has been built from
    it, and none outlives the cell."""
    fi, di, ei, trial = key
    g_train, g_test = _add_noise((stage.train.X, stage.test.X), einv,
                                 derive_rng(cfg.master_seed, ROLE_NOISE, *key))
    fields = {}
    if cfg.chain == "post":
        filt, fields = _fit_logged(
            kind, d, derive_rng(cfg.master_seed, ROLE_FILTER, fi, di, ei, trial),
            replace(stage.train, X=g_train), cfg, training_log)
        g_train = apply_filter(filt, g_train)
        g_test = apply_filter(filt, g_test)
    G_train = _with_intercept(g_train)
    del g_train
    G_test = _with_intercept(g_test)
    del g_test
    fields.update(_score_heads(G_train, G_test, stage.train, stage.test, data))
    return fields


def _timed(fn, *args):
    """(result, ``"Type: message"`` of what it raised, seconds) of a call."""
    start = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # recorded, run continues
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - start


def run_experiment(cfg: ExperimentConfig, data: Dataset,
                   training_log=None) -> EvalReport:
    """Run the full grid.  ``training_log`` (a list, optional) collects the
    TrainReport of every minimax fit for convergence inspection.  Each
    finished cell logs one INFO record on this module's logger with its
    position in the grid, filter, dim, epsilon_inverse, trial, wall time,
    the ``_TRAIN_FIELDS`` of its minimax fit and error.

    Each stage runs once, before its cells (see the module docstring), and
    the first of them carries the stage's time in its ``wall_time_s``."""
    if data.z is None:
        raise DataError("the experiment protocol needs target labels z")
    for d in cfg.dims:
        check_dim("dims", d, data.dim)
    grid = [(fi, kind, di, d) for fi, kind in enumerate(cfg.filters)
            for di, d in enumerate((data.dim,) if kind == "raw" else cfg.dims)]
    n_cells = cfg.trials * len(cfg.epsilon_inverses) * len(grid)
    records = []
    for trial in range(cfg.trials):
        train, test = _split(data, cfg, trial)
        for fi, kind, di, d in grid:
            if cfg.chain != "post" or fi == di == 0:  # post: once per trial
                stage = None  # the last stage's rows die before the next
                stage, error, stage_s = _timed(
                    _fitted_stage, cfg, train, test, kind, d, (fi, di, trial),
                    training_log)
                if cfg.chain == "post":  # the bounded rows replace them
                    train = test = None
            for ei, einv in enumerate(cfg.epsilon_inverses):
                record = {**_UNSCORED, "schema_version": SCHEMA_VERSION,
                          "filter": kind, "dim": int(d),
                          "epsilon_inverse": float(einv), "trial": trial,
                          "chance_target": 1.0 / data.num_target_classes,
                          "chance_private": 1.0 / data.num_private_classes,
                          "error": error}
                if stage is not None:
                    record.update(stage.fields)
                    fields, record["error"], cell_s = _timed(
                        _run_cell, stage, kind, d, einv, (fi, di, ei, trial),
                        data, cfg, training_log)
                    record.update(fields or {})
                    stage_s += cell_s
                record["wall_time_s"] = stage_s
                stage_s = 0.0  # only a stage's first cell carries its time
                records.append(record)
                _log.info("cell %d/%d filter=%s dim=%d eps_inv=%g trial=%d "
                          "wall=%.3fs stop=%s iters=%s calls=%s "
                          "unconverged=%s error=%s", len(records), n_cells,
                          kind, d, einv, trial, record["wall_time_s"],
                          *(record[k] for k in _TRAIN_FIELDS), record["error"])
    return EvalReport(tuple(records))


def _trial_zero(data, cfg):
    """The trial-0 split, on a chain whose stage holds one fitted filter;
    chain "post" fits one per cell, on that cell's released rows."""
    if cfg.chain == "post":
        raise DataError("chain 'post' fits each cell's filter on its "
                        "released rows; use chain 'pre' or 'none'")
    return _split(data, cfg, 0)


def train_filter(data: Dataset, cfg: ExperimentConfig):
    """The (FilterState, TrainReport or None) that a sweep under ``cfg``
    fits for ``cfg.filters[0]`` at ``cfg.dims[0]`` in trial 0."""
    train, _ = _trial_zero(data, cfg)
    return fit_filter(cfg.filters[0], train, cfg.dims[0], cfg,
                      derive_rng(cfg.master_seed, ROLE_FILTER, 0, 0, 0))


def evaluate_filter(filt, data: Dataset, cfg: ExperimentConfig) -> dict:
    """The fields a sweep of the fitted ``filt`` alone records for trial 0
    at ``cfg.epsilon_inverses[0]``: the ``_score_heads`` scores, and on
    chain "pre" the ``bound_scale`` and ``clip_frac`` of its release.
    Chain "post" raises ``DataError``, since it refits per cell."""
    if data.z is None:
        raise DataError("evaluation needs target labels z (a z column)")
    train, test = _trial_zero(data, cfg)
    stage = _stage(cfg, train, test, filt, {})
    return {**stage.fields, **_run_cell(
        stage, cfg.filters[0], cfg.dims[0], cfg.epsilon_inverses[0],
        (0, 0, 0, 0), data, cfg, None)}


def export_results(report: EvalReport, path_prefix) -> None:
    """Write per-cell JSON lines and a CSV summary; neither if the summary fails."""
    if not report.records:
        raise DataError("refusing to export an empty report")
    rows = report.summary()
    path_prefix = str(path_prefix)
    write_jsonl(path_prefix + ".jsonl", report.records)
    with open(path_prefix + ".csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def load_results(path) -> EvalReport:
    """Round-trip loader for cell records, each holding ``_SUMMARY_FIELDS``."""
    path = str(path)
    if not path.endswith(".jsonl"):
        path = path + ".jsonl"
    records = read_jsonl(path, required=_SUMMARY_FIELDS)
    if not records:
        raise DataError(f"{path}: no records")
    return EvalReport(tuple(records))
