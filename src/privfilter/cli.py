"""Command-line front end.

Subcommands: ``synth`` writes a synthetic CSV, ``diameters`` prints the
subject-distance summary of a dataset, ``train`` fits a single filter and
saves it, ``eval`` scores a saved filter, ``sweep`` runs a full
experiment grid and exports the results, logging each finished cell on
stderr as it goes.  ``train`` and ``eval`` run trial 0 of a sweep with
one filter, one dim and one noise level (``harness.train_filter`` and
``harness.evaluate_filter``): ``train`` saves the filter that sweep fits,
and ``eval``, given the training seed, prints the fields of its cell,
noisy or not.

``sweep`` optionally reads an INI config whose ``[experiment]`` keys
match ExperimentConfig fields one for one (list-valued fields as comma
lists) and whose ``[tradeoff]`` section feeds the minimax optimizer.  A
key left empty keeps its default, and a value that does not parse is an
error naming its section and key.  Every flag given on the command line
overrides its config key.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import logging
import sys

from .data import gen_synthetic, load_csv, save_csv
from .dp_mech import BoundKind, compute_diameters
from .errors import DataError
from .filters import load_filter, save_filter
from .harness import (CHAIN_CHOICES, FILTER_CHOICES, ExperimentConfig,
                      evaluate_filter, export_results, run_experiment,
                      train_filter)
from .minimax_opt import classification_tradeoff, save_report

_BOUND_CHOICES = tuple(kind.value for kind in BoundKind)


def _add_data_arg(parser):
    parser.add_argument("--data", required=True, help="CSV dataset path")


def _load(args):
    return load_csv(args.data)


def _parse_list(text, convert):
    """A comma list: ``convert`` applied to each stripped, non-empty part."""
    parts = (part.strip() for part in str(text).split(","))
    return tuple(convert(part) for part in parts if part)


def _cmd_synth(args) -> int:
    data = gen_synthetic(args.dim, args.subjects, args.target_classes,
                         args.per_subject, angle_deg=args.angle,
                         subject_sep=args.subject_sep,
                         target_sep=args.target_sep, noise=args.noise,
                         seed=args.seed)
    save_csv(data, args.out)
    print(f"wrote {data.n_samples} rows ({data.n_subjects} subjects, "
          f"{data.num_target_classes} target classes) to {args.out}")
    return 0


def _cmd_diameters(args) -> int:
    data = _load(args)
    report = compute_diameters(data.X, data.y, data.z)
    print(json.dumps({
        "cross_subject": report.cross_subject,
        "within_subject": report.within_subject,
        "cross_attained": report.cross_attained,
        "within_attained": report.within_attained,
    }, sort_keys=True))
    return 0


def _cmd_train(args) -> int:
    data = _load(args)
    tradeoff = classification_tradeoff(utility_weight=args.utility_weight,
                                       reg_lambda=args.reg_lambda,
                                       max_iter=args.max_iter)
    cfg = ExperimentConfig(filters=(args.filter,), dims=(args.dim,),
                           tradeoff=tradeoff, lds_init=args.lds_init,
                           pretrain_epochs=args.pretrain_epochs,
                           ppls_lambda=args.ppls_lambda,
                           train_fraction=args.train_fraction,
                           master_seed=args.seed)
    state, report = train_filter(data, cfg)
    save_filter(state, args.out + ".filter")
    message = f"saved filter to {args.out}.filter"
    if report is not None:
        save_report(report, args.out + ".report.jsonl")
        message += (f"; {report.iterations} iterations, final objective "
                    f"{report.final_objective:.6g}, converged={report.converged}")
    print(message)
    return 0


def _cmd_eval(args) -> int:
    data = _load(args)
    released = (args.epsilon_inverse > 0 or args.bound is not None
                or args.bound_scale is not None)
    cfg = ExperimentConfig(epsilon_inverses=(args.epsilon_inverse,),
                           chain="pre" if released else "none",
                           bound_kind=args.bound,
                           bound_scale=args.bound_scale,
                           train_fraction=args.train_fraction,
                           master_seed=args.seed)
    fields = evaluate_filter(load_filter(args.filter_path), data, cfg)
    print(json.dumps(fields, sort_keys=True))
    return 0


_CONFIG_PARSERS = {  # section -> key -> parser
    "experiment": {
        "filters": lambda text: _parse_list(text, str),
        "dims": lambda text: _parse_list(text, int),
        "epsilon_inverses": lambda text: _parse_list(text, float),
        "chain": str,
        "bound_kind": str,
        "bound_scale": float,
        "trials": int,
        "train_fraction": float,
        "master_seed": int,
        "lds_init": lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
        "mlp_hidden": lambda text: _parse_list(text, int),
        "pretrain_epochs": int,
        "ppls_lambda": float,
    },
    "tradeoff": {
        "utility_weight": float, "reg_lambda": float, "max_iter": int,
        "convergence_tol": float, "inner_tol": float, "inner_max_iter": int,
        "slow_iterations": int,
    },
}


def _read_config(path):
    """INI file → dicts of experiment and tradeoff settings."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise DataError(f"cannot read config file {path}")
    settings = {}
    for section, parsers in _CONFIG_PARSERS.items():
        values = settings[section] = {}
        for key, raw in parser.items(section) if parser.has_section(section) else ():
            if key not in parsers:
                raise DataError(f"unknown [{section}] key {key!r}")
            if not raw.strip():
                continue
            try:
                values[key] = parsers[key](raw)
            except (KeyError, ValueError):  # KeyError: not an INI boolean
                raise DataError(f"bad [{section}] value {key} = {raw!r}") from None
    return settings["experiment"], settings["tradeoff"]


def _cmd_sweep(args) -> int:
    experiment, tradeoff = ({}, {})
    if args.config:
        experiment, tradeoff = _read_config(args.config)
    overrides = {
        "filters": _parse_list(args.filter, str) if args.filter else None,
        "dims": _parse_list(args.dim, int) if args.dim else None,
        "epsilon_inverses": (_parse_list(args.epsilon_inverse, float)
                             if args.epsilon_inverse else None),
        "chain": args.chain,
        "bound_kind": args.bound,
        "bound_scale": args.bound_scale,
        "trials": args.trials,
        "train_fraction": args.train_fraction,
        "master_seed": args.seed,
    }
    for key, value in overrides.items():
        if value is not None:
            experiment[key] = value
    if args.utility_weight is not None:
        tradeoff["utility_weight"] = args.utility_weight
    if tradeoff:
        experiment["tradeoff"] = classification_tradeoff(**tradeoff)
    cfg = ExperimentConfig(**experiment)
    data = _load(args)
    with _progress_on_stderr():
        report = run_experiment(cfg, data)
    export_results(report, args.out)
    failed = sum(1 for r in report.records if r["error"] is not None)
    print(f"wrote {len(report.records)} cells to {args.out}.jsonl "
          f"and summary to {args.out}.csv ({failed} failed)")
    for row in report.summary():
        print(f"  {row['filter']:>15} d={row['dim']:<3} "
              f"eps_inv={row['epsilon_inverse']:<6g} "
              f"target={_fmt(row['target_accuracy_mean'])} "
              f"private={_fmt(row['private_accuracy_mean'])}")
    return 0


@contextlib.contextmanager
def _progress_on_stderr():
    """Show the harness's per-cell log records on stderr inside the block."""
    logger = logging.getLogger(run_experiment.__module__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("privfilter: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _fmt(value):
    return "n/a" if value is None else f"{value:.3f}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privfilter",
        description="Privacy-preserving feature filters: train, evaluate, sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic CSV dataset")
    synth.add_argument("--out", required=True)
    synth.add_argument("--dim", type=int, default=20)
    synth.add_argument("--subjects", type=int, default=8)
    synth.add_argument("--target-classes", type=int, default=2)
    synth.add_argument("--per-subject", type=int, default=40)
    synth.add_argument("--angle", type=float, default=90.0)
    synth.add_argument("--subject-sep", type=float, default=3.0)
    synth.add_argument("--target-sep", type=float, default=3.0)
    synth.add_argument("--noise", type=float, default=0.5)
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(func=_cmd_synth)

    diameters = sub.add_parser("diameters",
                               help="print cross/within-subject diameters")
    _add_data_arg(diameters)
    diameters.set_defaults(func=_cmd_diameters)

    train = sub.add_parser("train", help="fit one filter and save it")
    _add_data_arg(train)
    train.add_argument("--filter", default="minimax-linear",
                       choices=[k for k in FILTER_CHOICES if k != "raw"])
    train.add_argument("--dim", type=int, default=5)
    train.add_argument("--utility-weight", type=float, default=10.0)
    train.add_argument("--reg-lambda", type=float, default=1e-6)
    train.add_argument("--max-iter", type=int, default=200)
    train.add_argument("--lds-init", action="store_true")
    train.add_argument("--pretrain-epochs", type=int, default=0)
    train.add_argument("--ppls-lambda", type=float, default=1.0)
    train.add_argument("--train-fraction", type=float, default=0.8)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True,
                       help="output prefix for .filter and .report.jsonl")
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("eval", help="score a saved filter on a dataset")
    _add_data_arg(evaluate)
    evaluate.add_argument("--filter-path", required=True)
    evaluate.add_argument("--train-fraction", type=float, default=0.8)
    evaluate.add_argument("--seed", type=int, default=0,
                          help="must match the seed used for training "
                               "to reproduce its split")
    evaluate.add_argument("--epsilon-inverse", type=float, default=0.0)
    evaluate.add_argument("--bound", choices=_BOUND_CHOICES, default=None)
    evaluate.add_argument("--bound-scale", type=float, default=None)
    evaluate.set_defaults(func=_cmd_eval)

    sweep = sub.add_parser("sweep", help="run the full experiment grid")
    _add_data_arg(sweep)
    sweep.add_argument("--config", help="INI file; flags below override it")
    sweep.add_argument("--filter", help="comma list of filter kinds")
    sweep.add_argument("--dim", help="comma list of output dims")
    sweep.add_argument("--epsilon-inverse", help="comma list of noise levels")
    sweep.add_argument("--chain", choices=CHAIN_CHOICES, default=None)
    sweep.add_argument("--bound", choices=_BOUND_CHOICES, default=None)
    sweep.add_argument("--bound-scale", type=float, default=None)
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument("--train-fraction", type=float, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--utility-weight", type=float, default=None)
    sweep.add_argument("--out", required=True, help="output path prefix")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
