"""Command-line front end.

Subcommands: ``synth`` writes a synthetic CSV, ``diameters`` prints the
subject-distance summary of a dataset, ``train`` fits a single filter and
saves it, ``eval`` scores a saved filter, ``sweep`` runs a full
experiment grid and exports the results, logging each finished cell on
stderr as it goes.  ``train`` and ``eval`` run trial 0 of a sweep with
its first filter, dim and noise level (``harness.train_filter`` and
``harness.evaluate_filter``): ``train`` saves the filter that sweep fits,
and ``eval``, given the training seed, prints the fields of its cell,
noisy or not.

``train``, ``eval`` and ``sweep`` build their ``ExperimentConfig`` the
same way (``_config``): from the optional ``--config`` INI file, whose
``[experiment]`` keys are the ExperimentConfig settings and whose
``[tradeoff]`` keys are the TradeoffConfig settings plus the heads'
``reg_lambda``, and then from every setting flag given, which overrides
its key.  Keys and flags are derived from the fields' ``setting``
declarations: list-valued settings are comma lists, a key left empty
keeps its default, and a key's value that does not parse is an error
naming its section and key.  A flag is the key with dashes, except for the five
in ``_FLAGS``.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import logging
import sys

from .data import gen_synthetic, load_csv, save_csv
from .dp_mech import compute_diameters
from .errors import DataError, settings_of
from .filters import load_filter, save_filter
from .harness import (ExperimentConfig, evaluate_filter, export_results,
                      run_experiment, train_filter)
from .minimax_opt import (TaskSpec, TradeoffConfig, classification_tradeoff,
                          save_report)


def _add_data_arg(parser):
    parser.add_argument("--data", required=True, help="CSV dataset path")


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
    data = load_csv(args.data)
    report = compute_diameters(data.X, data.y, data.z)
    print(json.dumps({
        "cross_subject": report.cross_subject,
        "within_subject": report.within_subject,
        "cross_attained": report.cross_attained,
        "within_attained": report.within_attained,
    }, sort_keys=True))
    return 0


_SECTIONS = {  # INI section -> key -> Setting
    "experiment": settings_of(ExperimentConfig),
    "tradeoff": {**settings_of(TradeoffConfig),
                 "reg_lambda": settings_of(TaskSpec)["reg_lambda"]},
}
_FLAGS = {"filters": "--filter", "dims": "--dim",
          "epsilon_inverses": "--epsilon-inverse", "bound_kind": "--bound",
          "master_seed": "--seed"}


def _text_parser(spec):
    """The parser of one INI value or flag of ``spec``."""
    if spec.kind is bool:
        def convert(text):
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    else:
        convert = spec.kind
    if not spec.many:
        return convert

    def comma_list(text):
        parts = (part.strip() for part in text.split(","))
        return tuple(convert(part) for part in parts if part)
    return comma_list


def _config(args, derive_chain=False) -> ExperimentConfig:
    """The ``--config`` file's settings, overridden by every setting flag
    given.  With ``derive_chain`` a chain that neither sets is "pre" when a
    noise level, bound kind or bound scale is set and "none" otherwise."""
    settings = {section: {} for section in _SECTIONS}
    if args.config:
        parser = configparser.ConfigParser()
        if not parser.read(args.config):
            raise DataError(f"cannot read config file {args.config}")
        for section, specs in _SECTIONS.items():
            for key, raw in (parser.items(section)
                             if parser.has_section(section) else ()):
                if key not in specs:
                    raise DataError(f"unknown [{section}] key {key!r}")
                if not raw.strip():
                    continue
                try:
                    settings[section][key] = _text_parser(specs[key])(raw)
                except (KeyError, ValueError):  # KeyError: not an INI boolean
                    raise DataError(f"bad [{section}] value {key} = {raw!r}") from None
    for section, specs in _SECTIONS.items():
        settings[section].update((key, getattr(args, key))
                                 for key in specs if hasattr(args, key))
    experiment = settings["experiment"]
    if derive_chain and "chain" not in experiment:
        released = (any(experiment.get("epsilon_inverses", ()))
                    or "bound_kind" in experiment or "bound_scale" in experiment)
        experiment["chain"] = "pre" if released else "none"
    return ExperimentConfig(
        **experiment, tradeoff=classification_tradeoff(**settings["tradeoff"]))


def _cmd_train(args) -> int:
    cfg = _config(args)
    state, report = train_filter(load_csv(args.data), cfg)
    save_filter(state, args.out + ".filter")
    message = f"saved filter to {args.out}.filter"
    if report is not None:
        save_report(report, args.out + ".report.jsonl")
        message += (f"; {report.iterations} iterations, final objective "
                    f"{report.final_objective:.6g}, converged={report.converged}")
    print(message)
    return 0


def _cmd_eval(args) -> int:
    cfg = _config(args, derive_chain=True)
    fields = evaluate_filter(load_filter(args.filter_path),
                             load_csv(args.data), cfg)
    print(json.dumps(fields, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config(args)
    data = load_csv(args.data)
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
    train.add_argument("--out", required=True,
                       help="output prefix for .filter and .report.jsonl")
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser(
        "eval", help="score a saved filter on a dataset",
        description="--seed must match the training seed to reproduce its split")
    evaluate.add_argument("--filter-path", required=True)
    evaluate.set_defaults(func=_cmd_eval)

    sweep = sub.add_parser("sweep", help="run the full experiment grid")
    sweep.add_argument("--out", required=True, help="output path prefix")
    sweep.set_defaults(func=_cmd_sweep)

    for command in (train, evaluate, sweep):
        _add_data_arg(command)
        command.add_argument("--config", help="INI file; flags below override it")
        for section, specs in _SECTIONS.items():
            for key, spec in specs.items():
                flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
                kwargs = (dict(action=argparse.BooleanOptionalAction)
                          if spec.kind is bool else dict(type=_text_parser(spec)))
                notes = [", ".join(spec.choices)] if spec.choices else []
                notes += ["comma list"] if spec.many else []
                command.add_argument(
                    flag, dest=key, default=argparse.SUPPRESS,
                    help="; ".join([f"[{section}] {key}", *notes]), **kwargs)
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
