import contextlib
import io
import json
import logging
from dataclasses import fields

import numpy as np
import pytest

from privfilter.cli import _CONFIG_PARSERS, main
from privfilter.data import load_csv
from privfilter.filters import load_filter
from privfilter.harness import ExperimentConfig, load_results, run_experiment
from privfilter.minimax_opt import TradeoffConfig, load_report_records


def _run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _make_dataset(tmp_path, name="toy.csv", per_subject="16", noise="0.4"):
    path = tmp_path / name
    code, out, err = _run([
        "synth", "--out", str(path), "--dim", "6", "--subjects", "3",
        "--target-classes", "2", "--per-subject", per_subject,
        "--subject-sep", "2.0", "--target-sep", "2.0", "--noise", noise,
        "--seed", "5"])
    assert code == 0, err
    return path


def test_synth_writes_a_loadable_dataset(tmp_path):
    path = _make_dataset(tmp_path)
    data = load_csv(path)
    assert data.n_samples == 48 and data.dim == 6
    assert data.n_subjects == 3 and data.num_target_classes == 2


def test_synth_has_no_name_option(tmp_path):
    # the CSV format stores no dataset name, so the option had no effect
    path = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        _run(["synth", "--out", str(path), "--name", "alpha"])
    assert exc.value.code == 2
    assert not path.exists()


def test_synth_reports_counts(tmp_path):
    path = tmp_path / "t.csv"
    code, out, _ = _run(["synth", "--out", str(path), "--dim", "3",
                         "--subjects", "2", "--per-subject", "4",
                         "--target-classes", "2"])
    assert code == 0
    assert "8 rows" in out and "2 subjects" in out


def test_diameters_prints_json(tmp_path):
    path = _make_dataset(tmp_path)
    code, out, _ = _run(["diameters", "--data", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["cross_subject"] > 0
    assert payload["within_subject"] > 0
    assert payload["cross_attained"] and payload["within_attained"]


def test_train_then_eval_pipeline(tmp_path):
    path = _make_dataset(tmp_path)
    prefix = tmp_path / "model"
    code, out, err = _run([
        "train", "--data", str(path), "--filter", "minimax-linear",
        "--dim", "2", "--max-iter", "10", "--lds-init",
        "--seed", "3", "--out", str(prefix)])
    assert code == 0, err
    assert "saved filter" in out and "converged=" in out
    state = load_filter(str(prefix) + ".filter")
    assert state.output_dim == 2
    records = load_report_records(str(prefix) + ".report.jsonl")
    assert records[0].iteration == 0

    code, out, err = _run([
        "eval", "--data", str(path), "--filter-path",
        str(prefix) + ".filter", "--seed", "3"])
    assert code == 0, err
    metrics = json.loads(out)
    assert set(metrics) == {"target_accuracy", "private_accuracy",
                            "tradeoff", "chance_target", "chance_private",
                            "target_head_grad", "private_head_grad"}
    assert 0.0 <= metrics["private_accuracy"] <= 1.0


def test_eval_matches_the_sweep_cell(tmp_path):
    # a noisy eval draws the noise of trial 0 of a one-filter, one-dim,
    # one-level sweep, so it reproduces that pre-chain cell exactly
    path = _make_dataset(tmp_path)
    prefix = tmp_path / "pca"
    assert _run(["train", "--data", str(path), "--filter", "pca",
                 "--seed", "3", "--out", str(prefix)])[0] == 0
    cases = [([], dict(chain="none")),
             (["--epsilon-inverse", "1.0", "--bound", "clip"],
              dict(epsilon_inverses=(1.0,), chain="pre", bound_kind="clip")),
             (["--epsilon-inverse", "0.3", "--bound", "squash"],
              dict(epsilon_inverses=(0.3,), chain="pre", bound_kind="squash"))]
    for flags, release in cases:
        code, out, err = _run(["eval", "--data", str(path), "--filter-path",
                               str(prefix) + ".filter", "--seed", "3", *flags])
        assert code == 0, err
        metrics = json.loads(out)
        cfg = ExperimentConfig(filters=("pca",), trials=1, master_seed=3,
                               **release)
        record = run_experiment(cfg, load_csv(path)).records[0]
        assert record["error"] is None
        for key in ("target_accuracy", "private_accuracy", "target_head_grad",
                    "private_head_grad"):
            assert metrics[key] == record[key], (flags, key)


def test_train_baseline_writes_no_report(tmp_path):
    path = _make_dataset(tmp_path)
    prefix = tmp_path / "pca_model"
    code, out, _ = _run(["train", "--data", str(path), "--filter", "pca",
                         "--dim", "2", "--out", str(prefix)])
    assert code == 0
    assert "iterations" not in out
    assert load_filter(str(prefix) + ".filter").output_dim == 2
    assert not (tmp_path / "pca_model.report.jsonl").exists()


def test_eval_with_noise_flags(tmp_path):
    path = _make_dataset(tmp_path)
    prefix = tmp_path / "m"
    assert _run(["train", "--data", str(path), "--filter", "pca",
                 "--dim", "2", "--out", str(prefix)])[0] == 0
    code, out, err = _run([
        "eval", "--data", str(path), "--filter-path", str(prefix) + ".filter",
        "--epsilon-inverse", "10.0", "--bound", "clip"])
    assert code == 0, err
    noisy = json.loads(out)
    code, out, _ = _run([
        "eval", "--data", str(path), "--filter-path", str(prefix) + ".filter"])
    clean = json.loads(out)
    assert noisy["private_accuracy"] <= clean["private_accuracy"] + 0.1


def test_eval_bound_scale_alone_bounds_through_the_pre_chain(tmp_path):
    path = _make_dataset(tmp_path)
    prefix = tmp_path / "m"
    assert _run(["train", "--data", str(path), "--filter", "pca",
                 "--dim", "2", "--seed", "3", "--out", str(prefix)])[0] == 0
    outputs = []
    for flags in ([], ["--bound-scale", "0.001"],
                  ["--bound", "clip", "--bound-scale", "0.001"]):
        code, out, err = _run(["eval", "--data", str(path), "--filter-path",
                               str(prefix) + ".filter", "--seed", "3", *flags])
        assert code == 0, err
        outputs.append(json.loads(out))
    plain, scaled, clipped = outputs
    assert scaled == clipped
    assert scaled != plain
    cfg = ExperimentConfig(filters=("pca",), dims=(2,), trials=1,
                           master_seed=3, chain="pre", bound_scale=0.001)
    record = run_experiment(cfg, load_csv(path)).records[0]
    assert scaled["private_accuracy"] == record["private_accuracy"]
    assert scaled["target_accuracy"] == record["target_accuracy"]


def test_sweep_with_config_and_overrides(tmp_path):
    path = _make_dataset(tmp_path)
    config = tmp_path / "sweep.ini"
    config.write_text(
        "[experiment]\n"
        "filters = pca, rand\n"
        "dims = 2\n"
        "epsilon_inverses = 0.0, 1.0\n"
        "chain = pre\n"
        "trials = 3\n"
        "master_seed = 9\n"
        "bound_scale =\n"
        "[tradeoff]\n"
        "utility_weight = 2.0\n"
        "max_iter = 5\n")
    prefix = tmp_path / "results"
    code, out, err = _run(["sweep", "--data", str(path), "--config",
                           str(config), "--trials", "2",
                           "--out", str(prefix)])
    assert code == 0, err
    assert "0 failed" in out
    report = load_results(prefix)
    # the --trials flag overrides the config's 3
    assert len(report.records) == 2 * 1 * 2 * 2
    assert {r["filter"] for r in report.records} == {"pca", "rand"}
    assert {r["epsilon_inverse"] for r in report.records} == {0.0, 1.0}
    assert (tmp_path / "results.csv").exists()
    # summary lines are printed per cell group
    assert out.count("eps_inv=") == 4


def test_sweep_flags_only(tmp_path):
    path = _make_dataset(tmp_path)
    prefix = tmp_path / "r2"
    code, out, err = _run([
        "sweep", "--data", str(path), "--filter", "pca", "--dim", "2",
        "--trials", "2", "--seed", "1", "--out", str(prefix)])
    assert code == 0, err
    report = load_results(prefix)
    assert len(report.records) == 2


def test_error_paths_exit_nonzero(tmp_path):
    path = _make_dataset(tmp_path)
    code, _, err = _run(["diameters", "--data", str(tmp_path / "nope.csv")])
    assert code == 1 and "error:" in err
    bad_config = tmp_path / "bad.ini"
    bad_config.write_text("[experiment]\nwavelength = 3\n")
    code, _, err = _run(["sweep", "--data", str(path), "--config",
                         str(bad_config), "--out", str(tmp_path / "x")])
    assert code == 1 and "wavelength" in err
    code, _, err = _run(["sweep", "--data", str(path), "--filter",
                         "banded", "--out", str(tmp_path / "x")])
    assert code == 1 and "banded" in err
    missing_config = tmp_path / "missing.ini"
    code, _, err = _run(["sweep", "--data", str(path), "--config",
                         str(missing_config), "--out", str(tmp_path / "x")])
    assert code == 1 and "cannot read" in err
    # a negative noise level is rejected, not released without noise
    prefix = tmp_path / "pca"
    assert _run(["train", "--data", str(path), "--filter", "pca",
                 "--dim", "2", "--out", str(prefix)])[0] == 0
    code, out, err = _run(["eval", "--data", str(path), "--filter-path",
                           str(prefix) + ".filter", "--epsilon-inverse", "-1"])
    assert code == 1 and not out
    assert "epsilon_inverses must be non-negative" in err
    # an infinite bound scale would release all-zero rows
    code, out, err = _run(["sweep", "--data", str(path), "--chain", "pre",
                           "--filter", "pca", "--bound-scale", "inf",
                           "--out", str(tmp_path / "x")])
    assert code == 1 and not out and "bound_scale" in err
    bad_bool = tmp_path / "bool.ini"
    bad_bool.write_text("[experiment]\nlds_init = maybe\n")
    code, _, err = _run(["sweep", "--data", str(path), "--config",
                         str(bad_bool), "--out", str(tmp_path / "x")])
    assert code == 1 and err.startswith("error:") and "lds_init" in err


def test_experiment_keys_mirror_the_config_fields(tmp_path):
    # every ExperimentConfig field but the [tradeoff] section has one key,
    # and so does every TradeoffConfig setting but the task lists, whose
    # heads share the one reg_lambda
    assert set(_CONFIG_PARSERS["experiment"]) == (
        {f.name for f in fields(ExperimentConfig)} - {"tradeoff"})
    assert set(_CONFIG_PARSERS["tradeoff"]) == (
        {f.name for f in fields(TradeoffConfig)}
        - {"private_tasks", "utility_tasks"} | {"reg_lambda"})
    path = _make_dataset(tmp_path)
    config = tmp_path / "old.ini"
    config.write_text("[experiment]\nchain = pre\nsensitivity = 3.0\n")
    code, _, err = _run(["sweep", "--data", str(path), "--config",
                         str(config), "--out", str(tmp_path / "x")])
    assert code == 1 and "unknown [experiment] key 'sensitivity'" in err
    config.write_text("[experiment]\nchain = pre\neval_max_iter = 120\n")
    code, _, err = _run(["sweep", "--data", str(path), "--config",
                         str(config), "--out", str(tmp_path / "x")])
    assert code == 1 and "unknown [experiment] key 'eval_max_iter'" in err


@pytest.mark.parametrize("section, key, raw", [
    ("experiment", "trials", "three"),
    ("tradeoff", "max_iter", "ten"),
    ("tradeoff", "utility_weight", "heavy"),
])
def test_a_bad_config_value_names_its_section_and_key(tmp_path, section, key,
                                                      raw):
    path = _make_dataset(tmp_path)
    config = tmp_path / "bad.ini"
    config.write_text(f"[{section}]\n{key} = {raw}\n")
    code, out, err = _run(["sweep", "--data", str(path), "--config",
                           str(config), "--out", str(tmp_path / "x")])
    assert code == 1 and not out
    assert err == f"error: bad [{section}] value {key} = {raw!r}\n"


def test_an_empty_config_value_keeps_its_default(tmp_path):
    path = _make_dataset(tmp_path)
    config = tmp_path / "empty.ini"
    config.write_text("[experiment]\nfilters = pca\ndims = 2\ntrials = 1\n"
                      "bound_scale =\n[tradeoff]\nmax_iter =\n")
    prefix = tmp_path / "empty"
    code, out, err = _run(["sweep", "--data", str(path), "--config",
                           str(config), "--out", str(prefix)])
    assert code == 0, err
    assert len(load_results(prefix).records) == 1


def test_eval_of_a_malformed_filter_exits_with_an_error(tmp_path):
    from privfilter.records import write_record
    path = _make_dataset(tmp_path)
    no_kind = tmp_path / "no-kind.filter"
    write_record(no_kind, {"record": "filter", "input_dim": 6, "output_dim": 2,
                           "hidden_dims": []}, np.zeros(12))
    truncated = tmp_path / "truncated.filter"
    write_record(truncated, {"record": "filter", "kind": "linear",
                             "input_dim": 6, "output_dim": 2,
                             "hidden_dims": []}, np.zeros(12))
    truncated.write_bytes(truncated.read_bytes()[:-1])
    listed = tmp_path / "list.filter"
    listed.write_bytes(b"[1, 2]\n")
    for filter_path, fragment in ((no_kind, "'kind'"), (truncated, "bytes"),
                                  (listed, "not a record file")):
        code, _, err = _run(["eval", "--data", str(path), "--filter-path",
                             str(filter_path)])
        assert code == 1 and err.startswith("error:")
        assert filter_path.name in err and fragment in err


def test_sweep_rejects_a_noise_grid_without_a_release_chain(tmp_path):
    path = _make_dataset(tmp_path)
    code, out, err = _run(["sweep", "--data", str(path), "--filter", "pca",
                           "--dim", "2", "--trials", "1",
                           "--epsilon-inverse", "0,1",
                           "--out", str(tmp_path / "x")])
    assert code != 0 and "error:" in err
    assert "chain 'none'" in err
    assert not (tmp_path / "x.csv").exists()
    code, _, err = _run(["sweep", "--data", str(path), "--filter", "pca",
                         "--dim", "2", "--trials", "1", "--bound-scale", "0.5",
                         "--out", str(tmp_path / "s")])
    assert code != 0 and "chain 'none'" in err
    assert not (tmp_path / "s.csv").exists()
    code, _, err = _run(["sweep", "--data", str(path), "--filter", "pca",
                         "--dim", "2", "--trials", "1", "--bound", "squash",
                         "--out", str(tmp_path / "k")])
    assert code == 1 and "a bound_kind needs chain 'pre' or 'post'" in err
    assert not (tmp_path / "k.csv").exists()
    code, _, err = _run(["sweep", "--data", str(path), "--filter", "pca",
                         "--dim", "2", "--trials", "1",
                         "--epsilon-inverse", "0,1", "--chain", "pre",
                         "--out", str(tmp_path / "y")])
    assert code == 0, err


def test_train_seed_reproduces_filter(tmp_path):
    path = _make_dataset(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    for prefix in (a, b):
        assert _run(["train", "--data", str(path), "--filter",
                     "minimax-linear", "--dim", "2", "--max-iter", "5",
                     "--seed", "11", "--out", str(prefix)])[0] == 0
    pa = load_filter(str(a) + ".filter").params
    pb = load_filter(str(b) + ".filter").params
    assert np.array_equal(pa, pb)


def test_sweep_logs_each_cell_on_stderr(tmp_path):
    path = _make_dataset(tmp_path)
    logger = logging.getLogger("privfilter.harness")
    handlers, level = list(logger.handlers), logger.level
    code, out, err = _run([
        "sweep", "--data", str(path), "--filter", "pca,raw", "--dim", "2",
        "--trials", "2", "--out", str(tmp_path / "r3")])
    assert code == 0, err
    lines = err.splitlines()
    assert len(lines) == 4 and "wrote 4 cells" in out
    assert lines[0].startswith("privfilter: cell 1/4 filter=pca dim=2 ")
    assert lines[-1].startswith("privfilter: cell 4/4 filter=raw dim=6 ")
    assert all(line.endswith("error=None") for line in lines)
    # the stderr handler is gone after the command
    assert logger.handlers == handlers and logger.level == level
    code, _, err = _run(["sweep", "--data", str(path), "--filter", "pca",
                         "--dim", "2", "--trials", "1", "--out", str(tmp_path / "r4")])
    assert code == 0 and len(err.splitlines()) == 1
