import ast
import dataclasses
import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import privfilter
from privfilter import (DataError, ExperimentConfig, ReconstructionHead,
                        SoftmaxHead, TaskSpec, TradeoffConfig,
                        TrainReport, build_scatters, classification_tradeoff,
                        fit_pca, fit_ppls, fit_reconstruction, fit_softmax,
                        gen_synthetic, identity_filter, least_squares_tradeoff,
                        one_hot, pretrain_autoencoder)


def test_public_names_resolve_once():
    names = privfilter.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(privfilter, name)]
    assert not missing


def _modules_after(code):
    """Names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(privfilter.__file__))
    probe = f"import sys\n{code}\nprint(sorted(sys.modules))"
    result = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    return set(ast.literal_eval(result.stdout.strip().splitlines()[-1]))


# after the package, importing scipy.optimize takes about 0.6 s and 47 MB
# (it imports the other two), and no solver in it is used; scipy.special
# about 0.3 s and 24 MB and scipy.linalg 0.3 s and 26 MB, each for one
# compiled routine the package loads from its own extension module.  The
# config settings are declared in the package, their text parsers and
# flags only in the command line front end.
@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.special",
                                    "scipy.linalg", "privfilter.cli",
                                    "argparse", "configparser"])
def test_import_does_not_load(module):
    assert module not in _modules_after("import privfilter")


@pytest.mark.parametrize("package", ["privfilter", "privfilter.cli"])
def test_import_loads_no_scipy_module(package):
    # importing any scipy submodule first imports the scipy package itself
    assert "scipy" not in _modules_after(f"import {package}")


_SWEEP = """
from privfilter import ExperimentConfig, gen_synthetic, run_experiment
from privfilter.minimax_opt import classification_tradeoff
data = gen_synthetic(dim=6, n_subjects=3, n_target_classes=2, per_subject=12,
                     seed=0)
cfg = ExperimentConfig(filters=({filters}), dims=(2,), trials=1,
                       epsilon_inverses=(0.0, 1.0), chain="{chain}",
                       tradeoff=classification_tradeoff(2.0, 1e-4, max_iter=3))
report = run_experiment(cfg, data)
assert all(r["error"] is None for r in report.records)
"""


@pytest.mark.parametrize("chain", ["pre", "post"])
@pytest.mark.parametrize("filters, kernel", [
    ('"minimax-linear", "raw", "rand", "pca", "ppls"', None),
    ('"lds-init",', "scipy.linalg._flapack"),
    ('"minimax-mlp",', "scipy.special._special_ufuncs"),
], ids=["linear", "lds", "mlp"])
def test_sweep_loads_only_its_scipy_kernel(filters, kernel, chain):
    # neither scipy.linalg nor scipy.special, not even the scipy package:
    # an LDS or MLP filter executes only its routine's extension module,
    # and the check can see that it does, so the public-import fallback
    # cannot become the path on the installed scipy unnoticed
    loaded = _modules_after(_SWEEP.format(filters=filters, chain=chain))
    assert {m for m in loaded if m.split(".")[0] == "scipy"} == (
        {kernel} if kernel else set())


def test_scipy_imports_after_the_kernels_reuse_them():
    code = """
import numpy as np
from privfilter.kernels import scipy_kernel
expit = scipy_kernel("scipy.special._special_ufuncs", "expit", "scipy.special")
dsygvd = scipy_kernel("scipy.linalg._flapack", "dsygvd", "scipy.linalg.lapack")
assert "scipy.special" not in sys.modules and "scipy.linalg" not in sys.modules
import scipy.linalg
import scipy.special
assert scipy.special.expit is expit and scipy.linalg.lapack.dsygvd is dsygvd
assert scipy.special.expit(0.0) == 0.5
a = np.array([[2.0, 1.0], [1.0, 3.0]])
assert np.allclose(scipy.linalg.eigh(a, np.eye(2))[0], np.linalg.eigvalsh(a))
"""
    assert {"scipy.linalg", "scipy.special"} <= _modules_after(code)


def _private_imports(path):
    """(line, name) of each underscore name ``path`` takes from another
    privfilter module: by ``from . import``/``from .mod import`` or as an
    attribute of a module it imported from the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("privfilter")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
                elif node.module in (None, "privfilter"):  # a sibling module
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_imports_another_modules_private_names():
    package = pathlib.Path(privfilter.__file__).parent
    found = {path.name: _private_imports(path)
             for path in sorted(package.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _stream_keys(path):
    """(line, name) of each use of ``derive_rng`` or a ``ROLE_*`` stream
    role in ``path``: imported, read as a name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name == "derive_rng" or name.startswith("ROLE_")]
    return found


def test_only_the_harness_keys_the_random_streams():
    # the package root re-exports derive_rng and is no caller; every other
    # module reaches a sweep's streams through the harness's functions
    package = pathlib.Path(privfilter.__file__).parent
    found = {path.name: _stream_keys(path)
             for path in sorted(package.glob("*.py"))
             if path.name not in ("harness.py", "__init__.py")}
    assert {name: hits for name, hits in found.items() if hits} == {}


_X = np.random.default_rng(0).standard_normal((12, 4))
_NAN_X = _X.copy()
_NAN_X[3, 1] = np.nan
_Y = np.tile([1, 2, 3], 4)
_Z = np.tile([1, 2], 6)
_NAN = float("nan")


def _ppls(X=_X, ppls_lambda=1.0):
    return fit_ppls(X, one_hot(_Y, 3), one_hot(_Z, 2), ppls_lambda, 2)


def _pretrain(X=_X, epochs=1, **kwargs):
    return pretrain_autoencoder(X, 2, (3, 2), epochs=epochs, **kwargs)


# (serial, public name, argument, call) for an argument outside its
# domain: each call raises DataError with a message that names the
# argument.  A row keeps its serial, which ends its test id, for good: a
# new row takes the next unused one and a deleted row's is never reused,
# so deleting a row renames no other test.
_REJECTIONS = [
    (0, "fit_softmax", "tol", lambda: fit_softmax(_X, _Y, 3, tol=_NAN)),
    (1, "fit_softmax", "max_iter", lambda: fit_softmax(_X, _Y, 3, max_iter=-1)),
    (2, "fit_softmax", "reg_lambda", lambda: fit_softmax(_X, _Y, 3, reg_lambda=_NAN)),
    (3, "fit_softmax", "num_classes", lambda: fit_softmax(_X, _Y, 2.5)),
    (4, "SoftmaxHead", "reg_lambda",
     lambda: SoftmaxHead(np.zeros((3, 4)), reg_lambda=_NAN)),
    (5, "ReconstructionHead", "reg_lambda",
     lambda: ReconstructionHead(np.zeros((4, 2)), np.zeros(2), reg_lambda=-1.0)),
    (6, "fit_reconstruction", "reg_lambda",
     lambda: fit_reconstruction(_X, _X, reg_lambda=_NAN)),
    (7, "fit_reconstruction", "fit_intercept",
     lambda: fit_reconstruction(_X, _X, fit_intercept="yes")),
    (11, "pretrain_autoencoder", "epochs", lambda: _pretrain(epochs=2.5)),
    (12, "pretrain_autoencoder", "X", lambda: _pretrain(_NAN_X)),
    (13, "gen_synthetic", "noise", lambda: gen_synthetic(3, 2, 2, 4, noise=_NAN)),
    (14, "gen_synthetic", "angle_deg",
     lambda: gen_synthetic(3, 2, 2, 4, angle_deg=_NAN)),
    (15, "gen_synthetic", "subject_sep",
     lambda: gen_synthetic(3, 2, 2, 4, subject_sep=-1.0)),
    (16, "gen_synthetic", "target_sep",
     lambda: gen_synthetic(3, 2, 2, 4, target_sep=float("inf"))),
    (17, "fit_ppls", "ppls_lambda", lambda: _ppls(ppls_lambda=_NAN)),
    (18, "fit_ppls", "X", lambda: _ppls(_NAN_X)),
    (19, "fit_pca", "X", lambda: fit_pca(_NAN_X, 2)),
    (20, "build_scatters", "X", lambda: build_scatters(_NAN_X, _Y, _Z)),
    (21, "identity_filter", "dim", lambda: identity_filter(2.5)),
    (22, "classification_tradeoff", "utility_weight",
     lambda: classification_tradeoff(utility_weight=0.0)),
    (23, "classification_tradeoff", "reg_lambda",
     lambda: classification_tradeoff(reg_lambda=_NAN)),
    (24, "least_squares_tradeoff", "utility_weight",
     lambda: least_squares_tradeoff(utility_weight=_NAN)),
    (25, "least_squares_tradeoff", "reg_lambda",
     lambda: least_squares_tradeoff(reg_lambda=-1.0)),
    (26, "TaskSpec", "label_field", lambda: TaskSpec("softmax", label_field="w")),
    (27, "TaskSpec", "reg_lambda",
     lambda: TaskSpec("least_squares", reg_lambda=float("inf"))),
    (28, "TaskSpec", "reg_lambda",
     lambda: TaskSpec("reconstruction", reg_lambda=-1.0)),
    (29, "TaskSpec", "reg_lambda", lambda: TaskSpec("softmax", reg_lambda=_NAN)),
    (30, "TradeoffConfig", "utility_weight",
     lambda: TradeoffConfig(utility_weight=_NAN)),
    (31, "TradeoffConfig", "max_iter", lambda: TradeoffConfig(max_iter=0)),
    (32, "TradeoffConfig", "convergence_tol",
     lambda: TradeoffConfig(convergence_tol=_NAN)),
    (33, "TradeoffConfig", "slow_iterations",
     lambda: TradeoffConfig(slow_iterations=0)),
    (34, "TradeoffConfig", "inner_tol", lambda: TradeoffConfig(inner_tol=-1.0)),
    (35, "TradeoffConfig", "inner_max_iter",
     lambda: TradeoffConfig(inner_max_iter=2.5)),
    (36, "ExperimentConfig", "trials", lambda: ExperimentConfig(trials=0)),
    (37, "ExperimentConfig", "trials", lambda: ExperimentConfig(trials=True)),
    (38, "ExperimentConfig", "train_fraction",
     lambda: ExperimentConfig(train_fraction=1.0)),
    (39, "ExperimentConfig", "master_seed", lambda: ExperimentConfig(master_seed=-1)),
    (40, "ExperimentConfig", "lds_init", lambda: ExperimentConfig(lds_init="yes")),
    (41, "ExperimentConfig", "pretrain_epochs",
     lambda: ExperimentConfig(pretrain_epochs=-1)),
    (42, "ExperimentConfig", "ppls_lambda",
     lambda: ExperimentConfig(ppls_lambda=_NAN)),
    (43, "TrainReport", "stall_probes",
     lambda: TrainReport((), identity_filter(2), "stalled", stall_probes=-1)),
    (44, "TrainReport", "stall_inner_iterations",
     lambda: TrainReport((), identity_filter(2), "stalled",
                         stall_inner_iterations=2.5)),
    (45, "TrainReport", "inner_unconverged",
     lambda: TrainReport((), identity_filter(2), "stalled", inner_unconverged=-1)),
    (46, "ExperimentConfig", "tradeoff", lambda: ExperimentConfig(tradeoff=5)),
]


@pytest.mark.parametrize("name, argument, call", [
    pytest.param(name, argument, call, id=f"{name}-{argument}-{serial}")
    for serial, name, argument, call in _REJECTIONS])
def test_out_of_domain_arguments_are_rejected_by_name(name, argument, call):
    with pytest.raises(DataError, match=rf"\b{argument}\b"):
        call()


def _numeric_parameters():
    """(public name, parameter) of every number- or bool-defaulted
    parameter of a public function or dataclass."""
    found = set()
    for name in privfilter.__all__:
        obj = getattr(privfilter, name)
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
            found.update((name, p.name) for p in inspect.signature(obj).parameters.values()
                         if isinstance(p.default, (int, float)))
    return found


def test_every_numeric_default_has_a_rejection_row():
    # a new unchecked numeric argument fails here until it has a row above
    covered = {(name, argument) for _, name, argument, _ in _REJECTIONS}
    assert _numeric_parameters() - covered == set()
