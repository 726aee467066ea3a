import ast
import os
import pathlib
import subprocess
import sys

import pytest

import privfilter


def test_public_names_resolve_once():
    names = privfilter.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(privfilter, name)]
    assert not missing


def _loaded_in_fresh_interpreter(module, code):
    src = os.path.dirname(os.path.dirname(privfilter.__file__))
    probe = f"import sys\n{code}\nprint({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    return result.stdout.strip().splitlines()[-1] == "True"


# scipy.optimize adds about 0.13 s and 17 MB to every process that imports
# the package, and no solver in it is used; scipy.special about 3.5 MB, and
# only the MLP sigmoid uses it; scipy.linalg about 0.3 s and 28 MB, and
# only the LDS eigensolver uses it
@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.special",
                                    "scipy.linalg"])
def test_import_does_not_load(module):
    assert not _loaded_in_fresh_interpreter(module, "import privfilter")


@pytest.mark.parametrize("package", ["privfilter", "privfilter.cli"])
def test_import_loads_no_scipy_module(package):
    # importing any scipy submodule first imports the scipy package itself
    assert not _loaded_in_fresh_interpreter("scipy", f"import {package}")


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
def test_linear_sweep_leaves_scipy_special_unloaded(chain):
    linear = _SWEEP.format(filters='"minimax-linear", "raw", "rand", "pca", '
                                   '"ppls", "lds-init"', chain=chain)
    assert not _loaded_in_fresh_interpreter("scipy.special", linear)
    # the check can see the module: an MLP filter loads it
    mlp = _SWEEP.format(filters='"minimax-mlp",', chain=chain)
    assert _loaded_in_fresh_interpreter("scipy.special", mlp)


@pytest.mark.parametrize("chain", ["pre", "post"])
def test_sweep_without_lds_leaves_scipy_linalg_unloaded(chain):
    linear = _SWEEP.format(filters='"minimax-linear", "raw", "rand", "pca", '
                                   '"ppls"', chain=chain)
    assert not _loaded_in_fresh_interpreter("scipy.linalg", linear)
    mlp = _SWEEP.format(filters='"minimax-mlp",', chain=chain)
    assert not _loaded_in_fresh_interpreter("scipy.linalg", mlp)
    # the check can see the module: an LDS filter loads it
    lds = _SWEEP.format(filters='"lds-init",', chain=chain)
    assert _loaded_in_fresh_interpreter("scipy.linalg", lds)


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
