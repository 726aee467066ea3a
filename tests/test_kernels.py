import importlib.machinery
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from privfilter import kernels
from privfilter.baselines import build_scatters, fix_eigvec_signs, privacy_lds
from privfilter.data import gen_synthetic
from privfilter.filters import _affine

_EXPIT = ("scipy.special._special_ufuncs", "expit", "scipy.special")
_DSYGVD = ("scipy.linalg._flapack", "dsygvd", "scipy.linalg.lapack")

# gen_synthetic arguments of the benchmark's linear-sweep and release-sweep
# data, with the number of unit generalized eigenvalues of their scatters:
# 8 subjects and 2 target classes leave 20 - 7 - 1 = 12 of 20 directions in
# both scatters' null space, 20 subjects and 4 classes 50 - 19 - 3 = 28 of 50
_SWEEP_DATA = [(dict(dim=20, n_subjects=8, n_target_classes=2, per_subject=40,
                     noise=0.5), 12),
               (dict(dim=50, n_subjects=20, n_target_classes=4,
                     per_subject=400, noise=1.0), 28)]


@pytest.fixture
def fresh_kernels():
    """Resolve the kernels anew in the test, and again after it."""
    kernels.scipy_kernel.cache_clear()
    yield
    kernels.scipy_kernel.cache_clear()


def _pencil(s):
    eye = np.eye(s.dim)
    return s.between_target + s.ridge * eye, s.between_private + s.ridge * eye


def _eigh_lds(s):
    """``privacy_lds(s, s.dim)`` computed from ``scipy.linalg.eigh``."""
    eigvals, eigvecs = scipy.linalg.eigh(*_pencil(s))
    vectors = eigvecs[:, np.argsort(eigvals)[::-1]]
    return fix_eigvec_signs(vectors / np.linalg.norm(vectors, axis=0))


@pytest.mark.parametrize("gen_kwargs, unit", _SWEEP_DATA,
                         ids=["linear-sweep", "release-sweep"])
def test_lds_equals_scipy_eigh_bit_for_bit(gen_kwargs, unit):
    data = gen_synthetic(**gen_kwargs, seed=0)
    s = build_scatters(data.X, data.y, data.z)
    numer, denom = _pencil(s)
    expected_values, expected_vectors = scipy.linalg.eigh(numer, denom)
    # the repeated unit eigenvalue, whose basis only the solver fixes
    assert np.sum(np.abs(expected_values - 1.0) < 1e-9) == unit
    values, vectors, info = kernels.scipy_kernel(*_DSYGVD)(
        numer, denom, itype=1, jobz="V", uplo="L")
    assert info == 0
    assert np.array_equal(values, expected_values)
    assert np.array_equal(vectors, expected_vectors)
    assert np.array_equal(privacy_lds(s, s.dim), _eigh_lds(s))


def _sigmoid_of(x):
    """The MLP filter's sigmoid of each entry of ``x``."""
    return _affine(x[:, None], np.ones((1, 1)), np.zeros(1), True)[:, 0]


def _sigmoid_grid():
    return np.concatenate([np.linspace(-750.0, 750.0, 150_001),
                           [0.0, np.inf, -np.inf]])


def test_mlp_sigmoid_equals_expit_bit_for_bit():
    x = _sigmoid_grid()
    assert np.array_equal(_sigmoid_of(x), scipy.special.expit(x))


def test_unfindable_kernel_module_falls_back_to_the_public_import(
        monkeypatch, fresh_kernels):
    data = gen_synthetic(**_SWEEP_DATA[0][0], seed=0)
    s = build_scatters(data.X, data.y, data.z)
    x = _sigmoid_grid()
    direct_lds, direct_sigmoid = privacy_lds(s, s.dim), _sigmoid_of(x)
    find_spec = importlib.machinery.PathFinder.find_spec
    hidden = {_EXPIT[0], _DSYGVD[0]}

    def unfindable(name, path=None, target=None):
        return None if name in hidden else find_spec(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        unfindable)
    for name in hidden:
        monkeypatch.delitem(sys.modules, name)
    kernels.scipy_kernel.cache_clear()
    assert kernels._load_extension(_EXPIT[0]) is None
    assert np.array_equal(privacy_lds(s, s.dim), direct_lds)
    assert np.array_equal(_sigmoid_of(x), direct_sigmoid)
    assert kernels.scipy_kernel(*_EXPIT) is scipy.special.expit
