"""The two compiled scipy routines the package calls, loaded on their own.

The MLP filter's sigmoid is scipy's ``expit`` ufunc and the LDS baseline
solves its generalized symmetric eigenproblem with LAPACK ``dsygvd``.
Both must be scipy's own, bit for bit: the MLP workloads' private
accuracies and the LDS basis of a repeated eigenvalue ride on their last
bits (``filters``, ``baselines.privacy_lds``).  Importing
``scipy.special`` or ``scipy.linalg`` to reach them also loads
``scipy._lib._array_api``, ``numpy.testing`` and more: the first LDS
solve or MLP forward pass took 0.23-0.29 s and 19-22 MB that way, and
takes 0.002-0.009 s and 1.5-4.2 MB with ``scipy_kernel``, which executes
only the compiled extension module that defines the routine (scipy
1.17.1, one BLAS thread, 2-core x86-64 machine).
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import os
import sys


@functools.cache
def scipy_kernel(extension: str, name: str, public: str):
    """``name`` from scipy's compiled module ``extension`` (its dotted
    name, e.g. ``"scipy.special._special_ufuncs"``), loaded without its
    package.

    The module is found in the scipy installation's directory and
    executed on its own, so the package (``scipy.special``,
    ``scipy.linalg``) is not imported; the object returned is the one that
    package re-exports, and a later import of the package uses the same
    module.  Where this scipy ships no such module or no such name in it,
    ``name`` comes from the public module ``public`` instead.  Each
    routine is resolved once per process.
    """
    module = sys.modules.get(extension) or _load_extension(extension)
    kernel = getattr(module, name, None)
    if kernel is None:
        kernel = getattr(importlib.import_module(public), name)
    return kernel


def _load_extension(extension):
    """The module ``extension`` executed outside its package, or None when
    the installed scipy does not ship it."""
    top, *packages, _ = extension.split(".")
    root = importlib.machinery.PathFinder.find_spec(top)
    if root is None or not root.submodule_search_locations:
        return None
    path = [os.path.join(location, *packages)
            for location in root.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(extension, path)
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    sys.modules[extension] = module  # as an import would, so scipy reuses it
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[extension]
        raise
    return module
