import os
import subprocess
import sys

import privfilter


def test_public_names_resolve_once():
    names = privfilter.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(privfilter, name)]
    assert not missing


def test_import_loads_no_scipy_optimize():
    # scipy.optimize adds about 0.13 s and 17 MB to every process that
    # imports the package, and no solver in it is used
    src = os.path.dirname(os.path.dirname(privfilter.__file__))
    probe = "import sys, privfilter; print('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "False"
