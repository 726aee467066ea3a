"""SHA-256 digests of every reproducible output of the benchmark workloads.

    python3 tools/digests.py [--src DIR] [--workloads NAME ...] [--seeds N ...]
                             [--out FILE]
    python3 tools/digests.py --compare OLD.json NEW.json

The first form runs each workload of ``perfbench/workloads.py`` once per
seed on the privfilter package under ``--src`` (default: the ``src/``
beside this script) and writes one JSON object: the environment the
digests hold in, and per workload and seed a digest of

- ``payload``: ``EvalReport.scientific_payload()``;
- ``records``: every cell record without ``wall_time_s``;
- ``summary``: ``EvalReport.summary()``;
- ``csv`` and ``jsonl``: the files ``export_results`` writes, the
  ``.jsonl`` with ``wall_time_s`` dropped from each line;
- ``train_reports``: each minimax fit's ``TrainReport`` records, stop
  reason and stall counts;
- ``filters``: each minimax fit's final filter (kind, shape, params);
- ``cell_log``: the cell lines ``run_experiment`` logs, without ``wall=``;
- ``diameters``: the ``DiameterReport`` of a workload that computes one.

Run it at two commits and compare the files with ``--compare``: it lists
every output whose digest differs and exits 1, or exits 0 when all agree.
The payload is bit-stable only on one numeric stack (numpy's SIMD ``exp``
and the BLAS kernels differ between CPUs and builds), so two files whose
environments differ are not diffed: ``--compare`` names the differing
environment fields and exits 2.  Like ``perfbench/run.py`` it runs one
BLAS thread.
"""

import os
import sys

# One BLAS/OpenMP thread, as the benchmark runs.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_WALL = re.compile(r" wall=\S+")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the privfilter package")
    parser.add_argument("--workloads", nargs="+",
                        help="workload names (default: all)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1])
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two digest files instead of running")
    return parser.parse_args(argv)


def _sha(value) -> str:
    """Digest of bytes, or of a JSON value with sorted keys (floats by
    their shortest round-trip repr, so bit for bit)."""
    if not isinstance(value, bytes):
        value = json.dumps(value, sort_keys=True).encode("utf-8")
    return hashlib.sha256(value).hexdigest()


def _openblas_runtime(np):
    """(configuration, threads) that numpy's bundled OpenBLAS reports at
    run time, including the kernel core it picked for this CPU, or
    (None, None) where no such library is found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                return config().decode(), threads()
    return None, None


def _environment():
    """What the digests depend on besides the code: the interpreter, the
    numpy and scipy builds, the BLAS and its threads, and numpy's SIMD
    baseline and dispatch (the fields ``np.show_runtime()`` reports)."""
    import numpy as np
    import scipy
    from numpy._core._multiarray_umath import (__cpu_baseline__,
                                               __cpu_dispatch__,
                                               __cpu_features__)

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    config, threads = _openblas_runtime(np)
    return {"python": platform.python_version(), "machine": platform.machine(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np), "scipy_blas": blas(scipy),
            "blas_runtime": config, "blas_threads": threads,
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
            "simd_baseline": list(__cpu_baseline__),
            "simd_dispatch": [f for f in __cpu_dispatch__ if __cpu_features__[f]]}


class _CellLog(logging.Handler):
    """Collects the messages of the cell lines ``run_experiment`` logs."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.lines = []

    def emit(self, record):
        self.lines.append(_WALL.sub("", record.getMessage()))


def _digest_run(workload, seed, workdir):
    """The digests of one run of ``workload`` at ``seed``."""
    from privfilter import harness

    dataset = workload.prepare(seed, workload.write_inputs(seed, workdir))
    logger = logging.getLogger(harness.__name__)
    handler, level = _CellLog(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        report, log, diameters = workload.run(dataset)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    prefix = os.path.join(workdir, f"{workload.name}-seed{seed}-results")
    harness.export_results(report, prefix)
    with open(prefix + ".csv", "rb") as fh:
        csv_bytes = fh.read()
    with open(prefix + ".jsonl", encoding="utf-8") as fh:
        jsonl = [json.loads(line) for line in fh]
    records = [dict(record) for record in report.records]
    for row in jsonl + records:
        del row["wall_time_s"]
    return {
        "payload": _sha(report.scientific_payload()),
        "records": _sha(records),
        "summary": _sha(report.summary()),
        "csv": _sha(csv_bytes),
        "jsonl": _sha(jsonl),
        "train_reports": _sha([
            {"records": [dataclasses.asdict(r) for r in fit.records],
             "stop_reason": fit.stop_reason, "stall_probes": fit.stall_probes,
             "stall_inner_iterations": fit.stall_inner_iterations,
             "inner_unconverged": fit.inner_unconverged} for fit in log]),
        "filters": _sha([
            [s.kind.value, s.input_dim, s.output_dim, list(s.hidden_dims),
             s.params.tolist()] for s in (fit.final_state for fit in log)]),
        "cell_log": _sha(handler.lines),
        **({} if diameters is None else
           {"diameters": _sha(repr(dataclasses.astuple(diameters)).encode())}),
    }


def run(args):
    src = os.path.abspath(args.src)
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import privfilter
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(privfilter.__file__))) != src:
        raise SystemExit(f"privfilter was imported from {privfilter.__file__}, "
                         f"not from {src}")
    names = args.workloads or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    digests = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            digests[name] = {str(seed): _digest_run(workloads.WORKLOADS[name],
                                                    seed, workdir)
                             for seed in args.seeds}
    return {"src": src, "environment": _environment(), "digests": digests}


def compare(old, new) -> int:
    """Print how two digest files differ; 0 when every digest agrees, 1
    when some differ, 2 when their environments differ."""
    env_old, env_new = old["environment"], new["environment"]
    changed = sorted(k for k in env_old.keys() | env_new.keys()
                     if env_old.get(k) != env_new.get(k))
    if changed:
        print("not comparable: the environments differ")
        for key in changed:
            print(f"  {key}: {env_old.get(key)!r} != {env_new.get(key)!r}")
        return 2
    differ = []
    for name in sorted(old["digests"].keys() | new["digests"].keys()):
        seeds_old = old["digests"].get(name, {})
        seeds_new = new["digests"].get(name, {})
        for seed in sorted(seeds_old.keys() | seeds_new.keys(), key=int):
            a, b = seeds_old.get(seed, {}), seeds_new.get(seed, {})
            differ += [f"{name} seed {seed}: {output}"
                       for output in sorted(a.keys() | b.keys())
                       if a.get(output) != b.get(output)]
    for line in differ:
        print(f"differs: {line}")
    if not differ:
        print("identical: every digest agrees")
    return 1 if differ else 0


def main(argv=None):
    args = _parse_args(argv)
    if args.compare:
        files = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                files.append(json.load(fh))
        return compare(*files)
    text = json.dumps(run(args), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
