"""privfilter benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run.  Earlier stdout lines give the
environment and a readable table.  Full results (and, when traced, the
spans) are written under ``.perfbench-out/``.  A failed correctness check
prints ``"correct": false`` and exits with status 1.
"""

import os
import sys

# One BLAS/OpenMP thread: the timings are steadier and the accuracy and
# objective figures stay bit-stable.  Must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                    "private_acc": "fraction", "target_acc": "fraction"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def _import_seconds():
    """Median wall time of ``import privfilter`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import privfilter; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


class BoundCheck:
    """Wraps ``harness.bound`` in every repetition and records the largest
    released row norm: the LDP sensitivity contract needs it to be <= 1."""

    def __init__(self):
        self.worst_norm = 0.0

    def patches(self):
        import numpy as np
        from privfilter import harness

        def factory(fn):
            @functools.wraps(fn)
            def checked(*args, **kwargs):
                out = fn(*args, **kwargs)
                norms = np.linalg.norm(np.atleast_2d(out), axis=1)
                self.worst_norm = max(self.worst_norm, float(norms.max()))
                return out
            return checked
        return [(harness, "bound", factory)]


def _repetition(workload, dataset, bound_check, tracer=None):
    import tracing
    with tracing.Patched(bound_check.patches()):
        if tracer is None:
            start = time.perf_counter()
            report, log, diameters = workload.run(dataset)
            elapsed = time.perf_counter() - start
        else:
            with tracing.Patched(tracing.trace_patches(tracer)):
                root = tracer.begin(tracing.ROOT)
                try:
                    report, log, diameters = workload.run(dataset)
                finally:
                    tracer.end(root)
            span = tracer.spans[root]
            elapsed = span.end - span.start
    return {"s": elapsed, "report": report, "log": log, "diameters": diameters}


def _measure(workload, dataset, seconds, trace):
    """Repeat the body until ``seconds`` would be exceeded (at least once).

    Traced runs alternate an untraced and a traced repetition, so both see
    the same machine state and the overhead is their difference.  They
    first run one untimed repetition: a process's first repetition is
    slower (cold caches, first-touch page faults), and that cost would
    otherwise land on the untraced side."""
    import tracing
    bound_check = BoundCheck()
    warmup = [_repetition(workload, dataset, bound_check)] if trace else []
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        plain.append(_repetition(workload, dataset, bound_check))
        if trace:
            tracer = tracing.Tracer()
            rep = _repetition(workload, dataset, bound_check, tracer)
            rep["tracer"] = tracer
            traced.append(rep)
        step = time.perf_counter() - step_start
        if time.perf_counter() - start + step > seconds:
            return warmup, plain, traced, bound_check


def _quality(rep):
    records = rep["report"].records
    good = [r for r in records if r["error"] is None]

    def mean(key):
        return sum(r[key] for r in good) / len(good) if good else 0.0
    finals = [t.final_objective for t in rep["log"]]
    return {"private_acc": mean("private_accuracy"),
            "target_acc": mean("target_accuracy"),
            "error_rate": (len(records) - len(good)) / len(records),
            "phi_final": sum(finals) / len(finals) if finals else None}


def _checks(reps, bound_check):
    """Failure messages; empty when every correctness check passes."""
    failures = []
    payload = reps[0]["report"].scientific_payload()
    for rep in reps:
        for record in rep["report"].records:
            if record["error"] is not None:
                failures.append(f"cell {record['filter']}/{record['epsilon_inverse']}"
                                f" failed: {record['error']}")
        if rep["report"].scientific_payload() != payload:
            failures.append("repetitions (traced or not) disagree on the "
                            "scientific payload")
        for train in rep["log"]:
            objectives = [r.objective for r in train.records]
            rises = sum(b > a for a, b in zip(objectives, objectives[1:]))
            if rises:
                failures.append(f"minimax objective rose on {rises} step(s)")
        diameters = rep["diameters"]
        if diameters is not None and not (diameters.cross_attained
                                          and diameters.within_attained):
            failures.append("compute_diameters found no qualifying pair")
    if bound_check.worst_norm > 1.0:
        failures.append(f"a bounded row has norm {bound_check.worst_norm!r} > 1")
    return failures


def _per_layer_unit(name):
    if name.endswith(("_s", ".s", ".s_p50")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("share.") or name.endswith(("_frac", "_ratio")):
        return "fraction"
    if name == "minimax.phi_final":
        return "objective"
    return "count"


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "privfilter", "__init__.py")):
        print(f"error: no privfilter sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import privfilter
    if os.path.dirname(os.path.dirname(os.path.abspath(privfilter.__file__))) != SRC:
        print(f"error: imported privfilter from {privfilter.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = _environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    os.makedirs(OUT, exist_ok=True)
    handle = workload.write_inputs(args.seed, OUT)
    import_s = _import_seconds()
    prepare_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        dataset = workload.prepare(args.seed, handle)
        prepare_times.append(time.perf_counter() - start)
    setup_tracer = None
    if args.trace:
        setup_tracer = tracing.Tracer()
        with tracing.Patched(tracing.trace_patches(setup_tracer)):
            root = setup_tracer.begin(tracing.SETUP_ROOT)
            dataset = workload.prepare(args.seed, handle)
            setup_tracer.end(root)

    warmup, plain, traced, bound_check = _measure(workload, dataset,
                                                  args.seconds, args.trace)
    reps = warmup + plain + traced
    failures = _checks(reps, bound_check)
    quality = _quality(plain[0])
    run_s = statistics.median(r["s"] for r in plain)
    end_to_end = {
        "setup_s": import_s + statistics.median(prepare_times),
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "private_acc": quality["private_acc"],
        "target_acc": quality["target_acc"],
    }
    print(f"workload {workload.name} seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced repetition(s)")
    for name, value in end_to_end.items():
        print(f"  {name:<12} {value:.6g} {END_TO_END_UNITS[name]}")
    cells = len(plain[0]["report"].records)
    print(f"  {'error_rate':<12} {quality['error_rate']:.6g} fraction "
          f"({round(quality['error_rate'] * cells)}/{cells} cells)")
    phi = quality["phi_final"]
    print(f"  {'phi_final':<12} "
          f"{'n/a (no minimax fit)' if phi is None else f'{phi:.6g} objective'}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "env": env, "repetitions": [r["s"] for r in plain],
              "end_to_end": end_to_end, "quality": quality, "failures": failures}
    if args.trace:
        per_rep = []
        for rep in traced:
            cell_times = [r["wall_time_s"] for r in rep["report"].records]
            per_rep.append(tracing.layer_metrics(rep["tracer"], setup_tracer,
                                                 rep["s"], cell_times))
        metrics = {name: statistics.median(m[name] for m in per_rep)
                   for name in per_rep[0]}
        metrics["trace.run_s"] = statistics.median(r["s"] for r in traced)
        metrics["trace.untraced_run_s"] = run_s
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - run_s
        for name in ("share.heads.inner_fit", "share.harness.eval_fit",
                     "share.filters", "share.unattributed", "trace.overhead_s"):
            print(f"  {name:<24} {metrics[name]:.4g}")
        traced[-1]["tracer"].write_jsonl(os.path.join(
            OUT, f"{workload.name}-seed{args.seed}-spans.jsonl"))
        result["per_layer"] = metrics
        reported = {name: {"value": value, "unit": _per_layer_unit(name)}
                    for name, value in metrics.items()}
    else:
        reported = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in end_to_end.items()}
    with open(os.path.join(OUT, f"{workload.name}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    attempted = sum(len(r["report"].records) for r in reps)
    failed = sum(r["error"] is not None for rep in reps
                 for r in rep["report"].records)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": reported}), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
