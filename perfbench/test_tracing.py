"""Self-test of the benchmark's tracing wrappers.

    python3 -m pytest perfbench/test_tracing.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import tracing  # noqa: E402
from privfilter import harness  # noqa: E402
from privfilter.data import gen_synthetic  # noqa: E402
from privfilter.minimax_opt import classification_tradeoff  # noqa: E402
from run import BoundCheck  # noqa: E402


def _all_patches(tracer):
    return BoundCheck().patches() + tracing.trace_patches(tracer)


def test_unwrapping_restores_every_patched_attribute():
    tracer = tracing.Tracer()
    patches = _all_patches(tracer)
    originals = [getattr(module, attr) for module, attr, _ in patches]
    with tracing.Patched(BoundCheck().patches()):
        with tracing.Patched(tracing.trace_patches(tracer)):
            assert all(getattr(module, attr) is not original
                       for (module, attr, _), original in zip(patches, originals))
    assert all(getattr(module, attr) is original
               for (module, attr, _), original in zip(patches, originals))


def test_unwrapping_restores_attributes_after_an_exception():
    tracer = tracing.Tracer()
    patches = tracing.trace_patches(tracer)
    originals = [getattr(module, attr) for module, attr, _ in patches]
    try:
        with tracing.Patched(patches):
            raise KeyError("boom")
    except KeyError:
        pass
    assert all(getattr(module, attr) is original
               for (module, attr, _), original in zip(patches, originals))


def test_self_times_of_nested_spans_are_never_negative():
    data = gen_synthetic(dim=6, n_subjects=3, n_target_classes=2,
                         per_subject=12, noise=0.5, seed=1)
    cfg = harness.ExperimentConfig(
        filters=("minimax-linear", "pca"), dims=(2,),
        epsilon_inverses=(0.0, 1.0), chain="pre", trials=1, lds_init=True,
        tradeoff=classification_tradeoff(10.0, 1e-6, max_iter=3))
    tracer = tracing.Tracer()
    with tracing.Patched(tracing.trace_patches(tracer)):
        root = tracer.begin(tracing.ROOT)
        report = harness.run_experiment(cfg, data)
        tracer.end(root)
    assert all(r["error"] is None for r in report.records)
    names = {span.name for span in tracer.spans}
    assert {"minimax.objective", "heads.inner_fit", "harness.eval_fit",
            "filters.apply", "dp_mech.bound"} <= names
    assert max(span.parent or 0 for span in tracer.spans) > 0  # nesting
    assert min(tracing.self_times(tracer.spans)) >= -1e-9


def test_traced_run_reproduces_the_untraced_payload():
    data = gen_synthetic(dim=6, n_subjects=3, n_target_classes=2,
                         per_subject=12, noise=0.5, seed=2)
    cfg = harness.ExperimentConfig(
        filters=("minimax-linear",), dims=(2,), epsilon_inverses=(0.0, 0.5),
        chain="pre", trials=1,
        tradeoff=classification_tradeoff(10.0, 1e-6, max_iter=3))
    plain = harness.run_experiment(cfg, data)
    with tracing.Patched(tracing.trace_patches(tracing.Tracer())):
        traced = harness.run_experiment(cfg, data)
    assert traced.scientific_payload() == plain.scientific_payload()
