"""In-memory span tracer that wraps privfilter's public functions from outside.

Each wrapped name is patched in the namespace of the module that calls it
(``harness.fit_softmax``, ``minimax_opt.apply_filter``, ...), so the library
itself is untouched and unwrapping restores the exact original objects.
Spans carry a name, start, end, parent index and a small attribute dict;
they stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from privfilter import data, dp_mech, harness, heads, minimax_opt

ROOT = "bench.body"
SETUP_ROOT = "bench.setup"
CHECK = "trace.check"
EVAL_FIT = "harness.eval_fit"

# Span-name prefix -> library module.  "bench" spans are the benchmark's own
# roots; their self time is the unattributed remainder.  "trace" spans are
# checks the tracer itself runs and belong to no layer.
LAYER_OF_PREFIX = {
    "filters": "filters", "heads": "heads", "minimax": "minimax_opt",
    "closed_form": "closed_form", "baselines": "baselines",
    "dp_mech": "dp_mech", "data": "data", "harness": "harness",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_PREFIX.values()))


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index):
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index].end = time.perf_counter()

    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start,
                                     "end": span.end, "parent": span.parent,
                                     "attrs": span.attrs}))
                fh.write("\n")


# ------------------------------------------------------------------ patching

def _arguments(signature, args, kwargs):
    bound_args = signature.bind(*args, **kwargs)
    bound_args.apply_defaults()
    return bound_args.arguments


def _rows_arg(name):
    def annotate(arguments, result, span):
        span.attrs["rows"] = int(np.shape(arguments[name])[0])
    return annotate


def _bound_attrs(arguments, result, span):
    rows = np.atleast_2d(np.asarray(arguments["h"], dtype=np.float64))
    span.attrs["rows"] = rows.shape[0]
    if dp_mech.BoundKind(arguments["kind"]) is dp_mech.BoundKind.CLIP:
        norms = np.linalg.norm(rows, axis=1)
        span.attrs["clipped"] = int((norms > arguments["scale"]).sum())


def _result_rows(arguments, result, span):
    span.attrs["rows"] = int(np.shape(result)[0])


def _loaded_rows(arguments, result, span):
    span.attrs["rows"] = result.n_samples


def _train_attrs(arguments, result, span):
    span.attrs["outer_iters"] = result.iterations
    span.attrs["inner_iters"] = sum(r.inner_iterations for r in result.records)
    span.attrs["phi_final"] = result.final_objective


def _simple(tracer, fn, name, annotate=None):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(_arguments(signature, args, kwargs), result,
                         tracer.spans[index])
            return result
        finally:
            tracer.end(index)
    return wrapper


def _diameters(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        index = tracer.begin("dp_mech.diameters")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
            tracer.spans[index].attrs["peak_mb"] = (
                tracemalloc.get_traced_memory()[1] / 2**20)
            if not was_tracing:
                tracemalloc.stop()
    return wrapper


def _softmax_fit(tracer, fn, risk_fn):
    """An evaluation head's solve is part of its harness.eval_fit span; any
    other softmax fit (the minimax inner problem) gets a heads.inner_fit
    span, and its returned head is checked against the requested tol."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = tracer.current()
        if parent is not None and parent.name == EVAL_FIT:
            head, nit = fn(*args, **kwargs)
            parent.attrs["iters"] = parent.attrs.get("iters", 0) + nit
            return head, nit
        index = tracer.begin("heads.inner_fit")
        try:
            head, nit = fn(*args, **kwargs)
            span = tracer.spans[index]
            span.attrs["iters"] = nit
            check = tracer.begin(CHECK)
            try:
                arguments = _arguments(signature, args, kwargs)
                grad = risk_fn(head, arguments["G"], arguments["labels"])[1]
                span.attrs["unconverged"] = int(
                    np.linalg.norm(grad) > arguments["tol"])
            finally:
                tracer.end(check)
            return head, nit
        finally:
            tracer.end(index)
    return wrapper


def trace_patches(tracer):
    """(module, attribute, replacement factory) for every traced call site."""
    def simple(name, annotate=None):
        return lambda fn: _simple(tracer, fn, name, annotate)

    risk = heads.softmax_risk
    return [
        (harness, "train_minimax", simple("minimax.train", _train_attrs)),
        (minimax_opt, "joint_objective", simple("minimax.objective")),
        (minimax_opt, "descent_direction", simple("minimax.direction")),
        (minimax_opt, "apply_filter", simple("filters.apply", _rows_arg("X"))),
        (minimax_opt, "filter_param_grad", simple("filters.vjp")),
        (harness, "apply_filter", simple("filters.apply", _rows_arg("X"))),
        (harness, "pretrain_autoencoder", simple("filters.pretrain")),
        (heads, "fit_softmax_with_info", lambda fn: _softmax_fit(tracer, fn, risk)),
        (heads, "fit_reconstruction", simple("heads.recon_fit")),
        (heads, "softmax_risk", simple("heads.risk")),
        (heads, "reconstruction_risk", simple("heads.risk")),
        (harness, "fit_filter", simple("harness.fit_filter")),
        (harness, "fit_softmax", simple(EVAL_FIT)),
        (harness, "split_per_subject", simple("data.split")),
        (harness, "bound", simple("dp_mech.bound", _bound_attrs)),
        (harness, "bound_scale_from_norms", simple("dp_mech.scale")),
        (harness, "sample_noise", simple("dp_mech.noise", _result_rows)),
        (harness, "fit_pca", simple("baselines.fit")),
        (harness, "fit_ppls", simple("baselines.fit")),
        (harness, "fit_rand", simple("baselines.fit")),
        (harness, "build_scatters", simple("closed_form.lds")),
        (harness, "privacy_lds", simple("closed_form.lds")),
        (dp_mech, "compute_diameters", lambda fn: _diameters(tracer, fn)),
        (data, "load_csv", simple("data.load_csv", _loaded_rows)),
    ]


class Patched:
    """Context manager: install replacements, restore the originals on exit."""

    def __init__(self, patches):
        self._patches = patches
        self._saved = []

    def __enter__(self):
        try:
            for module, attr, factory in self._patches:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, factory(original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


# --------------------------------------------------------------- aggregation

def self_times(spans):
    """Span duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return [span.end - span.start - child_time[i] for i, span in enumerate(spans)]


def layer_metrics(tracer, setup_tracer, body_s, cell_times):
    """Per-layer metrics of one traced repetition; ``data.load_csv`` is
    read from the traced set-up, the rest from the repetition's body."""
    spans = tracer.spans
    own = self_times(spans)
    check_time = [0.0] * len(spans)
    for span in spans:
        if span.name == CHECK and span.parent is not None:
            check_time[span.parent] += span.end - span.start

    def pick(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def calls(name):
        return float(len(pick(name)))

    def total(name):
        return float(sum(spans[i].end - spans[i].start - check_time[i]
                         for i in pick(name)))

    def self_total(name):
        return float(sum(own[i] for i in pick(name)))

    def attr(name, key):
        return float(sum(spans[i].attrs.get(key, 0) for i in pick(name)))

    layer_self = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    for span, own_s in zip(spans, own):
        prefix = span.name.split(".", 1)[0]
        if span.name == ROOT:
            unattributed += own_s
        elif prefix in LAYER_OF_PREFIX:
            layer_self[LAYER_OF_PREFIX[prefix]] += own_s

    train_calls = calls("minimax.train")
    probes = calls("minimax.objective") - train_calls
    outer = attr("minimax.train", "outer_iters")
    bound_rows = attr("dp_mech.bound", "rows")
    loads = [s for s in setup_tracer.spans if s.name == "data.load_csv"]
    m = {
        "minimax.train.s": total("minimax.train"),
        "minimax.outer_iters": outer,
        "minimax.inner_iters": attr("minimax.train", "inner_iters"),
        "minimax.objective.calls": calls("minimax.objective"),
        "minimax.objective.self_s": self_total("minimax.objective"),
        "minimax.direction.calls": calls("minimax.direction"),
        "minimax.direction.self_s": self_total("minimax.direction"),
        "minimax.accept_ratio": outer / probes if probes > 0 else 0.0,
        "minimax.phi_final": (attr("minimax.train", "phi_final") / train_calls
                              if train_calls else 0.0),
        "heads.inner_fit.calls": calls("heads.inner_fit"),
        "heads.inner_fit.s": total("heads.inner_fit"),
        "heads.inner_fit.iters": attr("heads.inner_fit", "iters"),
        "heads.inner_fit.unconverged": attr("heads.inner_fit", "unconverged"),
        "heads.recon_fit.calls": calls("heads.recon_fit"),
        "heads.recon_fit.s": total("heads.recon_fit"),
        "heads.risk.calls": calls("heads.risk"),
        "heads.risk.s": total("heads.risk"),
        "harness.eval_fit.calls": calls(EVAL_FIT),
        "harness.eval_fit.s": total(EVAL_FIT),
        "harness.eval_fit.iters": attr(EVAL_FIT, "iters"),
        "harness.fit_filter.s": total("harness.fit_filter"),
        "harness.cell.s_p50": float(statistics.median(cell_times)),
        "filters.apply.calls": calls("filters.apply"),
        "filters.apply.s": total("filters.apply"),
        "filters.apply.rows": attr("filters.apply", "rows"),
        "filters.vjp.calls": calls("filters.vjp"),
        "filters.vjp.s": total("filters.vjp"),
        "filters.pretrain.s": total("filters.pretrain"),
        "dp_mech.bound.calls": calls("dp_mech.bound"),
        "dp_mech.bound.s": total("dp_mech.bound"),
        "dp_mech.bound.rows": bound_rows,
        "dp_mech.bound.clip_frac": (attr("dp_mech.bound", "clipped") / bound_rows
                                    if bound_rows else 0.0),
        "dp_mech.noise.s": total("dp_mech.noise"),
        "dp_mech.noise.rows": attr("dp_mech.noise", "rows"),
        "dp_mech.diameters.s": total("dp_mech.diameters"),
        "dp_mech.diameters.peak_mb": attr("dp_mech.diameters", "peak_mb"),
        "data.load_csv.s": float(sum(s.end - s.start for s in loads)),
        "data.load_csv.rows": float(sum(s.attrs["rows"] for s in loads)),
        "data.split.s": total("data.split"),
        "closed_form.lds.s": total("closed_form.lds"),
        "baselines.fit.s": total("baselines.fit"),
    }
    for layer, seconds in layer_self.items():
        m[f"self.{layer}_s"] = seconds
    m["self.unattributed_s"] = unattributed
    m["trace.check_s"] = float(sum(s.end - s.start for s in spans if s.name == CHECK))
    m["share.heads.inner_fit"] = self_total("heads.inner_fit") / body_s
    m["share.harness.eval_fit"] = self_total(EVAL_FIT) / body_s
    m["share.filters"] = layer_self["filters"] / body_s
    m["share.unattributed"] = unattributed / body_s
    return m
