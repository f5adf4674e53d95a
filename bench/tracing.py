"""Spans recorded around calls into popalign, from outside the library.

A Tracer keeps finished spans in memory: name, start, end, the span that
caused it and the job it belongs to. Self time is a span's duration minus the
time its direct children cover (calls are single-threaded, so children never
overlap). A Tracer made with record_peaks=True also records, for spans
opened with peak=True, the peak number of bytes allocated while they ran
(tracemalloc, which numpy reports its buffers to). tracemalloc slows every
allocation, so the benchmark takes peaks on a separate job whose times it
discards.

`instrument` swaps each traced function for a wrapper in the namespace its
caller looks it up from (for example `popalign.pipeline.metric_report`, not
`popalign.metrics.metric_report`) and restores every original on exit.
"""

from contextlib import contextmanager
import itertools
import os
import time
import tracemalloc


class Tracer:
    def __init__(self, record_peaks=False):
        self.record_peaks = record_peaks
        self.spans = []
        self._open = []
        self._ids = itertools.count()
        self.job = None

    @contextmanager
    def span(self, name, peak=False):
        parent = self._open[-1] if self._open else None
        rec = {
            "job": self.job,
            "name": name,
            "parent": None if parent is None else parent["id"],
            "id": next(self._ids),
            "child_s": 0.0,
            "attrs": {},
        }
        self._open.append(rec)
        # peak spans are not nested; an inner one would reset the outer's peak
        peak = peak and self.record_peaks and not tracemalloc.is_tracing()
        if peak:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if peak:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._open.pop()
            dur = rec["end"] - rec["start"]
            rec["self_s"] = dur - rec["child_s"]
            if parent is not None:
                parent["child_s"] += dur
            self.spans.append(rec)

    def job_spans(self, job):
        return [s for s in self.spans if s["job"] == job]


# Recorders run inside the span with (span, args, kwargs, result) and store
# computed counts; they never change what the call returns.


def _kde_pairs(rec, args, kwargs, out):
    model, X = args[0], args[1]
    queries = X.n if hasattr(X, "n") else len(X)
    rec["attrs"]["kernel_pairs"] = queries * model.samples.n


def _sinkhorn_plan(rec, args, kwargs, plan):
    n, m = plan.gamma.shape
    rec["attrs"].update(cells=n * m, iterations=plan.iterations_run)


def _file_bytes(rec, args, kwargs, out):
    rec["attrs"]["bytes"] = os.path.getsize(args[0])


# (span name, call site below popalign, record peak memory?, recorder)
TRACED = [
    ("core.validate_pool", "pipeline.validate_pool", False, None),
    ("kde.fit_kde", "pipeline.fit_kde", False, None),
    ("kde.log_density_many", "kde.log_density_many", True, _kde_pairs),
    ("pipeline.truncate_by_weight", "pipeline.truncate_by_weight", False, None),
    ("sampling.multinomial_draw", "pipeline.multinomial_draw", False, None),
    ("sampling.multinomial_draw", "ot.multinomial_draw", False, None),
    ("ot.batched_ot_weights", "pipeline.batched_ot_weights", False, None),
    ("ot.cost_matrix", "ot.cost_matrix", False, None),
    ("ot.sinkhorn", "ot.sinkhorn", True, _sinkhorn_plan),
    ("metrics.metric_report", "pipeline.metric_report", True, None),
    ("metrics.amw", "metrics.amw", False, None),
    ("metrics.frechet_distance", "metrics.frechet_distance", False, None),
    ("metrics.sliced_wasserstein", "metrics.sliced_wasserstein", False, None),
    ("metrics.mmd", "metrics.mmd", False, None),
    ("metrics.mae_corr", "metrics.mae_corr", False, None),
    ("retrieval.EmbeddingIndex.build", "retrieval.EmbeddingIndex.build", False, None),
    ("retrieval.top_k_retrieve", "retrieval.top_k_retrieve", False, None),
    ("retrieval.build_training_pairs", "retrieval.build_training_pairs", False, None),
    ("io.load_embeddings", "io.load_embeddings", False, _file_bytes),
    ("io.save_pairs", "io.save_pairs", False, _file_bytes),
]


def _resolve(popalign, path):
    """(owner object, attribute name) for a dotted path below popalign."""
    *owner_path, attr = path.split(".")
    owner = popalign
    for part in owner_path:
        owner = getattr(owner, part)
    return owner, attr


def _wrapper(tracer, name, peak, record, fn):
    def traced(*args, **kwargs):
        with tracer.span(name, peak=peak) as rec:
            out = fn(*args, **kwargs)
            if record is not None:
                record(rec, args, kwargs, out)
            return out

    return traced


def _as_classmethod(bound_traced):
    # the wrapped original is already bound to its class; drop the cls passed in
    return classmethod(lambda cls, *args, **kwargs: bound_traced(*args, **kwargs))


@contextmanager
def instrument(tracer, popalign):
    """Wrap every TRACED call site for the duration of the block."""
    saved = []
    try:
        for name, path, peak, record in TRACED:
            owner, attr = _resolve(popalign, path)
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            traced = _wrapper(tracer, name, peak, record, getattr(owner, attr))
            if isinstance(raw, classmethod):
                traced = _as_classmethod(traced)
            setattr(owner, attr, traced)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
