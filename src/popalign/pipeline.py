"""End-to-end alignment: Stage 1 importance resampling, Stage 2 transport.

run_alignment wires the full chain: fit the two KDEs, compute clamped
importance weights, keep the top fraction by weight, draw the candidate
multiset, deduplicate, solve batched entropic transport against the
reference, and draw the final aligned subset from the transport weights.
Every intermediate summary lands in the AlignmentReport; fixed (inputs,
config) reproduces outputs bit-identically.

Errors raised inside a stage propagate with their original type, a `stage`
attribute, and a message prefix naming the stage. Each stage, finished or
raising, logs one DEBUG event with its name and elapsed seconds to the
`popalign.pipeline` logger. When more than half of the pool's importance
log ratios are clamped (is_weights.clamp_count; every one of them at d = 20
with the default bandwidth), the same logger gives one WARNING naming the
count, the pool size and the bandwidth; the report does not change.
"""

from contextlib import contextmanager
from dataclasses import dataclass
import logging
import math
import time

import numpy as np

from .core import AlignmentConfig, ResponseMatrix, _fraction, validate_pool
from .errors import InvalidConfig, PopalignError, ResponderFailure
from .io import _config_mapping, canonical_json
from .kde import _LOG_CLAMP, _clamped_exp, fit_kde, importance_log_ratios
from .metrics import metric_report
from .ot import batched_ot_weights, resample_ot
from .parallel import run_pair
from .rng import derive_seed, rng_from_seed
from .sampling import multinomial_draw, normalize_weights

REPORT_VERSION = 2

logger = logging.getLogger(__name__)

# stream tags for the pipeline's independent draw streams
_STAGE1_STREAM = 11
_FINAL_STREAM = 12
_RANDOM_SELECT_STREAM = 13
_KDE_SUBSAMPLE_STREAM = 14
_SW_PRE_TAG = 21
_SW_POST_TAG = 22


@contextmanager
def _stage(name, timings):
    t0 = time.perf_counter()
    try:
        yield
    except PopalignError as e:
        e.stage = name
        if e.args:
            e.args = (f"stage {name}: {e.args[0]}",) + e.args[1:]
        else:
            e.args = (f"stage {name}",)
        raise
    finally:
        elapsed = time.perf_counter() - t0
        timings[name] = timings.get(name, 0.0) + elapsed
        logger.debug("stage %s: %.6f s", name, elapsed)


def collect_responses(personas, items, responder, seed):
    """Fill the N x d response matrix through the injected responder.

    Per-cell seeds derive from (seed, row, column), so recomputing any subset
    of cells reproduces the full-run values. Each cell gets exactly one
    `respond` call: retrying a fixed (persona, item, seed) call only helps
    against transient failures, and those are the client's to retry (see
    HttpResponder's `retries`). A call that raises or returns a non-finite
    value aborts with ResponderFailure carrying the cell's coordinates.
    """
    items = list(items)
    if not personas or not items:
        raise InvalidConfig("collect_responses needs at least one persona and one item")
    values = np.empty((len(personas), len(items)))
    for i, rec in enumerate(personas):
        for k, item in enumerate(items):
            try:
                value = float(responder.respond(rec.narrative, item, derive_seed(seed, i, k)))
            except Exception as exc:  # the injected responder may raise anything
                raise ResponderFailure(f"cell ({i}, {k}) failed: {exc}", row=i, col=k) from exc
            if not math.isfinite(value):
                raise ResponderFailure(
                    f"cell ({i}, {k}): responder returned non-finite {value!r}", row=i, col=k
                )
            values[i, k] = value
    return ResponseMatrix(values, tuple(items))


def truncate_by_weight(weights, retain_fraction):
    """Indices of the top ceil(retain_fraction * n) entries by weight.

    Ties resolve toward the lower index (stable order) and a NaN weight
    ranks last; the result is sorted ascending. That is the head of
    np.argsort(-w, kind="stable"), taken without the sort: one partition
    finds the n_keep-th key, every entry above it is kept, and the
    lowest-index entries equal to it fill the rest.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise InvalidConfig(f"weights must be a nonempty 1-d vector, got shape {w.shape}")
    n_keep = max(1, math.ceil(_fraction(retain_fraction, "retain_fraction") * w.size))
    key = np.negative(w)
    cut = np.partition(key, n_keep - 1)[n_keep - 1]
    if np.isnan(cut):  # partition, like argsort, ranks NaN last
        keep, ties = ~np.isnan(key), np.isnan(key)
    else:
        keep, ties = key < cut, key == cut
    keep[np.flatnonzero(ties)[:n_keep - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def _weight_summary(log_ratios):
    w, clamp_count = _clamped_exp(log_ratios)
    return w, {
        "min": float(w.min()),
        "median": float(np.median(w)),
        "max": float(w.max()),
        "clamp_count": clamp_count,
        "log_clamp": _LOG_CLAMP,
    }


@dataclass(frozen=True)
class AlignmentReport:
    """Everything a run observed, serializable as one canonical JSON document.

    `timings` is wall-clock and therefore excluded from the canonical
    serialization that the determinism guarantee covers; pass
    include_timings=True to report_json for a human-readable variant.
    """

    config: dict
    pool_sizes: dict
    is_weights: dict
    sinkhorn_batches: list
    metrics_random_select: dict
    metrics_aligned: dict
    selected: list  # [id, multiplicity] pairs sorted by id
    selected_ids: list  # draw order, length n_final
    timings: dict

    def to_dict(self, include_timings=False):
        doc = {
            "report_version": REPORT_VERSION,
            "config": self.config,
            "pool_sizes": self.pool_sizes,
            "is_weights": self.is_weights,
            "sinkhorn_batches": self.sinkhorn_batches,
            "metrics_random_select": self.metrics_random_select,
            "metrics_aligned": self.metrics_aligned,
            "selected": self.selected,
            "selected_ids": self.selected_ids,
        }
        if include_timings:
            doc["timings"] = self.timings
        return doc


def report_json(report, include_timings=False):
    """Canonical JSON text of the report (byte-stable for fixed inputs)."""
    return canonical_json(report.to_dict(include_timings=include_timings))


def _maybe_subsample(matrix, config, stream_word):
    cap = config.kde_fit_subsample
    if cap is None or matrix.n <= cap:
        return matrix
    rng = rng_from_seed(config.seed, stream=(_KDE_SUBSAMPLE_STREAM, stream_word))
    rows = np.sort(rng.choice(matrix.n, size=cap, replace=False))
    return matrix.take_rows(rows)


def run_alignment(pool_responses, reference, personas, config):
    """Align the pool to the reference; returns (selected ids, report).

    The returned list holds n_final persona ids in draw order (a multiset,
    duplicates expected). Every setting comes from config, and report.config
    records every field of it, so config_from_mapping(report.config) reruns
    the same report. config.kde_fit_subsample caps both KDE fitting sets by
    a seeded subsample for very large pools; None fits on everything. The
    persona density is evaluated self-inclusively (each pool point counts
    toward its own estimate, keeping importance ratios bounded at pool points
    the subsample missed) only when a subsample was actually taken, that is
    when the cap is below the pool size. A cap at or above it fits the whole
    pool, in which every point's own kernel is already a source term; a cap
    at or above both sample sizes gives the same selection and numbers as no
    cap. A transport batch that does not converge within
    config.sinkhorn_iters sweeps raises UnconvergedPlan.

    The importance weights (two stripes of both densities), each transport
    batch's set-up passes (two row stripes) and the two metric reports each
    run as a pair on two threads (parallel.run_pair), which pins numpy's
    process-wide OpenBLAS thread count to one while it runs: BLAS calls on
    other threads run single-threaded meanwhile, and a count they set is
    undone afterwards.
    """
    if not isinstance(config, AlignmentConfig):
        raise InvalidConfig("run_alignment needs an AlignmentConfig")
    timings = {}

    with _stage("validate", timings):
        pool = validate_pool(personas, pool_responses)
        if not isinstance(reference, ResponseMatrix):
            reference = ResponseMatrix(reference)
        pool_matrix = pool.responses
        if reference.d != pool_matrix.d:
            raise InvalidConfig(
                f"reference dimension {reference.d} differs from pool dimension {pool_matrix.d}"
            )
        if config.n_is_candidates > pool_matrix.n:
            raise InvalidConfig(
                f"n_is_candidates ({config.n_is_candidates}) exceeds pool size "
                f"({pool_matrix.n})"
            )
        row_to_id = pool.row_to_id
        if len(row_to_id) != pool_matrix.n:
            raise InvalidConfig(
                f"pool rows with personas: {len(row_to_id)} of {pool_matrix.n}; "
                f"every row needs exactly one persona"
            )

    with _stage("kde_fit", timings):
        human_model = fit_kde(_maybe_subsample(reference, config, 1), config.bandwidth)
        persona_fit = _maybe_subsample(pool_matrix, config, 2)
        persona_model = fit_kde(persona_fit, config.bandwidth)

    with _stage("importance_weights", timings):
        # a subsampled persona fit loses the self-term floor at pool points
        # outside the subset; include_query restores it
        log_ratios = importance_log_ratios(
            human_model, persona_model, pool_matrix,
            query_in_source=persona_fit is not pool_matrix,
        )
        is_weights, weight_summary = _weight_summary(log_ratios)
        if weight_summary["clamp_count"] > pool_matrix.n / 2:
            logger.warning(
                "importance weights: %d of %d pool log ratios clamped at +-%g "
                "(bandwidth %g); Stage 1 barely reweights the pool",
                weight_summary["clamp_count"], pool_matrix.n, _LOG_CLAMP, config.bandwidth,
            )

    with _stage("truncate", timings):
        kept = truncate_by_weight(is_weights, config.retain_fraction)

    with _stage("stage1_draw", timings):
        probs = normalize_weights(is_weights[kept])
        draw = multinomial_draw(
            probs, config.n_is_candidates, derive_seed(config.seed, _STAGE1_STREAM)
        )
        candidate_rows = kept[draw]

    with _stage("dedup", timings):
        distinct_rows = np.unique(candidate_rows)
        X_dagger = pool_matrix.take_rows(distinct_rows)

    with _stage("transport", timings):
        ot_w, batch_details = batched_ot_weights(X_dagger, reference, config)

    with _stage("final_draw", timings):
        final_draw = resample_ot(ot_w, config.n_final, derive_seed(config.seed, _FINAL_STREAM))
        selected_rows = distinct_rows[final_draw]

    with _stage("metrics", timings):
        rng = rng_from_seed(config.seed, stream=(_RANDOM_SELECT_STREAM,))
        baseline_rows = np.sort(rng.choice(pool_matrix.n, size=config.n_final, replace=False))
        # the two reports are independent: one pair (parallel.run_pair)
        metrics_pre, metrics_post = run_pair(
            lambda: metric_report(
                pool_matrix.take_rows(baseline_rows),
                reference,
                seed=derive_seed(config.seed, _SW_PRE_TAG),
            ),
            lambda: metric_report(
                pool_matrix.take_rows(selected_rows),
                reference,
                seed=derive_seed(config.seed, _SW_POST_TAG),
            ),
        )

    selected_ids = [row_to_id[int(r)] for r in selected_rows]
    counts = {}
    for sid in selected_ids:
        counts[sid] = counts.get(sid, 0) + 1
    report = AlignmentReport(
        config=_config_mapping(config),
        pool_sizes={
            "n_pool": pool_matrix.n,
            "m_reference": reference.n,
            "n_retained": int(kept.size),
            "n_is_raw": int(candidate_rows.size),
            "n_is_dedup": int(distinct_rows.size),
            "n_final": config.n_final,
        },
        is_weights=weight_summary,
        sinkhorn_batches=batch_details,
        metrics_random_select=metrics_pre.to_record(),
        metrics_aligned=metrics_post.to_record(),
        selected=[[sid, counts[sid]] for sid in sorted(counts)],
        selected_ids=selected_ids,
        timings=timings,
    )
    return selected_ids, report
