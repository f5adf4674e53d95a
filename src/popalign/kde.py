"""Gaussian kernel density estimation and importance weights.

The density estimate over an M-sample fitting set S in d dimensions is

    r_hat(x) = (1 / (M (2 pi h^2)^{d/2})) * sum_i exp(-||x - s_i||^2 / (2 h^2))

evaluated entirely in log space (log-sum-exp), which survives the severe
underflow a plain average hits already at moderate dimension. Importance
weights are the exponentiated log-density ratio target/source with a
configurable symmetric clamp on the log ratio; an unbounded ratio would let a
single far-out candidate swallow the whole resampling budget.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.special import logsumexp

from .core import ResponseMatrix, _finite_values, _sq_dist_blocks
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    NonPositiveBandwidth,
)

# d=1 evaluations switch to the Hermite fast Gauss transform above this many
# source*query pairs; below it the dense path is cheaper than the setup cost
_FGT_MIN_PAIRS = 2_000_000

# Hermite truncation order and box reach (in boxes of width h) for ~1e-15
# absolute error at 1e5 sources; see _fgt_gauss_sums_1d
_FGT_ORDER = 24
_FGT_REACH = 11

# linear-space kernel sums below this are recomputed densely in log space:
# transform error is absolute (~1e-13 worst case), so small sums go through
# the dense path to keep ~1e-11 relative precision everywhere
_FGT_SAFE_SUM = 1e-2


@dataclass(frozen=True)
class DensityModel:
    """Fitted Gaussian KDE: fitting samples, bandwidth, log normalizer.

    log_norm_const = log(M * (2 pi h^2)^{d/2}); stored so density queries are
    a single log-sum-exp plus one subtraction.
    """

    samples: ResponseMatrix
    bandwidth: float
    log_norm_const: float

    @property
    def d(self):
        return self.samples.d


def fit_kde(samples, bandwidth):
    """Fit a Gaussian KDE with shared bandwidth `bandwidth` on `samples`."""
    if not isinstance(samples, ResponseMatrix):
        samples = ResponseMatrix(samples)
    h = float(bandwidth)
    if not math.isfinite(h) or h <= 0:
        raise NonPositiveBandwidth(f"bandwidth must be positive, got {bandwidth!r}")
    m, d = samples.values.shape
    log_norm = math.log(m) + 0.5 * d * math.log(2.0 * math.pi * h * h)
    return DensityModel(samples=samples, bandwidth=h, log_norm_const=log_norm)


def _queries(model, X, ndim):
    """X as a float array of ndim dimensions whose last has length model.d, all finite."""
    Q = _finite_values(X, "query", ndim)
    if Q.shape[-1] != model.d:
        raise DimensionMismatch(f"query has shape {Q.shape}, model dimension is {model.d}")
    return Q


def log_density(model, x, include_query=False):
    """log r_hat(x) for a single length-d query point.

    Finite whenever any fitting sample is within floating range of x; -inf
    only when every kernel term underflows entirely. With include_query=True
    the query is scored as if it were one more fitting sample (kernel sum
    gains the zero-distance term, normalizer uses M+1), so the result never
    drops below the lone-kernel floor -log((M+1) (2 pi h^2)^{d/2}).
    """
    q = _queries(model, x, ndim=1)
    diff = model.samples.values - q
    sq = np.einsum("ij,ij->i", diff, diff)
    scale = -1.0 / (2.0 * model.bandwidth * model.bandwidth)
    lse = logsumexp(sq * scale)
    if include_query:
        m = model.samples.n
        return float(np.logaddexp(lse, 0.0) - model.log_norm_const
                     - math.log((m + 1) / m))
    return float(lse - model.log_norm_const)


def _fgt_gauss_sums_1d(sources, queries, h):
    """Sum_i exp(-(q_j - s_i)^2 / (2 h^2)) for every query, in linear space.

    Hermite fast Gauss transform: sources are binned into boxes of width h,
    each box keeps a truncated Hermite expansion of its kernel mass about the
    box center, and every query accumulates the expansions of nearby boxes.
    With order 24 and reach 11 boxes the absolute error is ~1e-15 * n_sources
    * machine-level factors, far below the self-term scale of 1; values that
    could be dominated by that error are recomputed densely by the caller.
    Cost is O((n_sources + n_queries) * order * reach) instead of the dense
    O(n_sources * n_queries).
    """
    s = np.asarray(sources, dtype=np.float64).ravel()
    q = np.asarray(queries, dtype=np.float64).ravel()
    sqrt_delta = h * math.sqrt(2.0)  # kernel is exp(-((q-s)/sqrt_delta)^2)
    origin = min(s.min(), q.min())
    width = h
    s_box = np.floor((s - origin) / width).astype(np.intp)
    q_box = np.floor((q - origin) / width).astype(np.intp)
    n_boxes = int(max(s_box.max(), q_box.max())) + 1
    centers = origin + (np.arange(n_boxes) + 0.5) * width

    # Hermite coefficients per box: A_k = sum_{i in box} u_i^k / k!,
    # u = (s - center) / sqrt_delta, |u| <= width / (2 sqrt_delta) = 1/(2 sqrt 2)
    u = (s - centers[s_box]) / sqrt_delta
    coeffs = np.zeros((_FGT_ORDER + 1, n_boxes))
    term = np.ones_like(u)
    coeffs[0] = np.bincount(s_box, weights=term, minlength=n_boxes)
    for k in range(1, _FGT_ORDER + 1):
        term = term * u / k
        coeffs[k] = np.bincount(s_box, weights=term, minlength=n_boxes)

    # accumulate sum_k A_k(box) H_k(t) e^{-t^2} over boxes within reach,
    # H_k by the physicists' recurrence, vectorized over all queries
    out = np.zeros(q.size)
    for offset in range(-_FGT_REACH, _FGT_REACH + 1):
        b = q_box + offset
        valid = (b >= 0) & (b < n_boxes)
        if not valid.any():
            continue
        bv = b[valid]
        t = (q[valid] - centers[bv]) / sqrt_delta
        gauss = np.exp(-t * t)
        h_prev = np.ones_like(t)
        acc = coeffs[0, bv] * h_prev
        h_cur = 2.0 * t
        for k in range(1, _FGT_ORDER + 1):
            acc += coeffs[k, bv] * h_cur
            h_next = 2.0 * t * h_cur - 2.0 * k * h_prev
            h_prev, h_cur = h_cur, h_next
        out[valid] += acc * gauss
    return out


def _dense_kernel_lse(S, Q, bandwidth):
    """log sum_i exp(-||q - s_i||^2 / (2 h^2)) per query row (no normalizer).

    The distance blocks (core._sq_dist_blocks) come already scaled by
    -1 / (2 h^2), so each needs only an exp and sums in its own buffer.

    At a self-query (Q is S, the pipeline's persona density whenever the fit
    is not subsampled) only the upper blocks are computed: each block's row
    sums serve its own rows, and the column sums of its off-diagonal part
    serve the later rows, so every pair's kernel value is computed once. The
    sums stay in linear space with no shift, because each row holds its own
    self term exp(0) = 1 and cannot underflow.

    Otherwise each block is shifted in place by its row maximum before the
    exp, so the nearest source contributes exactly 1 and a row can never
    underflow to -inf; the shift is added back after the log. That is
    logsumexp's guarantee without scipy's temporaries; log_density keeps
    scipy's logsumexp as the independent oracle.
    """
    scale = -1.0 / (2.0 * bandwidth * bandwidth)
    if Q is S:
        sums = np.zeros(S.shape[0])
        for lo, hi, k in _sq_dist_blocks(S, scale=scale):
            np.exp(k, out=k)
            sums[lo:hi] += k.sum(axis=1)
            sums[hi:] += k[:, hi - lo:].sum(axis=0)
        return np.log(sums)
    out = np.empty(Q.shape[0])
    for lo, hi, k in _sq_dist_blocks(Q, S, scale=scale):
        kmax = k.max(axis=1)
        k -= kmax[:, None]
        np.exp(k, out=k)
        out[lo:hi] = np.log(k.sum(axis=1)) + kmax
    return out


def log_density_many(model, X, include_query=False):
    """log r_hat at every row of X.

    Agrees with per-row log_density to ~1e-12 absolute on a typical response
    scale. d=1 at scale runs through the fast Gauss transform; queries whose
    linear kernel sum is small enough that transform error could matter are
    recomputed densely, so tail values keep dense-path precision.
    include_query matches log_density: each query is treated as an extra
    fitting sample for its own evaluation. Use it when the fitting set is a
    subsample of the population the queries come from; a query the subsample
    missed otherwise gets an arbitrarily small density and an arbitrarily
    large importance ratio.
    """
    Q = _queries(model, X, ndim=2)
    S = model.samples.values
    if model.d == 1 and S.shape[0] * Q.shape[0] >= _FGT_MIN_PAIRS:
        span = max(S[:, 0].max(), Q[:, 0].max()) - min(S[:, 0].min(), Q[:, 0].min())
        if span / model.bandwidth < 200_000:
            sums = _fgt_gauss_sums_1d(S[:, 0], Q[:, 0], model.bandwidth)
            if include_query:
                out = np.log1p(sums)
                out -= model.log_norm_const + math.log(
                    (S.shape[0] + 1) / S.shape[0]
                )
                return out
            out = np.empty(Q.shape[0])
            safe = sums >= _FGT_SAFE_SUM
            out[safe] = np.log(sums[safe])
            if not safe.all():
                out[~safe] = _dense_kernel_lse(S, Q[~safe], model.bandwidth)
            out -= model.log_norm_const
            return out
    out = _dense_kernel_lse(S, Q, model.bandwidth)
    if include_query:
        np.logaddexp(out, 0.0, out=out)
        out -= model.log_norm_const + math.log((S.shape[0] + 1) / S.shape[0])
    else:
        out -= model.log_norm_const
    return out


def importance_log_ratios(human_model, persona_model, X, query_in_source=False):
    """Unclamped log(r_hat_human(x_i) / r_hat_persona(x_i)) per row of X.

    query_in_source=True evaluates the persona (source) model with
    include_query, for the case where it was fit on a subsample of the very
    pool X ranges over.
    """
    if human_model.d != persona_model.d:
        raise DimensionMismatch(
            f"model dimensions differ: {human_model.d} vs {persona_model.d}"
        )
    return log_density_many(human_model, X) - log_density_many(
        persona_model, X, include_query=query_in_source
    )


def importance_weights(human_model, persona_model, X, log_clamp=30.0,
                       query_in_source=False):
    """Importance-sampling weights w_i = exp(clamped log density ratio).

    The log ratio is clamped to [-log_clamp, +log_clamp] before
    exponentiation, so every weight is finite and strictly positive. On
    identical models the ratio is exactly zero and every weight is exactly 1.
    """
    ratios = importance_log_ratios(human_model, persona_model, X,
                                   query_in_source=query_in_source)
    return _clamped_exp(ratios, log_clamp)[0]


def _clamped_exp(log_ratios, log_clamp):
    """(exp of log_ratios clamped to [-log_clamp, +log_clamp], count clamped).

    Raises InvalidConfig unless log_clamp is positive: a zero clamp sets
    every weight to 1 and a negative one to a constant, which silently
    disables importance resampling.
    """
    c = float(log_clamp)
    if not c > 0:
        raise InvalidConfig(f"log_clamp must be positive, got {log_clamp!r}")
    clamp_count = int(np.count_nonzero(np.abs(log_ratios) > c))
    return np.exp(np.clip(log_ratios, -c, c)), clamp_count
