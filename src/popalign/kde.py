"""Gaussian kernel density estimation and importance weights.

The density estimate over an M-sample fitting set S in d dimensions is

    r_hat(x) = (1 / (M (2 pi h^2)^{d/2})) * sum_i exp(-||x - s_i||^2 / (2 h^2))

evaluated entirely in log space (log-sum-exp), which survives the severe
underflow a plain average hits already at moderate dimension. Importance
weights are the exponentiated log-density ratio target/source with a
symmetric clamp on the log ratio (_LOG_CLAMP); an unbounded ratio would let a
single far-out candidate swallow the whole resampling budget.

At d = 1 and scale the kernel sums run through a fast Gauss transform in
linear space (_fgt_gauss_sums_1d). A row whose sum is too small for the
transform's absolute error is summed exactly over a window of the sorted
sources around its query (_window_kernel_lse), never against every source;
each such evaluation logs one DEBUG event on the `popalign.kde` logger with
its query count, small-sum rows and window pairs summed. MMD's kernel means
(metrics._kernel_mean) are these sums too, so a d=1 MMD at scale logs its
`fgt:` events as well.
"""

from dataclasses import dataclass
import logging
import math

import numpy as np

from .core import (
    ResponseMatrix,
    _finite_values,
    _floored_exp,
    _positive_real,
    _self_tiles,
    _sq_dist_blocks,
    _sq_dist_operands,
)
from .errors import DimensionMismatch, NonPositiveBandwidth
from .parallel import run_pair

logger = logging.getLogger(__name__)

# the importance log ratio is clamped to [-_LOG_CLAMP, _LOG_CLAMP], so every
# weight lies in [e^-30, e^30]; the report records it as is_weights.log_clamp
_LOG_CLAMP = 30.0

# d=1 evaluations switch to the fast Gauss transform from this many
# source*query pairs. Measured on a 2-core x86-64 VM (Student-t(3) samples,
# Scott bandwidth, best of 15, median of 3 inputs): a self-query takes
# 0.54 ms dense vs 0.80 ms FGT at 500x500 and 0.94 vs 0.89 ms at 700x700;
# a cross query 0.79 vs 0.91 ms at 450x450 and 1.83 vs 0.92 ms at 500x500.
# The transform's cost is about 0.8 ms flat up to here, so the crossover
# lies between 2e5 and 5e5 pairs; at 2e6 pairs a cross query takes 6.4 ms
# dense against 0.84 ms FGT
_FGT_MIN_PAIRS = 250_000

# Hermite truncation order and box reach (in boxes of width h): the
# expansion and the Taylor translation together truncate at most 4e-21 of a
# source's kernel (60-digit arithmetic at the box corners), and a source
# beyond the reach is at least 11 h away, weighing below exp(-60.5) ~ 5e-27;
# see _fgt_gauss_sums_1d
_FGT_ORDER = 24
_FGT_REACH = 11

# a dense cross strip whose every row holds a kernel term of at least
# exp(_NEAR_LOG_TERM), a normal double e^100 times exp(core._EXP_FLOOR),
# is summed without the row-max shift, which took a fifth of the desk
# human density (28.2 against 22.7 ms, 6000 x 1600, one BLAS thread)
_NEAR_LOG_TERM = -600.0

# linear-space kernel sums below this are recomputed exactly in log space:
# transform error is absolute (a few ulp of the nearby kernel mass, about
# 1e-15 relative on sums of order 1), so small sums go through the windowed
# exact sum to keep ~1e-11 relative precision everywhere
_FGT_SAFE_SUM = 1e-2

# a windowed row sums the sources s with (q - s)^2 <= d0^2 + 2 h^2 L, d0 the
# nearest source's distance: each term left out weighs under e^-L = 8.8e-27
# of the row's largest, so together they weigh under 2^-60 of it while the
# sources number fewer than 9.9e7 (the argument of _FGT_REACH's e^-60.5)
_WINDOW_LOG_REACH = 60.0
# pairs a windowed sum walks at a time (128 KiB per array of them): at
# core._BLOCK_ELEMS pairs a chunk, the benchmark's tails-1d job peaked 2 MB
# higher in RSS than with dense small-sum rows (the freed chunks stayed
# resident); at this size it peaks as they did
_WINDOW_CHUNK = 1 << 14


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
    h = _positive_real(bandwidth, "bandwidth", NonPositiveBandwidth)
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
    # scipy is imported here, not at module level: no pipeline stage calls
    # this oracle, and `import popalign` stays free of scipy's import time
    from scipy.special import logsumexp

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


def _fgt_boxes(x, origin, h):
    """Box k = floor((x - origin) / h) of each point and its offset from the
    box centre in units of delta = h sqrt 2, (x - origin - (k + 1/2) h) / delta.

    The translation between boxes takes centres o boxes apart to be exactly
    o h apart, so the offsets are taken from those exact centres: x - origin
    is carried as a double plus its rounding error (TwoSum), and the centre
    as two exact products (k + 1/2) h_hi + (k + 1/2) h_lo (Veltkamp split of
    h, exact while k < 2^26). The offset is then accurate to its own
    rounding, not to that of the span, and sources and queries agree on it
    as they do in the dense sum.
    """
    d = x - origin
    back = d - x
    err = (x - (d - back)) - (origin + back)
    box = np.floor(d / h).astype(np.intp)
    split = h * 134217729.0  # 2^27 + 1
    h_hi = split - (split - h)
    mid = box + 0.5
    d -= mid * h_hi
    err -= mid * (h - h_hi)
    d += err
    d /= h * math.sqrt(2.0)
    return box, d


def _fgt_gauss_sums_1d(sources, queries, h):
    """Sum_i exp(-(q_j - s_i)^2 / (2 h^2)) for every query, in linear space.

    Fast Gauss transform with Hermite-to-Taylor translation (Greengard &
    Strain, "The Fast Gauss Transform", SIAM J. Sci. Stat. Comput. 12(1),
    1991). Sources and queries are binned into boxes of width h, and each
    box keeps the Hermite coefficients A_k of its kernel mass about its
    centre. Every box that holds a query gathers the boxes within reach into
    one Taylor expansion about its own centre,

        B_l(b) = (-1)^l / l! sum_{o=-R..R} sum_k A_k(b - o) h_{k+l}(o / sqrt 2),

    with h_n(x) = H_n(x) e^{-x^2}. Centres o boxes apart are o h apart, so
    each offset is one constant (p+1) x (p+1) matrix and the translation is
    2R+1 small matrix products. Each query then evaluates one degree-p
    polynomial in y = (q - centre) / (h sqrt 2), |y| <= 1/(2 sqrt 2).

    Cost is O(n_s p + boxes R p^2 + n_q p) instead of the dense O(n_s n_q);
    only boxes that hold a query are translated, and the caller's span/h
    guard bounds the box count. A 60k x 60k Student-t self-query takes about
    10 ms on a 2-core x86-64 VM, in about 4 MiB. Against dense sums, sums >= _FGT_SAFE_SUM agree to 2e-15
    relative (normal and Student-t(3) samples, h from 0.05 to 0.8, offsets
    up to 1e3), and a lone source's kernel to 4e-16 absolute: _fgt_boxes
    measures every offset from the exact box centres the translation
    assumes. The error is absolute, a few ulp of the nearby kernel mass,
    so sums that it could dominate are summed exactly by the caller.
    """
    p, reach = _FGT_ORDER, _FGT_REACH
    s = np.asarray(sources, dtype=np.float64).ravel()
    q = np.asarray(queries, dtype=np.float64).ravel()
    origin = min(s.min(), q.min())
    s_box, u = _fgt_boxes(s, origin, h)
    q_box, y = _fgt_boxes(q, origin, h)
    n_boxes = int(max(s_box.max(), q_box.max())) + 1

    # Hermite coefficients per box: A_k = sum_{i in box} u_i^k / k!,
    # |u| <= 1/(2 sqrt 2); reach empty boxes pad each end, so every offset
    # box has a column
    coeffs = np.zeros((p + 1, n_boxes + 2 * reach))
    inner = coeffs[:, reach:reach + n_boxes]
    term = np.ones_like(u)
    inner[0] = np.bincount(s_box, weights=term, minlength=n_boxes)
    for k in range(1, p + 1):
        term *= u
        term /= k
        inner[k] = np.bincount(s_box, weights=term, minlength=n_boxes)
    del u, term

    # Hermite functions h_n(x) = H_n(x) e^{-x^2}, n <= 2p, at the box-centre
    # gaps x = o / sqrt 2 (centres o boxes apart are o h = x delta apart)
    o = np.arange(-reach, reach + 1)
    two_x = o * math.sqrt(2.0)
    herm = np.empty((o.size, 2 * p + 1))
    herm[:, 0] = np.exp(-0.5 * o * o)
    herm[:, 1] = two_x * herm[:, 0]
    for n in range(1, 2 * p):
        herm[:, n + 1] = two_x * herm[:, n] - 2.0 * n * herm[:, n - 1]
    # translation for offset o: T_o[l, k] = (-1)^l / l! h_{k+l}(o / sqrt 2)
    orders = np.arange(p + 1)
    sign_fact = np.array([(-1.0) ** l / math.factorial(l) for l in orders])
    trans = herm[:, orders[:, None] + orders[None, :]] * sign_fact[:, None]

    # Taylor coefficients about the centre of each box that holds a query:
    # B_l(b) = sum_o T_o @ A(b - o), the same source boxes the Hermite sum
    # reached from there
    held = np.flatnonzero(np.bincount(q_box, minlength=n_boxes))
    taylor = np.zeros((p + 1, held.size))
    for i in range(o.size):
        taylor += trans[i] @ coeffs[:, held + (2 * reach - i)]
    slot = np.empty(n_boxes, dtype=np.intp)
    slot[held] = np.arange(held.size)
    q_slot = slot[q_box]

    # each query: one degree-p polynomial in y by Horner's rule, one
    # coefficient row at a time
    del coeffs, slot, q_box
    out = taylor[p][q_slot]
    row = np.empty_like(out)
    for l in range(p - 1, -1, -1):
        out *= y
        out += np.take(taylor[l], q_slot, out=row)
    return out


def _dense_stripes(S, Q, bandwidth):
    """(work, finish) for log sum_i exp(-||q - s_i||^2 / (2 h^2)) per query
    row q of Q (no normalizer), in two stripes.

    work(s) does stripe s's share (s = 0, 1) and returns its accumulator;
    finish(first, second) takes stripe 0's and stripe 1's and returns the
    log sums. The stripes write only their own sums or their own rows of a
    shared output, so they may run on two threads; each one's work is
    fixed, so the bits do not depend on whether they do. The operands are
    prepared (and their overflow gate checked) here, on the calling thread.
    The distance blocks come already scaled by -1 / (2 h^2) and unclamped,
    so each needs only a clamp-and-exp in place (core._floored_exp) and
    sums.

    At a self-query (Q is S: an unsubsampled persona density, MMD's
    within-sample means) the pairs are walked in core._self_tiles' square
    upper tiles, and stripe s takes the tile rows that core assigns it. A
    tile's row sums serve its own rows and, above the diagonal, its column
    sums serve its columns' rows, so every pair's kernel value is computed
    once. Each stripe sums into its own vector, and finish adds the two in
    stripe order. The sums stay in linear space with no shift, because each
    row holds its own self term exp(0) = 1 and cannot underflow.

    Otherwise stripe s takes the row strips of the queries that
    core._sq_dist_blocks assigns it, and each stripe writes its own rows of
    one output. A strip with a row whose nearest source lies far (largest
    term below exp(_NEAR_LOG_TERM)) is shifted in place by its row maxima
    before the exp, so the nearest source contributes exactly 1 and a row
    can never underflow to -inf; the shift is added back after the log.
    Every other strip is summed as it is: each row's largest term is then a
    normal double that the floored terms cannot move. That is logsumexp's
    guarantee without scipy's temporaries; log_density keeps scipy's
    logsumexp as the independent oracle.

    The row maxima are taken from the unclamped strip, so their max also
    tells _floored_exp whether the strip holds an entry at or past 0 and
    needs the clamp. They are clamped at 0 before a shift: a row with an
    entry past 0 shifts by 0, and the clamp after the shift gives its
    entries the bits a clamp before it would.
    """
    scale = -1.0 / (2.0 * bandwidth * bandwidth)
    # row and column sums are products with a vector of ones: one
    # matrix-vector product reads a 256 x 256 tile in about half the time
    # of numpy's sum along either axis
    ones = np.ones(S.shape[0])
    if Q is S:
        ops = _sq_dist_operands(S, scale=scale)

        def work(stripe):
            sums = np.zeros(S.shape[0])
            for rows, cols, k in _self_tiles(ops, stripe):
                _floored_exp(k)
                sums[rows] += k @ ones[cols]
                if cols != rows:
                    sums[cols] += ones[rows] @ k
            return sums

        return work, lambda first, second: np.log(first + second)

    ops = _sq_dist_operands(Q, S, scale=scale)
    out = np.empty(Q.shape[0])

    def work(stripe):
        for lo, hi, k in _sq_dist_blocks(ops, stripe=stripe):
            kmax = k.max(axis=1)
            clamp = kmax.max() >= 0
            if kmax.min() < _NEAR_LOG_TERM:
                np.minimum(kmax, 0.0, out=kmax)  # the clamped strip's row maxima
                k -= kmax[:, None]
            else:
                kmax[:] = 0.0
            _floored_exp(k, clamp)
            out[lo:hi] = np.log(k @ ones) + kmax

    return work, lambda first, second: out


def _uses_fgt(S, Q, bandwidth):
    """Whether a d=1 evaluation of Q against S takes the fast Gauss transform."""
    if S.shape[1] != 1 or S.shape[0] * Q.shape[0] < _FGT_MIN_PAIRS:
        return False
    span = max(S[:, 0].max(), Q[:, 0].max()) - min(S[:, 0].min(), Q[:, 0].min())
    return span / bandwidth < 200_000


def _window_kernel_lse(sources, q, bandwidth):
    """(log sum_i exp(-(q - s_i)^2 / (2 h^2)) per query q, pairs summed), d=1.

    The sources are sorted once. Each query sums exactly, from direct
    differences, only the window of sources within (q - s)^2 <= d0^2 + 2 h^2
    _WINDOW_LOG_REACH of it, d0 being its nearest source's distance, shifted
    by the nearest term as the dense path's row-max shift is: that term
    contributes exactly 1 (an equidistant pair, 1 each), so a row never
    underflows to -inf, and the shift is added back after the log. The
    nearest source is always in its window, however the ends round. The
    ragged windows are walked as one run of pairs, _WINDOW_CHUNK at a time,
    so memory stays bounded when many far queries face a dense cluster.
    """
    s = np.sort(sources)
    scale = -1.0 / (2.0 * bandwidth * bandwidth)
    pos = np.searchsorted(s, q)
    left, right = np.maximum(pos - 1, 0), np.minimum(pos, s.size - 1)
    d_left, d_right = (q - s[left]) ** 2, (q - s[right]) ** 2
    near = np.where(d_right < d_left, right, left)
    d0 = np.minimum(d_left, d_right)
    reach = np.sqrt(d0 + 2.0 * bandwidth * bandwidth * _WINDOW_LOG_REACH)
    lo = np.minimum(np.searchsorted(s, q - reach, side="left"), near)
    hi = np.maximum(np.searchsorted(s, q + reach, side="right"), near + 1)
    shift = d0 * scale
    ends = np.cumsum(hi - lo)
    total = int(ends[-1])
    # pair p of row r (ends[r - 1] <= p < ends[r]) is source p + offset[r]
    offset = hi - ends
    sums = np.zeros(q.size)
    for first in range(0, total, _WINDOW_CHUNK):
        pair = np.arange(first, min(first + _WINDOW_CHUNK, total))
        row = np.searchsorted(ends, pair, side="right")
        pair += offset[row]
        t = np.take(q, row)
        t -= np.take(s, pair)
        t *= t
        t *= scale
        t -= np.take(shift, row)
        np.exp(t, out=t)
        r0 = row[0]
        row -= r0
        sums[r0:r0 + row[-1] + 1] += np.bincount(row, weights=t)
    return np.log(sums) + shift, total


def _fgt_kernel_lse(S, Q, bandwidth, include_query):
    """log sum_i exp(-(q - s_i)^2 / (2 h^2)) per query row through the fast
    Gauss transform, d=1.

    Queries whose linear kernel sum is small enough that transform error
    could matter are summed exactly over a window of the sorted sources
    (_window_kernel_lse); under include_query the query's own term 1
    swamps that error, so only a sum that it took below zero is. Logs one
    DEBUG event: queries, sources, small-sum rows and window pairs summed.
    """
    sums = _fgt_gauss_sums_1d(S[:, 0], Q[:, 0], bandwidth)
    small = np.flatnonzero(sums < (0.0 if include_query else _FGT_SAFE_SUM))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(sums)
    pairs = 0
    if small.size:
        out[small], pairs = _window_kernel_lse(S[:, 0], Q[small, 0], bandwidth)
    logger.debug(
        "fgt: %d queries against %d sources, %d small-sum rows, %d window pairs",
        Q.shape[0], S.shape[0], small.size, pairs,
    )
    return out


def _kernel_lse_stripes(S, Q, bandwidth, include_query=False, home=0):
    """_dense_stripes, or at d=1 and scale one fast Gauss transform
    (_fgt_kernel_lse), which stripe `home` runs whole: the one choice of
    path, for the densities and MMD's kernel means alike."""
    if not _uses_fgt(S, Q, bandwidth):
        return _dense_stripes(S, Q, bandwidth)

    def work(stripe):
        return _fgt_kernel_lse(S, Q, bandwidth, include_query) if stripe == home else None

    return work, lambda first, second: (first, second)[home]


def _kernel_lse(S, Q, bandwidth):
    """_kernel_lse_stripes' log sums, both stripes on the calling thread:
    never through run_pair, as MMD already runs inside the metrics pair."""
    work, finish = _kernel_lse_stripes(S, Q, bandwidth)
    return finish(work(0), work(1))


def _density_stripes(model, X, include_query=False, home=0):
    """(work, finish) for log_density_many(model, X, include_query) in two stripes.

    The query gate runs here, the log kernel sums in _kernel_lse_stripes,
    and finish adds include_query's own term and the normalizer.
    """
    Q = _queries(model, X, ndim=2)
    S = model.samples.values
    work, lse = _kernel_lse_stripes(S, Q, model.bandwidth, include_query, home)

    def finish(first, second):
        out = lse(first, second)
        if include_query:
            np.logaddexp(out, 0.0, out=out)
            out -= model.log_norm_const + math.log((S.shape[0] + 1) / S.shape[0])
        else:
            out -= model.log_norm_const
        return out

    return work, finish


def log_density_many(model, X, include_query=False):
    """log r_hat at every row of X.

    Agrees with per-row log_density to ~1e-12 absolute on a typical response
    scale. d=1 at scale runs through the fast Gauss transform; queries whose
    linear kernel sum is small enough that transform error could matter are
    summed exactly over a window of the sorted sources around them, so tail
    values keep (or, from direct differences, better) dense-path precision.
    include_query matches log_density: each query is treated as an extra
    fitting sample for its own evaluation. Use it when the fitting set is a
    subsample of the population the queries come from; a query the subsample
    missed otherwise gets an arbitrarily small density and an arbitrarily
    large importance ratio.
    """
    work, finish = _density_stripes(model, X, include_query)
    return finish(work(0), work(1))


def importance_log_ratios(human_model, persona_model, X, query_in_source=False):
    """Unclamped log(r_hat_human(x_i) / r_hat_persona(x_i)) per row of X.

    query_in_source=True evaluates the persona (source) model with
    include_query, for the case where it was fit on a subsample of the very
    pool X ranges over. Both densities are cut into the same two stripes
    (_density_stripes), and one pair (parallel.run_pair) runs stripe 0 of
    the human then the persona density beside stripe 1 of each; at d=1 the
    two fast Gauss transforms run side by side. The stripes' work is fixed,
    so the bits do not depend on whether the pair runs on one thread or
    two. run_pair pins numpy's process-wide OpenBLAS thread count to one
    while it runs: BLAS calls on other threads run single-threaded
    meanwhile, and a count they set is undone afterwards.
    """
    if human_model.d != persona_model.d:
        raise DimensionMismatch(
            f"model dimensions differ: {human_model.d} vs {persona_model.d}"
        )
    human_work, human = _density_stripes(human_model, X, home=0)
    persona_work, persona = _density_stripes(persona_model, X, query_in_source, home=1)
    first, second = run_pair(
        lambda: (human_work(0), persona_work(0)),
        lambda: (human_work(1), persona_work(1)),
    )
    return human(first[0], second[0]) - persona(first[1], second[1])


def importance_weights(human_model, persona_model, X, query_in_source=False):
    """Importance-sampling weights w_i = exp(clamped log density ratio).

    The log ratio is clamped to [-_LOG_CLAMP, +_LOG_CLAMP] before
    exponentiation, so every weight is finite and strictly positive. On
    identical models the ratio is exactly zero and every weight is exactly 1.
    """
    ratios = importance_log_ratios(human_model, persona_model, X,
                                   query_in_source=query_in_source)
    return _clamped_exp(ratios)[0]


def _clamped_exp(log_ratios):
    """(exp of log_ratios clamped to [-_LOG_CLAMP, +_LOG_CLAMP], count clamped)."""
    clamp_count = int(np.count_nonzero(np.abs(log_ratios) > _LOG_CLAMP))
    return np.exp(np.clip(log_ratios, -_LOG_CLAMP, _LOG_CLAMP)), clamp_count
