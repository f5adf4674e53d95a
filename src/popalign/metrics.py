"""Divergence metrics between two empirical response distributions.

The judging suite: per-item averaged 1D Wasserstein (AMW), Gaussian Frechet
distance, sliced Wasserstein over random projections, squared MMD with a
Gaussian kernel, and the mean absolute gap between inter-item Pearson
correlations. All metrics are pure functions of the two sample sets; the only
randomness (sliced Wasserstein projections) is seeded and bit-stable.

`core._two_samples` is the suite's one input gate: an empty sample raises
EmptyInput and a non-finite entry NonFiniteValue with its row and column
(core._finite_values, which pearson_corr_matrix takes as well).

One exact 1-d W1 kernel on quantile functions, `_w1_rows`, serves
wasserstein_1d, amw (all columns at once) and, at exponent p=2,
checks.wasserstein2_1d: each side is sorted once, and one merged integer
grid of quantile breakpoints (`_quantile_grid`), shared by every row, turns
the integral into a matrix-vector product (`_w1_sorted`). sliced_wasserstein
builds the grid once and projects, sorts in place and scores one cache-sized
chunk of directions at a time through `_w1_sorted`, so it holds no
n_projections x n array; every chunk reuses the same projection and gather
buffers. At equal sample sizes the grid is the identity, and the sorted rows
are subtracted with no gather.

The MMD bandwidth's median heuristic is core's exact selection
(`core._median_pairwise_distance`), np.median's value bit for bit. MMD's
kernel means are the KDE's kernel sums (`kde._kernel_lse`) averaged over
queries: its dense stripes, or at d = 1 and scale its fast Gauss transform.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    _BLOCK_ELEMS,
    _count,
    _finite_values,
    _median_pairwise_distance,
    _positive_real,
    _two_samples,
)
from .errors import (
    ConstantColumn,
    DegenerateBandwidth,
    DimensionMismatch,
    InsufficientSamples,
    NonFiniteValue,
)
from .kde import _kernel_lse
from .rng import rng_from_seed

_SW_STREAM = 0x736C696365  # "slice"


def _w1_rows(P, Q, p=1):
    """Exact 1-d W_p^p between each row of P (c x n_x) and the same row of Q (c x n_y).

    W_p^p is the integral over t in (0, 1] of |F_P^-1(t) - F_Q^-1(t)|^p; the
    default p=1 is W1. Scaled by n_x n_y, the two quantile functions step at
    the integers i n_y and j n_x, so one merged integer grid, shared by every
    row, gives each interval's width and the sorted indices on both sides.
    Each side is sorted once for all rows, and each cache-sized chunk of rows
    is one matrix-vector product.
    """
    xs, ys = np.sort(P, axis=1), np.sort(Q, axis=1)
    return _w1_sorted(xs, ys, _quantile_grid(xs.shape[1], ys.shape[1]), p)


def _quantile_grid(nx, ny):
    """(ix, iy, widths, step, scratch): the merged integer grid of _w1_rows for
    n_x and n_y samples, the rows of a cache-sized chunk over it (one
    matrix-vector product), and one buffer for a chunk's two gathered
    quantile rows, which every chunk scored over this grid reuses (pages of
    it that no chunk reaches are never touched)."""
    grid = np.union1d(np.arange(nx + 1) * ny, np.arange(ny + 1) * nx)
    widths = np.diff(grid).astype(np.float64)
    step = max(1, _BLOCK_ELEMS // widths.size)
    return grid[:-1] // ny, grid[:-1] // nx, widths, step, np.empty((2, step * widths.size))


def _w1_sorted(xs, ys, grid, p=1):
    """_w1_rows on rows already sorted, over their _quantile_grid.

    A chunk's quantiles are gathered into the grid's scratch: where malloc
    served fresh memory, the fresh gathers of every chunk page-faulted on
    every sliced_wasserstein call (about 4750 minor faults a call at desk
    size, against about 1170 with the scratch). They are gathered grid
    point by grid point, so the gaps' transpose has the column-major layout
    that fancy indexing (xs[:, ix]) gave them, and the matrix-vector
    product, whose rounding follows the layout, keeps its bits. The indices
    are in range, so mode="clip" spares take a buffered copy of out.

    Equal sample sizes make the grid the identity (ix = iy = 0..n-1, every
    width n), as in the pipeline's metrics whenever n_final equals the
    reference size: the sorted rows are then subtracted straight into the
    same column-major gaps, with no gather (0.25 against 0.38 ms a chunk of
    26 rows of 5000; one thread, 2-core x86-64 VM).
    """
    ix, iy, widths, step, scratch = grid
    identity = xs.shape[1] == ys.shape[1]
    out = np.empty(xs.shape[0])
    for lo in range(0, out.size, step):
        hi = min(lo + step, out.size)
        gap_t = scratch[0, :(hi - lo) * widths.size].reshape(widths.size, hi - lo)
        if identity:
            np.subtract(xs[lo:hi].T, ys[lo:hi].T, out=gap_t)
        else:
            other = scratch[1, :gap_t.size].reshape(gap_t.shape)
            np.take(xs[lo:hi].T, ix, axis=0, out=gap_t, mode="clip")
            gap_t -= np.take(ys[lo:hi].T, iy, axis=0, out=other, mode="clip")
        np.abs(gap_t, out=gap_t)
        if p != 1:
            gap_t **= p
        out[lo:hi] = gap_t.T @ widths
    return out / (xs.shape[1] * ys.shape[1])


def wasserstein_1d(x, y):
    """Exact W1 between two 1-d empirical distributions.

    The integral of |F_x^-1 - F_y^-1| over (0, 1], i.e. of |F_x - F_y| over
    the merged support; for equal sizes this is the mean absolute gap
    between sorted order statistics.
    """
    A, B = _two_samples(np.reshape(x, (-1, 1)), np.reshape(y, (-1, 1)))
    return float(_w1_rows(A.T, B.T)[0])


def amw(X, Y):
    """Mean over items of the exact per-column 1D W1."""
    A, B = _two_samples(X, Y)
    return float(np.mean(_w1_rows(A.T, B.T)))


def _sqrtm_psd(S):
    w, V = np.linalg.eigh(S)
    np.maximum(w, 0.0, out=w)
    return (V * np.sqrt(w)) @ V.T


def frechet_distance(X, Y):
    """||mu_X - mu_Y||^2 + Tr(S_X + S_Y - 2 (S_X S_Y)^{1/2}).

    Sample means and unbiased (N-1) covariances. The cross term uses the
    symmetrized root (S_X^{1/2} S_Y S_X^{1/2})^{1/2}, whose trace equals
    Tr((S_X S_Y)^{1/2}) for PSD inputs; eigenvalues are clamped at 0 against
    roundoff and the final value is clamped at 0.
    """
    A, B = _two_samples(X, Y)
    if A.shape[0] < 2 or B.shape[0] < 2:
        raise InsufficientSamples("frechet_distance needs at least 2 samples per side")
    mu_a, mu_b = A.mean(axis=0), B.mean(axis=0)
    Sa = np.cov(A, rowvar=False).reshape(A.shape[1], A.shape[1])
    Sb = np.cov(B, rowvar=False).reshape(B.shape[1], B.shape[1])
    root_a = _sqrtm_psd(Sa)
    cross = np.linalg.eigvalsh(root_a @ Sb @ root_a)
    np.maximum(cross, 0.0, out=cross)
    mean_gap = mu_a - mu_b
    fd = float(mean_gap @ mean_gap + np.trace(Sa) + np.trace(Sb) - 2.0 * np.sum(np.sqrt(cross)))
    return max(fd, 0.0)


def sliced_wasserstein(X, Y, n_projections=512, seed=0):
    """Mean 1D W1 over seeded uniform directions on the unit sphere.

    In d=1 the only directions are +-1 and W1 is reflection invariant, so the
    result short-circuits to wasserstein_1d exactly, independent of the seed.
    """
    A, B = _two_samples(X, Y)
    n_projections = _count(n_projections, "n_projections")
    d = A.shape[1]
    if d == 1:
        return wasserstein_1d(A[:, 0], B[:, 0])
    rng = rng_from_seed(seed, stream=(_SW_STREAM,))
    dirs = rng.standard_normal((n_projections, d))
    norms = np.linalg.norm(dirs, axis=1)
    while (norms == 0.0).any():  # probability-zero guard, keeps the op total
        redo = norms == 0.0
        dirs[redo] = rng.standard_normal((int(redo.sum()), d))
        norms = np.linalg.norm(dirs, axis=1)
    dirs /= norms[:, None]
    # chunks of _w1_sorted's own height, so each is scored by one
    # matrix-vector product, as its rows were in the whole projection; every
    # chunk is projected into the same two buffers
    grid = _quantile_grid(A.shape[0], B.shape[0])
    step = min(grid[3], n_projections)
    xs_buf, ys_buf = np.empty((step, A.shape[0])), np.empty((step, B.shape[0]))
    rows = []
    for lo in range(0, n_projections, step):
        hi = min(lo + step, n_projections)
        xs = np.matmul(dirs[lo:hi], A.T, out=xs_buf[:hi - lo])
        ys = np.matmul(dirs[lo:hi], B.T, out=ys_buf[:hi - lo])
        xs.sort(axis=1)
        ys.sort(axis=1)
        rows.append(_w1_sorted(xs, ys, grid))
    return float(np.mean(np.concatenate(rows)))


def _kernel_mean(A, B, sigma):
    """Mean over all |A| x |B| pairs of exp(-||a - b||^2 / (2 sigma^2)): the
    KDE's kernel sums of B at the rows of A, averaged (for B is A its self
    tiles, which compute each pair once)."""
    return float(np.exp(_kernel_lse(B, A, sigma)).sum()) / (A.shape[0] * B.shape[0])


def _mmd_bandwidth(A, B, kernel_bandwidth):
    """kernel_bandwidth if given, else the pooled sample's median pairwise distance."""
    if kernel_bandwidth is None:
        try:
            sigma = _median_pairwise_distance(np.concatenate([A, B], axis=0))
        except NonFiniteValue as e:  # the distance operands' overflow gate
            raise DegenerateBandwidth(f"no median pairwise distance: {e}") from e
        if sigma <= 0.0:
            raise DegenerateBandwidth(
                "median pairwise distance is 0; pass kernel_bandwidth explicitly"
            )
        return sigma
    return _positive_real(kernel_bandwidth, "kernel_bandwidth", DegenerateBandwidth)


def mmd(X, Y, kernel_bandwidth=None):
    """Squared MMD, biased V-statistic, Gaussian kernel.

    mean_XX k + mean_YY k - 2 mean_XY k with k(x,y) = exp(-||x-y||^2/(2 s^2)).
    The bandwidth s defaults to the median pairwise distance of the pooled
    sample (median heuristic). Note this is SQUARED MMD; mmd_unsquared gives
    the RKHS norm itself.

    Each kernel mean is the KDE's kernel sums averaged over queries (at d = 1
    and scale one fast Gauss transform), and mmd(X, X) is exactly 0.
    """
    A, B = _two_samples(X, Y)
    sigma = _mmd_bandwidth(A, B, kernel_bandwidth)
    val = _kernel_mean(A, A, sigma) + _kernel_mean(B, B, sigma) - 2.0 * _kernel_mean(A, B, sigma)
    return max(val, 0.0)


def mmd_unsquared(X, Y, kernel_bandwidth=None):
    """RKHS-norm MMD: square root of the squared-MMD V-statistic."""
    return float(np.sqrt(mmd(X, Y, kernel_bandwidth)))


def _constant_columns(A):
    # definitional test (all entries equal), plus a zero-deviation fallback for
    # columns whose centered norm cancels to 0
    exact = (A == A[0]).all(axis=0)
    centered = A - A.mean(axis=0)
    return exact | (np.einsum("ij,ij->j", centered, centered) == 0.0)


def pearson_corr_matrix(X):
    """Sample Pearson correlations of all column pairs.

    Symmetric with unit diagonal. Columns with zero variance make their
    correlations undefined: those rows/columns are reported as NaN markers
    (the diagonal stays 1), never silently 0. Consumers that need every entry
    defined (mae_corr) raise ConstantColumn instead.
    """
    A = _finite_values(X, "sample")
    if A.shape[0] < 2:
        raise InsufficientSamples("pearson correlations need at least 2 rows")
    constant = _constant_columns(A)
    centered = A - A.mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->j", centered, centered))
    safe = np.where(constant, 1.0, norms)
    unit = centered / safe
    corr = unit.T @ unit
    np.clip(corr, -1.0, 1.0, out=corr)
    corr[constant, :] = np.nan
    corr[:, constant] = np.nan
    np.fill_diagonal(corr, 1.0)
    return corr


def mae_corr(X, Y):
    """Mean |corr_X - corr_Y| over the strictly upper-triangular item pairs.

    Requires both correlation matrices fully defined; a constant column in
    either sample raises ConstantColumn naming the column.
    """
    A, B = _two_samples(X, Y)
    d = A.shape[1]
    if d < 2:
        raise DimensionMismatch("mae_corr needs at least 2 items")
    for M, label in ((A, "first"), (B, "second")):
        if M.shape[0] < 2:
            raise InsufficientSamples("mae_corr needs at least 2 rows per sample")
        bad = np.flatnonzero(_constant_columns(M))
        if bad.size:
            raise ConstantColumn(
                f"column {int(bad[0])} of the {label} sample is constant; "
                f"correlations undefined",
                column=int(bad[0]),
            )
    ca = pearson_corr_matrix(A)
    cb = pearson_corr_matrix(B)
    iu = np.triu_indices(d, k=1)
    return float(np.mean(np.abs(ca[iu] - cb[iu])))


@dataclass(frozen=True)
class MetricReport:
    """All metric values for one (X, Y) comparison plus the settings used."""

    amw: float
    fd: float
    sw: float
    mmd: float
    mae_corr: float  # None when a constant column makes it undefined
    sample_sizes: tuple
    settings: dict

    def to_record(self):
        """Flat key-value record for serialization."""
        rec = {
            "amw": self.amw,
            "fd": self.fd,
            "sw": self.sw,
            "mmd": self.mmd,
            "mae_corr": self.mae_corr,
            "n_x": self.sample_sizes[0],
            "n_y": self.sample_sizes[1],
        }
        rec.update({f"setting_{k}": v for k, v in sorted(self.settings.items())})
        return rec


def metric_report(X, Y, n_projections=512, seed=0, kernel_bandwidth=None):
    """Compute the full suite. mae_corr is None when undefined."""
    A, B = _two_samples(X, Y)
    sigma = _mmd_bandwidth(A, B, kernel_bandwidth)
    try:
        mc = mae_corr(A, B) if A.shape[1] >= 2 else None
    except ConstantColumn:
        mc = None
    return MetricReport(
        amw=amw(A, B),
        fd=frechet_distance(A, B),
        sw=sliced_wasserstein(A, B, n_projections=n_projections, seed=seed),
        mmd=mmd(A, B, kernel_bandwidth=sigma),
        mae_corr=mc,
        sample_sizes=(A.shape[0], B.shape[0]),
        settings={
            "mmd_bandwidth": sigma,
            "sw_projections": int(n_projections),
            "sw_seed": int(seed),
        },
    )
