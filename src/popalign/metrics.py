"""Divergence metrics between two empirical response distributions.

The judging suite: per-item averaged 1D Wasserstein (AMW), Gaussian Frechet
distance, sliced Wasserstein over random projections, squared MMD with a
Gaussian kernel, and the mean absolute gap between inter-item Pearson
correlations. All metrics are pure functions of the two sample sets; the only
randomness (sliced Wasserstein projections) is seeded and bit-stable.
"""

from dataclasses import dataclass

import numpy as np

from .core import ResponseMatrix, _sq_dist_blocks
from .errors import (
    ConstantColumn,
    DegenerateBandwidth,
    DimensionMismatch,
    EmptyInput,
    InsufficientSamples,
    InvalidConfig,
)
from .rng import rng_from_seed

_SW_STREAM = 0x736C696365  # "slice"


def _columns(X):
    if isinstance(X, ResponseMatrix):
        return X.values
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d sample array, got shape {arr.shape}")
    return arr


def _pair(X, Y):
    A, B = _columns(X), _columns(Y)
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(f"sample dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    return A, B


def wasserstein_1d(x, y):
    """Exact W1 between two 1-d empirical distributions.

    Integral of |F_x - F_y| over the merged sorted support; for equal sizes
    this equals the mean absolute gap between sorted order statistics.
    """
    xs = np.sort(np.asarray(x, dtype=np.float64).ravel())
    ys = np.sort(np.asarray(y, dtype=np.float64).ravel())
    if xs.size == 0 or ys.size == 0:
        raise EmptyInput("wasserstein_1d needs at least one sample on each side")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise DimensionMismatch("wasserstein_1d requires finite samples")
    z = np.sort(np.concatenate([xs, ys]), kind="mergesort")
    if z[0] == z[-1]:
        return 0.0
    gaps = np.diff(z)
    cdf_x = np.searchsorted(xs, z[:-1], side="right") / xs.size
    cdf_y = np.searchsorted(ys, z[:-1], side="right") / ys.size
    return float(np.sum(np.abs(cdf_x - cdf_y) * gaps))


def amw(X, Y):
    """Mean over items of the exact per-column 1D W1."""
    A, B = _pair(X, Y)
    return float(np.mean([wasserstein_1d(A[:, t], B[:, t]) for t in range(A.shape[1])]))


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
    A, B = _pair(X, Y)
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
    A, B = _pair(X, Y)
    if not isinstance(n_projections, (int, np.integer)) or n_projections < 1:
        raise InvalidConfig(f"n_projections must be a positive integer, got {n_projections!r}")
    d = A.shape[1]
    if d == 1:
        return wasserstein_1d(A[:, 0], B[:, 0])
    rng = rng_from_seed(seed, stream=(_SW_STREAM,))
    dirs = rng.standard_normal((int(n_projections), d))
    norms = np.linalg.norm(dirs, axis=1)
    while (norms == 0.0).any():  # probability-zero guard, keeps the op total
        redo = norms == 0.0
        dirs[redo] = rng.standard_normal((int(redo.sum()), d))
        norms = np.linalg.norm(dirs, axis=1)
    dirs /= norms[:, None]
    PA = A @ dirs.T
    PB = B @ dirs.T
    vals = [wasserstein_1d(PA[:, k], PB[:, k]) for k in range(int(n_projections))]
    return float(np.mean(vals))


def _median_pairwise_distance(Z):
    # median over all unordered pairs i < j, blockwise to bound memory
    cols = np.arange(Z.shape[0])
    chunks = [
        np.sqrt(d2[cols[lo:hi, None] < cols[None, :]]) for lo, hi, d2 in _sq_dist_blocks(Z, Z)
    ]
    flat = np.concatenate(chunks) if chunks else np.empty(0)
    if flat.size == 0:
        return 0.0
    return float(np.median(flat))


def _kernel_mean(A, B, inv_two_sigma_sq):
    # mean over all |A| x |B| pairs of exp(-||a-b||^2 / (2 sigma^2))
    total = 0.0
    for _lo, _hi, d2 in _sq_dist_blocks(A, B):
        d2 *= -inv_two_sigma_sq
        total += float(np.exp(d2, out=d2).sum())
    return total / (A.shape[0] * B.shape[0])


def _mmd_bandwidth(A, B, kernel_bandwidth):
    """kernel_bandwidth if given, else the pooled sample's median pairwise distance."""
    if kernel_bandwidth is None:
        sigma = _median_pairwise_distance(np.concatenate([A, B], axis=0))
        if sigma <= 0.0:
            raise DegenerateBandwidth(
                "median pairwise distance is 0; pass kernel_bandwidth explicitly"
            )
        return sigma
    sigma = float(kernel_bandwidth)
    if not np.isfinite(sigma) or sigma <= 0:
        raise DegenerateBandwidth(f"kernel bandwidth must be positive, got {kernel_bandwidth!r}")
    return sigma


def mmd(X, Y, kernel_bandwidth=None):
    """Squared MMD, biased V-statistic, Gaussian kernel.

    mean_XX k + mean_YY k - 2 mean_XY k with k(x,y) = exp(-||x-y||^2/(2 s^2)).
    The bandwidth s defaults to the median pairwise distance of the pooled
    sample (median heuristic). Note this is SQUARED MMD; mmd_unsquared gives
    the RKHS norm itself.
    """
    A, B = _pair(X, Y)
    sigma = _mmd_bandwidth(A, B, kernel_bandwidth)
    inv = 1.0 / (2.0 * sigma * sigma)
    val = _kernel_mean(A, A, inv) + _kernel_mean(B, B, inv) - 2.0 * _kernel_mean(A, B, inv)
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
    A = _columns(X)
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
    A, B = _pair(X, Y)
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
    A, B = _pair(X, Y)
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
