"""Distribution-divergence metrics against independent oracles.

scipy.stats.wasserstein_distance, scipy.linalg.sqrtm, scipy pdist, and
np.corrcoef appear here strictly as cross-check oracles; the library
implementations stand on their own. Property tests run hypothesis with
derandomize=True, so every run draws the same examples.
"""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.linalg import sqrtm
from scipy.spatial.distance import pdist

from popalign import (
    MetricReport,
    amw,
    frechet_distance,
    mae_corr,
    metric_report,
    mmd,
    mmd_unsquared,
    pearson_corr_matrix,
    sample_population,
    sliced_wasserstein,
    wasserstein_1d,
)
from popalign import core, kde, metrics
from popalign.core import ResponseMatrix
from popalign.rng import rng_from_seed
from popalign.errors import (
    ConstantColumn,
    DegenerateBandwidth,
    DimensionMismatch,
    EmptyInput,
    InsufficientSamples,
    InvalidConfig,
    NonFiniteValue,
)
from popalign.rng import rng_from_seed


def merged_grid_w1(x, y):
    """Independent oracle: integrate |F_x - F_y| over the merged support."""
    x, y = np.sort(x), np.sort(y)
    z = np.unique(np.concatenate([x, y]))
    total = 0.0
    for lo, hi in zip(z[:-1], z[1:]):
        fx = np.searchsorted(x, lo, side="right") / len(x)
        fy = np.searchsorted(y, lo, side="right") / len(y)
        total += abs(fx - fy) * (hi - lo)
    return total


def per_projection_sw(X, Y, n_projections, seed):
    """Oracle: sliced W1 as a loop over projections, each through merged_grid_w1."""
    rng = rng_from_seed(seed, stream=(metrics._SW_STREAM,))
    dirs = rng.standard_normal((n_projections, X.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    PX, PY = dirs @ X.T, dirs @ Y.T
    return float(np.mean([merged_grid_w1(PX[k], PY[k]) for k in range(n_projections)]))


def full_list_median(Z):
    """Oracle: np.median over the whole list of pairwise distances.

    At d = 1 they are the |z_i - z_j|, i < j. Above it they are the sqrt of
    the squared distances in the sample's own upper tiles: a tile's pair
    (i, j) counts when i < j in the sample's row numbers.
    """
    if Z.shape[1] == 1:
        i, j = np.triu_indices(Z.shape[0], 1)
        return float(np.median(np.abs(Z[i, 0] - Z[j, 0])))
    return block_list_median(Z)


def block_list_median(Z):
    """np.median of the sqrt of every squared distance i < j in the sample's own
    tiles, clamped at 0 (the values the selection reads), at any d."""
    upper = [
        d2[np.arange(rows.start, rows.stop)[:, None] < np.arange(cols.start, cols.stop)[None, :]]
        for rows, cols, d2 in core._self_tiles(core._sq_dist_operands(Z))
    ]
    return float(np.median(np.sqrt(np.maximum(np.concatenate(upper), 0.0))))


class TestWasserstein1d:
    def test_identical(self):
        assert wasserstein_1d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_point_masses(self):
        assert wasserstein_1d([0.0], [1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_sorted_pairing(self):
        # pairs (0,0) and (0,2) under the monotone coupling
        assert wasserstein_1d([0.0, 0.0], [0.0, 2.0]) == pytest.approx(1.0, abs=1e-15)

    def test_equal_sizes_mean_sorted_gap(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=300), rng.normal(size=300)
        want = float(np.mean(np.abs(np.sort(x) - np.sort(y))))
        assert wasserstein_1d(x, y) == pytest.approx(want, rel=1e-12)

    def test_unequal_sizes_vs_grid_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=rng.integers(2, 40))
            y = rng.normal(size=rng.integers(2, 40))
            assert wasserstein_1d(x, y) == pytest.approx(merged_grid_w1(x, y), rel=1e-10)

    def test_vs_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(size=137)
            y = rng.normal(loc=0.5, size=211)
            assert wasserstein_1d(x, y) == pytest.approx(
                stats.wasserstein_distance(x, y), rel=1e-11
            )

    def test_empty(self):
        with pytest.raises(EmptyInput):
            wasserstein_1d([], [1.0])


class TestAmw:
    def test_identical(self):
        X = np.random.default_rng(3).normal(size=(20, 4))
        assert amw(X, X) == 0.0

    def test_point_rows(self):
        assert amw(np.array([[0.0, 0.0]]), np.array([[1.0, 3.0]])) == pytest.approx(
            2.0, abs=1e-14
        )

    def test_vs_per_column_oracle(self):
        rng = np.random.default_rng(4)
        X, Y = rng.normal(size=(200, 3)), rng.normal(loc=0.3, size=(300, 3))
        want = np.mean([merged_grid_w1(X[:, t], Y[:, t]) for t in range(3)])
        assert amw(X, Y) == pytest.approx(want, rel=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            amw(np.zeros((2, 2)), np.zeros((2, 3)))


class TestFrechetDistance:
    def test_identical(self):
        X = np.random.default_rng(5).normal(size=(50, 3))
        assert frechet_distance(X, X) <= 1e-8

    def test_pure_shift(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 4))
        delta = np.array([1.0, -2.0, 0.5, 3.0])
        got = frechet_distance(X, X + delta)
        assert got == pytest.approx(float(np.sum(delta**2)), abs=1e-8)

    def test_two_point_scalar_formula(self):
        # {-a, +a} vs {-b, +b}: means 0, sample variances (N-1 norm) 2a^2, 2b^2
        # -> FD = (sqrt(2)a - sqrt(2)b)^2 = 2 (a - b)^2
        a, b = 1.5, 0.5
        got = frechet_distance(np.array([[-a], [a]]), np.array([[-b], [b]]))
        assert got == pytest.approx(2.0 * (a - b) ** 2, rel=1e-12)

    def test_vs_direct_sqrtm_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            X = rng.normal(size=(60, 3)) @ rng.normal(size=(3, 3))
            Y = rng.normal(size=(80, 3)) @ rng.normal(size=(3, 3)) + rng.normal(size=3)
            mx, my = X.mean(0), Y.mean(0)
            Sx, Sy = np.cov(X, rowvar=False), np.cov(Y, rowvar=False)
            cross = sqrtm(Sx @ Sy)
            want = float(
                np.sum((mx - my) ** 2) + np.trace(Sx + Sy - 2.0 * np.real(cross))
            )
            assert frechet_distance(X, Y) == pytest.approx(want, rel=1e-7)

    def test_nonnegative_near_identical(self):
        X = np.random.default_rng(8).normal(size=(30, 2))
        assert frechet_distance(X, X + 1e-12) >= 0.0

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            frechet_distance(np.zeros((1, 2)), np.zeros((5, 2)))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frechet_distance(np.zeros((3, 2)), np.zeros((3, 3)))


class TestSlicedWasserstein:
    def test_identical_any_seed(self):
        X = np.random.default_rng(9).normal(size=(40, 3))
        for seed in (0, 1, 99):
            assert sliced_wasserstein(X, X, n_projections=16, seed=seed) == 0.0

    def test_d1_equals_exact_w1(self):
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=(30, 1)), rng.normal(loc=1.0, size=(50, 1))
        w1 = wasserstein_1d(x[:, 0], y[:, 0])
        for seed in (0, 7):
            assert sliced_wasserstein(x, y, n_projections=8, seed=seed) == w1

    def test_shift_matches_sphere_average(self):
        # projections of X + delta are projections of X shifted by <delta, v>,
        # so each projected W1 is exactly |<delta, v>|; in d=3 the sphere
        # average of |<delta, v>| is ||delta|| / 2
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 3))
        delta = np.array([2.0, -1.0, 0.5])
        got = sliced_wasserstein(X, X + delta, n_projections=2048, seed=5)
        want = float(np.linalg.norm(delta)) / 2.0
        assert abs(got - want) <= 0.05 * want

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        X, Y = rng.normal(size=(25, 4)), rng.normal(size=(35, 4))
        a = sliced_wasserstein(X, Y, n_projections=64, seed=3)
        b = sliced_wasserstein(X, Y, n_projections=64, seed=3)
        assert a == b

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        X, Y = rng.normal(size=(25, 4)), rng.normal(size=(35, 4))
        a = sliced_wasserstein(X, Y, n_projections=64, seed=3)
        b = sliced_wasserstein(Y, X, n_projections=64, seed=3)
        assert abs(a - b) <= 1e-12

    @pytest.mark.parametrize("nx, ny, d", [
        (90, 140, 3),  # one chunk
        (1500, 1100, 5),  # several chunks
        (1200, 700, 2),
        (900, 1300, 8),
        (70_000, 3, 3),  # one direction per chunk
    ])
    def test_chunked_projections_score_as_whole_ones(self, nx, ny, d, monkeypatch):
        # sliced_wasserstein projects, sorts and scores one chunk of
        # directions per _w1_sorted call; the unchunked formula scores all
        # of them in one _w1_rows call
        rng = np.random.default_rng(nx)
        A, B = rng.normal(size=(nx, d)), rng.normal(0.3, 1.2, size=(ny, d))
        n_dirs = 512 if nx < 10_000 else 5
        w1_sorted, calls = metrics._w1_sorted, []

        def recording(xs, ys, grid):
            calls.append((xs.copy(), ys.copy(), w1_sorted(xs, ys, grid)))
            return calls[-1][2]

        monkeypatch.setattr(metrics, "_w1_sorted", recording)
        sw = sliced_wasserstein(A, B, n_projections=n_dirs, seed=nx)
        monkeypatch.undo()

        dirs = rng_from_seed(nx, stream=(metrics._SW_STREAM,)).standard_normal((n_dirs, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        whole_P, whole_Q = dirs @ A.T, dirs @ B.T
        whole = metrics._w1_rows(whole_P, whole_Q)
        step = core._BLOCK_ELEMS // (nx + ny - math.gcd(nx, ny))
        assert [c[2].size for c in calls] == [
            min(step, n_dirs - lo) for lo in range(0, n_dirs, step)
        ]
        assert (len(calls) == 1) == (nx == 90)
        xs, ys, rows = (np.concatenate(parts) for parts in zip(*calls))
        assert sw == float(np.mean(rows))
        # BLAS may round a product row differently in a shorter product;
        # rows it rounds alike score bit for bit alike
        alike = ((xs == np.sort(whole_P, axis=1)).all(axis=1)
                 & (ys == np.sort(whole_Q, axis=1)).all(axis=1))
        if len(calls) == 1:
            assert alike.all()
        np.testing.assert_array_equal(rows[alike], whole[alike])
        np.testing.assert_allclose(rows, whole, rtol=1e-13, atol=0)
        if alike.all():
            assert sw == float(np.mean(whole))

    def test_report_pinned_on_a_fixed_shape(self):
        # 1500 + 1100 rows in d=4: ten chunks of at most 52 directions.
        # Recorded with numpy's bundled OpenBLAS on x86-64; the unchunked
        # formula gave the same report, so any later drift in the chunking
        # (or the kernel) shows here
        rng = np.random.default_rng(2024)
        A = rng.standard_normal((1500, 4))
        B = rng.standard_normal((1100, 4)) * 1.3 + 0.2
        assert metric_report(A, B, seed=5) == MetricReport(
            amw=0.28178640141257927,
            fd=0.4937209678771488,
            sw=0.2820152540876082,
            mmd=0.021110309597431876,
            mae_corr=0.028837056782572573,
            sample_sizes=(1500, 1100),
            settings={"mmd_bandwidth": 2.8949102084611624, "sw_projections": 512, "sw_seed": 5},
        )

    def test_memory_stays_at_a_few_chunks(self):
        # the whole 512 x n projections, sorted, took 82 MiB at 5000 + 5000
        # rows; chunks of about 1 MB take a few
        rng = np.random.default_rng(14)
        X, Y = rng.normal(size=(5000, 5)), rng.normal(size=(5000, 5))
        tracemalloc.start()
        try:
            sliced_wasserstein(X, Y, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestMmd:
    def test_identical_multiset(self):
        X = np.random.default_rng(14).normal(size=(30, 3))
        assert mmd(X, X) <= 1e-12

    def test_singleton_formula(self):
        # X={0}, Y={1}, sigma=1: 1 + 1 - 2 exp(-1/2)
        got = mmd(np.array([[0.0]]), np.array([[1.0]]), kernel_bandwidth=1.0)
        want = 2.0 * (1.0 - math.exp(-0.5))
        assert got == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.78694, abs=5e-6)

    def test_flat_kernel_limit(self):
        rng = np.random.default_rng(15)
        X, Y = rng.normal(size=(20, 2)), rng.normal(loc=2.0, size=(25, 2))
        assert mmd(X, Y, kernel_bandwidth=1e8) <= 1e-10

    def test_median_heuristic_matches_pdist(self):
        rng = np.random.default_rng(16)
        X, Y = rng.normal(size=(15, 3)), rng.normal(size=(10, 3))
        pooled = np.vstack([X, Y])
        sigma = float(np.median(pdist(pooled)))
        assert mmd(X, Y) == pytest.approx(mmd(X, Y, kernel_bandwidth=sigma), rel=1e-12)

    def test_vs_brute_force_vstat(self):
        rng = np.random.default_rng(17)
        X, Y = rng.normal(size=(12, 2)), rng.normal(loc=1.0, size=(9, 2))
        sigma = 1.3

        def k(u, v):
            return math.exp(-float(np.sum((u - v) ** 2)) / (2.0 * sigma**2))

        kxx = np.mean([[k(a, b) for b in X] for a in X])
        kyy = np.mean([[k(a, b) for b in Y] for a in Y])
        kxy = np.mean([[k(a, b) for b in Y] for a in X])
        want = kxx + kyy - 2.0 * kxy
        assert mmd(X, Y, kernel_bandwidth=sigma) == pytest.approx(want, rel=1e-12)

    def test_degenerate_bandwidth(self):
        X = np.zeros((5, 2))
        with pytest.raises(DegenerateBandwidth):
            mmd(X, X.copy())

    def test_unsquared_is_sqrt(self):
        rng = np.random.default_rng(18)
        X, Y = rng.normal(size=(20, 2)), rng.normal(loc=1.0, size=(20, 2))
        sq = mmd(X, Y, kernel_bandwidth=1.0)
        assert mmd_unsquared(X, Y, kernel_bandwidth=1.0) == pytest.approx(
            math.sqrt(sq), rel=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(19)
        X, Y = rng.normal(size=(20, 3)), rng.normal(size=(30, 3))
        assert abs(mmd(X, Y) - mmd(Y, X)) <= 1e-12


def _fgt_calls(monkeypatch):
    """The (sources, queries) sizes of every fast Gauss transform the KDE runs."""
    calls = []
    real = kde._fgt_gauss_sums_1d

    def spy(sources, queries, h):
        calls.append((sources.size, queries.size))
        return real(sources, queries, h)

    monkeypatch.setattr(kde, "_fgt_gauss_sums_1d", spy)
    return calls


class TestMmdFastGauss:
    """d=1 kernel means through the KDE's fast Gauss transform."""

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(
        tails=st.booleans(),
        n_a=st.integers(500, 900),
        n_b=st.integers(500, 1200),
        offset=st.sampled_from([0.0, 50.0, 1e3]),
        shift=st.floats(0.0, 2.0),
        width=st.sampled_from([None, 0.05, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_tiles(self, tails, n_a, n_b, offset, shift, width, seed):
        rng = np.random.default_rng(seed)

        def draw(n):
            return rng.standard_t(3, size=(n, 1)) if tails else rng.normal(size=(n, 1))

        A, B = offset + draw(n_a), offset + shift + draw(n_b)
        sigma = metrics._mmd_bandwidth(A, B, width)
        pairs = [(A, A), (B, B), (A, B)]
        with pytest.MonkeyPatch.context() as mp:
            calls = _fgt_calls(mp)
            fast = [metrics._kernel_mean(P, Q, sigma) for P, Q in pairs]
            fast_mmd = mmd(A, B, kernel_bandwidth=sigma)
            assert len(calls) == 6
            mp.setattr(kde, "_FGT_MIN_PAIRS", 10**18)
            tiles = [metrics._kernel_mean(P, Q, sigma) for P, Q in pairs]
            tiles_mmd = mmd(A, B, kernel_bandwidth=sigma)
            assert len(calls) == 6
        np.testing.assert_allclose(fast, tiles, rtol=0.0, atol=1e-14)
        assert abs(fast_mmd - tiles_mmd) <= 1e-13

    @pytest.mark.parametrize("tails", [False, True])
    def test_identical_samples_give_zero(self, tails, monkeypatch):
        rng = np.random.default_rng(48)
        X = rng.standard_t(3, size=(800, 1)) if tails else rng.normal(size=(800, 1))
        calls = _fgt_calls(monkeypatch)
        assert mmd(X, X) == 0.0
        assert mmd(X, X.copy()) == 0.0
        assert calls

    def test_one_dimension_at_scale_walks_no_tiles(self, monkeypatch):
        def no_tiles(*args, **kwargs):
            raise AssertionError("dense tiles walked")

        monkeypatch.setattr(kde, "_self_tiles", no_tiles)
        monkeypatch.setattr(kde, "_sq_dist_blocks", no_tiles)
        calls = _fgt_calls(monkeypatch)
        rng = np.random.default_rng(49)
        X, Y = rng.standard_t(3, size=(1000, 1)), rng.standard_t(3, size=(2000, 1))
        report = metric_report(X, Y)
        assert calls == [(1000, 1000), (2000, 2000), (2000, 1000)]
        assert report.mmd == mmd(X, Y)

    def test_one_kde_event_per_kernel_mean(self, caplog):
        # each d=1 kernel mean at transform sizes is one KDE evaluation
        rng = np.random.default_rng(49)
        X, Y = rng.standard_t(3, size=(1000, 1)), rng.standard_t(3, size=(2000, 1))
        with caplog.at_level(logging.DEBUG, logger="popalign.kde"):
            metric_report(X, Y)
        events = [r for r in caplog.records if r.name == "popalign.kde"]
        assert [r.levelno for r in events] == [logging.DEBUG] * 3
        assert [r.args[:2] for r in events] == [(1000, 1000), (2000, 2000), (1000, 2000)]

    def test_desk_sized_value_holds(self):
        # 1600 + 1600 rows in d=5, the desk workload's final and reference
        # sizes; the value the dense tiles summed before the KDE's stripes
        # served MMD
        X = sample_population("shifted-gaussian", 1600, 5, seed=7, role="pool").values
        Y = sample_population("shifted-gaussian", 1600, 5, seed=7, role="reference").values
        assert abs(mmd(X, Y) - 0.23774057407613713) <= 1e-13

    @pytest.mark.parametrize("d", [2, 5])
    def test_higher_dimensions_never_take_the_transform(self, d, monkeypatch):
        def no_fgt(*args, **kwargs):
            raise AssertionError("fast Gauss transform called")

        monkeypatch.setattr(kde, "_fgt_gauss_sums_1d", no_fgt)
        monkeypatch.setattr(kde, "_FGT_MIN_PAIRS", 0)
        rng = np.random.default_rng(50 + d)
        X, Y = rng.normal(size=(600, d)), rng.normal(size=(700, d)) + 0.1
        metric_report(X, Y)
        model = kde.fit_kde(Y, 0.3)
        kde.log_density_many(model, X)
        kde.log_density_many(model, model.samples)
        kde.importance_log_ratios(kde.fit_kde(X, 0.3), model, Y)


class TestPearson:
    def test_duplicate_column(self):
        x = np.random.default_rng(20).normal(size=30)
        M = pearson_corr_matrix(np.column_stack([x, x]))
        assert M[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column(self):
        x = np.random.default_rng(21).normal(size=30)
        M = pearson_corr_matrix(np.column_stack([x, -x]))
        assert M[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_three_point_hand_value(self):
        M = pearson_corr_matrix(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 4.0]]))
        # cov = 3/2, sigma_x = 1, sigma_y = sqrt(7/3)
        want = 1.5 / math.sqrt(7.0 / 3.0)
        assert M[0, 1] == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.98198, abs=5e-6)

    def test_vs_corrcoef(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(40, 5))
        np.testing.assert_allclose(
            pearson_corr_matrix(X), np.corrcoef(X, rowvar=False), atol=1e-12
        )

    def test_structure(self):
        rng = np.random.default_rng(23)
        M = pearson_corr_matrix(rng.normal(size=(25, 4)))
        np.testing.assert_allclose(M, M.T, atol=0)
        np.testing.assert_array_equal(np.diag(M), np.ones(4))
        assert (np.abs(M) <= 1.0).all()

    def test_constant_column_marked_nan(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(20, 3))
        X[:, 1] = 7.0
        M = pearson_corr_matrix(X)
        assert np.isnan(M[0, 1]) and np.isnan(M[1, 2])
        assert M[1, 1] == 1.0  # diagonal stays defined
        assert not np.isnan(M[0, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_named(self, bad):
        # a NaN entry is an input error, not the NaN marker of a constant column
        X = np.random.default_rng(28).normal(size=(10, 3))
        X[2, 1] = bad
        with pytest.raises(NonFiniteValue) as exc:
            pearson_corr_matrix(X)
        assert (exc.value.row, exc.value.col) == (2, 1)

    def test_affine_invariance(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(30, 3))
        scaled = X * np.array([2.0, 0.5, 10.0]) + np.array([-3.0, 7.0, 0.1])
        np.testing.assert_allclose(
            pearson_corr_matrix(X), pearson_corr_matrix(scaled), atol=1e-12
        )


class TestMaeCorr:
    def test_identical(self):
        X = np.random.default_rng(26).normal(size=(25, 4))
        assert mae_corr(X, X) == 0.0

    def test_opposite_correlations(self):
        x = np.random.default_rng(27).normal(size=30)
        X = np.column_stack([x, x])       # corr +1
        Y = np.column_stack([x, -x])      # corr -1
        assert mae_corr(X, Y) == pytest.approx(2.0, abs=1e-12)

    def test_vs_pairwise_loop_oracle(self):
        rng = np.random.default_rng(28)
        X, Y = rng.normal(size=(40, 4)), rng.normal(size=(50, 4))
        RX = np.corrcoef(X, rowvar=False)
        RY = np.corrcoef(Y, rowvar=False)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        want = np.mean([abs(RX[i, j] - RY[i, j]) for i, j in pairs])
        assert mae_corr(X, Y) == pytest.approx(want, abs=1e-12)

    def test_constant_column_raises(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(20, 3))
        Y = rng.normal(size=(20, 3))
        Y[:, 2] = 1.0
        with pytest.raises(ConstantColumn) as exc:
            mae_corr(X, Y)
        assert exc.value.column == 2

    def test_affine_invariance(self):
        rng = np.random.default_rng(30)
        X, Y = rng.normal(size=(30, 3)), rng.normal(size=(30, 3))
        Xs = X * np.array([3.0, 1.0, 0.2]) + 5.0
        assert mae_corr(Xs, Y) == pytest.approx(mae_corr(X, Y), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        X, Y = rng.normal(size=(30, 3)), rng.normal(size=(40, 3))
        assert abs(mae_corr(X, Y) - mae_corr(Y, X)) <= 1e-12


class TestMetricReport:
    def test_fields_populated(self):
        rng = np.random.default_rng(32)
        X, Y = rng.normal(size=(50, 3)), rng.normal(loc=0.5, size=(60, 3))
        rep = metric_report(X, Y, n_projections=32, seed=0)
        assert isinstance(rep, MetricReport)
        for v in (rep.amw, rep.fd, rep.sw, rep.mmd, rep.mae_corr):
            assert v is not None and np.isfinite(v) and v >= 0
        assert rep.sample_sizes == (50, 60)

    def test_mae_none_on_constant_column(self):
        rng = np.random.default_rng(33)
        X, Y = rng.normal(size=(30, 3)), rng.normal(size=(30, 3))
        X[:, 0] = 2.0
        rep = metric_report(X, Y, n_projections=8, seed=0)
        assert rep.mae_corr is None
        assert rep.amw >= 0  # other metrics unaffected

    def test_mae_none_in_one_dimension(self):
        rng = np.random.default_rng(34)
        rep = metric_report(
            rng.normal(size=(20, 1)), rng.normal(size=(20, 1)),
            n_projections=8, seed=0,
        )
        assert rep.mae_corr is None

    def test_to_record_flat(self):
        rng = np.random.default_rng(35)
        rep = metric_report(
            rng.normal(size=(20, 2)), rng.normal(size=(25, 2)),
            n_projections=8, seed=4,
        )
        rec = rep.to_record()
        assert rec["amw"] == rep.amw
        assert rec["setting_sw_projections"] == 8
        assert rec["setting_sw_seed"] == 4
        assert rec["n_x"] == 20 and rec["n_y"] == 25
        assert all(not isinstance(v, (dict, list, tuple)) for v in rec.values())

    def test_accepts_response_matrices(self):
        rng = np.random.default_rng(36)
        X = ResponseMatrix(rng.normal(size=(20, 2)))
        Y = ResponseMatrix(rng.normal(size=(20, 2)))
        rep = metric_report(X, Y, n_projections=8, seed=0)
        assert rep.sample_sizes == (20, 20)


SUITE = [amw, frechet_distance, sliced_wasserstein, mmd, mae_corr, metric_report]


class TestInputGate:
    """Every suite metric and wasserstein_1d reject empty and non-finite samples."""

    @pytest.mark.parametrize("fn", SUITE)
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_named(self, fn, side, bad):
        rng = np.random.default_rng(37)
        pair = [rng.normal(size=(20, 3)), rng.normal(size=(25, 3))]
        pair[side][7, 2] = bad
        with pytest.raises(NonFiniteValue) as exc:
            fn(*pair)
        assert (exc.value.row, exc.value.col) == (7, 2)

    @pytest.mark.parametrize("fn", SUITE)
    @pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
    def test_empty_side(self, fn, shape):
        full = np.ones((4, shape[1]))
        with pytest.raises(EmptyInput):
            fn(np.zeros(shape), full)
        with pytest.raises(EmptyInput):
            fn(full, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_wasserstein_1d_non_finite(self, bad):
        with pytest.raises(NonFiniteValue) as exc:
            wasserstein_1d([0.0, 1.0], [2.0, 3.0, bad])
        assert (exc.value.row, exc.value.col) == (2, 0)

    def test_wasserstein_1d_empty_second(self):
        with pytest.raises(EmptyInput):
            wasserstein_1d([1.0], [])

    @pytest.mark.parametrize("bad", [True, False, 0, -3, 2.0, "8"])
    def test_projection_count(self, bad):
        rng = np.random.default_rng(38)
        X, Y = rng.normal(size=(10, 2)), rng.normal(size=(12, 2))
        with pytest.raises(InvalidConfig):
            sliced_wasserstein(X, Y, n_projections=bad)


PROPERTY = settings(max_examples=120, derandomize=True, deadline=None, database=None)
VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
DIGITS = st.sampled_from([None, 0, 1])  # rounding forces ties on the merged support


def _sample(draw, n, d, digits):
    A = draw(arrays(np.float64, (n, d), elements=VALUES))
    return A if digits is None else np.round(A, digits)


class TestW1Properties:
    """The one W1 kernel behind wasserstein_1d, amw and sliced_wasserstein."""

    @PROPERTY
    @given(data=st.data())
    def test_wasserstein_1d_matches_oracles(self, data):
        digits = data.draw(DIGITS)
        x = _sample(data.draw, data.draw(st.integers(1, 60)), 1, digits)[:, 0]
        y = _sample(data.draw, data.draw(st.integers(1, 60)), 1, digits)[:, 0]
        got = wasserstein_1d(x, y)
        assert got == pytest.approx(merged_grid_w1(x, y), rel=1e-12, abs=0)
        assert got == pytest.approx(stats.wasserstein_distance(x, y), rel=1e-12, abs=0)

    @PROPERTY
    @given(data=st.data())
    def test_amw_matches_per_column_oracle(self, data):
        digits, d = data.draw(DIGITS), data.draw(st.integers(1, 4))
        X = _sample(data.draw, data.draw(st.integers(1, 60)), d, digits)
        Y = _sample(data.draw, data.draw(st.integers(1, 60)), d, digits)
        want = np.mean([merged_grid_w1(X[:, t], Y[:, t]) for t in range(d)])
        assert amw(X, Y) == pytest.approx(want, rel=1e-12, abs=0)
        assert amw(X, X) == 0.0

    @PROPERTY
    @given(data=st.data())
    def test_sliced_matches_per_projection_loop(self, data):
        digits, d = data.draw(DIGITS), data.draw(st.integers(2, 4))
        X = _sample(data.draw, data.draw(st.integers(1, 60)), d, digits)
        Y = _sample(data.draw, data.draw(st.integers(1, 60)), d, digits)
        k, seed = data.draw(st.integers(1, 16)), data.draw(st.integers(0, 2**32))
        got = sliced_wasserstein(X, Y, n_projections=k, seed=seed)
        assert got == pytest.approx(per_projection_sw(X, Y, k, seed), rel=1e-12, abs=0)
        assert sliced_wasserstein(X, X, n_projections=k, seed=seed) == 0.0

    @PROPERTY
    @given(data=st.data())
    def test_sliced_in_one_dimension_is_w1(self, data):
        digits = data.draw(DIGITS)
        X = _sample(data.draw, data.draw(st.integers(1, 60)), 1, digits)
        Y = _sample(data.draw, data.draw(st.integers(1, 60)), 1, digits)
        seed = data.draw(st.integers(0, 2**32))
        got = sliced_wasserstein(X, Y, n_projections=4, seed=seed)
        assert got == wasserstein_1d(X[:, 0], Y[:, 0])


def _median_inputs():
    rng = np.random.default_rng(39)
    base = rng.normal(size=(40, 3))
    return {
        "likert_ties": rng.integers(1, 6, size=(300, 5)).astype(float),
        "likert_multi_block": rng.integers(1, 8, size=(1500, 4)).astype(float),
        "duplicate_rows": np.repeat(base, 6, axis=0),
        "n2": rng.normal(size=(2, 3)),
        "n3": rng.normal(size=(3, 2)),
        "d1": rng.normal(size=(500, 1)),
        "heavy_tails": rng.standard_cauchy(size=(400, 3)),
        "all_equal": np.full((12, 2), 3.0),
        "gaussian_desk_size": rng.normal(size=(3200, 5)),
    }


MEDIAN_INPUTS = _median_inputs()


class TestMedianHeuristic:
    """The bracketed selection returns np.median's value, bit for bit."""

    @pytest.mark.parametrize("name", sorted(MEDIAN_INPUTS))
    def test_equals_full_list_median(self, name):
        Z = MEDIAN_INPUTS[name]
        assert core._median_pairwise_distance(Z) == full_list_median(Z)

    @pytest.mark.parametrize("block_elems", [1, 7 * 40])
    @pytest.mark.parametrize("name", ["likert_ties", "duplicate_rows", "n3", "heavy_tails"])
    def test_equals_full_list_median_at_small_blocks(self, name, block_elems, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_ELEMS", block_elems)
        monkeypatch.setattr(core, "_BLOCK_MIN_ROWS", 1)
        monkeypatch.setattr(core, "_TILE", max(1, block_elems // 40))
        Z = MEDIAN_INPUTS[name]
        assert core._median_pairwise_distance(Z) == full_list_median(Z)

    @pytest.mark.parametrize("cap", [1, 100])
    @pytest.mark.parametrize("name", ["d1", "duplicate_rows", "heavy_tails"])
    def test_narrowing_passes_under_a_small_cap(self, name, cap, monkeypatch):
        # a bracket over the cap keeps only a strided sample and passes again
        passes = self._count_passes(monkeypatch)
        monkeypatch.setattr(core, "_MEDIAN_CAP", cap)
        Z = MEDIAN_INPUTS[name]
        assert core._median_pairwise_distance(Z) == full_list_median(Z)
        assert len(passes) >= 2

    def test_first_bracket_miss_takes_another_pass(self, monkeypatch):
        # a pair sample scaled far below or above the true distances gives a
        # first bracket that misses the middle ranks, so a second pass must
        # find them
        sample = core._pair_sample
        Z = np.random.default_rng(40).normal(size=(400, 5))
        passes = self._count_passes(monkeypatch)
        for factor in (1e-3, 1e3):
            monkeypatch.setattr(core, "_pair_sample", lambda Z: factor * sample(Z))
            passes.clear()
            assert core._median_pairwise_distance(Z) == full_list_median(Z)
            assert len(passes) >= 2

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
    @pytest.mark.parametrize("n, d", [(2, 1), (3, 5), (3200, 1), (3200, 5), (500, 64)])
    def test_pair_sample_chunks_match_one_gather(self, n, d, chunk, monkeypatch):
        # chunked gathers give each pair the bits of the whole-sample gather
        monkeypatch.setattr(core, "_PAIR_CHUNK", chunk)
        Z = np.random.default_rng(n + d).standard_t(3, size=(n, d))
        i, j = core._pivot_pairs(n, n - 1)
        j = j + (j >= i)
        diff = Z[i] - Z[j]
        want = np.abs(diff[:, 0]) if d == 1 else np.einsum("ij,ij->i", diff, diff)
        assert core._pair_sample(Z).tobytes() == want.tobytes()

    def test_one_pass_at_desk_size(self, monkeypatch):
        passes = self._count_passes(monkeypatch)
        core._median_pairwise_distance(MEDIAN_INPUTS["gaussian_desk_size"])
        assert len(passes) == 1

    def test_overflowing_norms_rejected(self):
        # 1e200^2 overflows, and the blocks' expansion would hold inf - inf;
        # the d = 1 sorted pass keeps the same gate
        X = np.array([[1e200], [2e200]])
        with pytest.raises(DegenerateBandwidth):
            mmd(X, np.zeros((3, 1)))

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_pairs(self, n):
        assert core._median_pairwise_distance(np.zeros((n, 3))) == 0.0

    def test_memory_bounded(self):
        Z = np.random.default_rng(41).normal(size=(6000, 5))
        tracemalloc.start()
        try:
            core._median_pairwise_distance(Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole list of 18M distances, as np.median needs it, is 144 MB
        assert peak <= 32 * 2**20

    @PROPERTY
    @given(data=st.data())
    def test_one_dimension_equals_median_of_gaps(self, data):
        # n = 2 and 3 included; rounding to 0 or 1 digits and repeating values
        # give duplicate values and ties at the median
        n, digits = data.draw(st.integers(2, 40)), data.draw(DIGITS)
        Z = _sample(data.draw, n, 1, digits)
        repeat = data.draw(st.integers(1, 3))
        Z = np.repeat(Z, repeat, axis=0)[:n]
        assert core._median_pairwise_distance(Z) == full_list_median(Z)

    @pytest.mark.parametrize("name", ["d1", "student_t"])
    def test_one_dimension_near_block_path(self, name):
        # the blocks take sqrt of an expanded square, so they may differ in
        # the last bit, never by more
        Z = MEDIAN_INPUTS["d1"] if name == "d1" else (
            np.random.default_rng(42).standard_t(3, size=(3000, 1)))
        got = core._median_pairwise_distance(Z)
        assert got == pytest.approx(block_list_median(Z), rel=1e-15, abs=0)

    @pytest.mark.parametrize("cap", [1, 50, 1000])
    def test_one_dimension_exact_on_a_forced_second_pass(self, cap, monkeypatch):
        passes = self._count_passes(monkeypatch)
        monkeypatch.setattr(core, "_MEDIAN_CAP", cap)
        rng = np.random.default_rng(43)
        Z = np.round(rng.standard_t(3, size=(700, 1)), 4)  # some tied values
        assert core._median_pairwise_distance(Z) == full_list_median(Z)
        assert len(passes) >= 2

    def test_one_dimension_all_equal_raises(self):
        with pytest.raises(DegenerateBandwidth):
            mmd(np.full((5, 1), 3.0), np.full((4, 1), 3.0))

    @staticmethod
    def _count_passes(monkeypatch):
        # a pass is a walk over the sample's own tiles, or at d = 1 one sorted pass
        passes = []

        def counting(ops, stripe=None):
            passes.append(ops[0].shape)
            return tiles(ops, stripe)

        def counting_sorted(z, a, b):
            passes.append(z.shape)
            return sorted_pass(z, a, b)

        tiles, sorted_pass = core._self_tiles, core._sorted_pass
        monkeypatch.setattr(core, "_self_tiles", counting)
        monkeypatch.setattr(core, "_sorted_pass", counting_sorted)
        return passes
