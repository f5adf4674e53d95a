"""Unclamped distance blocks: every consumer's result bit for bit as if clamped.

core._sq_dist_tile leaves each product as it rounds, so an entry of a
coincident or near pair can lie just past 0, and each consumer clamps only
where its own pass finds one: the kernel sums in core._floored_exp (with
the floor, or where the block's max is >= 0; a cross KDE strip reads that
from its row maxima), the transport cost fill where a strip's min is <= 0,
and the median heuristic's count pass only while its lower pivot is <= 0.
metrics._w1_sorted subtracts the sorted rows directly where equal sample
sizes make the quantile grid the identity.

The oracle here is the design that clamps every block as its product is
written and floors alone in the exp (`clamp_always`, patched into core and
kde). Every result is compared with it byte for byte, on samples with
duplicate and near-duplicate rows (their blocks hold ±0.0 and entries just
past 0), at bandwidths where the floor probe fires and where it does not,
with far query rows that take the cross strips' row-max shift, and at tile
and strip sizes small enough that a sample spans several of each.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popalign import core, kde, metrics
from popalign.kde import fit_kde, log_density_many
from popalign.ot import cost_matrix

SETTINGS = settings(max_examples=80, derandomize=True, deadline=None, database=None)


def same(a, b):
    """Whether a and b are the same float64 values, sign of zero and NaN included."""
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@contextlib.contextmanager
def clamp_always():
    """Every product clamped at 0 as it is written (from below at scale > 0,
    from above at scale < 0; the scale is the operands' last column), and an
    exp that only floors, on the probe grid's test, before exponentiating."""
    product = core._sq_dist_tile

    def clamped_tile(ops, rows, cols, out=None):
        D = product(ops, rows, cols, out)
        clamp = np.maximum if ops[0][0, -1] > 0 else np.minimum
        clamp(D, 0.0, out=D)
        return D

    def floored_exp(K, clamp=None):
        probe = K[::max(1, K.shape[0] // core._FLOOR_PROBE),
                  ::max(1, K.shape[1] // core._FLOOR_PROBE)]
        if probe.min(initial=0.0) < core._EXP_FLOOR:
            np.maximum(K, core._EXP_FLOOR, out=K)
        return np.exp(K, out=K)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_sq_dist_tile", clamped_tile)
        mp.setattr(kde, "_floored_exp", floored_exp)
        yield


@contextlib.contextmanager
def small_blocks(tile):
    """Tiles of `tile` rows and cross strips of _BLOCK_MIN_ROWS rows, so a
    sample of a few dozen rows spans several of each."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_TILE", tile)
        mp.setattr(core, "_BLOCK_ELEMS", 1)
        yield


def both(compute, tile=None):
    """(compute(), compute() under clamp_always), at small blocks if tile is given."""
    with small_blocks(tile) if tile else contextlib.nullcontext():
        got = compute()
        with clamp_always():
            want = compute()
    return got, want


# exact on a 2^-20 grid, so a duplicate's offset cancels exactly in its own
# row but the expanded product still rounds
GRID = st.integers(-(2**22), 2**22).map(lambda k: k / 2.0**20)


@st.composite
def samples(draw, min_d=1, max_rows=40):
    """Rows drawn from a few atoms, so many of them repeat; some repeats are
    nudged by a few ulp of the offset (near-duplicates), and the whole
    sample sits at an offset that makes the expansion round."""
    d = draw(st.integers(min_d, 4))
    k = draw(st.integers(1, 6))
    atoms = np.array(draw(st.lists(GRID, min_size=k * d, max_size=k * d))).reshape(k, d)
    n = draw(st.integers(2, max_rows))
    X = atoms[draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))]
    offset = draw(st.sampled_from([0.0, 50.0, 1e3]))
    X = X + offset
    nudged = draw(st.lists(st.integers(0, n - 1), max_size=3))
    X[nudged] = np.nextafter(X[nudged], np.inf)
    return X


BANDWIDTHS = st.sampled_from([0.005, 0.05, 0.5, 4.0])
TILES = st.sampled_from([None, 4, 7])


class TestKernelSums:
    @SETTINGS
    @given(S=samples(), h=BANDWIDTHS, tile=TILES)
    def test_self_query(self, S, h, tile):
        model = fit_kde(S, h)
        got, want = both(lambda: log_density_many(model, model.samples), tile)
        assert same(got, want)

    @SETTINGS
    @given(S=samples(), h=BANDWIDTHS, tile=TILES, data=st.data())
    def test_cross_query_with_duplicates_and_far_rows(self, S, h, tile, data):
        # queries repeat source rows (entries at 0), and some lie hundreds
        # of bandwidths away (a strip's row-max shift)
        rows = data.draw(st.lists(st.integers(0, S.shape[0] - 1), min_size=1, max_size=30))
        Q = S[rows].copy()
        far = data.draw(st.lists(st.integers(0, Q.shape[0] - 1), max_size=5))
        Q[far] += 300.0 * h
        model = fit_kde(S, h)
        got, want = both(lambda: log_density_many(model, Q), tile)
        assert same(got, want)

    @SETTINGS
    @given(A=samples(min_d=2), B=samples(min_d=2), sigma=BANDWIDTHS, tile=TILES)
    def test_mmd_kernel_means(self, A, B, sigma, tile):
        B = np.resize(B, (B.shape[0], A.shape[1]))
        B[: A.shape[0] // 2] = A[: B.shape[0]][: A.shape[0] // 2]  # shared rows
        for X, Y in ((A, A), (B, B), (A, B)):
            got, want = both(lambda: metrics._kernel_mean(X, Y, sigma), tile)
            assert same(got, want)

    def test_inputs_reach_every_branch(self):
        # the fixed inputs below take each of the floor, the clamp alone and
        # neither, on self tiles and on cross strips (shifted and not)
        seen = set()
        real = core._floored_exp

        def recording(K, clamp=None):
            probe = K[::max(1, K.shape[0] // core._FLOOR_PROBE),
                      ::max(1, K.shape[1] // core._FLOOR_PROBE)]
            fires = bool(probe.min(initial=0.0) < core._EXP_FLOOR)
            past = bool(K.max() >= 0) if clamp is None else bool(clamp)
            seen.add((fires, past, clamp is None))
            return real(K, clamp)

        rng = np.random.default_rng(7)
        S = 50.0 + np.vstack([rng.normal(size=(20, 3)), rng.normal(size=(20, 3)) * 40.0])
        S[5] = S[6]
        # strips of 8 rows: duplicates of sources, near rows, far rows
        Q = np.vstack([S[:8], S[:8] + 0.3, S[30:] + 1000.0])
        with small_blocks(8), pytest.MonkeyPatch.context() as mp:
            mp.setattr(kde, "_floored_exp", recording)
            for h in (0.05, 2.0, 100.0):
                model = fit_kde(S, h)
                log_density_many(model, model.samples)
                log_density_many(model, Q)
        for fires in (True, False):
            for past in (True, False):
                for self_tile in (True, False):
                    assert (fires, past, self_tile) in seen


class TestMedianHeuristic:
    @SETTINGS
    @given(Z=samples(max_rows=60), tile=TILES)
    def test_median_pairwise_distance(self, Z, tile):
        got, want = both(lambda: core._median_pairwise_distance(Z), tile)
        assert same(got, want)
        # and the whole list of the same tiles, clamped, as np.median takes it
        if Z.shape[1] > 1:
            with small_blocks(tile) if tile else contextlib.nullcontext():
                d2 = np.concatenate([
                    D[np.arange(r.start, r.stop)[:, None] < np.arange(c.start, c.stop)[None, :]]
                    for r, c, D in core._self_tiles(core._sq_dist_operands(Z))
                ])
            assert d2.size == Z.shape[0] * (Z.shape[0] - 1) // 2
            assert same(got, np.median(np.sqrt(np.maximum(d2, 0.0))))

    @pytest.mark.parametrize("duplicated, clamped", [(30, True), (0, False)])
    def test_the_lower_pivot_decides_the_clamp(self, duplicated, clamped):
        # with more than half the pairs duplicates the lower pivot is 0 and
        # the tiles are clamped; with none, it is above 0 and they are read
        # as the product rounds them
        rng = np.random.default_rng(11)
        Z = 50.0 + rng.normal(size=(40, 3))
        Z[:duplicated] = Z[0]
        calls = []
        real = core._upper_distances

        def recording(ops, clamp):
            calls.append(clamp)
            return real(ops, clamp)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_upper_distances", recording)
            got = core._median_pairwise_distance(Z)
        assert calls and calls[0] == clamped
        with clamp_always():
            assert same(got, core._median_pairwise_distance(Z))
        assert (got == 0.0) == clamped


class TestTransportCost:
    @SETTINGS
    @given(X=samples(), data=st.data(), tile=TILES)
    def test_cost_values_and_median(self, X, data, tile):
        # Y shares rows with X, so the cost holds zeros and entries that
        # round past 0
        rows = data.draw(st.lists(st.integers(0, X.shape[0] - 1), min_size=1, max_size=30))
        Y = X[rows]
        w = data.draw(st.sampled_from([None, np.linspace(0.5, 2.0, X.shape[1])]))
        weights = None if w is None else core.ItemWeights(w)

        def compute():
            C = cost_matrix(X, Y, weights)
            return C.values.copy(), C.median_cost

        (got, got_median), (want, want_median) = both(compute, tile)
        assert same(got, want) and same(got_median, want_median)
        assert (got >= 0).all()

    def test_array_median_of_a_cost_holding_nan(self):
        C = np.random.default_rng(3).uniform(0.0, 1.0, size=(30, 40))
        C[7, 9] = np.nan
        with np.errstate(invalid="ignore"):
            assert np.isnan(core._array_median(C))
            assert np.isnan(np.median(C))


def gathered_w1(xs, ys, grid, p=1):
    """_w1_sorted's general path: both sides gathered along the merged grid."""
    ix, iy, widths, step, _ = grid
    out = np.empty(xs.shape[0])
    for lo in range(0, out.size, step):
        hi = min(lo + step, out.size)
        gap_t = np.empty((widths.size, hi - lo))
        other = np.empty_like(gap_t)
        np.take(xs[lo:hi].T, ix, axis=0, out=gap_t)
        gap_t -= np.take(ys[lo:hi].T, iy, axis=0, out=other)
        np.abs(gap_t, out=gap_t)
        if p != 1:
            gap_t **= p
        out[lo:hi] = gap_t.T @ widths
    return out / (xs.shape[1] * ys.shape[1])


class TestSortedW1:
    @SETTINGS
    @given(
        rows=st.integers(1, 40), nx=st.integers(1, 300), equal=st.booleans(),
        ny=st.integers(1, 300), p=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_gathers(self, rows, nx, ny, equal, p, seed):
        ny = nx if equal else ny
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.standard_t(3, size=(rows, nx)), axis=1)
        ys = np.sort(rng.standard_t(3, size=(rows, ny)), axis=1)
        grid = metrics._quantile_grid(nx, ny)
        assert same(metrics._w1_sorted(xs, ys, grid, p), gathered_w1(xs, ys, grid, p))

    @pytest.mark.parametrize("nx, ny, gathers", [(500, 500, 0), (500, 499, 2), (3, 500, 2)])
    def test_only_unequal_sizes_gather(self, nx, ny, gathers):
        rng = np.random.default_rng(nx + ny)
        xs = np.sort(rng.normal(size=(300, nx)), axis=1)
        ys = np.sort(rng.normal(size=(300, ny)), axis=1)
        grid = metrics._quantile_grid(nx, ny)
        chunks = -(-300 // grid[3])
        assert chunks > 1
        calls = []
        take = np.take

        def counting(*args, **kwargs):
            calls.append(1)
            return take(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "take", counting)
            got = metrics._w1_sorted(xs, ys, grid)
        assert len(calls) == gathers * chunks
        assert same(got, gathered_w1(xs, ys, grid))

    def test_equal_size_metrics_keep_their_bits(self):
        # amw and sliced W1 on equal sizes, against the gathers' values
        rng = np.random.default_rng(5)
        X, Y = rng.normal(size=(400, 4)), rng.normal(loc=0.3, size=(400, 4))
        got = (metrics.amw(X, Y), metrics.sliced_wasserstein(X, Y, n_projections=64))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_w1_sorted", gathered_w1)
            want = (metrics.amw(X, Y), metrics.sliced_wasserstein(X, Y, n_projections=64))
        assert same(got, want)
