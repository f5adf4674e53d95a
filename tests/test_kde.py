"""Gaussian KDE log densities and importance weights.

Direct-evaluation oracles here compute the density as a plain (non-log)
average of Gaussian kernels, only on instances small and tame enough that
underflow cannot occur.
"""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popalign import fit_kde, importance_log_ratios, importance_weights, log_density
from popalign.errors import (
    DimensionMismatch,
    NonFiniteValue,
    NonPositiveBandwidth,
)
from popalign import core, kde
from popalign.kde import log_density_many

SQRT_2PI = math.sqrt(2.0 * math.pi)


def direct_log_density(samples, h, x):
    """Literal transcription of the density formula, no log-space tricks."""
    samples = np.asarray(samples, dtype=float)
    x = np.asarray(x, dtype=float)
    m, d = samples.shape
    norm = m * (2.0 * math.pi * h * h) ** (d / 2.0)
    total = sum(
        math.exp(-float(np.sum((x - s) ** 2)) / (2.0 * h * h)) for s in samples
    )
    return math.log(total / norm)


class TestFit:
    def test_norm_const_single_sample_1d_unit_bandwidth(self):
        model = fit_kde(np.zeros((1, 1)), 1.0)
        assert abs(model.log_norm_const - math.log(SQRT_2PI)) <= 1e-12

    def test_norm_const_general(self):
        model = fit_kde(np.zeros((10, 3)), 0.5)
        want = math.log(10.0) + 1.5 * math.log(2.0 * math.pi * 0.25)
        assert abs(model.log_norm_const - want) <= 1e-12

    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
    def test_bad_bandwidth(self, h):
        with pytest.raises(NonPositiveBandwidth):
            fit_kde(np.zeros((2, 2)), h)

    def test_model_carries_inputs(self):
        model = fit_kde(np.ones((4, 2)), 0.3)
        assert model.bandwidth == 0.3
        assert model.d == 2


class TestLogDensity:
    def test_peak_of_single_sample(self):
        # at the sample itself the kernel sum is exp(0) = 1
        model = fit_kde(np.array([[2.0, -1.0, 0.5]]), 0.7)
        got = log_density(model, np.array([2.0, -1.0, 0.5]))
        assert abs(got + model.log_norm_const) <= 1e-12

    def test_two_point_midpoint(self):
        # samples {-1, +1}, h=1: density at 0 is exp(-1/2)/sqrt(2 pi)
        model = fit_kde(np.array([[-1.0], [1.0]]), 1.0)
        want = math.log(math.exp(-0.5) / SQRT_2PI)
        assert abs(log_density(model, np.array([0.0])) - want) <= 1e-12

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 5):
            S = rng.normal(size=(60, d))
            model = fit_kde(S, 0.8)
            for _ in range(20):
                x = rng.normal(size=d)
                got = log_density(model, x)
                want = direct_log_density(S, 0.8, x)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_shift_equivariance(self):
        rng = np.random.default_rng(1)
        S = rng.normal(size=(40, 3))
        delta = np.array([10.0, -4.0, 2.5])
        m0 = fit_kde(S, 0.5)
        m1 = fit_kde(S + delta, 0.5)
        for _ in range(10):
            x = rng.normal(size=3)
            assert abs(log_density(m0, x) - log_density(m1, x + delta)) <= 1e-12

    def test_integrates_to_one_1d(self):
        # trapezoid quadrature of exp(log density) over a wide grid
        rng = np.random.default_rng(2)
        model = fit_kde(rng.normal(size=(30, 1)), 0.4)
        grid = np.linspace(-8, 8, 4001)
        vals = np.exp(log_density_many(model, grid[:, None]))
        mass = np.trapezoid(vals, grid)
        assert abs(mass - 1.0) <= 1e-3

    def test_far_query_stays_finite(self):
        # a plain average would underflow to 0 here; the log-space path
        # returns the exact (astronomically negative) log density instead
        model = fit_kde(np.zeros((1, 1)), 0.01)
        got = log_density(model, np.array([1e6]))
        want = -1e12 / (2 * 0.01**2) - model.log_norm_const
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("rows", ["near", "far", "mixed"])
    def test_strips_with_and_without_the_shift_match_per_row(self, rows):
        # a strip is shifted by its row maxima only when one of its rows has
        # its nearest source far (largest term below exp(_NEAR_LOG_TERM));
        # h = 0.1 puts that at a distance of about 3.5
        rng = np.random.default_rng(6)
        model = fit_kde(rng.normal(size=(200, 3)), 0.1)
        near, far = rng.normal(size=(30, 3)), 4.0 + rng.normal(size=(30, 3))
        X = {"near": near, "far": far, "mixed": np.vstack([near, far])}[rows]
        want = np.array([log_density(model, x) for x in X])
        np.testing.assert_allclose(log_density_many(model, X), want, rtol=0, atol=1e-11)

    def test_dimension_mismatch(self):
        model = fit_kde(np.zeros((2, 3)), 1.0)
        with pytest.raises(DimensionMismatch):
            log_density(model, np.zeros(2))

    def test_nonfinite_query(self):
        model = fit_kde(np.zeros((2, 2)), 1.0)
        with pytest.raises(NonFiniteValue):
            log_density(model, np.array([np.nan, 0.0]))


class TestLogDensityMany:
    def test_matches_single_point_path(self):
        rng = np.random.default_rng(3)
        S = rng.normal(size=(80, 4))
        X = rng.normal(size=(25, 4))
        model = fit_kde(S, 0.6)
        batch = log_density_many(model, X)
        single = np.array([log_density(model, x) for x in X])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-11)

    def test_matches_single_point_path_across_blocks(self):
        # at the default cap 300 queries against 2000 sources span several
        # multi-row blocks, the last one shorter than the rest
        rows = core._BLOCK_ELEMS // 2000
        assert 1 < rows < 300 and 300 % rows
        rng = np.random.default_rng(4)
        model = fit_kde(rng.normal(size=(2000, 5)), 0.4)
        X = rng.normal(scale=1.5, size=(300, 5))
        want = np.array([log_density(model, x) for x in X])
        np.testing.assert_allclose(log_density_many(model, X), want, rtol=0, atol=1e-11)

    def test_far_query_matches_closed_form(self):
        # every kernel term underflows in linear space; the shifted sum keeps
        # the nearest term at exp(0) and returns the exact log density
        rng = np.random.default_rng(5)
        h = 0.3
        s = rng.normal(size=5)
        step = rng.normal(size=5)
        x = s + 1e3 * h * step / np.linalg.norm(step)
        model = fit_kde(s[None, :], h)
        got = log_density_many(model, np.vstack([x, s]))
        want = -0.5 * ((x - s) @ (x - s)) / (h * h) - model.log_norm_const
        assert np.isfinite(got).all()
        assert got[0] == pytest.approx(want, rel=1e-12)
        assert got[1] == pytest.approx(-model.log_norm_const, abs=1e-12)

    def test_dimension_mismatch(self):
        model = fit_kde(np.zeros((2, 3)), 1.0)
        with pytest.raises(DimensionMismatch):
            log_density_many(model, np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_query_row(self, bad):
        model = fit_kde(np.zeros((2, 2)), 1.0)
        X = np.zeros((3, 2))
        X[1, 0] = bad
        with pytest.raises(NonFiniteValue):
            log_density_many(model, X)
        with pytest.raises(NonFiniteValue):
            log_density(model, X[1])

    def test_nonfinite_query_named(self):
        model = fit_kde(np.zeros((2, 3)), 1.0)
        X = np.zeros((4, 3))
        X[3, 2] = np.nan
        with pytest.raises(NonFiniteValue) as exc:
            log_density_many(model, X)
        assert (exc.value.row, exc.value.col) == (3, 2)
        with pytest.raises(NonFiniteValue) as exc:
            log_density(model, X[3])
        assert (exc.value.row, exc.value.col) == (None, 2)


class TestDenseMemory:
    """The dense path holds a few cache-sized distance blocks, never the n x m matrix."""

    @pytest.mark.parametrize("self_query", [False, True])
    def test_peak_is_a_few_blocks(self, self_query):
        rng = np.random.default_rng(6)
        model = fit_kde(rng.normal(size=(3000, 5)), 0.5)
        X = model.samples if self_query else rng.normal(size=(3000, 5))
        tracemalloc.start()
        try:
            log_density_many(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # four 1 MiB blocks; the full 3000 x 3000 matrix would take 72 MB
        assert peak <= 4 * 8 * (1 << 17)


class TestImportanceWeights:
    def test_identical_models_give_exact_ones(self):
        rng = np.random.default_rng(4)
        S = rng.normal(size=(50, 3))
        X = rng.normal(size=(20, 3))
        m = fit_kde(S, 0.5)
        w = importance_weights(m, m, X)
        np.testing.assert_array_equal(w, np.ones(20))

    def test_log_ratio_two_gaussians(self):
        # human at 0, persona at 10, h=1, query 0:
        # log ratio = (10^2 - 0)/2 = 50 exactly (same normalizers cancel)
        human = fit_kde(np.array([[0.0]]), 1.0)
        persona = fit_kde(np.array([[10.0]]), 1.0)
        r = importance_log_ratios(human, persona, np.array([[0.0]]))
        assert abs(r[0] - 50.0) <= 1e-12

    def test_clamp_applied(self):
        human = fit_kde(np.array([[0.0]]), 1.0)
        persona = fit_kde(np.array([[10.0]]), 1.0)
        w = importance_weights(human, persona, np.array([[0.0]]))
        assert w[0] == math.exp(30.0)

    def test_mixture_ratio(self):
        # persona mixes {0, 10}; at x=0 the far component is negligible,
        # so the ratio is 2 / (1 + exp(-50))
        human = fit_kde(np.array([[0.0]]), 1.0)
        persona = fit_kde(np.array([[0.0], [10.0]]), 1.0)
        w = importance_weights(human, persona, np.array([[0.0]]))
        assert abs(w[0] - 2.0) <= 1e-9

    def test_weights_positive_and_finite(self):
        rng = np.random.default_rng(5)
        human = fit_kde(rng.normal(size=(100, 2)), 0.3)
        persona = fit_kde(rng.normal(loc=1.0, size=(100, 2)), 0.3)
        w = importance_weights(human, persona, rng.normal(size=(200, 2)))
        assert np.isfinite(w).all() and (w > 0).all()
        assert np.all(w <= math.exp(30.0)) and np.all(w >= math.exp(-30.0))

    def test_model_dim_mismatch(self):
        a = fit_kde(np.zeros((2, 2)), 1.0)
        b = fit_kde(np.zeros((2, 3)), 1.0)
        with pytest.raises(DimensionMismatch):
            importance_log_ratios(a, b, np.zeros((1, 2)))


class TestSelfInclusiveQueries:
    def test_matches_refit_with_query_appended(self):
        # oracle: scoring x with include_query equals fitting on S + {x}
        rng = np.random.default_rng(7)
        S = rng.normal(size=(40, 3))
        model = fit_kde(S, 0.5)
        X = rng.normal(size=(15, 3)) * 2.0
        got = log_density_many(model, X, include_query=True)
        for i, x in enumerate(X):
            augmented = fit_kde(np.vstack([S, x[None, :]]), 0.5)
            want = log_density(augmented, x)
            assert abs(got[i] - want) <= 1e-12 + 1e-12 * abs(want)

    def test_single_query_variant_agrees(self):
        rng = np.random.default_rng(8)
        S = rng.normal(size=(25, 2))
        model = fit_kde(S, 0.4)
        x = np.array([3.0, -2.0])
        a = log_density(model, x, include_query=True)
        b = log_density_many(model, x[None, :], include_query=True)[0]
        assert abs(a - b) <= 1e-12

    def test_floor_at_isolated_query(self):
        # far from every fitting sample: plain log estimate is astronomically
        # negative, self-inclusive estimate sits exactly on the lone-kernel floor
        model = fit_kde(np.zeros((10, 1)), 0.2)
        far = np.array([[1e6]])
        plain = log_density_many(model, far)[0]
        selfinc = log_density_many(model, far, include_query=True)[0]
        assert plain < -1e12
        floor = -math.log(11.0) - 0.5 * math.log(2.0 * math.pi * 0.04)
        assert abs(selfinc - floor) <= 1e-12

    def test_ratio_bounded_by_target_over_floor(self):
        # with query_in_source the source density never drops below the
        # floor, so the log ratio cannot blow up at missed pool points
        rng = np.random.default_rng(9)
        target = fit_kde(rng.normal(size=(200, 1)), 0.2)
        source = fit_kde(rng.normal(loc=1.0, size=(64, 1)), 0.2)
        X = np.array([[-6.0], [-4.0], [8.0]])
        plain = importance_log_ratios(target, source, X)
        guarded = importance_log_ratios(target, source, X, query_in_source=True)
        assert np.all(guarded <= plain + 1e-12)
        floor = -math.log(65.0) - 0.5 * math.log(2.0 * math.pi * 0.04)
        target_logs = log_density_many(target, X)
        assert np.all(guarded <= target_logs - floor + 1e-12)

    def test_importance_weights_pass_through(self):
        rng = np.random.default_rng(10)
        target = fit_kde(rng.normal(size=(50, 2)), 0.3)
        source = fit_kde(rng.normal(size=(20, 2)), 0.3)
        X = rng.normal(size=(30, 2))
        w = importance_weights(target, source, X, query_in_source=True)
        want = np.exp(np.clip(
            importance_log_ratios(target, source, X, query_in_source=True),
            -30.0, 30.0,
        ))
        np.testing.assert_array_equal(w, want)

    def test_default_is_plain(self):
        rng = np.random.default_rng(11)
        S = rng.normal(size=(30, 2))
        model = fit_kde(S, 0.5)
        X = rng.normal(size=(10, 2))
        np.testing.assert_array_equal(
            log_density_many(model, X),
            log_density_many(model, X, include_query=False),
        )


class TestFastSummation:
    """1-d kernel sums via the Hermite expansion against direct evaluation."""

    def _dense_sums(self, sources, queries, h):
        out = np.empty(queries.size)
        for lo in range(0, queries.size, 500):
            block = queries[lo:lo + 500, None] - sources[None, :]
            out[lo:lo + 500] = np.exp(-block ** 2 / (2.0 * h * h)).sum(axis=1)
        return out

    def test_matches_dense_sums(self):
        rng = np.random.default_rng(20)
        for h in (0.05, 0.2, 0.8):
            s = rng.normal(size=4000)
            q = rng.normal(loc=0.5, size=3000)
            got = kde._fgt_gauss_sums_1d(s, q, h)
            want = self._dense_sums(s, q, h)
            big = want > 1e-2
            rel = np.max(np.abs(got[big] - want[big]) / want[big])
            assert rel < 1e-12
            assert np.max(np.abs(got - want)) < 1e-10

    def test_clustered_sources(self):
        rng = np.random.default_rng(21)
        s = np.concatenate([
            rng.normal(size=2000) * 0.01,
            rng.normal(loc=3.0, size=2000),
        ])
        q = rng.uniform(-5.0, 8.0, size=2500)
        got = kde._fgt_gauss_sums_1d(s, q, 0.2)
        want = self._dense_sums(s, q, 0.2)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_fast_path_matches_dense_path(self, monkeypatch):
        rng = np.random.default_rng(22)
        S = rng.normal(size=(3000, 1))
        X = rng.normal(loc=0.4, size=(800, 1))
        model = fit_kde(S, 0.2)
        slow = log_density_many(model, X)
        monkeypatch.setattr(kde, "_FGT_MIN_PAIRS", 0)
        fast = log_density_many(model, X)
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-11)

    def test_fast_path_include_query(self, monkeypatch):
        rng = np.random.default_rng(23)
        S = rng.normal(size=(2000, 1))
        X = rng.normal(size=(500, 1))
        model = fit_kde(S, 0.25)
        slow = log_density_many(model, X, include_query=True)
        monkeypatch.setattr(kde, "_FGT_MIN_PAIRS", 0)
        fast = log_density_many(model, X, include_query=True)
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-11)

    def test_fast_path_far_tail_falls_back(self, monkeypatch):
        # queries far outside the source support produce kernel sums below
        # the safe threshold; those rows must come from the exact log-sum-exp
        rng = np.random.default_rng(24)
        S = rng.normal(size=(2000, 1))
        X = np.array([[-7.5], [0.0], [9.0]])
        model = fit_kde(S, 0.2)
        slow = log_density_many(model, X)
        monkeypatch.setattr(kde, "_FGT_MIN_PAIRS", 0)
        fast = log_density_many(model, X)
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-9)
        assert np.isfinite(fast).all()

    def test_wide_span_uses_dense_path(self, monkeypatch):
        # span/bandwidth beyond the box budget keeps the exact path
        rng = np.random.default_rng(25)
        S = np.concatenate([rng.normal(size=500), [1e5]]).reshape(-1, 1)
        X = rng.normal(size=(40, 1))
        model = fit_kde(S, 0.2)
        slow = log_density_many(model, X)
        monkeypatch.setattr(kde, "_FGT_MIN_PAIRS", 0)
        fast = log_density_many(model, X)
        np.testing.assert_array_equal(fast, slow)

    def test_dimension_two_unaffected(self, monkeypatch):
        rng = np.random.default_rng(26)
        S = rng.normal(size=(300, 2))
        X = rng.normal(size=(100, 2))
        model = fit_kde(S, 0.3)
        slow = log_density_many(model, X)
        monkeypatch.setattr(kde, "_FGT_MIN_PAIRS", 0)
        fast = log_density_many(model, X)
        np.testing.assert_array_equal(fast, slow)


PROPERTY = settings(max_examples=60, derandomize=True, deadline=None, database=None)


class TestTaylorTranslation:
    """The Hermite-to-Taylor transform against per-row and closed-form oracles."""

    @PROPERTY
    @given(
        tails=st.booleans(),
        n_s=st.integers(1, 400),
        n_q=st.integers(1, 120),
        h=st.floats(0.05, 0.8),
        offset=st.sampled_from([0.0, 50.0, 1e3]),
        include_query=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fast_path_matches_per_row(self, tails, n_s, n_q, h, offset, include_query, seed):
        rng = np.random.default_rng(seed)

        def draw(n):
            return rng.standard_t(3, size=(n, 1)) if tails else rng.normal(size=(n, 1))

        model = fit_kde(offset + draw(n_s), h)
        X = offset + 1.5 * draw(n_q)
        want = np.array([log_density(model, x, include_query=include_query) for x in X])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kde, "_FGT_MIN_PAIRS", 0)
            got = log_density_many(model, X, include_query=include_query)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("h", [0.25, 0.3, 1.0])
    @pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
    def test_single_source_at_every_offset(self, h, where):
        # the leftmost query fixes the box grid at multiples of h; queries sit
        # at both edges of every box within reach of the source's box (and its
        # centre), so every translation T_o and the extremes of y are used
        reach = kde._FGT_REACH
        s = math.nextafter(where * h, -math.inf) if where == 1.0 else where * h
        q = []
        for o in range(-reach, reach + 1):
            q += [o * h, (o + 0.5) * h, math.nextafter((o + 1) * h, -math.inf)]
        q = np.array(q)
        got = kde._fgt_gauss_sums_1d(np.array([s]), q, h)
        want = np.exp(-((q - s) ** 2) / (2.0 * h * h))
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_memory_of_a_large_self_query(self):
        s = np.random.default_rng(27).standard_t(3, size=60_000)
        tracemalloc.start()
        try:
            kde._fgt_gauss_sums_1d(s, s, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (order + 1) x n gather of the Taylor coefficients alone is 12 MB
        assert peak <= 8 * 2**20


def dense_rows(sources, queries, h):
    """The dense path's log kernel sums (no normalizer): row strips shifted by
    their row maxima where a row's nearest source lies far."""
    work, finish = kde._dense_stripes(sources.reshape(-1, 1), queries.reshape(-1, 1), h)
    return finish(work(0), work(1))


def mp_rows(sources, queries, h):
    """50-digit oracle for log sum_i exp(-(q - s_i)^2 / (2 h^2))."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        s = [mpmath.mpf(float(v)) for v in sources]
        two_h2 = 2 * mpmath.mpf(h) ** 2
        return np.array([
            float(mpmath.log(mpmath.fsum(mpmath.exp(-(mpmath.mpf(float(q)) - v) ** 2 / two_h2)
                                         for v in s)))
            for q in queries
        ])


def _window_cases():
    rng = np.random.default_rng(30)
    s = rng.normal(size=300)
    beyond = (s, np.array([s.max() + 5.0, s.min() - 40.0, s.max() + 200.0, s.min() - 200.0]), 0.2)
    # 0 and 3 lie halfway between two sources, whose terms both peak at 1
    equidistant = (np.array([-1.0, 1.0, 5.0, 9.5]), np.array([0.0, 3.0, -4.0]), 0.1)
    dup = np.repeat(rng.normal(size=40), 5)
    duplicated = (dup, np.concatenate([3.0 * rng.normal(size=30), [dup.max() + 7.0]]), 0.05)
    t = rng.standard_t(3, size=500)
    h = 0.05
    far = np.concatenate([t.max() + h * np.geomspace(1.0, 1e3, 12),
                          t.min() - h * np.geomspace(1.0, 1e3, 12)])
    return {"beyond": beyond, "equidistant": equidistant, "duplicated": duplicated,
            "to-1e3-h": (t, far, h)}


WINDOW_CASES = _window_cases()


class TestWindowedRows:
    """Small-sum rows summed over a window of the sorted sources."""

    @pytest.mark.parametrize("name", sorted(WINDOW_CASES))
    def test_matches_dense_rows_and_the_oracle(self, name):
        s, q, h = WINDOW_CASES[name]
        got, pairs = kde._window_kernel_lse(s, q, h)
        want = mp_rows(s, q, h)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        # the dense rows carry their expansion's rounding times 1 / (2 h^2),
        # 2e-11 on the Student-t case; the windowed rows are never worse
        dense = dense_rows(s, q, h)
        np.testing.assert_allclose(got, dense, rtol=1e-13, atol=1e-10)
        assert (np.abs(got - want) <= np.abs(dense - want) + 1e-15 * np.abs(want)).all()
        assert q.size <= pairs <= q.size * s.size

    def test_equidistant_sources_count_once_each(self):
        h = 0.1
        got, pairs = kde._window_kernel_lse(np.array([-1.0, 1.0]), np.array([0.0]), h)
        assert got[0] == math.log(2.0) - 1.0 / (2.0 * h * h)
        assert pairs == 2

    def test_window_drops_only_negligible_terms(self):
        # a source just outside the window of a query whose nearest source is
        # 1 away: d0^2 + 2 h^2 L < (q - s)^2
        h, L = 0.1, kde._WINDOW_LOG_REACH
        edge = math.sqrt(1.0 + 2.0 * h * h * L) + 1e-9
        got, pairs = kde._window_kernel_lse(np.array([1.0, -edge]), np.array([0.0]), h)
        assert pairs == 1
        assert got[0] == -1.0 / (2.0 * h * h)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunks_split_rows_anywhere(self, chunk, monkeypatch):
        s, q, h = WINDOW_CASES["to-1e3-h"]
        whole, pairs = kde._window_kernel_lse(s, q, h)
        monkeypatch.setattr(kde, "_WINDOW_CHUNK", chunk)
        got, chunked_pairs = kde._window_kernel_lse(s, q, h)
        assert chunked_pairs == pairs
        np.testing.assert_allclose(got, whole, rtol=1e-15, atol=0.0)

    def test_fast_path_takes_windowed_rows(self, monkeypatch):
        s, q, h = WINDOW_CASES["to-1e3-h"]
        model = fit_kde(s.reshape(-1, 1), h)
        X = np.concatenate([s[:100], q]).reshape(-1, 1)
        monkeypatch.setattr(kde, "_FGT_MIN_PAIRS", 0)
        got = log_density_many(model, X)
        np.testing.assert_allclose(
            got[100:], mp_rows(s, q, h) - model.log_norm_const, rtol=1e-15, atol=0.0
        )

    def test_memory_of_far_queries_facing_a_cluster(self, caplog):
        # 10^4 queries 0.1 to 10 beyond a cluster of 10^5 sources: every
        # FGT sum is small, and the windows hold 1.2e7 pairs (96 MB per
        # float64 array of them), walked _WINDOW_CHUNK at a time
        rng = np.random.default_rng(31)
        h = 0.01
        model = fit_kde(rng.uniform(0.0, 1.0, size=(100_000, 1)), h)
        X = (1.0 + h * np.geomspace(10.0, 1e3, 10_000)).reshape(-1, 1)
        with caplog.at_level(logging.DEBUG, logger="popalign.kde"):
            tracemalloc.start()
            try:
                out = log_density_many(model, X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.isfinite(out).all()
        (event,) = [r for r in caplog.records if r.name == "popalign.kde"]
        queries, _, small, pairs = event.args
        assert queries == small == 10_000
        assert pairs > 1e7
        assert peak <= 10 * 2**20


class TestFgtEvent:
    """One DEBUG event per fast Gauss evaluation on the popalign.kde logger."""

    def test_names_queries_small_rows_and_window_pairs(self, caplog, monkeypatch):
        s, q, h = WINDOW_CASES["to-1e3-h"]
        model = fit_kde(s.reshape(-1, 1), h)
        X = np.concatenate([s, q]).reshape(-1, 1)
        monkeypatch.setattr(kde, "_FGT_MIN_PAIRS", 0)
        with caplog.at_level(logging.DEBUG, logger="popalign.kde"):
            log_density_many(model, X)
            log_density_many(model, s[:50].reshape(-1, 1), include_query=True)
        events = [r for r in caplog.records if r.name == "popalign.kde"]
        assert all(r.levelno == logging.DEBUG for r in events)
        sums = kde._fgt_gauss_sums_1d(s, X[:, 0], h)
        small = int(np.count_nonzero(sums < kde._FGT_SAFE_SUM))
        assert 0 < small < X.shape[0]
        _, pairs = kde._window_kernel_lse(s, X[sums < kde._FGT_SAFE_SUM, 0], h)
        assert [r.args for r in events] == [(X.shape[0], s.size, small, pairs), (50, s.size, 0, 0)]
        assert f"{small} small-sum rows" in events[0].getMessage()

    def test_dense_evaluations_log_nothing(self, caplog):
        rng = np.random.default_rng(32)
        model = fit_kde(rng.normal(size=(200, 2)), 0.3)
        with caplog.at_level(logging.DEBUG, logger="popalign.kde"):
            log_density_many(model, rng.normal(size=(100, 2)))
            log_density_many(fit_kde(model.samples.values[:, :1], 0.3), np.zeros((10, 1)))
        assert not [r for r in caplog.records if r.name == "popalign.kde"]
