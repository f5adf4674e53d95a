"""Finite-sample guarantee checks: entropic gap, exact 1-d W2, stage-1 sweep."""

import math

import numpy as np
import pytest

from popalign import (
    convergence_sweep,
    entropic_gap,
    fit_kde,
    importance_weights,
    multinomial_draw,
    normalize_weights,
    sample_population,
    wasserstein2_1d,
    wasserstein_1d,
)
from popalign.checks import ConvergenceSweepResult, GapRecord
from popalign.errors import BoundViolation, InstanceTooLarge, InvalidConfig, NonFiniteValue
from popalign.pipeline import truncate_by_weight
from popalign.rng import derive_seed


class TestEntropicGap:
    def test_single_cell_zero_gap_zero_bound(self):
        rec = entropic_gap([[3.5]], epsilon=0.1)
        assert rec.bound == 0.0
        assert abs(rec.gap) < 1e-12
        assert rec.entropic_cost == rec.exact_cost == 3.5
        assert rec.shape == (1, 1)

    def test_two_by_two_swap_instance(self):
        # exact optimum is the diagonal coupling with cost 0; the entropic
        # plan spreads mass and pays at most eps*log(4)
        rec = entropic_gap([[0.0, 1.0], [1.0, 0.0]], epsilon=0.1)
        assert abs(rec.exact_cost) < 1e-12
        assert rec.gap > 0.0
        assert rec.gap <= 0.1 * math.log(4.0) + 1e-6
        assert abs(rec.bound - 0.1 * math.log(4.0)) < 1e-15

    def test_gap_non_increasing_in_epsilon(self):
        rng = np.random.default_rng(3)
        C = rng.random((8, 8))
        med = float(np.median(C))
        gaps = [
            entropic_gap(C, epsilon=frac * med).gap for frac in (0.5, 0.25, 0.125)
        ]
        slack = 1e-6 * float(C.max()) + 1e-9
        assert gaps[1] <= gaps[0] + slack
        assert gaps[2] <= gaps[1] + slack

    def test_random_instances_within_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n, m = rng.integers(1, 9, size=2)
            C = rng.random((n, m))
            rec = entropic_gap(C, epsilon=0.05 * max(float(np.median(C)), 1e-3))
            assert isinstance(rec, GapRecord)
            assert rec.gap >= -1e-8

    def test_unconverged_plan_violates(self):
        # one iteration pair leaves the row marginals far from target and the
        # plan's cost undercuts the exact optimum; epsilon is large so the
        # magnitude bound stays slack and the undercut check is what fires
        with pytest.raises(BoundViolation, match="undercut"):
            entropic_gap(
                [[0.0, 100.0], [100.0, 0.0]],
                a=[0.5, 0.5],
                b=[0.9, 0.1],
                epsilon=100.0,
                max_iters=1,
            )

    def test_large_instance_guard(self):
        with pytest.raises(InstanceTooLarge):
            entropic_gap(np.random.default_rng(0).random((101, 101)), epsilon=0.1)

    def test_nonuniform_marginals(self):
        rec = entropic_gap(
            [[1.0, 2.0], [3.0, 1.0]], a=[0.25, 0.75], b=[0.5, 0.5], epsilon=0.2
        )
        assert rec.entropic_cost >= rec.exact_cost - 1e-8


def w2_equal_size_oracle(x, y):
    xs, ys = np.sort(x), np.sort(y)
    return math.sqrt(float(np.mean((xs - ys) ** 2)))


def w2_lcm_oracle(x, y):
    # repeat each sorted sample to the lcm length; quantile functions then
    # align exactly and the equal-size RMS formula is exact
    xs, ys = np.sort(x), np.sort(y)
    L = math.lcm(len(xs), len(ys))
    return w2_equal_size_oracle(
        np.repeat(xs, L // len(xs)), np.repeat(ys, L // len(ys))
    )


class TestWasserstein2:
    def test_point_masses(self):
        assert wasserstein2_1d([0.0], [1.0]) == 1.0

    def test_half_mass_moves_two(self):
        # quantile functions differ by 2 on half the unit interval
        assert abs(wasserstein2_1d([0.0, 0.0], [0.0, 2.0]) - math.sqrt(2.0)) < 1e-15

    def test_identical_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(37)
        assert wasserstein2_1d(x, x) == 0.0

    def test_equal_size_rms(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(40)
            y = rng.standard_normal(40) + 1.0
            assert abs(wasserstein2_1d(x, y) - w2_equal_size_oracle(x, y)) < 1e-12

    def test_unequal_sizes_vs_lcm_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, m = rng.integers(1, 21, size=2)
            x = rng.standard_normal(n)
            y = 0.5 * rng.standard_normal(m) - 0.3
            assert abs(wasserstein2_1d(x, y) - w2_lcm_oracle(x, y)) < 1e-12

    def test_dominates_w1(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(31)
            y = rng.standard_normal(17) * 2.0
            assert wasserstein2_1d(x, y) >= wasserstein_1d(x, y) - 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(12), rng.standard_normal(9)
        assert abs(wasserstein2_1d(x + 5.0, y + 5.0) - wasserstein2_1d(x, y)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfig):
            wasserstein2_1d([], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_rejected(self, bad, side):
        # as wasserstein_1d: a NaN or an infinity is refused, never returned
        args = [[0.0, 1.0], [0.0, 1.0]]
        args[side][0] = bad
        with pytest.raises(NonFiniteValue):
            wasserstein2_1d(*args)


class TestConvergenceSweep:
    def small_sweep(self, **kw):
        args = dict(
            n_grid=(50, 100),
            d=1,
            m=100,
            n_dagger=50,
            repetitions=3,
            seed=1,
            reference_size=200,
            kde_fit_subsample=None,
            sw_projections=8,
        )
        args.update(kw)
        return convergence_sweep(**args)

    def test_structure(self):
        result = self.small_sweep()
        assert isinstance(result, ConvergenceSweepResult)
        assert result.preset == "shifted-gaussian"
        assert result.d == 1
        assert result.repetitions == 3
        assert len(result.cells) == 2
        for cell in result.cells:
            assert cell["m"] == 100
            assert cell["n_dagger"] == 50
            assert cell["epsilon"] is None  # stage 1 only, no transport
            for key in ("sw", "w1", "w2"):
                vals = cell["divergences"][key]
                assert len(vals) == 3
                assert all(np.isfinite(v) and v >= 0 for v in vals)
                s = cell["summary"][key]
                assert s["min"] <= s["median"] <= s["max"]

    def test_median_series(self):
        result = self.small_sweep()
        ns, medians = result.median_series("w1")
        assert ns == [50, 100]
        assert medians == [c["summary"]["w1"]["median"] for c in result.cells]

    def test_to_rows(self):
        result = self.small_sweep()
        rows = result.to_rows()
        assert len(rows) == 2 * 3
        assert set(rows[0]) == {"n", "m", "n_dagger", "bandwidth", "epsilon",
                               "rep", "sw", "w1", "w2"}

    def test_multidim_drops_exact_metrics(self):
        result = self.small_sweep(d=2)
        assert set(result.cells[0]["divergences"]) == {"sw"}

    def test_bandwidth_grid_recorded_not_asserted(self):
        result = self.small_sweep(n_grid=(80,), bandwidth_grid=(0.05, 0.2, 0.8))
        assert len(result.cells) == 3
        assert sorted(c["bandwidth"] for c in result.cells) == [0.05, 0.2, 0.8]
        ns, medians = result.median_series("w1", bandwidth=0.8)
        assert ns == [80] and len(medians) == 1

    def test_determinism(self):
        a = self.small_sweep()
        b = self.small_sweep()
        assert a.cells == b.cells

    def test_too_few_repetitions(self):
        with pytest.raises(InvalidConfig):
            self.small_sweep(repetitions=2)

    def test_empty_grid(self):
        with pytest.raises(InvalidConfig):
            self.small_sweep(n_grid=())


class TestPinnedSweep:
    """A small seeded sweep whose divergences are pinned to recorded values.

    n=3000 fits the persona KDE on the whole pool, the default cap of 4096
    being above its size, and evaluates it plainly: each pool point's own
    kernel is one of the sources, counted once. n=6000 fits on its 4096-row
    prefix and evaluates self-inclusively. Both go through the 1-d fast Gauss
    transform and draw through the coupled inverse CDF.
    """

    W1 = {
        3000: [0.1324321605680515, 0.23839910931141048, 0.1587829672303106],
        6000: [0.13783819154854435, 0.24781849558014693, 0.12116216263335854],
    }
    W2 = {
        3000: [0.1913068534841227, 0.29825723895221357, 0.2328941555362453],
        6000: [0.19151126602384796, 0.30853985454803534, 0.2040573113212109],
    }

    def test_divergences_pinned(self):
        result = convergence_sweep(
            n_grid=(3000, 6000), d=1, m=500, n_dagger=300, repetitions=3,
            seed=7, reference_size=1000, sw_projections=16,
        )
        for cell in result.cells:
            div = cell["divergences"]
            # one projection direction in d=1: sliced W is W1
            assert div["w1"] == self.W1[cell["n"]]
            assert div["sw"] == self.W1[cell["n"]]
            np.testing.assert_allclose(div["w2"], self.W2[cell["n"]], rtol=1e-12, atol=0)


class TestNoiseFloor:
    def test_aligned_pool_resamples_at_sampling_noise(self):
        # pool drawn from the reference generator: the stage-1 resample's W1
        # to an independent reference draw should sit at the same level as a
        # plain independent draw of the same size. retain_fraction=1.0 (see
        # the aligned-pool pipeline test: truncation always bites an aligned
        # pool) and m large enough that ratio noise is negligible.
        res, ind = [], []
        for seed in range(10):
            pool = sample_population("shifted-gaussian", 4000, 1,
                                     seed=derive_seed(seed, 1), role="reference")
            fit_ref = sample_population("shifted-gaussian", 4000, 1,
                                        seed=derive_seed(seed, 2), role="reference")
            eval_ref = sample_population("shifted-gaussian", 8000, 1,
                                         seed=derive_seed(seed, 3), role="reference")
            indep = sample_population("shifted-gaussian", 800, 1,
                                      seed=derive_seed(seed, 4), role="reference")
            w = importance_weights(fit_kde(fit_ref, 0.2), fit_kde(pool, 0.2), pool)
            kept = truncate_by_weight(w, 1.0)
            draw = multinomial_draw(normalize_weights(w[kept]), 800,
                                    derive_seed(seed, 5))
            picked = pool.take_rows(np.sort(kept[draw]))
            res.append(wasserstein_1d(picked.values[:, 0], eval_ref.values[:, 0]))
            ind.append(wasserstein_1d(indep.values[:, 0], eval_ref.values[:, 0]))
        assert np.median(res) <= 1.25 * np.median(ind)
