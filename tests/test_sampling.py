"""Weight normalization and the multinomial committee draw."""

import numpy as np
import pytest

from popalign import SamplingProbabilities, multinomial_draw, normalize_weights
from popalign.errors import AllZeroWeights, InvalidConfig, NonFiniteWeight
from popalign.rng import rng_from_seed
from popalign import sampling


class TestNormalize:
    def test_uniform(self):
        p = normalize_weights(np.ones(4))
        np.testing.assert_array_equal(p.probs, [0.25, 0.25, 0.25, 0.25])

    def test_three_one(self):
        p = normalize_weights(np.array([3.0, 1.0]))
        np.testing.assert_allclose(p.probs, [0.75, 0.25], rtol=0, atol=0)

    def test_zero_entries_preserved(self):
        p = normalize_weights(np.array([0.0, 2.0, 2.0]))
        assert p.probs[0] == 0.0

    def test_all_zero(self):
        with pytest.raises(AllZeroWeights):
            normalize_weights(np.zeros(3))

    @pytest.mark.parametrize("bad", [[-1.0, 2.0], [np.nan, 1.0], [np.inf, 1.0]])
    def test_negative_or_nonfinite(self, bad):
        with pytest.raises(NonFiniteWeight):
            normalize_weights(np.asarray(bad))

    def test_empty(self):
        with pytest.raises(InvalidConfig):
            normalize_weights(np.zeros(0))

    def test_sums_to_one_large_random(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = rng.gamma(0.3, size=50_000)
            p = normalize_weights(w)
            assert abs(p.probs.sum() - 1.0) <= 1e-12

    def test_probabilities_invariant_enforced(self):
        with pytest.raises(InvalidConfig):
            SamplingProbabilities(np.array([0.5, 0.6]))


class TestMultinomialDraw:
    def test_single_support(self):
        idx = multinomial_draw(normalize_weights(np.array([1.0])), 5, seed=0)
        np.testing.assert_array_equal(idx, np.zeros(5, dtype=np.int64))

    def test_zero_then_one(self):
        idx = multinomial_draw(normalize_weights(np.array([0.0, 1.0])), 3, seed=0)
        np.testing.assert_array_equal(idx, [1, 1, 1])

    def test_zero_probability_never_drawn(self):
        # zero mass at front, middle, and back of the support
        p = normalize_weights(np.array([0.0, 0.3, 0.0, 0.7, 0.0]))
        idx = multinomial_draw(p, 4000, seed=7)
        assert set(np.unique(idx)) <= {1, 3}

    def test_balanced_counts(self):
        p = normalize_weights(np.array([0.5, 0.5]))
        idx = multinomial_draw(p, 100_000, seed=42)
        count0 = int(np.sum(idx == 0))
        assert 49_000 <= count0 <= 51_000

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(6))
        p = SamplingProbabilities(probs)
        n = 1_000_000
        idx = multinomial_draw(p, n, seed=11)
        freq = np.bincount(idx, minlength=6) / n
        bound = 5.0 * np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) <= bound)

    def test_deterministic(self):
        p = normalize_weights(np.arange(1.0, 9.0))
        a = multinomial_draw(p, 500, seed=99)
        b = multinomial_draw(p, 500, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_draw(self):
        p = normalize_weights(np.arange(1.0, 9.0))
        a = multinomial_draw(p, 500, seed=1)
        b = multinomial_draw(p, 500, seed=2)
        assert not np.array_equal(a, b)

    def test_indices_in_range(self):
        p = normalize_weights(np.random.default_rng(5).gamma(1.0, size=40))
        idx = multinomial_draw(p, 10_000, seed=5)
        assert idx.min() >= 0 and idx.max() < 40
        assert idx.dtype == np.int64

    def test_inverse_cdf_is_the_draw(self):
        # same Philox uniforms, same indices; the zero-probability tail is
        # never selected, not even by a uniform at or past the last edge
        p = normalize_weights(np.array([0.2, 0.0, 0.5, 0.3, 0.0, 0.0]))
        u = rng_from_seed(11, stream=(sampling._DRAW_STREAM,)).random(5000)
        idx = sampling._inverse_cdf(p.probs, u)
        np.testing.assert_array_equal(idx, multinomial_draw(p, 5000, seed=11))
        assert set(np.unique(idx)) == {0, 2, 3}
        edges = np.cumsum(p.probs)
        u = np.array([0.0, edges[0], edges[2], edges[-1], 1.0])
        np.testing.assert_array_equal(sampling._inverse_cdf(p.probs, u), [0, 2, 3, 3, 3])

    def test_zero_count_rejected(self):
        p = normalize_weights(np.ones(2))
        with pytest.raises(InvalidConfig):
            multinomial_draw(p, 0, seed=0)
