"""Synthetic population presets and the deterministic trait responder."""

import math

import numpy as np
import pytest

from popalign import (
    PRESETS,
    TraitResponder,
    make_trait_personas,
    parse_trait_narrative,
    sample_population,
    trait_narrative,
)
from popalign.errors import InvalidConfig, ResponderFailure


class TestSamplePopulation:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("role", ["pool", "reference"])
    def test_shape_and_determinism(self, preset, role):
        a = sample_population(preset, 200, 3, seed=4, role=role)
        b = sample_population(preset, 200, 3, seed=4, role=role)
        assert a.values.shape == (200, 3)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("preset", ["shifted-gaussian", "mixture-skew"])
    def test_pool_mean_displaced(self, preset):
        pool = sample_population(preset, 5000, 2, seed=0, role="pool")
        ref = sample_population(preset, 5000, 2, seed=0, role="reference")
        assert pool.values.mean() > ref.values.mean() + 0.1

    def test_heavy_tail_pool_has_larger_spread(self):
        # same location, fatter tails: variance of t(3) is 3, reference is 1
        pool = sample_population("heavy-tail", 5000, 2, seed=0, role="pool")
        ref = sample_population("heavy-tail", 5000, 2, seed=0, role="reference")
        assert abs(pool.values.mean() - ref.values.mean()) < 0.2
        assert pool.values.std() > 1.3 * ref.values.std()

    def test_shifted_gaussian_moments(self):
        pool = sample_population("shifted-gaussian", 50_000, 2, seed=1, role="pool")
        ref = sample_population("shifted-gaussian", 50_000, 2, seed=1, role="reference")
        assert abs(ref.values.mean() - 0.0) <= 0.02
        assert abs(pool.values.mean() - 1.0) <= 0.02
        assert abs(ref.values.std() - 1.0) <= 0.02

    def test_heavy_tail_kurtosis(self):
        pool = sample_population("heavy-tail", 50_000, 1, seed=2, role="pool")
        ref = sample_population("heavy-tail", 50_000, 1, seed=2, role="reference")
        # t(3) has far more mass beyond 4 sigma than the Gaussian reference
        assert np.mean(np.abs(pool.values) > 4.0) > 5 * np.mean(np.abs(ref.values) > 4.0)

    def test_seeds_are_independent(self):
        a = sample_population("shifted-gaussian", 50, 2, seed=1)
        b = sample_population("shifted-gaussian", 50, 2, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_unknown_preset(self):
        with pytest.raises(InvalidConfig):
            sample_population("nope", 10, 2, seed=0)

    def test_bad_role(self):
        with pytest.raises(InvalidConfig):
            sample_population("shifted-gaussian", 10, 2, seed=0, role="target")

    def test_bad_size(self):
        with pytest.raises(InvalidConfig):
            sample_population("shifted-gaussian", 0, 2, seed=0)


class TestTraitNarratives:
    def test_round_trip_exact(self):
        theta = np.array([0.1, -2.5, 1e-17, 3.0])
        back = parse_trait_narrative(trait_narrative(theta))
        np.testing.assert_array_equal(back, theta)

    def test_round_trip_extreme_values(self):
        theta = np.array([1e-300, -1e300, 0.1 + 0.2])
        np.testing.assert_array_equal(parse_trait_narrative(trait_narrative(theta)), theta)

    def test_parse_rejects_other_text(self):
        with pytest.raises(InvalidConfig):
            parse_trait_narrative("a farmer from the plains")

    def test_make_trait_personas(self):
        recs = make_trait_personas(np.zeros((12, 2)), prefix="s")
        assert [r.id for r in recs][:3] == ["s00", "s01", "s02"]
        assert recs[11].id == "s11"
        assert all(r.response_row == i for i, r in enumerate(recs))
        np.testing.assert_array_equal(parse_trait_narrative(recs[0].narrative), [0.0, 0.0])


class TestTraitResponder:
    def make(self, **kw):
        # t=2 traits, d=3 items
        loadings = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
        biases = np.array([0.0, 10.0, 1.0])
        return TraitResponder(loadings, biases, ["i0", "i1", "i2"], **kw)

    def test_exact_linear_table(self):
        r = self.make()
        narrative = trait_narrative([2.0, 3.0])
        assert r.respond(narrative, "i0", seed=0) == 2.0          # 2*1 + 0
        assert r.respond(narrative, "i1", seed=0) == 13.0         # 3*1 + 10
        assert r.respond(narrative, "i2", seed=0) == 2.0          # 2*2 - 3 + 1

    def test_noise_deterministic_per_seed(self):
        r = self.make(noise_scale=0.5)
        narrative = trait_narrative([1.0, 1.0])
        a = r.respond(narrative, "i0", seed=7)
        b = r.respond(narrative, "i0", seed=7)
        c = r.respond(narrative, "i0", seed=8)
        assert a == b
        assert a != c
        assert a != 1.0  # noise actually applied

    def test_bounds_clip(self):
        r = self.make(bounds=(1.0, 5.0))
        assert r.respond(trait_narrative([9.0, 0.0]), "i0", seed=0) == 5.0
        assert r.respond(trait_narrative([-9.0, 0.0]), "i0", seed=0) == 1.0

    @pytest.mark.parametrize(
        "bounds", [(5.0, 1.0), (math.nan, 1.0), (0.0, math.inf), (1.0,), (True, 2.0), "ab", 3.0]
    )
    def test_bounds_rejected(self, bounds):
        with pytest.raises(InvalidConfig, match="bounds"):
            self.make(bounds=bounds)

    @pytest.mark.parametrize("bounds", [(2, 2), np.array([1.0, 5.0]), [np.int64(1), 5.5]])
    def test_bounds_accepted(self, bounds):
        assert self.make(bounds=bounds).bounds == (float(bounds[0]), float(bounds[1]))

    def test_unknown_item(self):
        r = self.make()
        with pytest.raises(ResponderFailure):
            r.respond(trait_narrative([0.0, 0.0]), "mystery item", seed=0)

    def test_trait_length_mismatch(self):
        r = self.make()
        with pytest.raises(ResponderFailure):
            r.respond(trait_narrative([1.0, 2.0, 3.0]), "i0", seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["loadings", "biases"])
    def test_non_finite_table_rejected(self, bad, where):
        loadings, biases = np.ones((2, 2)), np.zeros(2)
        (loadings[1] if where == "loadings" else biases)[1] = bad
        at = "row 1, column 1" if where == "loadings" else "column 1"
        with pytest.raises(InvalidConfig, match=f"non-finite value in the {where} at {at}"):
            TraitResponder(loadings, biases, ["a", "b"])

    def test_shape_validation(self):
        with pytest.raises(InvalidConfig):
            TraitResponder(np.zeros((2, 3)), np.zeros(2), ["a", "b", "c"])
        with pytest.raises(InvalidConfig):
            TraitResponder(np.zeros((2, 3)), np.zeros(3), ["a", "b"])
