"""Weight normalization and seeded multinomial draws.

Both resampling stages (importance-sampling draw and the final
transport-weighted draw) share this machinery. Draws are WITH replacement:
the output is a multiset of indices, duplicates included.
"""

from dataclasses import dataclass

import numpy as np

from .core import _count
from .errors import AllZeroWeights, InvalidConfig, NonFiniteWeight
from .rng import rng_from_seed

# stream tag keeping multinomial uniforms distinct from other consumers of a seed
_DRAW_STREAM = 0x6D756C7469  # "multi"

_SUM_TOL = 1e-12


def _probabilities(p, name, error=NonFiniteWeight, positive=False, normalized=True):
    """p as a new float64 array, by the one gate for probability vectors.

    Used by normalize_weights (normalized=False), SamplingProbabilities and
    ot's transport marginals (positive=True). A shape other than 1-d
    nonempty or a sum off 1 by over _SUM_TOL raises InvalidConfig; the first
    entry not finite and >= 0 (> 0 if positive) raises `error` naming it.
    """
    arr = np.array(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidConfig(f"{name} must be a 1-d nonempty vector, got shape {arr.shape}")
    bad = ~np.isfinite(arr) | ((arr <= 0) if positive else (arr < 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise error(
            f"{name} entry {i} is {float(arr[i])!r}; entries must be finite and "
            + ("positive (drop zero-mass atoms first)" if positive else "nonnegative")
        )
    if normalized and abs(float(arr.sum()) - 1.0) > _SUM_TOL:
        raise InvalidConfig(f"{name} sums to {float(arr.sum())!r}, not 1 within {_SUM_TOL}")
    return arr


@dataclass(frozen=True)
class SamplingProbabilities:
    """Probability vector: nonnegative entries summing to 1 within 1e-12."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _probabilities(self.probs, "probability vector")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n(self):
        return self.probs.shape[0]


def normalize_weights(w):
    """probs_i = w_i / sum(w).

    Raises NonFiniteWeight on NaN/Inf/negative entries and AllZeroWeights when
    every entry is 0.
    """
    arr = _probabilities(w, "weights", normalized=False)
    total = arr.sum()
    if total <= 0:
        raise AllZeroWeights("all weights are zero")
    return SamplingProbabilities(arr / total)


def multinomial_draw(probs, n, seed):
    """n seeded categorical draws with replacement from `probs`.

    Inversion of the cumulative sum with a documented tie rule: a uniform
    falling exactly on a boundary selects the higher index. Categories with
    zero probability are never selected. Identical (probs, n, seed) yields a
    bit-identical index multiset on every platform (Philox uniforms, fixed
    inversion order).
    """
    if not isinstance(probs, SamplingProbabilities):
        probs = SamplingProbabilities(probs)
    n = _count(n, "draw count n")
    u = rng_from_seed(seed, stream=(_DRAW_STREAM,)).random(n)
    return _inverse_cdf(probs.probs, u)


def _inverse_cdf(p, u):
    """Category of each uniform in u under p, with multinomial_draw's tie rule."""
    idx = np.searchsorted(np.cumsum(p), u, side="right")
    # u >= cdf[-1] can occur by roundoff; the correct bucket is the last one
    # with positive probability, which also guards the zero-probability tail
    np.minimum(idx, np.flatnonzero(p > 0)[-1], out=idx)
    return idx
