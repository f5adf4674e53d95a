"""Weight normalization and seeded multinomial draws.

Both resampling stages (importance-sampling draw and the final
transport-weighted draw) share this machinery. Draws are WITH replacement:
the output is a multiset of indices, duplicates included.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AllZeroWeights, InvalidConfig, NonFiniteWeight
from .rng import rng_from_seed

# stream tag keeping multinomial uniforms distinct from other consumers of a seed
_DRAW_STREAM = 0x6D756C7469  # "multi"

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SamplingProbabilities:
    """Probability vector: nonnegative entries summing to 1 within 1e-12."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidConfig(f"probability vector must be 1-d nonempty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteWeight("probability vector contains a non-finite entry")
        if (arr < 0).any():
            raise NonFiniteWeight("probability vector contains a negative entry")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidConfig(f"probabilities sum to {total!r}, not 1 within {_SUM_TOL}")
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
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidConfig(f"weights must be a 1-d nonempty vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteWeight("weights contain a non-finite entry")
    if (arr < 0).any():
        raise NonFiniteWeight("weights contain a negative entry")
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
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidConfig(f"draw count must be a positive integer, got {n!r}")

    u = rng_from_seed(seed, stream=(_DRAW_STREAM,)).random(int(n))
    return _inverse_cdf(probs.probs, u)


def _inverse_cdf(p, u):
    """Category of each uniform in u under p, with multinomial_draw's tie rule."""
    idx = np.searchsorted(np.cumsum(p), u, side="right")
    # u >= cdf[-1] can occur by roundoff; the correct bucket is the last one
    # with positive probability, which also guards the zero-probability tail
    np.minimum(idx, np.flatnonzero(p > 0)[-1], out=idx)
    return idx
