"""Synthetic populations and the deterministic trait responder.

Desk-scale experiments need a controllable ground-truth population with no
external model in the loop. Two pieces provide that:

- population presets drawing pool/reference response matrices directly
  (vectorized, seeded), used by the end-to-end experiments and the
  convergence sweeps;
- TraitResponder, a Responder implementation mapping a persona's latent trait
  vector through item loadings, theta . L_k + bias_k + seeded noise, used to
  exercise the response-collection path.

Presets (pool vs reference):

- shifted-gaussian: reference N(0, I), pool N(+1, I) in every dimension
- mixture-skew: two shared Gaussian components, weights 0.7/0.3 in the
  reference but 0.3/0.7 in the pool
- heavy-tail: reference N(0, I), pool Student-t with 3 degrees of freedom
"""

import math

import numpy as np

from .core import PersonaRecord, ResponseMatrix, _count, _finite_values, _real
from .errors import InvalidConfig, NonFiniteValue, ResponderFailure
from .rng import rng_from_seed

PRESETS = ("shifted-gaussian", "mixture-skew", "heavy-tail")

_POP_STREAM = 0x706F70  # "pop"
_ROLE_TAGS = {"pool": 1, "reference": 2}


def sample_population(preset, n, d, seed, role="pool"):
    """Draw an n x d response matrix from a preset population.

    role selects the pool (biased) or reference (target) distribution of the
    preset. Fixed (preset, n, d, seed, role) reproduces bit-identically.
    """
    if preset not in PRESETS:
        raise InvalidConfig(f"unknown preset {preset!r}; choose from {PRESETS}")
    if role not in _ROLE_TAGS:
        raise InvalidConfig(f"role must be 'pool' or 'reference', got {role!r}")
    n, d = _count(n, "n"), _count(d, "d")
    rng = rng_from_seed(seed, stream=(_POP_STREAM, _ROLE_TAGS[role], PRESETS.index(preset)))

    if preset == "shifted-gaussian":
        vals = rng.standard_normal((n, d))
        if role == "pool":
            vals += 1.0
    elif preset == "mixture-skew":
        w_hi = 0.3 if role == "reference" else 0.7
        pick = rng.random(n) < w_hi
        vals = rng.standard_normal((n, d))
        vals[pick] = 0.5 * vals[pick] + 2.0
    else:  # heavy-tail
        if role == "reference":
            vals = rng.standard_normal((n, d))
        else:
            vals = rng.standard_t(3.0, size=(n, d))
    return ResponseMatrix(vals, tuple(f"item{k}" for k in range(d)))


def trait_narrative(theta):
    """Encode a latent trait vector in a synthetic persona narrative."""
    return "traits: " + " ".join(repr(float(t)) for t in np.asarray(theta, float).ravel())


def parse_trait_narrative(narrative):
    """Recover the trait vector from trait_narrative output."""
    head, _, body = narrative.partition(":")
    if head.strip() != "traits":
        raise InvalidConfig(f"not a trait narrative: {narrative[:40]!r}")
    return np.array([float(tok) for tok in body.split()], dtype=np.float64)


def make_trait_personas(thetas, prefix="p"):
    """PersonaRecords whose narratives carry the given trait vectors."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2:
        raise InvalidConfig(f"thetas must be 2-d (n, t), got shape {thetas.shape}")
    width = len(str(max(thetas.shape[0] - 1, 0)))
    return [
        PersonaRecord(id=f"{prefix}{i:0{width}d}", narrative=trait_narrative(th), response_row=i)
        for i, th in enumerate(thetas)
    ]


class TraitResponder:
    """Deterministic synthetic responder: theta . L_k + bias_k + seeded noise.

    Items are identified by their text via `item_texts`; narratives must be
    trait narratives. `loadings` (t x d) and `biases` (d) must be finite.
    `bounds`, when given as (lo, hi), two finite reals with
    lo <= hi, clips responses to the scale; the default leaves them
    unclipped. noise_scale=0 makes the output the exact loading table, which
    the collection tests rely on.
    """

    def __init__(self, loadings, biases, item_texts, noise_scale=0.0, bounds=None):
        self.loadings = np.asarray(loadings, dtype=np.float64)
        self.biases = np.asarray(biases, dtype=np.float64)
        if self.loadings.ndim != 2:
            raise InvalidConfig(f"loadings must be 2-d (t, d), got shape {self.loadings.shape}")
        if self.biases.shape != (self.loadings.shape[1],):
            raise InvalidConfig(
                f"biases shape {self.biases.shape} does not match d={self.loadings.shape[1]}"
            )
        for values, label in ((self.loadings, "loadings"), (self.biases, "biases")):
            try:
                _finite_values(values, label, values.ndim)
            except NonFiniteValue as e:  # a bad table is a configuration error here
                raise InvalidConfig(str(e)) from e
        self.item_texts = list(item_texts)
        if len(self.item_texts) != self.loadings.shape[1]:
            raise InvalidConfig(
                f"{len(self.item_texts)} item texts for d={self.loadings.shape[1]}"
            )
        self._item_index = {text: k for k, text in enumerate(self.item_texts)}
        self.noise_scale = _real(noise_scale)
        if not 0 <= self.noise_scale < math.inf:
            raise InvalidConfig(
                f"noise_scale must be a nonnegative finite real, got {noise_scale!r}"
            )
        self.bounds = None
        if bounds is not None:
            pair = [_real(v) for v in bounds] if np.iterable(bounds) else []
            if len(pair) != 2 or not -math.inf < pair[0] <= pair[1] < math.inf:
                raise InvalidConfig(
                    f"bounds must be two finite reals (lo, hi) with lo <= hi, got {bounds!r}"
                )
            self.bounds = tuple(pair)

    def respond(self, persona_narrative, item_text, seed):
        if item_text not in self._item_index:
            raise ResponderFailure(f"unknown item text {item_text!r}")
        k = self._item_index[item_text]
        theta = parse_trait_narrative(persona_narrative)
        if theta.shape[0] != self.loadings.shape[0]:
            raise ResponderFailure(
                f"trait vector length {theta.shape[0]} does not match "
                f"loadings t={self.loadings.shape[0]}"
            )
        value = float(theta @ self.loadings[:, k] + self.biases[k])
        if self.noise_scale > 0:
            value += self.noise_scale * float(rng_from_seed(seed).standard_normal())
        if self.bounds is not None:
            value = min(max(value, self.bounds[0]), self.bounds[1])
        return value
