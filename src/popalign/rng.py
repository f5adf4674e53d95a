"""Deterministic, platform-independent random number generation.

All randomness in the package flows through Philox 4x64-10, a named
counter-based generator whose output depends only on (key, counter), never on
global state or platform word size. Frozen output vectors for a handful of
(seed, stream) pairs are committed under ``tests/data/rng_test_vectors.json``
so determinism is auditable against the shipped implementation.

Streams
-------
A stream is a short tuple of nonnegative integers placed in the high words of
the 256-bit Philox counter. Word 0 is left as the running draw counter, so two
streams collide only after 2^64 draws from one of them, which cannot happen in
practice. Module-level stream tags used by the pipeline live in
``popalign.pipeline``.
"""

import numpy as np

from .errors import InvalidConfig

_MASK64 = (1 << 64) - 1

# domain tag separating derive_seed() output from rng_from_seed() streams
_DERIVE_TAG = 0x9E3779B97F4A7C15


def _integer(value, name, error=InvalidConfig):
    """value as an int, else `error` naming it: the package's one integer
    rule, an int or np.integer but never a bool (Python counts bools as ints)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_uint64(value, name):
    """The one seed gate: value as an int in [0, 2^64), else InvalidConfig naming it."""
    value = _integer(value, name)
    if not 0 <= value <= _MASK64:
        raise InvalidConfig(f"{name} must fit in an unsigned 64-bit word, got {value}")
    return value


def philox_bitgen(seed, stream=()):
    """Philox bit generator keyed by `seed` with `stream` in the counter.

    Parameters
    ----------
    seed : int
        Unsigned 64-bit key.
    stream : tuple of int, optional
        Up to three unsigned 64-bit words identifying an independent stream.
    """
    seed = _as_uint64(seed, "seed")
    words = tuple(_as_uint64(s, "stream word") for s in stream)
    if len(words) > 3:
        raise InvalidConfig(f"stream may carry at most 3 words, got {len(words)}")
    counter = np.zeros(4, dtype=np.uint64)
    for i, w in enumerate(words):
        counter[1 + i] = w
    key = np.array([seed, 0], dtype=np.uint64)
    return np.random.Philox(key=key, counter=counter)


def rng_from_seed(seed, stream=()):
    """Generator over the Philox stream (seed, stream)."""
    return np.random.Generator(philox_bitgen(seed, stream))


def derive_seed(seed, *indices):
    """Derive an independent 64-bit sub-seed from (seed, indices).

    Used for per-cell responder seeds and per-query negative sampling: the
    derived value is the first raw 64-bit draw of a dedicated Philox stream,
    so recomputing any subset of cells reproduces the full-run values.
    """
    if len(indices) > 2:
        raise InvalidConfig(f"derive_seed takes at most 2 indices, got {len(indices)}")
    bg = philox_bitgen(seed, tuple(indices) + (_DERIVE_TAG,))
    return int(bg.random_raw(1)[0])
