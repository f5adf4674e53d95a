"""One table over every gated argument: each refuses what its kind refuses.

The rules, each checked by one function: a count is an int or np.integer
of at least 1 and never a bool (rng._integer, core._count), and a retry
count the same from 0; a positive real is a finite real above 0, a
nonnegative real (a noise scale) a finite real from 0 and a fraction a
real in (0, 1], never a bool or a string (core._real, core._positive_real,
core._fraction); a seed
is an integer in [0, 2^64) (rng._as_uint64); a probability vector is 1-d,
finite, nonnegative (positive for transport marginals) and sums to 1
(sampling._probabilities); a string is a str, and an optional one a str
or None (PersonaRecord), and a training pair's ids and negative ids are
str; a flag is a bool or np.bool_ (TrainingPair.exhausted); a response
row is None or an integer by the count rule's type check, and its range
is validate_pool's; an array of reals holds no entry numpy cannot make a
float, and is no array of bools, strings or bytes, nor an object array
holding one, which numpy would make floats of (core._float_array:
InvalidConfig, or NonFiniteValue for an int beyond the float range).
Every refusal raises the site's own PopalignError subclass, never a bare
TypeError or ValueError.
"""

import dataclasses
import math
import os
import re

import numpy as np
import pytest

from popalign import (
    AlignmentConfig,
    EmbeddingIndex,
    ItemWeights,
    PersonaRecord,
    ResponseMatrix,
    TrainingPair,
    TraitResponder,
    convergence_sweep,
    SamplingProbabilities,
    build_training_pairs,
    contrastive_loss_from_scores,
    cosine_similarity,
    derive_seed,
    fit_kde,
    gibbs_kernel,
    mmd,
    multinomial_draw,
    normalize_weights,
    rng_from_seed,
    sample_population,
    sinkhorn,
    sliced_wasserstein,
    top_k_retrieve,
    truncate_by_weight,
)
from popalign import core
from popalign import io as pio
from popalign.clients import HttpFalseNegativeFilter, HttpResponder
from popalign.errors import (
    ClientProtocolError,
    DegenerateBandwidth,
    DimensionMismatch,
    InvalidConfig,
    KOutOfRange,
    NonFiniteValue,
    NonFiniteWeight,
    NonPositiveBandwidth,
    NonPositiveEpsilon,
    PopalignError,
)
from popalign.ot import exact_ot_small

C = np.random.default_rng(0).random((4, 5))
X = np.random.default_rng(1).normal(size=(30, 2))
Y = np.random.default_rng(2).normal(size=(20, 2))
INDEX = EmbeddingIndex.build(["a", "b", "c"], np.eye(3))
QUERIES = [("q", np.array([1.0, 0.2, 0.0]), "a")]


def config(**fields):
    return AlignmentConfig(**{"n_is_candidates": 10, "n_final": 5, "seed": 0, **fields})


def sweep(**fields):
    sizes = {"n_grid": (20,), "m": 20, "n_dagger": 10, "repetitions": 3, "reference_size": 20}
    return convergence_sweep(**{**sizes, **fields})


URL = "http://localhost:1/unused"  # the gates run in the constructors, before any request
# the gates run before the file opens; a save that got past them would fail to open it
NEVER_WRITTEN = os.path.join(os.path.dirname(__file__), "no-such-directory", "e.jsonl")


COUNTS = [
    ("AlignmentConfig.n_is_candidates", InvalidConfig,
     lambda v: AlignmentConfig(n_is_candidates=v, n_final=1, seed=0)),
    ("AlignmentConfig.n_final", InvalidConfig, lambda v: config(n_final=v)),
    ("AlignmentConfig.sinkhorn_iters", InvalidConfig, lambda v: config(sinkhorn_iters=v)),
    ("AlignmentConfig.ot_batch_size", InvalidConfig, lambda v: config(ot_batch_size=v)),
    ("AlignmentConfig.kde_fit_subsample", InvalidConfig,
     lambda v: config(kde_fit_subsample=v)),
    ("sinkhorn.max_iters", InvalidConfig, lambda v: sinkhorn(C, epsilon=0.1, max_iters=v)),
    ("sliced_wasserstein.n_projections", InvalidConfig,
     lambda v: sliced_wasserstein(X, Y, n_projections=v)),
    ("multinomial_draw.n", InvalidConfig, lambda v: multinomial_draw([0.5, 0.5], v, 0)),
    ("top_k_retrieve.k", KOutOfRange, lambda v: top_k_retrieve([1.0, 0.0, 0.0], INDEX, v)),
    ("sample_population.n", InvalidConfig, lambda v: sample_population("heavy-tail", v, 2, 0)),
    ("sample_population.d", InvalidConfig, lambda v: sample_population("heavy-tail", 3, v, 0)),
    # non-negative with a positive sum: the other count is 0, so 0 is refused too
    ("build_training_pairs.n_hard", InvalidConfig,
     lambda v: build_training_pairs(INDEX, QUERIES, n_hard=v, n_random=0)),
    ("build_training_pairs.n_random", InvalidConfig,
     lambda v: build_training_pairs(INDEX, QUERIES, n_hard=0, n_random=v)),
    ("convergence_sweep.repetitions", InvalidConfig, lambda v: sweep(repetitions=v)),
    ("convergence_sweep.n_grid", InvalidConfig, lambda v: sweep(n_grid=(20, v))),
    ("convergence_sweep.m", InvalidConfig, lambda v: sweep(m=v)),
    ("convergence_sweep.n_dagger", InvalidConfig, lambda v: sweep(n_dagger=v)),
    ("convergence_sweep.d", InvalidConfig, lambda v: sweep(d=v)),
    ("convergence_sweep.kde_fit_subsample", InvalidConfig,
     lambda v: sweep(kde_fit_subsample=v)),
]

# counts from 0
NONNEGATIVE_COUNTS = [
    ("HttpResponder.retries", ClientProtocolError, lambda v: HttpResponder(URL, retries=v)),
    ("HttpFalseNegativeFilter.retries", ClientProtocolError,
     lambda v: HttpFalseNegativeFilter(URL, retries=v)),
]

POSITIVE_REALS = [
    ("AlignmentConfig.bandwidth", InvalidConfig, lambda v: config(bandwidth=v)),
    ("AlignmentConfig.epsilon", InvalidConfig, lambda v: config(epsilon=v)),
    ("AlignmentConfig.sinkhorn_tol", InvalidConfig, lambda v: config(sinkhorn_tol=v)),
    # refused before any transport buffer exists
    ("AlignmentConfig.epsilon_absolute", NonPositiveEpsilon,
     lambda v: config(epsilon_absolute=v)),
    ("fit_kde.bandwidth", NonPositiveBandwidth, lambda v: fit_kde(X, v)),
    ("gibbs_kernel.epsilon", NonPositiveEpsilon, lambda v: gibbs_kernel(C, v)),
    ("sinkhorn.epsilon", NonPositiveEpsilon, lambda v: sinkhorn(C, epsilon=v)),
    ("sinkhorn.tol", InvalidConfig, lambda v: sinkhorn(C, epsilon=0.1, tol=v)),
    ("mmd.kernel_bandwidth", DegenerateBandwidth, lambda v: mmd(X, Y, kernel_bandwidth=v)),
    ("contrastive_loss_from_scores.temperature", InvalidConfig,
     lambda v: contrastive_loss_from_scores(0.5, [0.1], temperature=v)),
    ("HttpResponder.timeout", ClientProtocolError, lambda v: HttpResponder(URL, timeout=v)),
    ("HttpFalseNegativeFilter.timeout", ClientProtocolError,
     lambda v: HttpFalseNegativeFilter(URL, timeout=v)),
]

# finite reals from 0
NONNEGATIVE_REALS = [
    ("TraitResponder.noise_scale", InvalidConfig,
     lambda v: TraitResponder(np.eye(2), np.zeros(2), ["a", "b"], noise_scale=v)),
]

FRACTIONS = [
    ("AlignmentConfig.retain_fraction", InvalidConfig, lambda v: config(retain_fraction=v)),
    ("truncate_by_weight.retain_fraction", InvalidConfig,
     lambda v: truncate_by_weight(np.ones(4), v)),
]

SEEDS = [
    ("AlignmentConfig.seed", InvalidConfig,
     lambda v: AlignmentConfig(n_is_candidates=10, n_final=5, seed=v)),
    ("derive_seed.seed", InvalidConfig, lambda v: derive_seed(v, 1)),
    ("derive_seed.index", InvalidConfig, lambda v: derive_seed(7, v)),
    ("rng_from_seed.seed", InvalidConfig, lambda v: rng_from_seed(v)),
]

# optional integers: None, or an int or np.integer of any value
OPTIONAL_INTEGERS = [
    ("PersonaRecord.response_row", InvalidConfig,
     lambda v: PersonaRecord(id="p", response_row=v)),
]

STRINGS = [
    ("PersonaRecord.id", InvalidConfig, lambda v: PersonaRecord(id=v)),
    ("PersonaRecord.narrative", InvalidConfig, lambda v: PersonaRecord(id="p", narrative=v)),
    ("TrainingPair.query_id", InvalidConfig, lambda v: TrainingPair(v, "p", ("n",))),
    ("TrainingPair.positive_id", InvalidConfig, lambda v: TrainingPair("q", v, ("n",))),
    ("TrainingPair.negative_ids", InvalidConfig, lambda v: TrainingPair("q", "p", ("n", v))),
]

FLAGS = [
    ("TrainingPair.exhausted", InvalidConfig, lambda v: TrainingPair("q", "p", ("n",), v)),
]

# a str or None
OPTIONAL_STRINGS = [
    ("PersonaRecord.seed_id", InvalidConfig, lambda v: PersonaRecord(id="p", seed_id=v)),
]

# arrays of reals, each given one entry numpy cannot make a float
ARRAYS = [
    ("ResponseMatrix.values", lambda v: ResponseMatrix([[1.0, v]])),
    ("PersonaRecord.embedding", lambda v: PersonaRecord(id="p", embedding=[1.0, v])),
    ("ItemWeights.weights", lambda v: ItemWeights([1.0, v])),
    # the gate of every metric and of the transport cost
    ("mmd.X", lambda v: mmd([[1.0], [v]], [[1.0]])),
    ("cosine_similarity.a", lambda v: cosine_similarity([1.0, v], [1.0, 0.0])),
    ("top_k_retrieve.query", lambda v: top_k_retrieve([1.0, v, 0.0], INDEX, 1)),
    ("EmbeddingIndex.build.vectors", lambda v: EmbeddingIndex.build(["a"], [[1.0, v]])),
    ("contrastive_loss_from_scores.scores",
     lambda v: contrastive_loss_from_scores(0.5, [0.1, v])),
    # one real, gated as an array of no dimensions
    ("contrastive_loss_from_scores.s_pos", lambda v: contrastive_loss_from_scores(v, [0.1])),
    ("save_embeddings.vectors", lambda v: pio.save_embeddings(NEVER_WRITTEN, ["a"], [[1.0, v]])),
]

# the same sites, each given a whole array of two entries
WHOLE_ARRAYS = [
    ("ResponseMatrix.values", lambda a: ResponseMatrix([a])),
    ("PersonaRecord.embedding", lambda a: PersonaRecord(id="p", embedding=a)),
    ("ItemWeights.weights", lambda a: ItemWeights(a)),
    ("mmd.X", lambda a: mmd(np.reshape(a, (-1, 1)), [[1.0]])),
    ("cosine_similarity.a", lambda a: cosine_similarity(a, [1.0, 0.0])),
    ("top_k_retrieve.query", lambda a: top_k_retrieve(np.resize(a, 3), INDEX, 1)),
    ("EmbeddingIndex.build.vectors",
     lambda a: EmbeddingIndex.build(["a"], np.reshape(a, (1, -1)))),
    ("contrastive_loss_from_scores.scores", lambda a: contrastive_loss_from_scores(0.5, a)),
    ("save_embeddings.vectors",
     lambda a: pio.save_embeddings(NEVER_WRITTEN, ["a"], np.reshape(a, (1, -1)))),
]
# arrays numpy makes floats of, which no gate takes for reals
NOT_REAL_ARRAYS = (
    [True, False],
    np.array([True, False]),
    np.array(["1.5", "2"]),
    np.array([b"1", b"2"]),
    np.array([1.0, "1.5"], dtype=object),
    np.array([1.0, b"1"], dtype=object),
    np.array([1.0, True], dtype=object),
    np.array([1.0, np.True_], dtype=object),
)

# where a message names the argument otherwise than the table's site does
NAMES = {
    "derive_seed.index": "stream word",
    "multinomial_draw.n": "draw count n",
    "ResponseMatrix.values": "responses",
    "ItemWeights.weights": "item weights",
    "mmd.X": "first sample",
    "cosine_similarity.a": "first vector",
    "EmbeddingIndex.build.vectors": "embedding matrix",
    "save_embeddings.vectors": "embedding vectors",
    "contrastive_loss_from_scores.s_pos": "positive score",
}

NAN, INF = math.nan, math.inf
CASES = (
    [(site, error, call, v) for site, error, call in COUNTS
     for v in (True, 2.5, NAN, INF, 0, -1, "3")]
    + [(site, error, call, v) for site, error, call in POSITIVE_REALS
       for v in (True, NAN, INF, 0, -1, "3", 10**400)]
    + [(site, error, call, v) for site, error, call in FRACTIONS
       for v in (True, NAN, INF, 0, -1, "3", 2.5)]
    + [(site, error, call, v) for site, error, call in SEEDS
       for v in (True, 2.5, NAN, INF, -1, "3", 1 << 64)]
    + [(site, error, call, v) for site, error, call in NONNEGATIVE_COUNTS
       for v in (True, 2.5, NAN, INF, -1, "3")]
    + [(site, error, call, v) for site, error, call in NONNEGATIVE_REALS
       for v in (True, NAN, INF, -1, "3", 10**400)]
    + [(site, error, call, v) for site, error, call in OPTIONAL_INTEGERS
       for v in (True, np.bool_(False), 2.9, 2.0, NAN, INF, "3", np.float64(3.0))]
    + [(site, error, call, v) for site, error, call in STRINGS
       for v in (None, 7, True, b"x", 2.5)]
    + [(site, error, call, v) for site, error, call in OPTIONAL_STRINGS
       for v in (7, True, b"x", 2.5)]
    + [(site, error, call, v) for site, error, call in FLAGS
       for v in (None, 1, 0.0, "yes", np.int64(1))]
    + [(site, InvalidConfig, call, v) for site, call in ARRAYS
       for v in ("x", 1 + 2j, b"x", {}, [1.0, 2.0], "1.5", b"1")]
    + [(site, NonFiniteValue, call, 10**400) for site, call in ARRAYS]
    + [(site, InvalidConfig, call, a) for site, call in WHOLE_ARRAYS for a in NOT_REAL_ARRAYS]
)


# every config field but item_weights (an ItemWeights or None) is in the
# table above; True is refused by every kind, so a new field cannot go ungated
CONFIG_FIELDS = [f.name for f in dataclasses.fields(AlignmentConfig) if f.name != "item_weights"]


@pytest.mark.parametrize("name", CONFIG_FIELDS)
def test_every_config_field_refuses_a_bool(name):
    with pytest.raises(PopalignError, match=rf"\b{name}\b"):
        config(**{name: True})


def test_a_bool_among_numbers_becomes_a_float():
    # numpy converts it while building the array, before the gate sees it
    assert ResponseMatrix([[1.5, True]]).values.tolist() == [[1.5, 1.0]]
    assert cosine_similarity([1, False], [1.0, 0.0]) == 1.0


def test_optional_config_fields_accept_none():
    cfg = config(kde_fit_subsample=None, epsilon_absolute=None)
    assert (cfg.kde_fit_subsample, cfg.epsilon_absolute) == (None, None)
    assert config() == cfg


@pytest.mark.parametrize(
    "site, error, call, value", CASES,
    ids=[f"{site}={value!r}"[:60] for site, _, _, value in CASES],
)
def test_gate_refuses_with_the_sites_error(site, error, call, value):
    # the message names the argument
    name = NAMES.get(site, site.split(".")[-1])
    with pytest.raises(error, match=rf"\b{re.escape(name)}\b"):
        call(value)


MARGINAL_CALLS = [
    ("sinkhorn.a", lambda a: sinkhorn(C, a=a, epsilon=0.1)),
    ("exact_ot_small.a", lambda a: exact_ot_small(C, a, np.full(5, 0.2))),
]


@pytest.mark.parametrize("site, call", MARGINAL_CALLS, ids=[s for s, _ in MARGINAL_CALLS])
@pytest.mark.parametrize("a, error", [
    ([NAN, 0.5, 0.25, 0.25], InvalidConfig),
    ([INF, 0.5, 0.25, 0.25], InvalidConfig),
    ([-0.5, 1.0, 0.25, 0.25], InvalidConfig),
    ([0.0, 0.5, 0.25, 0.25], InvalidConfig),  # marginals need every entry positive
    ([0.5, 0.5, 0.25, 0.25], InvalidConfig),  # sums to 1.5
    ([0.5, 0.5], DimensionMismatch),
    ([[0.25], [0.25], [0.25], [0.25]], DimensionMismatch),
])
def test_marginal_gate(site, call, a, error):
    with pytest.raises(error):
        call(a)


@pytest.mark.parametrize("build", [normalize_weights, SamplingProbabilities])
@pytest.mark.parametrize("p, error", [
    ([NAN, 1.0], NonFiniteWeight),
    ([INF, 0.0], NonFiniteWeight),
    ([-1.0, 2.0], NonFiniteWeight),
    ([[0.5, 0.5]], InvalidConfig),
    ([], InvalidConfig),
])
def test_weight_and_probability_gate(build, p, error):
    with pytest.raises(error):
        build(p)


def test_zero_passes_where_only_nonnegative_is_required():
    assert HttpResponder(URL, retries=0).retries == 0
    assert HttpFalseNegativeFilter(URL, retries=np.int64(0), timeout=2).timeout == 2.0
    assert TraitResponder(np.eye(2), np.zeros(2), ["a", "b"], noise_scale=0).noise_scale == 0.0


def test_optional_record_fields_accept_none_and_integers_of_any_kind():
    rec = PersonaRecord(id="p", response_row=None, seed_id=None)
    assert (rec.response_row, rec.seed_id) == (None, None)
    for row in (0, -1, 2**70, np.int64(3), np.uint8(255)):
        got = PersonaRecord(id="p", response_row=row).response_row
        assert got == row and type(got) is int


def test_training_pair_stores_a_plain_bool():
    pair = TrainingPair(np.str_("q"), "p", ["n"], np.bool_(True))
    assert pair.exhausted is True and pair.negative_ids == ("n",)


def test_training_pair_refuses_one_string_of_negatives():
    # a str is a sequence of str: "abc" would be the negatives "a", "b", "c"
    with pytest.raises(InvalidConfig, match=r"\bnegative_ids\b"):
        TrainingPair("q", "p", "abc")


def test_zero_entries_pass_where_only_nonnegative_is_required():
    assert normalize_weights([0.0, 2.0]).probs.tolist() == [0.0, 1.0]
    assert SamplingProbabilities([0.0, 1.0]).n == 2


def test_gates_return_plain_python_numbers():
    for value, gate, want in [
        (np.int64(3), "_count", 3),
        (np.float32(0.5), "_positive_real", 0.5),
        (7, "_positive_real", 7.0),
        (1, "_fraction", 1.0),
        (np.float64(0.25), "_fraction", 0.25),
    ]:
        got = getattr(core, gate)(value, "x")
        assert got == want and type(got) is type(want)
    cfg = config(n_final=np.int32(4), bandwidth=np.float64(0.3), seed=np.uint64(2**63))
    assert (type(cfg.n_final), type(cfg.bandwidth), cfg.seed) == (int, float, 2**63)
    cfg = config(kde_fit_subsample=np.int64(64), epsilon_absolute=np.float32(0.5))
    assert (cfg.kde_fit_subsample, cfg.epsilon_absolute) == (64, 0.5)
    assert (type(cfg.kde_fit_subsample), type(cfg.epsilon_absolute)) == (int, float)
