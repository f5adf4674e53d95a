"""Cosine retrieval over persona embeddings and contrastive training pairs.

Embeddings arrive precomputed (file-based or via an external service); this
module never trains or serves an embedding model. Vectors are L2-normalized on
ingestion, so cosine similarity reduces to a dot product. Retrieval order is
total: descending score with ties broken by ascending id.

The false-negative filter and the group reviser are injected callables with
HTTP wire contracts (see popalign.clients); tests use deterministic stubs.
"""

from dataclasses import dataclass
from functools import cached_property
import logging

import numpy as np

from .core import (
    PersonaRecord,
    _count,
    _finite_values,
    _float_array,
    _positive_real,
    _value_eq,
)
from .errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyNegativePool,
    InvalidConfig,
    KOutOfRange,
    ZeroVector,
)
from .rng import _integer, derive_seed, rng_from_seed

logger = logging.getLogger(__name__)


def _as_vector(v, name="vector"):
    arr = _finite_values(_float_array(v, name).ravel(), name, ndim=1)
    if arr.size == 0:
        raise DimensionMismatch(f"{name} is empty")
    return arr


def _unit(v, name="vector"):
    arr = _as_vector(v, name)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ZeroVector(f"{name} is the zero vector")
    return arr / norm


@_value_eq
@dataclass(frozen=True)
class EmbeddingIndex:
    """Persona ids with their L2-normalized embedding vectors."""

    ids: tuple
    vectors: np.ndarray

    @classmethod
    def build(cls, ids, vectors):
        """Validate, normalize, and freeze an index.

        Rejects duplicate ids, ragged dimensions, zero vectors, and non-finite
        entries; every stored vector has unit norm after ingestion.
        """
        ids = tuple(str(i) for i in ids)
        seen = set()
        for i in ids:
            if i in seen:
                raise DuplicateId(f"duplicate embedding id {i!r}", id=i)
            seen.add(i)
        arr = _finite_values(vectors, "embedding matrix")
        if arr.shape[0] != len(ids):
            raise DimensionMismatch(f"{len(ids)} ids for {arr.shape[0]} vectors")
        norms = np.linalg.norm(arr, axis=1)
        dead = np.flatnonzero(norms == 0.0)
        if dead.size:
            raise ZeroVector(f"zero embedding vector for id {ids[int(dead[0])]!r}")
        unit = arr / norms[:, None]
        unit.setflags(write=False)
        return cls(ids=ids, vectors=unit)

    @property
    def size(self):
        return len(self.ids)

    @property
    def dim(self):
        return self.vectors.shape[1]

    @cached_property
    def id_to_row(self):
        """Row of each id in `ids` and `vectors`."""
        return {i: r for r, i in enumerate(self.ids)}

    @cached_property
    def _id_order(self):
        # rows in Python str order of their ids, the ranking tie-break
        return np.array(sorted(range(self.size), key=self.ids.__getitem__), dtype=np.intp)


def cosine_similarity(a, b):
    """<a,b> / (||a|| ||b||), clamped to [-1, 1] against roundoff."""
    va = _as_vector(a, "first vector")
    vb = _as_vector(b, "second vector")
    if va.shape[0] != vb.shape[0]:
        raise DimensionMismatch(f"vector lengths differ: {va.shape[0]} vs {vb.shape[0]}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine similarity is undefined for the zero vector")
    return float(np.clip(va @ vb / (na * nb), -1.0, 1.0))


def _scores(query, index):
    """Cosine score of every index row against `query`, clamped to [-1, 1]."""
    q = _unit(query, "query")
    if q.shape[0] != index.dim:
        raise DimensionMismatch(f"query length {q.shape[0]} vs index dimension {index.dim}")
    return np.clip(index.vectors @ q, -1.0, 1.0)


def _by_score(scores, rows):
    """`rows`, given in id order, by descending score, each tie in id order.

    numpy's default argsort is several times faster than its stable one but
    leaves equal keys in no set order; only the positions inside each run of
    equal keys are sorted back, so the result is the stable sort's for any
    finite scores. -0.0 == 0.0, so the two zeros form one run, as they do
    for the stable sort.
    """
    keys = -scores[rows]
    order = np.argsort(keys)
    keys = keys[order]
    same = keys[1:] == keys[:-1]
    if same.any():
        tied = np.flatnonzero(np.r_[False, same] | np.r_[same, False])
        # run number of each tied position: tied positions ascend, so runs do;
        # run * n + position sorts by run, then by position, and the runs keep
        # their places and sizes
        base = np.r_[0, np.cumsum(~same)][tied] * order.size
        order[tied] = np.sort(base + order[tied]) - base
    return rows[order]


def top_k_retrieve(query, index, k):
    """Top k (id, score) pairs, descending score, ties by ascending id."""
    k = _count(k, "k", KOutOfRange)
    if k > index.size:
        raise KOutOfRange(f"k={k} outside [1, {index.size}]")
    scores = _scores(query, index)
    # only rows scoring at least the k-th best can rank in the top k; every
    # row tied with it is kept, so the id tie-break sees the whole tie
    kth = np.partition(scores, index.size - k)[index.size - k]
    rows = index._id_order[scores[index._id_order] >= kth]
    return [(index.ids[r], float(scores[r])) for r in _by_score(scores, rows)[:k]]


def contrastive_loss(query_emb, positive_emb, negative_embs, temperature=1.0):
    """-log( exp(s+/t) / (exp(s+/t) + sum_j exp(s-_j/t)) ), s = cosine sim.

    Computed through log-sum-exp; temperature defaults to 1 (the plain
    unscaled form).
    """
    negative_embs = list(negative_embs)
    if not negative_embs:
        raise InvalidConfig("contrastive_loss needs at least one negative")
    s_pos = cosine_similarity(query_emb, positive_emb)
    s_negs = [cosine_similarity(query_emb, n) for n in negative_embs]
    return contrastive_loss_from_scores(s_pos, s_negs, temperature)


def contrastive_loss_from_scores(s_pos, s_negs, temperature=1.0):
    """Same loss evaluated directly on similarity scores.

    s_pos is one real score and s_negs a 1-d array of them. Each is gated
    on its own before they are joined (core._float_array), so a bool or
    string score raises InvalidConfig as it does for cosine_similarity.
    """
    t = _positive_real(temperature, "temperature")
    pos = _float_array(s_pos, "positive score")
    if pos.ndim != 0:
        raise InvalidConfig(f"the positive score must be one real number, got shape {pos.shape}")
    negs = _float_array(s_negs, "negative scores")
    if negs.ndim != 1:
        raise DimensionMismatch(
            f"the negative scores must be 1-dimensional, got shape {negs.shape}"
        )
    logits = np.concatenate([pos[None], negs]) / t
    peak = logits.max()
    lse = peak + np.log(np.exp(logits - peak).sum())
    return float(lse - logits[0])


@dataclass(frozen=True)
class TrainingPair:
    """Positive (query, persona) pair with its filtered negatives.

    `exhausted` flags pairs that got fewer negatives than requested because
    the candidate pool ran out after filtering.

    Field rules, checked at construction (InvalidConfig naming the field):
    the ids are str, `negative_ids` a sequence of str (not one str), and
    `exhausted` a bool or np.bool_, stored as a bool. So every pair that
    constructs saves and loads back equal.
    """

    query_id: str
    positive_id: str
    negative_ids: tuple
    exhausted: bool = False

    def __post_init__(self):
        for name in ("query_id", "positive_id"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise InvalidConfig(f"training pair {name} must be a string, got {value!r}")
        if isinstance(self.negative_ids, str):
            raise InvalidConfig(
                f"training pair negative_ids must be a sequence of strings, not the string "
                f"{self.negative_ids!r}"
            )
        negs = tuple(self.negative_ids)
        for neg in negs:
            if not isinstance(neg, str):
                raise InvalidConfig(
                    f"training pair negative_ids must be strings, got {neg!r}"
                )
        if not isinstance(self.exhausted, (bool, np.bool_)):
            raise InvalidConfig(
                f"training pair exhausted must be a boolean, got {self.exhausted!r}"
            )
        object.__setattr__(self, "exhausted", bool(self.exhausted))
        if not negs:
            raise EmptyNegativePool(
                f"pair for query {self.query_id!r} has no negatives",
                query_ids=(self.query_id,),
            )
        if self.positive_id in negs:
            raise DuplicateId(
                f"positive {self.positive_id!r} appears among its own negatives",
                id=self.positive_id,
            )
        object.__setattr__(self, "negative_ids", negs)


def _accept_all(query_id, candidate_id):
    return False


def build_training_pairs(
    index,
    queries,
    n_hard=10,
    n_random=10,
    seed=0,
    false_negative_filter=None,
    strict=True,
):
    """Construct contrastive training pairs with hard and random negatives.

    For each (query_id, query_emb, source_persona_id): hard negatives are the
    top-n_hard most similar index entries excluding the positive; random
    negatives are seeded uniform draws (without replacement) from the
    remainder. Every candidate passes through `false_negative_filter`, a
    predicate returning True when the candidate is semantically aligned with
    the query and must be excluded; rejected candidates are replaced from the
    next-ranked / re-drawn pool until counts are met or the pool is exhausted
    (the pair is then flagged `exhausted`).

    Queries whose whole pool is filtered away yield no pair: strict mode
    raises EmptyNegativePool listing every such query id, otherwise they are
    skipped with a warning each. The per-query draw order depends only on
    (seed, query position), so pair sets are reproducible.
    """
    n_hard, n_random = _integer(n_hard, "n_hard"), _integer(n_random, "n_random")
    if n_hard < 0 or n_random < 0 or n_hard + n_random < 1:
        raise InvalidConfig("need n_hard, n_random >= 0 with n_hard + n_random >= 1")
    # reject(query_id, candidate_id) -> True means "semantically aligned, drop it"
    reject = false_negative_filter if false_negative_filter is not None else _accept_all
    ids = index.ids
    pairs = []
    empty_queries = []
    for q_pos, (query_id, query_emb, positive_id) in enumerate(queries):
        ranked = _by_score(_scores(query_emb, index), index._id_order)
        # candidates are every row but the positive's; `keep` marks those
        # still open to the random draw
        keep = np.ones(index.size, dtype=bool)
        try:
            positive_row = index.id_to_row.get(positive_id)
        except TypeError:  # an unhashable id equals no index id
            positive_row = None
        if positive_row is not None:
            keep[positive_row] = False

        hard = []
        for r in ranked:
            if len(hard) >= n_hard:
                break
            if r != positive_row and not reject(query_id, ids[r]):
                hard.append(ids[r])
                keep[r] = False

        remainder = ranked[keep[ranked]]
        rng = rng_from_seed(derive_seed(seed, q_pos))
        rand = []
        for r in remainder[rng.permutation(remainder.size)]:
            if len(rand) >= n_random:
                break
            if not reject(query_id, ids[r]):
                rand.append(ids[r])

        negatives = tuple(hard + rand)
        if not negatives:
            empty_queries.append(query_id)
            continue
        pairs.append(
            TrainingPair(
                query_id=str(query_id),
                positive_id=str(positive_id),
                negative_ids=negatives,
                exhausted=len(negatives) < n_hard + n_random,
            )
        )
    if empty_queries:
        if strict:
            raise EmptyNegativePool(
                f"no negatives survive filtering for queries {empty_queries}",
                query_ids=empty_queries,
            )
        for qid in empty_queries:
            logger.warning("query %r: no negatives survive filtering, skipped", qid)
    return pairs


def group_subset(query_emb, index, k, reviser, personas, query_text=""):
    """Group-conditioned persona generation from retrieved seeds.

    Retrieves the k nearest seed personas, runs each narrative through the
    injected `reviser(query_text, narrative) -> revised narrative`, and
    returns fresh PersonaRecords whose `seed_id` links back to the seed.
    `personas` maps ids to PersonaRecords, or is an iterable of them, such as
    the list load_personas returns. A reviser failure on one seed logs a
    warning and skips that seed; the batch never aborts.
    """
    if not hasattr(personas, "get"):
        personas = {rec.id: rec for rec in personas}
    hits = top_k_retrieve(query_emb, index, k)
    out = []
    for pos, (seed_id, _score) in enumerate(hits):
        rec = personas.get(seed_id)
        if rec is None:
            logger.warning("seed persona %r has no narrative record, skipped", seed_id)
            continue
        try:
            revised = reviser(query_text, rec.narrative)
        except Exception as exc:  # external-call failure: skip, never abort
            logger.warning("reviser failed on seed %r: %s", seed_id, exc)
            continue
        out.append(
            PersonaRecord(
                id=f"group{pos}:{seed_id}",
                narrative=str(revised),
                embedding=None,
                response_row=None,
                seed_id=seed_id,
            )
        )
    return out
