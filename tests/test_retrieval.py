"""Cosine retrieval, contrastive loss, training pairs, group subsetting."""

import logging
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popalign import (
    EmbeddingIndex,
    PersonaRecord,
    TrainingPair,
    build_training_pairs,
    contrastive_loss,
    contrastive_loss_from_scores,
    cosine_similarity,
    group_subset,
    top_k_retrieve,
)
from popalign.errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyNegativePool,
    InvalidConfig,
    KOutOfRange,
    NonFiniteValue,
    ZeroVector,
)
from popalign.retrieval import _by_score, _unit
from popalign.rng import derive_seed, rng_from_seed


def make_index(n=20, e=6, seed=0):
    rng = np.random.default_rng(seed)
    ids = [f"p{i:03d}" for i in range(n)]
    return EmbeddingIndex.build(ids, rng.normal(size=(n, e))), rng


class TestEmbeddingIndexEquality:
    def test_compares_vectors_by_value(self):
        vectors = np.array([[1.0, 0.0], [3.0, 4.0]])
        index = EmbeddingIndex.build(["a", "b"], vectors)
        assert index == EmbeddingIndex.build(["a", "b"], vectors.copy())
        assert index != EmbeddingIndex.build(["a", "b"], vectors[::-1])
        assert index != EmbeddingIndex.build(["a", "c"], vectors)


class TestCosine:
    def test_parallel(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_analytic_45_degrees(self):
        got = cosine_similarity([1.0, 1.0], [1.0, 0.0])
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert got == pytest.approx(0.70711, abs=5e-6)

    def test_scale_invariance(self):
        a, b = np.array([3.0, -1.0, 2.0]), np.array([0.5, 4.0, 1.0])
        assert cosine_similarity(a, b) == pytest.approx(
            cosine_similarity(10.0 * a, 0.01 * b), abs=1e-12
        )

    def test_clamped_to_range(self):
        v = np.full(50, 1e8)
        assert cosine_similarity(v, v) == 1.0
        assert cosine_similarity(v, -v) == -1.0

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_similarity([1.0], [1.0, 0.0])


class TestEmbeddingIndex:
    def test_unit_norm_after_ingestion(self):
        idx, _ = make_index()
        norms = np.linalg.norm(idx.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_cosine_equals_dot_of_stored(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(10, 4)) * rng.uniform(0.1, 50.0, size=(10, 1))
        idx = EmbeddingIndex.build([f"x{i}" for i in range(10)], raw)
        for i in range(10):
            for j in range(10):
                dot = float(idx.vectors[i] @ idx.vectors[j])
                assert abs(cosine_similarity(raw[i], raw[j]) - np.clip(dot, -1, 1)) <= 1e-9

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            EmbeddingIndex.build(["a", "a"], np.ones((2, 3)))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector) as exc:
            EmbeddingIndex.build(["a", "b"], np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert "'b'" in str(exc.value)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteValue):
            EmbeddingIndex.build(["a"], np.array([[np.nan, 1.0]]))

    def test_nonfinite_named_by_row_and_column(self):
        vectors = np.ones((3, 4))
        vectors[2, 1] = np.inf
        with pytest.raises(NonFiniteValue) as exc:
            EmbeddingIndex.build(["a", "b", "c"], vectors)
        assert (exc.value.row, exc.value.col) == (2, 1)
        assert "row 2, column 1" in str(exc.value)

    def test_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            EmbeddingIndex.build(["a", "b", "c"], np.ones((2, 3)))


class TestTopK:
    def test_full_ranking_is_permutation(self):
        idx, rng = make_index(15, 5)
        hits = top_k_retrieve(rng.normal(size=5), idx, 15)
        assert sorted(h[0] for h in hits) == sorted(idx.ids)

    def test_stored_vector_ranks_first(self):
        idx, _ = make_index(12, 4, seed=2)
        hits = top_k_retrieve(np.array(idx.vectors[7]), idx, 3)
        assert hits[0][0] == idx.ids[7]
        assert hits[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        ids = [f"p{i:03d}" for i in range(100)]
        raw = rng.normal(size=(100, 8))
        idx = EmbeddingIndex.build(ids, raw)
        for trial in range(5):
            q = rng.normal(size=8)
            got = top_k_retrieve(q, idx, 10)
            # independent scan: cosine per row, python sort on (-score, id)
            sims = [(cosine_similarity(q, raw[i]), ids[i]) for i in range(100)]
            want = sorted(sims, key=lambda t: (-t[0], t[1]))[:10]
            assert [g[0] for g in got] == [w[1] for w in want]
            for g, w in zip(got, want):
                assert g[1] == pytest.approx(w[0], abs=1e-9)

    def test_tie_break_ascending_id(self):
        v = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]])
        # string order, not numeric: "p10" sorts before "p9"
        for ids, want in ((["c", "a", "b", "z"], ["a", "b", "c", "z"]),
                          (["p9", "p10", "p1", "q"], ["p1", "p10", "p9", "q"])):
            idx = EmbeddingIndex.build(ids, v)
            hits = top_k_retrieve(np.array([1.0, 0.0]), idx, 4)
            assert [h[0] for h in hits] == want
            pairs = build_training_pairs(
                idx, [("q0", np.array([1.0, 0.0]), want[-1])], n_hard=3, n_random=0
            )
            assert list(pairs[0].negative_ids) == want[:3]

    @pytest.mark.parametrize("k", [0, -1, 21, 2.5])
    def test_k_out_of_range(self, k):
        idx, _ = make_index(20, 6)
        with pytest.raises(KOutOfRange):
            top_k_retrieve(np.ones(6), idx, k)


class TestContrastiveLoss:
    def test_separated_pair(self):
        # s+ = 1, s- = -1, tau = 1: loss = log(1 + e^-2)
        loss = contrastive_loss(
            [1.0, 0.0], [1.0, 0.0], [[-1.0, 0.0]], temperature=1.0
        )
        assert loss == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)
        assert loss == pytest.approx(0.12693, abs=5e-6)

    def test_indistinguishable_pair(self):
        loss = contrastive_loss_from_scores(0.4, [0.4])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_equal_scores_m_negatives(self):
        for m in (1, 3, 10):
            loss = contrastive_loss_from_scores(0.2, [0.2] * m)
            assert loss == pytest.approx(math.log(1.0 + m), abs=1e-12)

    def test_adding_negative_never_decreases(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s_pos = rng.uniform(-1, 1)
            negs = list(rng.uniform(-1, 1, size=rng.integers(1, 6)))
            base = contrastive_loss_from_scores(s_pos, negs)
            more = contrastive_loss_from_scores(s_pos, negs + [rng.uniform(-1, 1)])
            assert more >= base

    def test_monotonic_in_scores(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s_pos = rng.uniform(-0.9, 0.9)
            negs = list(rng.uniform(-0.9, 0.9, size=3))
            base = contrastive_loss_from_scores(s_pos, negs)
            assert contrastive_loss_from_scores(s_pos + 0.05, negs) < base
            bumped = negs.copy()
            bumped[1] += 0.05
            assert contrastive_loss_from_scores(s_pos, bumped) > base

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            loss = contrastive_loss_from_scores(
                rng.uniform(-1, 1), list(rng.uniform(-1, 1, size=4))
            )
            assert loss >= 0.0

    def test_temperature_sharpens(self):
        # cooler temperature amplifies a positive margin, shrinking the loss
        assert contrastive_loss_from_scores(0.8, [0.2], temperature=0.1) < \
            contrastive_loss_from_scores(0.8, [0.2], temperature=1.0)

    def test_no_negatives(self):
        with pytest.raises(InvalidConfig):
            contrastive_loss([1.0], [1.0], [])

    def test_bad_temperature(self):
        with pytest.raises(InvalidConfig):
            contrastive_loss_from_scores(0.5, [0.1], temperature=0.0)


class TestTrainingPair:
    def test_positive_never_among_negatives(self):
        with pytest.raises(DuplicateId):
            TrainingPair(query_id="q", positive_id="p", negative_ids=("a", "p"))

    def test_empty_negatives(self):
        with pytest.raises(EmptyNegativePool):
            TrainingPair(query_id="q", positive_id="p", negative_ids=())


class TestBuildTrainingPairs:
    def queries_from_index(self, idx, positions):
        return [
            (f"q{p}", np.array(idx.vectors[p]), idx.ids[p]) for p in positions
        ]

    def test_hard_negatives_are_next_ranks(self):
        idx, _ = make_index(10, 4, seed=7)
        queries = self.queries_from_index(idx, [3])
        pairs = build_training_pairs(idx, queries, n_hard=2, n_random=0, seed=0)
        ranked = top_k_retrieve(np.array(idx.vectors[3]), idx, 10)
        assert ranked[0][0] == idx.ids[3]  # the positive tops its own query
        assert list(pairs[0].negative_ids) == [ranked[1][0], ranked[2][0]]
        assert not pairs[0].exhausted

    def test_positive_excluded_exhaustively(self):
        idx, rng = make_index(30, 5, seed=8)
        queries = self.queries_from_index(idx, range(30))
        pairs = build_training_pairs(idx, queries, n_hard=5, n_random=5, seed=1)
        assert len(pairs) == 30
        for pair in pairs:
            assert pair.positive_id not in pair.negative_ids

    def test_random_negatives_disjoint_from_hard(self):
        idx, _ = make_index(25, 4, seed=9)
        queries = self.queries_from_index(idx, [0, 5, 10])
        pairs = build_training_pairs(idx, queries, n_hard=4, n_random=4, seed=2)
        for pair in pairs:
            assert len(set(pair.negative_ids)) == 8

    def test_deterministic(self):
        idx, _ = make_index(25, 4, seed=10)
        queries = self.queries_from_index(idx, [1, 2, 3])
        a = build_training_pairs(idx, queries, n_hard=3, n_random=3, seed=5)
        b = build_training_pairs(idx, queries, n_hard=3, n_random=3, seed=5)
        assert a == b
        c = build_training_pairs(idx, queries, n_hard=3, n_random=3, seed=6)
        assert any(pa.negative_ids != pc.negative_ids for pa, pc in zip(a, c))

    def test_filter_replaces_from_next_rank(self):
        idx, _ = make_index(10, 4, seed=11)
        ranked = top_k_retrieve(np.array(idx.vectors[0]), idx, 10)
        banned = ranked[1][0]  # reject the first hard candidate

        pairs = build_training_pairs(
            idx,
            self.queries_from_index(idx, [0]),
            n_hard=2,
            n_random=0,
            seed=0,
            false_negative_filter=lambda q, c: c == banned,
        )
        assert banned not in pairs[0].negative_ids
        assert list(pairs[0].negative_ids) == [ranked[2][0], ranked[3][0]]

    def test_reject_everything_strict(self):
        idx, _ = make_index(8, 3, seed=12)
        queries = self.queries_from_index(idx, [0, 1])
        with pytest.raises(EmptyNegativePool) as exc:
            build_training_pairs(
                idx, queries, n_hard=2, n_random=2, seed=0,
                false_negative_filter=lambda q, c: True,
            )
        assert tuple(exc.value.query_ids) == ("q0", "q1")

    def test_reject_everything_skip_mode(self, caplog):
        idx, _ = make_index(8, 3, seed=13)
        queries = self.queries_from_index(idx, [0, 1])
        with caplog.at_level(logging.WARNING, logger="popalign.retrieval"):
            pairs = build_training_pairs(
                idx, queries, n_hard=2, n_random=2, seed=0,
                false_negative_filter=lambda q, c: True,
                strict=False,
            )
        assert pairs == []
        assert sum("skipped" in r.message for r in caplog.records) == 2

    def test_exhausted_flag_on_small_pool(self):
        idx, _ = make_index(4, 3, seed=14)  # only 3 possible negatives
        pairs = build_training_pairs(
            idx, self.queries_from_index(idx, [0]), n_hard=5, n_random=5, seed=0
        )
        assert pairs[0].exhausted
        assert len(pairs[0].negative_ids) == 3

    def test_zero_counts_rejected(self):
        idx, _ = make_index(5, 3)
        with pytest.raises(InvalidConfig):
            build_training_pairs(idx, [], n_hard=0, n_random=0, seed=0)


class TestGroupSubset:
    def setup_pool(self, n=6, e=4, seed=15):
        idx, rng = make_index(n, e, seed=seed)
        personas = {
            pid: PersonaRecord(id=pid, narrative=f"seed narrative {pid}")
            for pid in idx.ids
        }
        return idx, personas, rng

    def test_identity_reviser(self):
        idx, personas, rng = self.setup_pool()
        out = group_subset(
            rng.normal(size=4), idx, 3, lambda q, n: n, personas, query_text="farmers"
        )
        assert len(out) == 3
        for rec in out:
            assert rec.seed_id in idx.ids
            assert rec.narrative == personas[rec.seed_id].narrative
            assert rec.id not in idx.ids  # fresh ids
        assert len({r.id for r in out}) == 3

    def test_k1_single_nearest(self):
        idx, personas, _ = self.setup_pool()
        out = group_subset(np.array(idx.vectors[2]), idx, 1, lambda q, n: n, personas)
        assert len(out) == 1
        assert out[0].seed_id == idx.ids[2]

    def test_reviser_transforms(self):
        idx, personas, rng = self.setup_pool()
        out = group_subset(
            rng.normal(size=4), idx, 2,
            lambda q, n: f"[{q}] {n}", personas, query_text="teachers",
        )
        assert all(rec.narrative.startswith("[teachers] seed narrative") for rec in out)

    def test_persona_list_as_the_mapping(self, caplog):
        # the list load_personas returns is keyed by record id, in any order
        idx, personas, rng = self.setup_pool()
        q = rng.normal(size=4)
        want = group_subset(q, idx, 4, lambda q, n: n, personas)
        with caplog.at_level(logging.WARNING, logger="popalign.retrieval"):
            got = group_subset(q, idx, 4, lambda q, n: n, list(personas.values())[::-1])
        assert got == want and len(got) == 4
        assert not caplog.records

    def test_failing_reviser_skips_with_warning(self, caplog):
        idx, personas, rng = self.setup_pool()
        q = rng.normal(size=4)
        hits = top_k_retrieve(q, idx, 5)
        doomed = hits[2][0]  # fail on seed 3 of 5

        def reviser(query, narrative):
            if doomed in narrative:
                raise RuntimeError("backend down")
            return narrative

        with caplog.at_level(logging.WARNING, logger="popalign.retrieval"):
            out = group_subset(q, idx, 5, reviser, personas)
        assert len(out) == 4
        assert doomed not in [r.seed_id for r in out]
        assert sum("reviser failed" in r.message for r in caplog.records) == 1


# ---------------------------------------------------------------- oracles
#
# The list-based ranking and pair builder as they stood before the vectorised
# ones, kept as references: verbatim but for the id tie-break rank, computed
# here, and the skip-mode warnings, left out.

def _oracle_ranked(query, index):
    q = _unit(query, "query")
    scores = np.clip(index.vectors @ q, -1.0, 1.0)
    rank = np.empty(index.size, dtype=np.intp)
    rank[sorted(range(index.size), key=index.ids.__getitem__)] = np.arange(index.size)
    return scores, np.lexsort((rank, -scores))


def _oracle_top_k(query, index, k):
    scores, order = _oracle_ranked(query, index)
    return [(index.ids[r], float(scores[r])) for r in order[:k]]


def _oracle_training_pairs(index, queries, n_hard=10, n_random=10, seed=0,
                           false_negative_filter=None, strict=True):
    if n_hard < 0 or n_random < 0 or n_hard + n_random < 1:
        raise InvalidConfig("need n_hard, n_random >= 0 with n_hard + n_random >= 1")
    reject = false_negative_filter if false_negative_filter is not None else (lambda q, c: False)
    pairs = []
    empty_queries = []
    for q_pos, (query_id, query_emb, positive_id) in enumerate(queries):
        _, ranked = _oracle_ranked(query_emb, index)
        candidates = [index.ids[r] for r in ranked if index.ids[r] != positive_id]

        hard = []
        cursor = 0
        while len(hard) < n_hard and cursor < len(candidates):
            cand = candidates[cursor]
            cursor += 1
            if not reject(query_id, cand):
                hard.append(cand)

        hard_set = set(hard)
        remainder = [c for c in candidates if c not in hard_set]
        rng = rng_from_seed(derive_seed(seed, q_pos))
        order = rng.permutation(len(remainder)) if remainder else []
        rand = []
        for r in order:
            if len(rand) >= n_random:
                break
            cand = remainder[int(r)]
            if not reject(query_id, cand):
                rand.append(cand)

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
    return pairs


def tied_index(kind, seed):
    """An index full of exact score ties, ids in an order unlike the rows'."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        raw = rng.integers(-1, 2, size=(80, 3)).astype(float)
        raw = raw[np.abs(raw).sum(axis=1) > 0]
    else:  # "duplicates": 7 distinct vectors, each stored several times
        raw = rng.standard_normal((7, 4))[rng.integers(0, 7, size=60)]
    names = [f"e{j}" for j in rng.permutation(raw.shape[0])]  # "e10" < "e9"
    return EmbeddingIndex.build(names, raw), rng


def tied_queries(index, rng, n=4):
    rows = rng.choice(index.size, size=n, replace=False)
    return [np.array(index.vectors[r]) for r in rows] + [
        rng.integers(-1, 2, size=index.dim).astype(float) + 0.5 for _ in range(n)
    ]


class TestTopKOracle:
    @pytest.mark.parametrize("kind", ["grid", "duplicates"])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_k_matches_lexsort(self, kind, seed):
        idx, rng = tied_index(kind, seed)
        for q in tied_queries(idx, rng):
            full = _oracle_top_k(q, idx, idx.size)
            for k in range(1, idx.size + 1):
                assert top_k_retrieve(q, idx, k) == full[:k]

    def test_random_index_matches_lexsort(self):
        idx, rng = make_index(300, 8, seed=21)
        for _ in range(3):
            q = rng.normal(size=8)
            for k in (1, 7, 50, 299, 300):
                assert top_k_retrieve(q, idx, k) == _oracle_top_k(q, idx, k)


class TestTieRepair:
    """`_by_score` sorts unstably, then puts each run of equal keys back in order."""

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["grid", "signed zeros", "all equal", "normal"]),
        n=st.integers(0, 3000),
        extra=st.integers(0, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_stable_sort(self, kind, n, extra, seed):
        rng = np.random.default_rng(seed)
        m = n + extra
        if kind == "grid":
            scores = rng.integers(-4, 5, size=m) / 4.0
        elif kind == "signed zeros":
            scores = rng.choice([0.0, -0.0, 0.25, -0.25], size=m)
        elif kind == "all equal":
            scores = np.full(m, rng.uniform(-1.0, 1.0))
        else:
            scores = rng.standard_normal(m)
        # a subset of the rows, in an order unlike theirs, as top_k_retrieve passes
        rows = rng.permutation(m)[:n]
        want = rows[np.argsort(-scores[rows], kind="stable")]
        assert np.array_equal(_by_score(scores, rows), want)

    def test_orthogonal_index_matches_lexsort(self):
        rng = np.random.default_rng(40)
        raw = rng.integers(-2, 3, size=(600, 5)).astype(float)
        # four rows in five are orthogonal to the query: their scores are exact zeros
        raw[:, 0] = np.where(rng.random(600) < 0.8, rng.choice([0.0, -0.0], size=600),
                             rng.integers(-2, 3, size=600))
        raw[np.abs(raw).sum(axis=1) == 0, 1] = 1.0
        idx = EmbeddingIndex.build([f"e{j}" for j in rng.permutation(600)], raw)
        for q in (np.eye(5)[0], -np.eye(5)[0]):
            assert (idx.vectors @ q == 0.0).sum() >= 400
            for k in (1, 50, 400, 600):
                assert top_k_retrieve(q, idx, k) == _oracle_top_k(q, idx, k)
        queries = [(f"q{j}", (-1.0) ** j * np.eye(5)[0], idx.ids[j]) for j in range(6)]
        for percent in (0, 10, 90):
            filters = [RecordingFilter(percent) for _ in "ab"]
            got = build_training_pairs(idx, queries, n_hard=30, n_random=30, seed=3,
                                       false_negative_filter=filters[0])
            want = _oracle_training_pairs(idx, queries, n_hard=30, n_random=30, seed=3,
                                          false_negative_filter=filters[1])
            assert got == want
            assert filters[0].calls == filters[1].calls


class RecordingFilter:
    """Rejects a fixed share of (query, candidate) pairs and records every call."""

    def __init__(self, percent):
        self.percent = percent
        self.calls = []

    def __call__(self, query_id, candidate_id):
        self.calls.append((query_id, candidate_id))
        return zlib.crc32(f"{query_id}/{candidate_id}".encode()) % 100 < self.percent


def _outcome(build, *args, **kwargs):
    try:
        return ("ok", build(*args, **kwargs))
    except Exception as exc:  # the builders must fail alike too
        return ("raised", type(exc), str(exc))


class TestTrainingPairsOracle:
    def assert_same(self, index, queries, percent=None, **kwargs):
        filters = [None, None] if percent is None else [RecordingFilter(percent) for _ in "ab"]
        got = _outcome(build_training_pairs, index, queries,
                       false_negative_filter=filters[0], **kwargs)
        want = _outcome(_oracle_training_pairs, index, queries,
                        false_negative_filter=filters[1], **kwargs)
        assert got == want
        if percent is not None:
            assert filters[0].calls == filters[1].calls
        return got

    def queries(self, idx, rng, n=6):
        rows = rng.choice(idx.size, size=n, replace=False)
        return [(f"q{j}", idx.vectors[r] + 0.3 * rng.normal(size=idx.dim), idx.ids[r])
                for j, r in enumerate(rows)]

    @pytest.mark.parametrize("percent", [0, 10, 90])
    @pytest.mark.parametrize("counts", [(10, 10), (3, 0), (0, 4), (1, 25)])
    def test_filters_and_counts(self, percent, counts):
        idx, rng = make_index(120, 6, seed=30 + percent)
        out = self.assert_same(idx, self.queries(idx, rng), percent=percent,
                               n_hard=counts[0], n_random=counts[1], seed=4)
        assert out[0] == "ok"

    @pytest.mark.parametrize("kind", ["grid", "duplicates"])
    def test_tied_index(self, kind):
        idx, rng = tied_index(kind, 5)
        queries = [(f"q{j}", q, idx.ids[j]) for j, q in enumerate(tied_queries(idx, rng))]
        for percent in (0, 10, 90):
            self.assert_same(idx, queries, percent=percent, n_hard=5, n_random=5, seed=9)

    def test_positive_absent_or_not_a_string(self):
        idx, rng = make_index(40, 5, seed=31)
        q = rng.normal(size=5)
        for positive in ("absent", 7, None, ("p001",), ["p001"], "p001"):
            self.assert_same(idx, [("q0", q, positive)], percent=10, n_hard=6, n_random=6)

    def test_index_without_id_map(self):
        built, rng = make_index(50, 5, seed=32)
        # an index constructed directly, not through build, derives its map
        bare = EmbeddingIndex(ids=built.ids, vectors=built.vectors)
        assert bare.id_to_row == {i: r for r, i in enumerate(built.ids)}
        queries = self.queries(built, rng)
        out = self.assert_same(bare, queries, percent=10, n_hard=4, n_random=4, seed=1)
        assert out == ("ok", build_training_pairs(built, queries, n_hard=4, n_random=4, seed=1,
                                                  false_negative_filter=RecordingFilter(10)))

    @pytest.mark.parametrize("percent", [0, 90, 100])
    @pytest.mark.parametrize("strict", [True, False])
    def test_exhausted_pools(self, percent, strict):
        idx, rng = make_index(6, 3, seed=33)
        out = self.assert_same(idx, self.queries(idx, rng, n=4), percent=percent,
                               n_hard=4, n_random=4, seed=2, strict=strict)
        if out[0] == "ok":
            assert all(p.exhausted for p in out[1])
