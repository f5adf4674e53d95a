"""Response matrices, persona records, config validation, pool validation."""

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from popalign import (
    AlignmentConfig,
    ItemWeights,
    PersonaRecord,
    ResponseMatrix,
    ValidatedPool,
    core,
    cost_matrix,
    fit_kde,
    log_density,
    metric_report,
    metrics,
    parallel,
    validate_pool,
)
from popalign.kde import log_density_many
from popalign.errors import (
    DimensionMismatch,
    DuplicateId,
    InvalidConfig,
    NonFiniteValue,
)


def mat(arr, **kw):
    return ResponseMatrix(np.asarray(arr, dtype=float), **kw)


class TestResponseMatrix:
    def test_basic_shape(self):
        m = mat([[1.0, 2.0], [3.0, 4.0]])
        assert m.n == 2 and m.d == 2
        assert m.values.dtype == np.float64
        assert m.values.flags["C_CONTIGUOUS"]

    def test_read_only(self):
        m = mat([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0

    def test_input_copy_isolation(self):
        src = np.array([[1.0, 2.0]])
        m = ResponseMatrix(src)
        src[0, 0] = 99.0
        assert m.values[0, 0] == 1.0

    def test_default_item_ids(self):
        m = mat([[0.0, 0.0, 0.0]])
        assert m.item_ids == ("item0", "item1", "item2")

    def test_custom_item_ids(self):
        m = mat([[0.0, 0.0]], item_ids=("a", "b"))
        assert m.item_ids == ("a", "b")

    def test_item_id_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat([[0.0, 0.0]], item_ids=("only",))

    def test_nan_rejected_with_location(self):
        a = np.zeros((3, 4))
        a[1, 2] = np.nan
        with pytest.raises(NonFiniteValue) as exc:
            ResponseMatrix(a)
        assert exc.value.row == 1 and exc.value.col == 2

    def test_inf_rejected(self):
        a = np.zeros((2, 2))
        a[0, 1] = np.inf
        with pytest.raises(NonFiniteValue) as exc:
            ResponseMatrix(a)
        assert exc.value.row == 0 and exc.value.col == 1

    def test_first_offending_entry_reported(self):
        a = np.zeros((3, 3))
        a[0, 2] = np.nan
        a[2, 0] = np.nan
        with pytest.raises(NonFiniteValue) as exc:
            ResponseMatrix(a)
        assert (exc.value.row, exc.value.col) == (0, 2)

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            ResponseMatrix(np.zeros((0, 3)))
        with pytest.raises(DimensionMismatch):
            ResponseMatrix(np.zeros((3, 0)))

    def test_wrong_ndim(self):
        with pytest.raises(DimensionMismatch):
            ResponseMatrix(np.zeros(5))

    def test_column_and_take_rows(self):
        m = mat([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(m.column(1), [2.0, 4.0, 6.0])
        sub = m.take_rows(np.array([2, 0]))
        np.testing.assert_array_equal(sub.values, [[5.0, 6.0], [1.0, 2.0]])
        assert sub.item_ids == m.item_ids


class TestItemWeights:
    def test_valid(self):
        w = ItemWeights(np.array([2.0, 1.0]))
        np.testing.assert_array_equal(w.weights, [2.0, 1.0])
        assert w.d == 2

    @pytest.mark.parametrize("bad", [[0.0, 1.0], [-1.0, 1.0], [np.nan, 1.0], [np.inf, 1.0]])
    def test_nonpositive_or_nonfinite_rejected(self, bad):
        with pytest.raises(InvalidConfig):
            ItemWeights(np.asarray(bad, dtype=float))

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            ItemWeights(np.zeros(0))


class TestAlignmentConfig:
    def test_defaults(self):
        c = AlignmentConfig(n_is_candidates=100, n_final=50, seed=0)
        assert c.bandwidth == 0.20
        assert c.retain_fraction == 0.70
        assert c.epsilon == 0.08
        assert c.sinkhorn_iters == 250
        assert c.sinkhorn_tol == 1e-6
        assert c.ot_batch_size == 10_000
        assert c.item_weights is None

    def test_final_exceeds_candidates(self):
        with pytest.raises(InvalidConfig):
            AlignmentConfig(n_is_candidates=10, n_final=11, seed=0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_is_candidates": 0},
            {"n_final": 0},
            {"bandwidth": 0.0},
            {"bandwidth": -0.1},
            {"retain_fraction": 0.0},
            {"retain_fraction": 1.0001},
            {"epsilon": 0.0},
            {"sinkhorn_iters": 0},
            {"sinkhorn_tol": 0.0},
            {"ot_batch_size": 0},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_invalid_fields(self, kw):
        base = dict(n_is_candidates=100, n_final=50, seed=0)
        base.update(kw)
        with pytest.raises(InvalidConfig):
            AlignmentConfig(**base)

    def test_retain_fraction_one_allowed(self):
        AlignmentConfig(n_is_candidates=10, n_final=5, seed=0, retain_fraction=1.0)


class TestValidatePool:
    def make_pool(self, n=3, d=5):
        rows = np.arange(n * d, dtype=float).reshape(n, d)
        personas = [
            PersonaRecord(id=f"p{i}", narrative=f"text {i}", response_row=i)
            for i in range(n)
        ]
        return personas, ResponseMatrix(rows)

    def test_valid_pool(self):
        personas, m = self.make_pool()
        pool = validate_pool(personas, m)
        assert isinstance(pool, ValidatedPool)
        assert [p.id for p in pool.personas] == ["p0", "p1", "p2"]
        assert pool.responses.n == 3
        assert pool.id_to_index == {"p0": 0, "p1": 1, "p2": 2}

    def test_idempotent(self):
        personas, m = self.make_pool()
        pool = validate_pool(personas, m)
        assert validate_pool(pool) is pool
        assert validate_pool(pool, m) is pool
        # a matrix equal by value keeps the pool too
        assert validate_pool(pool, m.values.copy()) is pool
        assert validate_pool(pool, ResponseMatrix(m.values.copy())) is pool

    def test_revalidation_honours_another_matrix(self):
        personas, m = self.make_pool()
        pool = validate_pool(personas, m)
        other = m.values + 1.0
        again = validate_pool(pool, other)
        assert again == validate_pool(personas, other)
        assert again.responses == ResponseMatrix(other)
        assert again.id_to_index == pool.id_to_index and again.row_to_id == pool.row_to_id
        # the same values under other item ids are another matrix
        named = validate_pool(pool, ResponseMatrix(m.values, tuple("abcde")))
        assert named.responses.item_ids == tuple("abcde")
        # the walk runs again: a matrix too short for a claimed row is refused
        with pytest.raises(DimensionMismatch, match="'p2' response_row 2"):
            validate_pool(pool, m.values[:2])

    def test_duplicate_id(self):
        personas, m = self.make_pool()
        personas[2] = PersonaRecord(id="u1")
        personas[1] = PersonaRecord(id="u1")
        with pytest.raises(DuplicateId) as exc:
            validate_pool(personas, m)
        assert exc.value.id == "u1"

    def test_row_out_of_range(self):
        personas, m = self.make_pool()
        personas[1] = PersonaRecord(id="p1", response_row=3)
        with pytest.raises(DimensionMismatch):
            validate_pool(personas, m)

    def test_shared_response_row(self):
        personas, m = self.make_pool()
        personas[2] = PersonaRecord(id="p2", response_row=0)
        with pytest.raises(DuplicateId):
            validate_pool(personas, m)

    def test_embedding_dim_consistency(self):
        personas, m = self.make_pool()
        personas = [
            PersonaRecord(id=p.id, response_row=p.response_row, embedding=np.ones(4))
            for p in personas
        ]
        validate_pool(personas, m)  # uniform dims fine
        personas[1] = PersonaRecord(id="p1", response_row=1, embedding=np.ones(3))
        with pytest.raises(DimensionMismatch):
            validate_pool(personas, m)

    @pytest.mark.parametrize("later", [
        PersonaRecord(id="p0"),  # a duplicate id
        PersonaRecord(id="p2", response_row=0),  # a shared row
        PersonaRecord(id="p2", response_row=2, embedding=np.ones(3)),  # another length
    ])
    def test_first_offender_in_list_order(self, later):
        personas, m = self.make_pool()
        personas[0] = PersonaRecord(id="p0", response_row=0, embedding=np.ones(4))
        personas[1] = PersonaRecord(id="p1", response_row=3)  # row out of range
        personas[2] = later
        with pytest.raises(DimensionMismatch, match="'p1' response_row 3"):
            validate_pool(personas, m)

    def test_rows_optional(self):
        # personas without response rows are legal; retrieval-only pools
        m = ResponseMatrix(np.ones((2, 3)))
        pool = validate_pool([PersonaRecord(id="a"), PersonaRecord(id="b")], m)
        assert len(pool.personas) == 2

    def test_row_to_id_skips_personas_without_rows(self):
        m = ResponseMatrix(np.ones((3, 2)))
        personas = [
            PersonaRecord(id="a", response_row=2),
            PersonaRecord(id="b"),
            PersonaRecord(id="c", response_row=0),
            PersonaRecord(id="d"),
        ]
        pool = validate_pool(personas, m)
        assert pool.row_to_id == {2: "a", 0: "c"}


class TestPersonaRecordSlots:
    """A record keeps its fields in slots: no instance dict, same behaviour."""

    def records(self):
        return [
            PersonaRecord(id="p", narrative="n", embedding=np.array([1.0, -0.0]),
                          response_row=3, seed_id="s"),
            PersonaRecord(id="q"),
        ]

    def test_no_instance_dict(self):
        for rec in self.records():
            assert not hasattr(rec, "__dict__")

    def test_pickle_round_trip(self):
        full, bare = self.records()
        for rec in (full, bare):
            back = pickle.loads(pickle.dumps(rec))
            assert type(back) is PersonaRecord
            assert back == rec
        assert pickle.loads(pickle.dumps(bare)) != full

    def test_deepcopy(self):
        rec = self.records()[0]
        dup = copy.deepcopy(rec)
        assert dup == rec
        assert dup.embedding is not rec.embedding

    def test_replace_runs_the_checks(self):
        rec = self.records()[0]
        moved = dataclasses.replace(rec, id="r", embedding=[2.0, 3.0])
        assert moved == PersonaRecord(id="r", narrative="n", embedding=np.array([2.0, 3.0]),
                                      response_row=3, seed_id="s")
        assert moved != rec
        assert not moved.embedding.flags.writeable
        with pytest.raises(InvalidConfig):
            dataclasses.replace(rec, id="")

    def test_signature_lists_the_fields(self):
        # the hand-written __init__ takes the fields, in order, with their defaults
        params = list(inspect.signature(PersonaRecord).parameters.values())
        empty = inspect.Parameter.empty
        want = [(f.name, empty if f.default is dataclasses.MISSING else f.default)
                for f in dataclasses.fields(PersonaRecord)]
        assert [(p.name, p.default) for p in params] == want
        assert want[0] == ("id", empty)
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)

    def test_assignment_refused(self):
        rec = self.records()[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.id = "r"
        # for a name that is no field, the generated __setattr__ of a slotted
        # class raises TypeError on Python 3.11, not FrozenInstanceError
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            rec.extra = 1
        assert not hasattr(rec, "extra")
        with pytest.raises(dataclasses.FrozenInstanceError):
            del rec.narrative
        assert rec.id == "p" and rec.narrative == "n"


class TestValueEquality:
    """== on the ndarray-carrying types compares arrays by value and never raises."""

    def test_response_matrix(self):
        a = np.arange(6.0).reshape(3, 2)
        assert ResponseMatrix(a) == ResponseMatrix(a.copy())
        assert ResponseMatrix(a) != ResponseMatrix(a + 1.0)
        assert ResponseMatrix(a) != ResponseMatrix(a.reshape(2, 3))
        assert ResponseMatrix(a) != ResponseMatrix(a, ("x", "y"))

    def test_persona_record(self):
        p = PersonaRecord(id="p", embedding=np.array([1.0, 2.0]), response_row=3)
        assert p == PersonaRecord(id="p", embedding=[1.0, 2.0], response_row=3)
        assert p != PersonaRecord(id="p", embedding=[1.0, 2.5], response_row=3)
        assert p != PersonaRecord(id="p", response_row=3)
        # a record without an embedding stays hashable
        assert hash(PersonaRecord(id="q")) == hash(PersonaRecord(id="q"))

    def test_item_weights(self):
        assert ItemWeights([1.0, 2.0]) == ItemWeights(np.array([1.0, 2.0]))
        assert ItemWeights([1.0, 2.0]) != ItemWeights([1.0, 3.0])
        assert ItemWeights([1.0, 2.0]) != ItemWeights([1.0, 2.0, 3.0])

    def test_validated_pool(self):
        personas = [PersonaRecord(id=f"p{i}", embedding=np.ones(2), response_row=i)
                    for i in range(3)]
        values = np.arange(6.0).reshape(3, 2)
        pool = validate_pool(personas, values)
        assert pool == validate_pool(list(personas), values.copy())
        assert pool != validate_pool(personas, values + 1.0)

    def test_other_types_compare_unequal(self):
        assert ResponseMatrix(np.ones((1, 1))) != np.ones((1, 1))
        assert ItemWeights([1.0]) != "weights"


class TestPersonaRecord:
    def test_minimal(self):
        p = PersonaRecord(id="x")
        assert p.narrative == ""
        assert p.embedding is None and p.response_row is None
        assert p.seed_id is None

    def test_blank_id_rejected(self):
        with pytest.raises(InvalidConfig):
            PersonaRecord(id="")

    def test_seed_id_provenance(self):
        p = PersonaRecord(id="g1", seed_id="p0")
        assert p.seed_id == "p0"

    def test_embedding_checks(self):
        rec = PersonaRecord(id="a", embedding=[1, 2])
        assert rec.embedding.dtype == np.float64 and not rec.embedding.flags.writeable
        with pytest.raises(DimensionMismatch):
            PersonaRecord(id="a", embedding=np.ones((2, 2)))
        with pytest.raises(NonFiniteValue, match="'a'"):
            PersonaRecord(id="a", embedding=[1.0, np.nan])


class TestSquaredDistanceBlocks:
    """One squared-distance kernel serves KDE, transport cost and MMD; a small
    element cap (and no row floor) forces several row strips, a ragged last
    strip, and (cap 1) single-row strips, and the tile side shrinks with it
    (1, 7 and 11 rows against 40), each checked against an unblocked
    oracle."""

    @pytest.fixture(params=[1, 7 * 40, 11 * 40])
    def small_cap(self, request, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_ELEMS", request.param)
        monkeypatch.setattr(core, "_BLOCK_MIN_ROWS", 1)
        monkeypatch.setattr(core, "_TILE", max(1, request.param // 40))

    def test_log_density_many_matches_per_row(self, small_cap):
        rng = np.random.default_rng(40)
        model = fit_kde(rng.normal(size=(40, 3)), 0.5)
        X = rng.normal(size=(30, 3))
        want = np.array([log_density(model, x) for x in X])
        np.testing.assert_allclose(log_density_many(model, X), want, rtol=0, atol=1e-11)

    def test_cost_matrix_matches_broadcast(self, small_cap):
        rng = np.random.default_rng(41)
        X, Y = rng.normal(size=(30, 4)), rng.normal(size=(40, 4))
        w = rng.uniform(0.5, 2.0, size=4)
        want = (w * (X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
        C = cost_matrix(X, Y, ItemWeights(w))
        np.testing.assert_allclose(C.values, want, rtol=0, atol=1e-12)
        assert C.median_cost == float(np.median(C.values))

    def test_median_heuristic_matches_pdist(self, small_cap):
        rng = np.random.default_rng(42)
        X, Y = rng.normal(size=(17, 3)), rng.normal(loc=0.5, size=(23, 3))
        sigma = metric_report(X, Y).settings["mmd_bandwidth"]
        assert sigma == pytest.approx(float(np.median(pdist(np.vstack([X, Y])))), rel=1e-12)

    def test_symmetric_blocks_match_cross_blocks_on_a_copy(self, small_cap):
        # without Y the tiles are X's own upper ones; with a copy, full strips
        rng = np.random.default_rng(43)
        X = rng.normal(loc=50.0, size=(40, 4))
        w = rng.uniform(0.5, 2.0, size=4)
        for weights, scale in ((None, 1.0), (w, -0.7)):
            blocks = core._sq_dist_blocks(core._sq_dist_operands(X, X.copy(), weights, scale))
            full = np.vstack([D.copy() for _lo, _hi, D in blocks])
            sym = np.full_like(full, np.nan)
            for rows, cols, D in core._self_tiles(core._sq_dist_operands(X, None, weights, scale)):
                assert D.shape == (rows.stop - rows.start, cols.stop - cols.start)
                assert max(D.shape) <= core._TILE and cols.start >= rows.start
                assert np.isnan(sym[rows, cols]).all()  # each tile once
                sym[rows, cols] = D
            # the tiles cover the upper triangle (and their own diagonal squares)
            covered = ~np.isnan(sym)
            assert covered[np.triu_indices(40)].all()
            np.testing.assert_allclose(sym[covered], full[covered], rtol=0, atol=1e-12)

    def test_stripes_split_the_walk(self, small_cap):
        # the two stripes hold every tile row (or row strip) once, each with
        # the bits of the whole walk (copied: each block reuses one buffer)
        X = np.random.default_rng(49).normal(size=(40, 3))
        self_ops, cross_ops = core._sq_dist_operands(X), core._sq_dist_operands(X, X[::2])
        for walk, ops in ((core._self_tiles, self_ops), (core._sq_dist_blocks, cross_ops)):
            whole = {(repr(a), repr(b)): D.copy() for a, b, D in walk(ops)}
            parts = [
                {(repr(a), repr(b)): D.copy() for a, b, D in walk(ops, stripe=s)} for s in (0, 1)
            ]
            assert not parts[0].keys() & parts[1].keys()
            assert parts[0].keys() | parts[1].keys() == whole.keys()
            for part in parts:
                for key, D in part.items():
                    assert np.array_equal(D, whole[key])

    def test_self_query_kde_matches_cross_path(self, small_cap):
        rng = np.random.default_rng(44)
        model = fit_kde(rng.normal(loc=50.0, size=(40, 3)), 0.4)
        S = model.samples.values
        np.testing.assert_allclose(
            log_density_many(model, model.samples), log_density_many(model, S.copy()),
            rtol=0, atol=1e-12,
        )

    def test_self_kernel_mean_matches_cross_path(self, small_cap):
        A = np.random.default_rng(45).normal(loc=50.0, size=(40, 3))
        got = metrics._kernel_mean(A, A, 0.3)
        assert got == pytest.approx(metrics._kernel_mean(A, A.copy(), 0.3), rel=1e-13)

    @pytest.mark.parametrize("n_cols", [100, 50_000])
    def test_block_height(self, n_cols):
        # 1 MB strips, but never fewer than _BLOCK_MIN_ROWS rows
        X, Y = np.zeros((100, 2)), np.zeros((n_cols, 2))
        heights = {hi - lo for lo, hi, _D in core._sq_dist_blocks(core._sq_dist_operands(X, Y))}
        want = max(core._BLOCK_MIN_ROWS, core._BLOCK_ELEMS // n_cols)
        assert max(heights) == min(want, 100)

    @pytest.mark.parametrize("n", [core._TILE - 1, core._TILE, core._TILE + 1, 2 * core._TILE + 1])
    def test_dense_kde_around_the_tile_side(self, n):
        # the self-query's last tile row is full, ragged or a single row
        rng = np.random.default_rng(n)
        model = fit_kde(rng.normal(size=(n, 4)), 0.5)
        want = np.array([log_density(model, x) for x in model.samples.values])
        np.testing.assert_allclose(log_density_many(model, model.samples), want,
                                   rtol=0, atol=1e-12)


class TestFlooredExp:
    """core._floored_exp: arguments below _EXP_FLOOR take exp's fast path,
    and every sum they enter keeps its bits."""

    @staticmethod
    def _unfloored(monkeypatch):
        monkeypatch.setattr(core, "_EXP_FLOOR", -np.inf)

    def test_floors_then_exponentiates_in_place(self):
        K = np.array([[0.0, -1.0, -699.0, -708.0, -750.0, -1e300]])
        out = core._floored_exp(K)
        assert out is K
        floor = np.exp(core._EXP_FLOOR)
        assert 0.0 < floor < 1e-304
        np.testing.assert_array_equal(
            K, [[1.0, np.exp(-1.0), np.exp(-699.0), floor, floor, floor]]
        )

    def test_the_probe_grid_decides(self):
        # a far entry off the probe grid is left to exp (which gives 0 at
        # -750); one on the grid floors the whole block
        off, on = np.full((32, 32), -1.0), np.full((32, 32), -1.0)
        off[1, 1] = on[1, 1] = -750.0
        on[0, 0] = -750.0
        core._floored_exp(off)
        core._floored_exp(on)
        assert off[1, 1] == 0.0
        assert on[0, 0] == on[1, 1] == np.exp(core._EXP_FLOOR)
        assert off[0, 0] == on[2, 2] == np.exp(-1.0)

    def test_far_queries_keep_their_bits(self, monkeypatch):
        # most kernel terms of these rows lie below the floor
        rng = np.random.default_rng(50)
        model = fit_kde(rng.normal(size=(300, 2)), 0.05)
        X = np.vstack([rng.normal(size=(100, 2)), rng.normal(size=(20, 2)) * 30.0])
        floored = log_density_many(model, X)
        self_floored = log_density_many(model, model.samples)
        self._unfloored(monkeypatch)
        assert np.array_equal(floored, log_density_many(model, X))
        assert np.array_equal(self_floored, log_density_many(model, model.samples))

    @pytest.mark.parametrize("seed", [51, 52])
    def test_heavy_tails_keep_their_bits(self, seed, monkeypatch):
        # Student-t(1) samples: the d=1 transform's dense tail fallback, a
        # dense self-query and MMD at a tight bandwidth all meet arguments
        # far below the floor
        rng = np.random.default_rng(seed)
        pool = rng.standard_t(1, size=(2000, 1))
        ref = rng.standard_t(1, size=(600, 1))
        human, persona = fit_kde(ref, 0.05), fit_kde(pool[:400], 0.05)
        runs = []
        for _ in range(2):
            runs.append((
                log_density_many(human, pool),
                log_density_many(persona, persona.samples),
                metrics.mmd(pool[:500], ref, kernel_bandwidth=0.02),
            ))
            self._unfloored(monkeypatch)
        (h0, p0, m0), (h1, p1, m1) = runs
        assert np.array_equal(h0, h1) and np.array_equal(p0, p1)
        assert m0 == m1


OFFSETS = [0.0, 50.0, 1e3]


class TestCentredDistances:
    """The blocks are centred, so data far from the origin (T-scores sit near
    50) keep the dense KDE and the cost matrix within 1e-12 of direct
    differences; an uncentred expansion is off by 3e-8 at offset 1e3."""

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_dense_kde_matches_per_row(self, offset):
        rng = np.random.default_rng(46)
        model = fit_kde(offset + rng.normal(size=(1500, 5)), 0.3)
        X = offset + rng.normal(scale=1.2, size=(200, 5))
        want = np.array([log_density(model, x) for x in X])
        np.testing.assert_allclose(log_density_many(model, X), want, rtol=0, atol=1e-12)
        # the self-query path, over every fitting row
        S = model.samples.values
        want = np.array([log_density(model, x) for x in S])
        np.testing.assert_allclose(log_density_many(model, model.samples), want,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("offset", OFFSETS)
    def test_cost_matrix_matches_broadcast(self, offset, weighted):
        rng = np.random.default_rng(47)
        X = offset + rng.normal(size=(300, 5))
        Y = offset + rng.normal(size=(200, 5))
        w = rng.uniform(0.5, 2.0, size=5) if weighted else np.ones(5)
        want = (w * (X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
        C = cost_matrix(X, Y, ItemWeights(w) if weighted else None)
        np.testing.assert_allclose(C.values, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("as_matrix", [False, True])
    def test_self_cost_matrix_matches_broadcast(self, as_matrix):
        # one operand passed twice, as an array or a ResponseMatrix, still
        # gets the full square; 400 rows are more than one block
        X = 50.0 + np.random.default_rng(48).normal(size=(400, 5))
        want = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        Z = ResponseMatrix(X) if as_matrix else X
        np.testing.assert_allclose(cost_matrix(Z, Z).values, want, rtol=0, atol=1e-12)

    def test_overflowing_norms_rejected(self):
        # (1e200)^2 overflows, and the expansion would hold inf - inf = nan
        with pytest.raises(NonFiniteValue, match="overflow"):
            cost_matrix(np.array([[1e200]]), np.array([[0.0], [1.0]]))

    # samples on a 2^-30 grid within [-4, 4] and shifts on the same grid up
    # to 2^10, so the shifted data are exact (41 bits) and only the kernel
    # rounds; their squares are not, so an uncentred expansion does
    GRID = st.integers(-(2**32), 2**32).map(lambda k: k / 2.0**30)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_common_shift_moves_nothing(self, data):
        d = data.draw(st.integers(1, 3))
        n, m = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        S = np.array(data.draw(st.lists(self.GRID, min_size=n * d, max_size=n * d))).reshape(n, d)
        Q = np.array(data.draw(st.lists(self.GRID, min_size=m * d, max_size=m * d))).reshape(m, d)
        c = np.array(data.draw(st.lists(
            st.integers(-(2**40), 2**40).map(lambda k: k / 2.0**30), min_size=d, max_size=d
        )))
        h = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
        base, moved = fit_kde(S, h), fit_kde(S + c, h)
        np.testing.assert_allclose(
            log_density_many(moved, Q + c), log_density_many(base, Q), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            log_density_many(moved, moved.samples), log_density_many(base, base.samples),
            rtol=0, atol=1e-12,
        )
        np.testing.assert_allclose(
            cost_matrix(Q + c, S + c).values, cost_matrix(Q, S).values, rtol=0, atol=1e-12
        )


class TestFiniteValues:
    """core._finite_values: the one coercion and finiteness gate."""

    def test_response_matrix_passes_its_values(self):
        m = mat([[1.0, 2.0]])
        assert core._finite_values(m, "sample") is m.values

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_row_and_column(self, bad):
        X = np.zeros((4, 3))
        X[2, 1] = bad
        with pytest.raises(NonFiniteValue) as exc:
            core._finite_values(X, "sample")
        assert (exc.value.row, exc.value.col) == (2, 1)
        assert "row 2, column 1" in str(exc.value)

    def test_one_dimensional_names_column(self):
        with pytest.raises(NonFiniteValue) as exc:
            core._finite_values([0.0, np.nan], "query", ndim=1)
        assert (exc.value.row, exc.value.col) == (None, 1)

    def test_wrong_ndim(self):
        with pytest.raises(DimensionMismatch):
            core._finite_values(np.zeros(3), "sample")


class TestPivotPairs:
    """core._pivot_pairs draws once per (n, m) and hands out read-only arrays."""

    @pytest.mark.parametrize("n, m", [(2, 1), (3816, 1000), (3000, 2999)])
    def test_cached_draw_equals_a_fresh_one(self, n, m):
        core._pivot_pairs(n, m)
        cached = core._pivot_pairs(n, m)
        fresh = core._pivot_pairs.__wrapped__(n, m)
        for got, want in zip(cached, fresh):
            assert got.dtype == want.dtype == np.int32
            np.testing.assert_array_equal(got, want)
        assert core._pivot_pairs(n, m)[0] is cached[0]

    def test_read_only(self):
        i, j = core._pivot_pairs(50, 49)
        assert not i.flags.writeable and not j.flags.writeable
        with pytest.raises(ValueError):
            j += j >= i

    def test_calls_never_mutate_them(self):
        rng = np.random.default_rng(46)
        Z1, Z5, C = rng.normal(size=(300, 1)), rng.normal(size=(300, 5)), rng.random((300, 299))
        before = [a.copy() for a in core._pivot_pairs(300, 299)]
        core._pair_sample(Z1)
        core._pair_sample(Z5)
        core._median_pairwise_distance(Z5)
        assert core._array_median(C) == np.median(C)
        for got, want in zip(core._pivot_pairs(300, 299), before):
            np.testing.assert_array_equal(got, want)

    def test_reports_drawing_at_once_give_the_serial_bits(self, monkeypatch):
        # two metric reports over the same pooled shape, their first draw
        # made by both threads at once
        rng = np.random.default_rng(47)
        X, Y = rng.standard_t(3, size=(900, 1)), rng.standard_t(3, size=(1100, 1))
        X5, Y5 = rng.normal(size=(700, 5)), rng.normal(size=(600, 5)) + 0.2
        serial = [metric_report(X, Y, seed=1).to_record(),
                  metric_report(X5, Y5, seed=2).to_record()]
        monkeypatch.setattr(parallel, "_workers", lambda: 2)
        for _ in range(3):
            core._pivot_pairs.cache_clear()
            both = parallel.run_pair(
                lambda: metric_report(X, Y, seed=1).to_record(),
                lambda: metric_report(X5, Y5, seed=2).to_record(),
            )
            assert list(both) == serial
            core._pivot_pairs.cache_clear()
            same = parallel.run_pair(
                lambda: metric_report(X, Y, seed=1).to_record(),
                lambda: metric_report(X.copy(), Y.copy(), seed=1).to_record(),
            )
            assert list(same) == [serial[0], serial[0]]


def test_import_loads_no_scipy():
    # scipy serves only the two oracles, kde.log_density and ot.exact_ot_small,
    # which import it when called
    src = str(Path(core.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, popalign; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
